"""Tests for the experiment plumbing (profiles, registry, result record).

Experiment *content* is exercised by the benchmark suite; here we test
the machinery plus one tiny end-to-end run.
"""

import pytest

from repro.errors import ReproError
from repro.experiments import EXPERIMENTS, get_profile, run_experiment
from repro.experiments.config import PROFILE_ENV_VAR
from repro.experiments.runner import ExperimentResult, Timed


class TestProfiles:
    def test_known_profiles(self):
        for name in ("quick", "full", "paper"):
            profile = get_profile(name)
            assert profile.name == name

    def test_default_is_quick(self, monkeypatch):
        monkeypatch.delenv(PROFILE_ENV_VAR, raising=False)
        assert get_profile().name == "quick"

    def test_env_var_override(self, monkeypatch):
        monkeypatch.setenv(PROFILE_ENV_VAR, "full")
        assert get_profile().name == "full"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(PROFILE_ENV_VAR, "full")
        assert get_profile("quick").name == "quick"

    def test_unknown_raises(self):
        with pytest.raises(ReproError):
            get_profile("turbo")

    def test_budgets_ordered(self):
        quick = get_profile("quick")
        paper = get_profile("paper")
        assert quick.naas.accel_population < paper.naas.accel_population
        assert quick.mapping.total_samples < paper.mapping.total_samples


class TestRegistry:
    def test_covers_every_figure_and_table(self):
        assert set(EXPERIMENTS) == {
            "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
            "table3", "table4"}

    def test_unknown_experiment_raises(self):
        with pytest.raises(ReproError):
            run_experiment("fig99")


class TestResultRecord:
    def test_render_contains_claims(self):
        result = ExperimentResult(
            experiment="demo", headers=["a"], rows=[[1]],
            claims={"it works": True, "it fails": False})
        text = result.render()
        assert "[x] it works" in text
        assert "[ ] it fails" in text
        assert not result.all_claims_hold

    def test_render_without_timing_depends_on_content_only(self):
        def result(seconds):
            return ExperimentResult(
                experiment="demo", headers=["a"], rows=[[1]],
                claims={"ok": True}, seconds=seconds)
        assert result(1.25).render().startswith("== demo (1.2s) ==")
        assert result(1.25).render(timing=False) == result(
            7.5).render(timing=False)
        assert result(1.25).render(timing=False).startswith("== demo ==\n")

    def test_timed_cells_are_left_out_without_timing(self):
        result = ExperimentResult(
            experiment="demo", headers=["approach", "cost"],
            rows=[["published", 1.5], ["measured", Timed(3e-05)]],
            claims={})
        assert "3.000e-05" in result.render()
        text = result.render(timing=False)
        assert "3.000e-05" not in text and "(timed)" in text
        assert "1.5" in text

    def test_markdown_render(self):
        result = ExperimentResult(
            experiment="demo", headers=["a"], rows=[[1]],
            claims={"ok": True})
        md = result.render_markdown()
        assert md.startswith("### demo")
        assert "PASS: ok" in md


@pytest.mark.slow
class TestEndToEnd:
    def test_table4_runs(self):
        """The cheapest experiment end-to-end (includes one real search)."""
        result = run_experiment("table4", profile="quick", seed=0)
        assert result.all_claims_hold
        assert len(result.rows) == 4
