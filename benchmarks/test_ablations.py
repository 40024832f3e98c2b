"""Benches for this reproduction's own design-choice ablations.

Not paper figures — these validate the engineering decisions DESIGN.md
calls out (warm-start seeding, inner-loop budget, cost-model rank
stability under calibration error).
"""

from pathlib import Path

from repro.experiments.ablations import ABLATIONS

RESULTS_DIR = Path(__file__).parent / "results"


def _run(benchmark, name: str):
    box = {}

    def target():
        box["result"] = ABLATIONS[name](seed=0)
        return box["result"]

    benchmark.pedantic(target, rounds=1, iterations=1)
    result = box["result"]
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"ablation_{name}.txt").write_text(
        result.render(timing=False) + "\n")
    print()
    print(result.render())
    failed = [c for c, ok in result.claims.items() if not ok]
    assert not failed, failed
    return result


def test_ablation_seeding(benchmark):
    _run(benchmark, "seeding")


def test_ablation_mapping_budget(benchmark):
    result = _run(benchmark, "budget")
    edps = result.details["edp_by_budget"]
    # more mapping search never hurts (small tolerance for ES noise)
    assert edps["8x5"] <= edps["1x1 (no search)"] * 1.05


def test_ablation_cost_params(benchmark):
    result = _run(benchmark, "cost_params")
    assert result.details["concordance"] >= 0.8
