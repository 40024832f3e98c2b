"""Shared plumbing for the benchmark suite.

Each benchmark regenerates one of the paper's tables/figures via the
experiment registry, prints the paper-style table, persists it under
``benchmarks/results/`` (the inputs to EXPERIMENTS.md) without the
run's timings, so that a rerun on an unchanged tree rewrites each file
byte for byte, and asserts the experiment's qualitative claims.
pytest-benchmark records the wall-clock of the full experiment
(rounds=1 — these are minutes-scale searches, not microbenchmarks).

Profile selection: set ``REPRO_PROFILE=quick|full|paper`` (default quick).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import run_experiment
from repro.experiments.runner import ExperimentResult

RESULTS_DIR = Path(__file__).parent / "results"


def run_and_check(benchmark, name: str, seed: int = 0) -> ExperimentResult:
    """Run one experiment under pytest-benchmark and verify its claims."""
    result_box = {}

    def target():
        result_box["result"] = run_experiment(name, seed=seed)
        return result_box["result"]

    benchmark.pedantic(target, rounds=1, iterations=1)
    result: ExperimentResult = result_box["result"]

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(
        result.render(timing=False) + "\n")

    print()
    print(result.render())
    failed = [claim for claim, holds in result.claims.items() if not holds]
    assert not failed, f"{name}: failed claims: {failed}"
    return result


@pytest.fixture
def record_result():
    return run_and_check
