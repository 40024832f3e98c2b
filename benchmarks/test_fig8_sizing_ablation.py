"""Bench: regenerate Fig 8 — NAAS vs architectural-sizing-only search.

Paper: adding connectivity + mapping search to plain sizing yields a
further 1.42x-3.52x EDP reduction. Asserted shape: NAAS's EDP reduction
exceeds the sizing-only reduction on every (network, scenario) case.
"""

from benchmarks.conftest import run_and_check


def test_fig8_sizing_ablation(benchmark):
    result = run_and_check(benchmark, "fig8")
    for row in result.rows:
        network, scenario, sizing_red, naas_red = row[:4]
        assert naas_red > sizing_red, (network, scenario)
