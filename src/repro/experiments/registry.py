"""Registry mapping experiment ids to their run functions."""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.errors import ReproError
from repro.experiments import (
    fig4_convergence,
    fig5_multi_network,
    fig6_per_network,
    fig7_case_studies,
    fig8_sizing_ablation,
    fig9_encoding_ablation,
    fig10_joint_nas,
    table3_nasaic,
    table4_search_cost,
)
from repro.experiments.runner import ExperimentResult

EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "fig4": fig4_convergence.run,
    "fig5": fig5_multi_network.run,
    "fig6": fig6_per_network.run,
    "fig7": fig7_case_studies.run,
    "fig8": fig8_sizing_ablation.run,
    "fig9": fig9_encoding_ablation.run,
    "fig10": fig10_joint_nas.run,
    "table3": table3_nasaic.run,
    "table4": table4_search_cost.run,
}


def run_experiment(name: str, profile: str = "",
                   seed: int = 0, workers: int = 1,
                   cache_dir: Optional[str] = None,
                   eval_timeout: Optional[float] = None) -> ExperimentResult:
    """Run one experiment by id (``fig4`` ... ``table4``).

    ``workers`` fans candidate evaluations out per generation; results
    are bit-identical at any worker count. ``cache_dir`` persists
    mapping-search results across runs (see
    :mod:`repro.search.diskcache`), so re-running an experiment with the
    same seed and profile reuses its evaluations. ``eval_timeout``
    bounds any one dispatched evaluation before inline fallback (see
    :mod:`repro.search.transport`).
    """
    try:
        runner = EXPERIMENTS[name]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ReproError(
            f"unknown experiment {name!r}; known: {known}") from None
    return runner(profile=profile, seed=seed, workers=workers,
                  cache_dir=cache_dir, eval_timeout=eval_timeout)
