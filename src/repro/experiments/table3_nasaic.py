"""Table III: NAAS (accelerator only) vs NASAIC under equal constraints.

NASAIC composes a heterogeneous DLA + ShiDianNao accelerator and only
searches resource allocation; NAAS searches a single accelerator's full
architecture and mapping. Both run the same CIFAR-scale network under
the same total resource budget. The paper reports NAAS 1.88x better EDP
(3.75x latency at ~2x energy); accuracy columns are NASAIC's published
values, carried over as constants (hardware search does not alter them).
"""

from __future__ import annotations

from typing import Optional

from repro.accelerator.constraints import ResourceConstraint
from repro.baselines.nasaic import search_nasaic
from repro.cost.model import CostModel
from repro.experiments.config import get_profile
from repro.experiments.runner import ExperimentResult, Stopwatch
from repro.models import build_model
from repro.search.accelerator_search import search_accelerator
from repro.utils.rng import ensure_rng

#: Total budget shared by both approaches (NASAIC-scale: DLA-class array
#: plus a ShiDianNao-class array).
TABLE3_CONSTRAINT = ResourceConstraint(
    max_pes=1280,
    max_onchip_bytes=768 * 1024,
    max_dram_bandwidth=64,
    name="nasaic-total",
)

#: NASAIC's published Cifar-10 accuracies (constants in the table).
NASAIC_DLA_ACCURACY = 93.2
NASAIC_SHI_ACCURACY = 91.1

PAPER_ROWS = (
    ("NASAIC (paper)", "DLA+Shi", 3e5, 1e9, 3e14),
    ("NAAS (paper)", "DLA", 8e4, 2e9, 2e14),
)


def run(profile: str = "", seed: int = 0, workers: int = 1,
        cache_dir: Optional[str] = None,
        eval_timeout: Optional[float] = None,
        ) -> ExperimentResult:
    """Run both searches on the CIFAR net and compare latency/energy/EDP."""
    budgets = get_profile(profile)
    rng = ensure_rng(seed)
    cost_model = CostModel()
    network = build_model("nasaic_cifar_net")

    with Stopwatch() as watch:
        nasaic = search_nasaic(network, TABLE3_CONSTRAINT, cost_model)
        naas = search_accelerator(
            [network], TABLE3_CONSTRAINT, cost_model, budget=budgets.naas,
            seed=rng, workers=workers, cache_dir=cache_dir,
            eval_timeout=eval_timeout)

    naas_cost = naas.network_costs[network.name]
    rows = [
        ("NASAIC (ours)", "DLA+Shi heterogeneous",
         f"{NASAIC_DLA_ACCURACY}/{NASAIC_SHI_ACCURACY}",
         nasaic.cycles, nasaic.energy_nj, nasaic.edp),
        ("NAAS (ours)",
         naas.best_config.describe() if naas.best_config else "-",
         f"{NASAIC_DLA_ACCURACY}",
         naas_cost.total_cycles, naas_cost.total_energy_nj, naas_cost.edp),
    ]
    for name, arch, latency, energy, edp in PAPER_ROWS:
        rows.append((name, arch, "93.2/91.1" if "NASAIC" in name else "93.2",
                     latency, energy, edp))

    claims = {
        "NAAS achieves lower EDP than NASAIC": naas_cost.edp < nasaic.edp,
        "NAAS achieves lower latency than NASAIC":
            naas_cost.total_cycles < nasaic.cycles,
        "NASAIC allocation search found a valid design": nasaic.found,
    }
    result = ExperimentResult(
        experiment="Table III: NAAS vs NASAIC (same constraints)",
        headers=["approach", "architecture", "Cifar-10 acc",
                 "latency (cycles)", "energy (nJ)", "EDP (cycles*nJ)"],
        rows=rows,
        claims=claims,
        details={
            "edp_ratio_nasaic_over_naas": nasaic.edp / naas_cost.edp,
            "latency_ratio": nasaic.cycles / naas_cost.total_cycles,
            "nasaic_candidates": nasaic.candidates_evaluated,
            "dispatch": nasaic.dispatch,
        },
    )
    result.seconds = watch.elapsed
    return result
