"""Fig 6: NAAS specialized per single network, all 5 resource scenarios.

Unlike Fig 5 (one accelerator per benchmark *set*), here NAAS tailors an
accelerator + mapping to each individual network under each baseline's
resource budget, so gains are larger. The paper shows 6 networks x 5
scenarios; the quick profile runs a representative subset (one large and
one mobile network per scenario) and the full/paper profiles run the
complete grid.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.cost.model import CostModel
from repro.experiments.common import (
    baseline_costs,
    gain_rows,
    scenario_constraint,
)
from repro.accelerator.presets import baseline_preset
from repro.experiments.config import get_profile
from repro.experiments.runner import ExperimentResult, Stopwatch
from repro.models import build_model
from repro.search.accelerator_search import search_accelerator
from repro.utils.rng import ensure_rng

ALL_SCENARIOS: Tuple[str, ...] = ("edgetpu", "nvdla_1024", "nvdla_256",
                                  "eyeriss", "shidiannao")
ALL_NETWORKS: Tuple[str, ...] = ("vgg16", "resnet50", "unet",
                                 "mobilenet_v2", "squeezenet", "mnasnet")

#: The subset used by the quick profile: one compute-heavy and one
#: mobile network per scenario keeps CI runtime in tens of seconds.
QUICK_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("edgetpu", "vgg16"),
    ("nvdla_1024", "resnet50"),
    ("nvdla_256", "mobilenet_v2"),
    ("eyeriss", "mobilenet_v2"),
    ("shidiannao", "squeezenet"),
)


def grid_for_profile(profile_name: str) -> List[Tuple[str, str]]:
    """Scenario/network pairs evaluated under the given profile."""
    if profile_name == "quick":
        return list(QUICK_PAIRS)
    return [(scenario, network) for scenario in ALL_SCENARIOS
            for network in ALL_NETWORKS]


def run(profile: str = "", seed: int = 0,
        pairs: Sequence[Tuple[str, str]] = (),
        workers: int = 1,
        cache_dir: Optional[str] = None,
        eval_timeout: Optional[float] = None,
        ) -> ExperimentResult:
    """Search per (scenario, network) pair; tabulate speedup / energy."""
    budgets = get_profile(profile)
    rng = ensure_rng(seed)
    cost_model = CostModel()
    selected = list(pairs) if pairs else grid_for_profile(budgets.name)

    rows = []
    claims: Dict[str, bool] = {}
    details = {}
    with Stopwatch() as watch:
        for preset_name, network_name in selected:
            network = build_model(network_name)
            baseline = baseline_costs(preset_name, [network], cost_model)
            searched = search_accelerator(
                [network], scenario_constraint(preset_name), cost_model,
                budget=budgets.naas, seed=rng,
                seed_configs=[baseline_preset(preset_name)],
                workers=workers, cache_dir=cache_dir,
                eval_timeout=eval_timeout)
            per_net, geo_speed, geo_energy, geo_edp = gain_rows(
                baseline, searched.network_costs)
            _, speedup, energy_saving, edp_reduction = per_net[0]
            rows.append((preset_name, network_name, speedup, energy_saving,
                         edp_reduction))
            claims[f"{preset_name}/{network_name}: EDP improves"] = \
                edp_reduction > 1.0
            details[f"{preset_name}/{network_name}"] = {
                "best_config": (searched.best_config.describe()
                                if searched.best_config else None),
                "speedup": speedup,
                "energy_saving": energy_saving,
            }
            del geo_speed, geo_energy, geo_edp  # single-net: same as row

    result = ExperimentResult(
        experiment="Fig 6: per-network NAAS vs baseline presets",
        headers=["scenario", "network", "speedup", "energy saving",
                 "EDP reduction"],
        rows=rows,
        claims=claims,
        details=details,
    )
    result.seconds = watch.elapsed
    return result
