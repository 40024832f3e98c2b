"""Fig 7: what NAAS actually designs for different nets and budgets.

The paper showcases three searched architectures: (a) a 2-D K/X'
parallel array for ResNet under Eyeriss resources, (b) a 2-D C/X' array
for VGG16 under EdgeTPU resources, (c) a 3-D C/K/X' array for VGG16
under ShiDianNao resources — demonstrating that the connectivity search
produces *different dataflows*, not just different sizes. We rerun the
three scenarios and report our searched designs next to the paper's.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.cost.model import CostModel
from repro.experiments.common import scenario_constraint
from repro.accelerator.presets import baseline_preset
from repro.experiments.config import get_profile
from repro.experiments.runner import ExperimentResult, Stopwatch
from repro.models import build_model
from repro.search.accelerator_search import search_accelerator
from repro.utils.rng import ensure_rng

#: (label, network, preset, paper's searched design)
CASES: Tuple[Tuple[str, str, str, str], ...] = (
    ("(a)", "resnet50", "eyeriss",
     "18x10 array, K-X parallel, L1 496 B, L2 107 KB"),
    ("(b)", "vgg16", "edgetpu",
     "64x66 array, C-X parallel, L1 256 B, L2 7121 KB"),
    ("(c)", "vgg16", "shidiannao",
     "4x6x6 array, C-K-X parallel, L1 272 B, L2 320 KB"),
)


def run(profile: str = "", seed: int = 0, workers: int = 1,
        cache_dir: Optional[str] = None,
        eval_timeout: Optional[float] = None,
        ) -> ExperimentResult:
    """Re-search the three showcase scenarios and describe the designs."""
    budgets = get_profile(profile)
    rng = ensure_rng(seed)
    cost_model = CostModel()

    rows = []
    claims = {}
    details = {}
    dataflows = set()
    with Stopwatch() as watch:
        for label, network_name, preset_name, paper_design in CASES:
            network = build_model(network_name)
            constraint = scenario_constraint(preset_name)
            searched = search_accelerator(
                [network], constraint, cost_model, budget=budgets.naas,
                seed=rng, seed_configs=[baseline_preset(preset_name)],
                workers=workers, cache_dir=cache_dir,
                eval_timeout=eval_timeout)
            config = searched.best_config
            ours = config.describe() if config else "search failed"
            rows.append((label, f"{network_name} @ {preset_name}",
                         paper_design, ours))
            key = f"{label} {network_name}@{preset_name}"
            claims[f"{key}: search found a valid design"] = config is not None
            if config is not None:
                claims[f"{key}: design fits the resource budget"] = \
                    constraint.admits(config)
                dataflows.add(config.parallel_dims)
                details[key] = {
                    "config": ours,
                    "edp": searched.best_reward,
                    "array_dims": config.array_dims,
                    "parallel": [d.name for d in config.parallel_dims],
                }
    claims["searched designs are not all the same dataflow"] = \
        len(dataflows) >= 2

    result = ExperimentResult(
        experiment="Fig 7: searched architecture case studies",
        headers=["case", "scenario", "paper's design", "our design"],
        rows=rows,
        claims=claims,
        details=details,
    )
    result.seconds = watch.elapsed
    return result
