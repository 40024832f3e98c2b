"""Fig 10: accuracy vs normalized EDP on the Eyeriss-resource scenario.

Four points, as in the paper:

1. **Eyeriss + ResNet-50** — the reference design running the reference
   network (tuned mappings), EDP normalized to 1.
2. **NHAS** — neural + sizing co-search on the fixed-dataflow template.
3. **NAAS (accelerator-compiler)** — hardware + mapping search with the
   network fixed to ResNet-50 (paper: 3.01x better EDP than NHAS).
4. **NAAS (accelerator-compiler-NN)** — the full joint search (paper:
   4.88x total EDP gain and +2.7% top-1 over point 1).
"""

from __future__ import annotations

from typing import Optional

from repro.accelerator.presets import baseline_preset
from repro.baselines.nhas import search_nhas
from repro.cost.model import CostModel
from repro.experiments.common import baseline_costs, scenario_constraint
from repro.experiments.config import get_profile
from repro.experiments.runner import ExperimentResult, Stopwatch
from repro.nas.accuracy import AccuracyPredictor
from repro.nas.joint import JointBudget, search_joint
from repro.nas.ofa_space import OFAResNetSpace
from repro.nas.subnet import build_subnet
from repro.search.accelerator_search import search_accelerator
from repro.utils.rng import ensure_rng

SCENARIO_PRESET = "eyeriss"
#: Pre-defined accuracy requirement for the co-searches (§II-C). The
#: paper's joint point lands at 79.0% (+2.7 over ResNet-50); with our
#: predictor's ceiling at ~79.0 we require +2.4 so the admissible set is
#: not a single architecture.
ACCURACY_FLOOR = 78.5
#: Accuracy gain the joint search must demonstrate over ResNet-50.
MIN_ACCURACY_GAIN = 2.0

#: Paper's Fig 10 values for reference.
PAPER = {
    "eyeriss_resnet50": {"accuracy": 76.3, "norm_edp": 1.0},
    "nhas": {"accuracy": 78.2, "norm_edp": 1.0 / 1.62},
    "naas_accel": {"accuracy": 76.3, "norm_edp": 1.0 / (1.62 * 3.01)},
    "naas_joint": {"accuracy": 79.0, "norm_edp": 1.0 / 4.88},
}


def run(profile: str = "", seed: int = 0, workers: int = 1,
        cache_dir: Optional[str] = None,
        eval_timeout: Optional[float] = None,
        ) -> ExperimentResult:
    """Produce the four (accuracy, normalized EDP) points."""
    budgets = get_profile(profile)
    rng = ensure_rng(seed)
    cost_model = CostModel()
    predictor = AccuracyPredictor()
    space = OFAResNetSpace()
    constraint = scenario_constraint(SCENARIO_PRESET)
    preset = baseline_preset(SCENARIO_PRESET)

    resnet_arch = space.resnet50_like()
    resnet = build_subnet(resnet_arch)
    resnet_accuracy = predictor(resnet_arch)

    with Stopwatch() as watch:
        # Point 1: reference hardware, reference network, native compiler.
        base_edp = baseline_costs(
            SCENARIO_PRESET, [resnet], cost_model)[resnet.name].edp

        # Point 2: NHAS (NN + sizing co-search, fixed dataflow/mapping).
        nhas = search_nhas(
            constraint, preset, cost_model, accuracy_floor=ACCURACY_FLOOR,
            network_population=budgets.nas.population,
            network_iterations=max(1, budgets.nas.iterations - 1),
            sizing_population=budgets.sizing_population,
            sizing_iterations=budgets.sizing_iterations, seed=rng,
            predictor=predictor)

        # Point 3: NAAS accelerator+mapping search, fixed ResNet-50.
        accel_only = search_accelerator(
            [resnet], constraint, cost_model, budget=budgets.naas, seed=rng,
            seed_configs=[preset], workers=workers, cache_dir=cache_dir,
            eval_timeout=eval_timeout)

        # Point 4: full joint search.
        joint = search_joint(
            constraint, cost_model, accuracy_floor=ACCURACY_FLOOR,
            seed_configs=(preset,),
            budget=JointBudget(
                accel_population=budgets.naas.accel_population,
                accel_iterations=max(2, budgets.naas.accel_iterations - 1),
                nas=budgets.nas, mapping=budgets.naas.mapping),
            seed=rng, predictor=predictor, workers=workers,
            cache_dir=cache_dir, eval_timeout=eval_timeout)

    def normalized(edp: float) -> float:
        return edp / base_edp

    rows = [
        ("Eyeriss + ResNet50", resnet_accuracy, 1.0,
         PAPER["eyeriss_resnet50"]["accuracy"],
         PAPER["eyeriss_resnet50"]["norm_edp"]),
        ("NHAS (NN + sizing)", nhas.best_accuracy,
         normalized(nhas.best_edp),
         PAPER["nhas"]["accuracy"], PAPER["nhas"]["norm_edp"]),
        ("NAAS (accel-compiler)", resnet_accuracy,
         normalized(accel_only.best_reward),
         PAPER["naas_accel"]["accuracy"], PAPER["naas_accel"]["norm_edp"]),
        ("NAAS (accel-compiler-NN)", joint.best_accuracy,
         normalized(joint.best_edp),
         PAPER["naas_joint"]["accuracy"], PAPER["naas_joint"]["norm_edp"]),
    ]

    claims = {
        "NAAS (accel only) improves EDP over the Eyeriss reference":
            accel_only.best_reward < base_edp,
        "NAAS (accel only) beats NHAS on EDP":
            accel_only.best_reward < nhas.best_edp,
        "joint search gains accuracy over ResNet-50 (paper: +2.7%)":
            joint.best_accuracy >= resnet_accuracy + MIN_ACCURACY_GAIN,
        "joint search improves EDP over the Eyeriss reference":
            joint.best_edp < base_edp,
    }
    result = ExperimentResult(
        experiment="Fig 10: accuracy vs normalized EDP (joint co-search)",
        headers=["design point", "top-1 acc (%)", "normalized EDP",
                 "paper acc", "paper norm EDP"],
        rows=rows,
        claims=claims,
        details={
            "joint_arch": (joint.best_arch.describe()
                           if joint.best_arch else None),
            "joint_config": (joint.best_config.describe()
                             if joint.best_config else None),
            "accel_only_config": (accel_only.best_config.describe()
                                  if accel_only.best_config else None),
            "nhas_arch": nhas.best_arch.describe() if nhas.best_arch else None,
        },
    )
    result.seconds = watch.elapsed
    return result
