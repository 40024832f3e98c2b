"""Pareto-front utilities for accuracy/EDP trade-off studies (Fig 10).

The paper reports single operating points; research users usually want
the whole accuracy-vs-EDP frontier. These helpers compute
non-dominated sets and sweep the joint search across accuracy floors to
trace the frontier.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional, Sequence, Tuple

from repro.accelerator.arch import AcceleratorConfig
from repro.cost.model import CostModel
from repro.nas.accuracy import AccuracyPredictor
from repro.nas.ofa_space import ResNetArch
from repro.nas.search import NASBudget, NASResult, search_architecture
from repro.search.cache import EvaluationCache
from repro.search.mapping_search import MappingSearchBudget
from repro.search.parallel import ParallelEvaluator
from repro.search.transport import Transport
from repro.utils.rng import SeedLike, ensure_rng, seed_entropy, spawn_rngs


@dataclasses.dataclass(frozen=True)
class FrontierPoint:
    """One (accuracy, EDP) operating point with its provenance."""

    accuracy: float
    edp: float
    label: str = ""
    arch: Optional[ResNetArch] = None

    def dominates(self, other: "FrontierPoint") -> bool:
        """Better-or-equal on both axes, strictly better on one."""
        at_least = self.accuracy >= other.accuracy and self.edp <= other.edp
        strictly = self.accuracy > other.accuracy or self.edp < other.edp
        return at_least and strictly


def pareto_front(points: Sequence[FrontierPoint]) -> List[FrontierPoint]:
    """Non-dominated subset, sorted by ascending EDP."""
    front = [p for p in points
             if not any(q.dominates(p) for q in points if q is not p)]
    # De-duplicate identical (accuracy, edp) pairs.
    seen = set()
    unique = []
    for point in sorted(front, key=lambda p: (p.edp, -p.accuracy)):
        key = (point.accuracy, point.edp)
        if key not in seen:
            seen.add(key)
            unique.append(point)
    return unique


def hypervolume(front: Sequence[FrontierPoint],
                reference: Tuple[float, float]) -> float:
    """2-D hypervolume (accuracy above ref, EDP below ref); larger = better.

    ``reference`` is (accuracy_floor, edp_ceiling). Standard quality
    indicator for comparing frontiers.
    """
    ref_acc, ref_edp = reference
    usable = sorted((p for p in pareto_front(front)
                     if p.accuracy >= ref_acc and p.edp <= ref_edp),
                    key=lambda p: p.edp)
    volume = 0.0
    prev_edp = ref_edp
    for point in sorted(usable, key=lambda p: -p.edp):
        volume += (prev_edp - point.edp) * max(0.0, point.accuracy - ref_acc)
        prev_edp = point.edp
    return volume


@dataclasses.dataclass(frozen=True)
class _FloorTask:
    """Picklable payload: one accuracy floor's full NAS run."""

    accel: AcceleratorConfig
    cost_model: CostModel
    accuracy_floor: float
    nas_budget: NASBudget
    mapping_budget: MappingSearchBudget
    entropy: int
    predictor: AccuracyPredictor


def _search_floor(task: _FloorTask,
                  cache: Optional[EvaluationCache]) -> NASResult:
    """ParallelEvaluator worker: run the NAS loop for one floor.

    The floor's run looks its mappings up in ``cache``, the cache of
    the process evaluating it: the coordinator's inline, or a pool
    worker's own for the sweep. Floors have pre-derived entropies, so
    sharing one cache changes only what a floor costs, never its
    result.
    """
    return search_architecture(
        task.accel, task.cost_model, accuracy_floor=task.accuracy_floor,
        budget=task.nas_budget, mapping_budget=task.mapping_budget,
        seed=task.entropy, predictor=task.predictor, workers=1,
        cache=cache)


def sweep_accuracy_frontier(accel: AcceleratorConfig,
                            cost_model: CostModel,
                            accuracy_floors: Sequence[float],
                            nas_budget: NASBudget = NASBudget(),
                            mapping_budget: MappingSearchBudget = (
                                MappingSearchBudget()),
                            seed: SeedLike = None,
                            predictor: Optional[AccuracyPredictor] = None,
                            workers: int = 1,
                            cache_dir: Optional[str] = None,
                            transport: Optional[Transport] = None,
                            eval_timeout: Optional[float] = None,
                            ) -> List[FrontierPoint]:
    """Trace the accuracy/EDP frontier on fixed hardware.

    Runs the NAS loop once per accuracy floor; each run contributes its
    best point. The returned list is the non-dominated subset.
    ``workers`` fans the (independent) per-floor runs out in parallel;
    per-floor seeds are batch-derived before any run starts, so every
    worker count returns the same frontier.
    ``cache_dir`` backs every floor's run with the shared persistent
    disk tier.
    """
    rng = ensure_rng(seed)
    predictor = predictor or AccuracyPredictor()
    floors = list(accuracy_floors)
    entropies = [seed_entropy(floor_rng)
                 for floor_rng in spawn_rngs(rng, len(floors))]
    tasks = [_FloorTask(accel=accel, cost_model=cost_model,
                        accuracy_floor=floor, nas_budget=nas_budget,
                        mapping_budget=mapping_budget, entropy=entropy,
                        predictor=predictor)
             for floor, entropy in zip(floors, entropies)]
    with ParallelEvaluator(_search_floor, workers=workers,
                           cache_dir=cache_dir, transport=transport,
                           eval_timeout=eval_timeout) as evaluator:
        results = evaluator.evaluate(tasks)
    points: List[FrontierPoint] = []
    for floor, result in zip(floors, results):
        if result.found and math.isfinite(result.best_edp):
            points.append(FrontierPoint(
                accuracy=result.best_accuracy, edp=result.best_edp,
                label=f"floor>={floor:g}", arch=result.best_arch))
    return pareto_front(points)
