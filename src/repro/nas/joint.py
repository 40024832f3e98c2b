"""The full three-level co-search: accelerator + mapping + neural net.

Implements §II-C / Fig 1's outermost composition: the hardware evolution
proposes accelerator candidates; for each candidate an inner NAS finds
the lowest-EDP subnet meeting the accuracy floor (each subnet scored via
mapping search); the subnet's EDP feeds back as the hardware reward.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional, Tuple

from repro.accelerator.arch import AcceleratorConfig
from repro.accelerator.constraints import ResourceConstraint
from repro.cost.model import CostModel
from repro.cost.report import NetworkCost
from repro.encoding.hardware import HardwareEncoder
from repro.encoding.spaces import EncodingStyle
from repro.nas.accuracy import AccuracyPredictor
from repro.nas.ofa_space import ResNetArch
from repro.nas.search import NASBudget, NASResult, search_architecture
from repro.search.cache import EvaluationCache
from repro.search.es import EvolutionEngine
from repro.search.mapping_search import MappingSearchBudget
from repro.search.parallel import (
    GenerationLoop,
    ParallelEvaluator,
    ask_generation,
    run_search_loop,
)
from repro.search.result import IterationStats
from repro.search.transport import Transport
from repro.utils.rng import SeedLike, ensure_rng


@dataclasses.dataclass(frozen=True)
class JointBudget:
    """Budgets for all three nested loops."""

    accel_population: int = 6
    accel_iterations: int = 4
    nas: NASBudget = NASBudget()
    mapping: MappingSearchBudget = MappingSearchBudget()


@dataclasses.dataclass(frozen=True)
class JointSearchResult:
    """Best (accelerator, network, mapping) tuple found."""

    best_config: Optional[AcceleratorConfig]
    best_arch: Optional[ResNetArch]
    best_cost: Optional[NetworkCost]
    best_accuracy: float
    best_edp: float
    history: Tuple[IterationStats, ...]
    hardware_evaluations: int
    network_evaluations: int

    @property
    def found(self) -> bool:
        return self.best_config is not None and self.best_arch is not None


@dataclasses.dataclass(frozen=True)
class _JointTask:
    """Picklable payload: one per-candidate inner NAS run."""

    config: AcceleratorConfig
    cost_model: CostModel
    accuracy_floor: float
    nas_budget: NASBudget
    mapping_budget: MappingSearchBudget
    entropy: int
    predictor: AccuracyPredictor


def _evaluate_joint_candidate(task: _JointTask,
                              cache: Optional[EvaluationCache]) -> NASResult:
    """ParallelEvaluator worker: run the inner NAS for one candidate.

    The inner run stays serial (``workers=1``) — parallelism lives at the
    hardware-candidate level, so worker processes never nest pools.
    """
    return search_architecture(
        task.config, task.cost_model, task.accuracy_floor,
        budget=task.nas_budget, mapping_budget=task.mapping_budget,
        seed=task.entropy, predictor=task.predictor, cache=cache, workers=1)


class _JointLoop(GenerationLoop):
    """Joint-search generation loop for ``run_search_loop``.

    Parallelism lives at the hardware-candidate level: each outcome is a
    whole inner NAS run's :class:`NASResult`, folded back in submission
    order at the commit boundary.
    """

    def __init__(self, engine: EvolutionEngine, encoder: HardwareEncoder,
                 rng, injected: List, budget: JointBudget,
                 cost_model: CostModel, accuracy_floor: float,
                 predictor: AccuracyPredictor) -> None:
        self.engine = engine
        self.encoder = encoder
        self.rng = rng
        self.injected = injected
        self.budget = budget
        self.cost_model = cost_model
        self.accuracy_floor = accuracy_floor
        self.predictor = predictor
        self.iterations = budget.accel_iterations
        self.population = budget.accel_population

        self.best: Optional[Tuple[AcceleratorConfig, NASResult]] = None
        self.best_edp = math.inf
        self.hw_evals = 0
        self.net_evals = 0
        self._vectors: List = []
        self._configs: List[Optional[AcceleratorConfig]] = []

    def ask(self, iteration: int) -> List[Optional[_JointTask]]:
        self._vectors, self._configs, entropies = ask_generation(
            self.engine, self.encoder, self.population, iteration,
            self.injected, self.rng, name_prefix="joint")
        members: List[Optional[_JointTask]] = []
        for member, config in enumerate(self._configs):
            if config is None:
                members.append(None)
                continue
            members.append(_JointTask(
                config=config, cost_model=self.cost_model,
                accuracy_floor=self.accuracy_floor,
                nas_budget=self.budget.nas,
                mapping_budget=self.budget.mapping,
                entropy=entropies[member],
                predictor=self.predictor))
        return members

    def tell(self, iteration: int,
             outcomes: List[Optional[NASResult]]) -> List[float]:
        fitnesses = [math.inf] * self.population
        for member, nas_result in enumerate(outcomes):
            if nas_result is None:
                continue
            self.hw_evals += 1
            self.net_evals += nas_result.evaluations
            fitnesses[member] = nas_result.best_edp
            if (math.isfinite(nas_result.best_edp)
                    and nas_result.best_edp < self.best_edp):
                self.best_edp = nas_result.best_edp
                self.best = (self._configs[member], nas_result)
        self.engine.tell(self._vectors, fitnesses)
        return fitnesses


def search_joint(constraint: ResourceConstraint,
                 cost_model: CostModel,
                 accuracy_floor: float,
                 budget: JointBudget = JointBudget(),
                 seed: SeedLike = None,
                 predictor: Optional[AccuracyPredictor] = None,
                 seed_configs: Tuple[AcceleratorConfig, ...] = (),
                 workers: int = 1,
                 cache_dir: Optional[str] = None,
                 transport: Optional[Transport] = None,
                 eval_timeout: Optional[float] = None,
                 ) -> JointSearchResult:
    """Run the joint NAAS+NAS search under a resource constraint.

    ``workers`` parallelizes across hardware candidates: each candidate's
    whole inner NAS run is one work item, the coarsest (and therefore
    best-amortized) unit of the three-level search. ``cache_dir`` backs
    every inner NAS run with the shared persistent disk tier of
    :mod:`repro.search.diskcache` (workers read through to disk and
    append what they compute). A ``transport`` passed in (the caller
    owns and closes it) runs the dispatched candidates instead of a
    pool of the search's own; ``eval_timeout`` bounds any one
    dispatched run before inline fallback.
    """
    rng = ensure_rng(seed)
    predictor = predictor or AccuracyPredictor()
    encoder = HardwareEncoder(constraint, style=EncodingStyle.IMPORTANCE)
    engine = EvolutionEngine(encoder.num_params, seed=rng)

    loop = _JointLoop(
        engine=engine, encoder=encoder, rng=rng,
        injected=[encoder.encode(config) for config in seed_configs],
        budget=budget, cost_model=cost_model,
        accuracy_floor=accuracy_floor, predictor=predictor)

    with ParallelEvaluator(
            _evaluate_joint_candidate, workers=workers, cache_dir=cache_dir,
            transport=transport, eval_timeout=eval_timeout) as evaluator:
        history = run_search_loop(loop, evaluator)

    best = loop.best
    best_edp = loop.best_edp
    hw_evals = loop.hw_evals
    net_evals = loop.net_evals
    if best is None:
        return JointSearchResult(
            best_config=None, best_arch=None, best_cost=None,
            best_accuracy=0.0, best_edp=math.inf, history=tuple(history),
            hardware_evaluations=hw_evals, network_evaluations=net_evals)
    config, nas_result = best
    return JointSearchResult(
        best_config=config,
        best_arch=nas_result.best_arch,
        best_cost=nas_result.best_cost,
        best_accuracy=nas_result.best_accuracy,
        best_edp=best_edp,
        history=tuple(history),
        hardware_evaluations=hw_evals,
        network_evaluations=net_evals,
    )
