"""Evolutionary NAS over the OFA space, rewarded by hardware EDP (§II-C).

Mirrors the paper's Fig 1 "Neural Network Population" box: sample
architectures meeting an accuracy floor, score each by mapping-searched
EDP on a *fixed* accelerator, evolve by mutation + crossover from the
fittest parents.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional, Tuple

from repro.accelerator.arch import AcceleratorConfig
from repro.cost.model import CostModel
from repro.cost.report import NetworkCost
from repro.nas.accuracy import AccuracyPredictor
from repro.nas.ofa_space import OFAResNetSpace, ResNetArch
from repro.nas.subnet import build_subnet
from repro.search.accelerator_search import evaluate_accelerator
from repro.search.cache import EvaluationCache
from repro.search.mapping_search import MappingSearchBudget
from repro.search.parallel import (
    GenerationLoop,
    ParallelEvaluator,
    run_search_loop,
)
from repro.search.result import IterationStats
from repro.search.transport import Transport
from repro.utils.rng import SeedLike, ensure_rng, seed_entropy


@dataclasses.dataclass(frozen=True)
class NASBudget:
    """Evolution budget for the network population."""

    population: int = 12
    iterations: int = 6
    parent_fraction: float = 0.25
    mutation_rate: float = 0.15
    #: Fraction of each generation produced by mutation (rest: crossover).
    mutation_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.population < 2 or self.iterations < 1:
            raise ValueError("NAS budget must be at least 2x1")


@dataclasses.dataclass(frozen=True)
class NASResult:
    """Best architecture found for one accelerator."""

    best_arch: Optional[ResNetArch]
    best_cost: Optional[NetworkCost]
    best_accuracy: float
    best_edp: float
    history: Tuple[IterationStats, ...]
    evaluations: int

    @property
    def found(self) -> bool:
        return self.best_arch is not None


@dataclasses.dataclass(frozen=True)
class _ArchTask:
    """Picklable payload for one subnet evaluation."""

    arch: ResNetArch
    accel: AcceleratorConfig
    cost_model: CostModel
    mapping_budget: MappingSearchBudget
    entropy: int


def _evaluate_arch(task: _ArchTask, cache: Optional[EvaluationCache],
                   ) -> Tuple[float, Optional[NetworkCost]]:
    """ParallelEvaluator worker: mapping-searched EDP of one subnet."""
    network = build_subnet(task.arch)
    reward, costs, _ = evaluate_accelerator(
        task.accel, [network], task.cost_model, task.mapping_budget,
        seed=task.entropy, cache=cache)
    return reward, costs.get(network.name)


class _ArchLoop(GenerationLoop):
    """Subnet-GA generation loop for ``run_search_loop``.

    The genome is the architecture itself, so the "engine" is the
    population held here: ``ask`` emits one :class:`_ArchTask` per
    member, ``tell`` folds EDPs back in submission order and (except
    after the final generation, which keeps the parent stream's draw
    count identical to the pre-refactor loop) breeds the next population
    by mutation + crossover from the fittest parents.
    """

    def __init__(self, space: OFAResNetSpace, rng, budget: NASBudget,
                 accel: AcceleratorConfig, cost_model: CostModel,
                 mapping_budget: MappingSearchBudget, entropy: int,
                 predictor, accuracy_floor: float,
                 population: List[ResNetArch],
                 sample_admissible) -> None:
        self.space = space
        self.rng = rng
        self.budget = budget
        self.accel = accel
        self.cost_model = cost_model
        self.mapping_budget = mapping_budget
        self.entropy = entropy
        self.predictor = predictor
        self.accuracy_floor = accuracy_floor
        self.population = population
        self.sample_admissible = sample_admissible
        self.iterations = budget.iterations

        self.best_arch: Optional[ResNetArch] = None
        self.best_cost: Optional[NetworkCost] = None
        self.best_edp = math.inf
        self.evaluations = 0
        self._current: List[ResNetArch] = []

    def _spawn_child(self, parents: List[ResNetArch]) -> ResNetArch:
        """One mutation-or-crossover child of ``parents``."""
        budget = self.budget
        rng = self.rng
        if rng.random() < budget.mutation_fraction:
            parent = parents[int(rng.integers(len(parents)))]
            return self.space.mutate(parent, budget.mutation_rate, seed=rng)
        a, b = rng.integers(len(parents)), rng.integers(len(parents))
        return self.space.crossover(parents[int(a)], parents[int(b)],
                                    seed=rng)

    def ask(self, iteration: int) -> List[Optional[_ArchTask]]:
        self._current = list(self.population)
        return [_ArchTask(arch=arch, accel=self.accel,
                          cost_model=self.cost_model,
                          mapping_budget=self.mapping_budget,
                          entropy=self.entropy)
                for arch in self._current]

    def tell(self, iteration: int, outcomes: List[Optional[Tuple]],
             ) -> List[float]:
        fitnesses: List[float] = []
        for arch, (edp, cost) in zip(self._current, outcomes):
            self.evaluations += 1
            fitnesses.append(edp)
            if edp < self.best_edp:
                self.best_edp = edp
                self.best_arch = arch
                self.best_cost = cost
        if iteration < self.iterations - 1:
            self._breed(fitnesses)
        return fitnesses

    def _breed(self, fitnesses: List[float]) -> None:
        budget = self.budget
        ranked = sorted(zip(fitnesses, range(len(self._current))),
                        key=lambda pair: pair[0])
        parent_count = max(
            2, int(round(len(self._current) * budget.parent_fraction)))
        parents = [self._current[i] for _, i in ranked[:parent_count]]
        next_population: List[ResNetArch] = list(parents)
        while len(next_population) < budget.population:
            child = self._spawn_child(parents)
            if self.predictor(child) >= self.accuracy_floor:
                next_population.append(child)
            else:
                fallback = self.sample_admissible(max_attempts=16)
                if fallback is not None:
                    next_population.append(fallback)
        self.population = next_population


def search_architecture(accel: AcceleratorConfig,
                        cost_model: CostModel,
                        accuracy_floor: float,
                        budget: NASBudget = NASBudget(),
                        mapping_budget: MappingSearchBudget = (
                            MappingSearchBudget()),
                        seed: SeedLike = None,
                        predictor: Optional[AccuracyPredictor] = None,
                        cache: Optional[EvaluationCache] = None,
                        workers: int = 1,
                        cache_dir: Optional[str] = None,
                        transport: Optional[Transport] = None,
                        eval_timeout: Optional[float] = None,
                        ) -> NASResult:
    """Find the lowest-EDP subnet meeting ``accuracy_floor`` on ``accel``.

    ``workers`` fans each generation's subnet evaluations out over that
    many processes; the result is identical for any worker count
    because all mapping searches are seeded from one run-level entropy
    via their cache key (see :mod:`repro.search.parallel`).
    ``cache_dir`` (used only when no explicit ``cache`` is supplied)
    backs the run with the persistent disk tier of
    :mod:`repro.search.diskcache`.
    """
    rng = ensure_rng(seed)
    space = OFAResNetSpace()
    predictor = predictor or AccuracyPredictor()
    # One entropy for the whole NAS run: every evaluate_accelerator call
    # sharing this cache derives mapping seeds the same way, so cache
    # hits across architectures cannot change results.
    eval_entropy = seed_entropy(rng)

    def sample_admissible(max_attempts: int = 64) -> Optional[ResNetArch]:
        for _ in range(max_attempts):
            arch = space.sample(seed=rng)
            if predictor(arch) >= accuracy_floor:
                return arch
        # Tight accuracy floors make uniform samples inadmissible almost
        # surely; fall back to light mutations of the most accurate
        # subnet, which meets any feasible floor.
        for _ in range(max_attempts):
            arch = space.mutate(space.largest(), rate=0.1, seed=rng)
            if predictor(arch) >= accuracy_floor:
                return arch
        largest = space.largest()
        return largest if predictor(largest) >= accuracy_floor else None

    population: List[ResNetArch] = []
    while len(population) < budget.population:
        arch = sample_admissible()
        if arch is None:
            break
        population.append(arch)
    if not population:
        return NASResult(best_arch=None, best_cost=None, best_accuracy=0.0,
                         best_edp=math.inf, history=(), evaluations=0)

    loop = _ArchLoop(space=space, rng=rng, budget=budget, accel=accel,
                     cost_model=cost_model, mapping_budget=mapping_budget,
                     entropy=eval_entropy, predictor=predictor,
                     accuracy_floor=accuracy_floor, population=population,
                     sample_admissible=sample_admissible)
    with ParallelEvaluator(
            _evaluate_arch, workers=workers, cache=cache,
            cache_dir=cache_dir, transport=transport,
            eval_timeout=eval_timeout) as evaluator:
        history = run_search_loop(loop, evaluator)

    best_accuracy = predictor(loop.best_arch) if loop.best_arch else 0.0
    return NASResult(best_arch=loop.best_arch, best_cost=loop.best_cost,
                     best_accuracy=best_accuracy, best_edp=loop.best_edp,
                     history=tuple(history), evaluations=loop.evaluations)
