"""Mixed-precision quantization search (extension).

NAAS's related work (HAQ [3], NHAS [12]) couples architecture search
with *quantization*: per-layer bitwidths trade accuracy for energy and
latency. The paper leaves quantization out of its own loop; this module
adds it as an optional fourth knob, reusing the same evolutionary
machinery:

- a :class:`QuantPolicy` assigns a bitwidth (4/8/16) per network stage;
- :func:`quantize_subnet` re-materializes an OFA subnet at those widths
  (the cost model already prices operand bits quadratically for MACs and
  linearly for traffic);
- the accuracy predictor is wrapped with a calibrated degradation term
  (4-bit costs a few points, 8-bit is near-lossless, 16-bit is lossless,
  matching the HAQ/PACT literature).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Tuple

from repro.accelerator.arch import AcceleratorConfig
from repro.cost.model import CostModel
from repro.errors import ReproError
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
from repro.tensors.network import Network
from repro.utils.mathutils import fold_sum
from repro.utils.rng import SeedLike, ensure_rng, seed_entropy

BIT_CHOICES: Tuple[int, ...] = (4, 8, 16)

#: Top-1 accuracy degradation (points) per stage quantized at each
#: width, calibrated to the mixed-precision literature: int8 is
#: near-lossless, int4 costs real accuracy, fp16 is lossless.
ACCURACY_DROP_PER_STAGE: Dict[int, float] = {4: 0.9, 8: 0.08, 16: 0.0}

_NUM_STAGES = 4


@dataclasses.dataclass(frozen=True)
class QuantPolicy:
    """Bitwidth per ResNet stage (stem and head follow stage 1 and 4)."""

    stage_bits: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.stage_bits) != _NUM_STAGES:
            raise ReproError(
                f"policy needs {_NUM_STAGES} stage bitwidths, "
                f"got {len(self.stage_bits)}")
        for bits in self.stage_bits:
            if bits not in BIT_CHOICES:
                raise ReproError(f"bitwidth {bits} not in {BIT_CHOICES}")

    @classmethod
    def uniform(cls, bits: int) -> "QuantPolicy":
        return cls(stage_bits=(bits,) * _NUM_STAGES)

    def accuracy_drop(self) -> float:
        """Total predicted top-1 degradation for this policy."""
        return fold_sum(ACCURACY_DROP_PER_STAGE[b]
                        for b in self.stage_bits)

    def describe(self) -> str:
        return "b" + "-".join(str(b) for b in self.stage_bits)


def _stage_of_layer(name: str) -> int:
    """Stage index (0-3) from subnet layer names; stem->0, head->3."""
    if name.startswith("s") and len(name) > 1 and name[1].isdigit():
        return int(name[1]) - 1
    if name == "stem":
        return 0
    return _NUM_STAGES - 1  # fc head


def quantize_subnet(arch: ResNetArch, policy: QuantPolicy,
                    batch: int = 1) -> Network:
    """Materialize ``arch`` with per-stage operand bitwidths."""
    reference = build_subnet(arch, batch=batch)
    layers = []
    for layer in reference:
        bits = policy.stage_bits[_stage_of_layer(layer.name)]
        layers.append(dataclasses.replace(layer, bits=bits))
    return Network(name=f"{reference.name}-{policy.describe()}",
                   layers=tuple(layers))


class QuantizedAccuracyPredictor:
    """Wraps the base predictor with the policy's degradation term."""

    def __init__(self, base: Optional[AccuracyPredictor] = None) -> None:
        self.base = base or AccuracyPredictor()

    def predict(self, arch: ResNetArch, policy: QuantPolicy) -> float:
        return self.base.predict(arch) - policy.accuracy_drop()

    def __call__(self, arch: ResNetArch, policy: QuantPolicy) -> float:
        return self.predict(arch, policy)


@dataclasses.dataclass(frozen=True)
class QuantSearchResult:
    """Best (architecture, policy) pair for one accelerator."""

    best_arch: Optional[ResNetArch]
    best_policy: Optional[QuantPolicy]
    best_accuracy: float
    best_edp: float
    evaluations: int
    history: Tuple[IterationStats, ...] = ()

    @property
    def found(self) -> bool:
        return self.best_arch is not None and self.best_policy is not None


@dataclasses.dataclass(frozen=True)
class _QuantTask:
    """Picklable payload: score one (subnet, policy) pair."""

    arch: ResNetArch
    policy: QuantPolicy
    accel: AcceleratorConfig
    cost_model: CostModel
    mapping_budget: MappingSearchBudget
    entropy: int


def _evaluate_quant_pair(task: _QuantTask,
                         cache: Optional[EvaluationCache]) -> float:
    """ParallelEvaluator worker: mapping-searched EDP of one pair.

    ``task.entropy`` is the run-level entropy; inside
    :func:`evaluate_accelerator` every mapping search derives its seed
    as ``derive_seed(entropy, key)`` over the cache key, so a pair's
    reward is a pure function of what is evaluated — never of
    population order, cache state, or which worker runs it.
    """
    network = quantize_subnet(task.arch, task.policy)
    reward, _, _ = evaluate_accelerator(
        task.accel, [network], task.cost_model, task.mapping_budget,
        seed=task.entropy, cache=cache)
    return reward


#: Refill attempts per missing population slot before a generation
#: proceeds with a partial population. Tight accuracy floors can make
#: both mutation and re-sampling permanently inadmissible; an unbounded
#: refill loop would spin forever (the pre-fix behavior).
_REFILL_ATTEMPTS_PER_SLOT = 16

#: A candidate of the pair search: (subnet architecture, bitwidth policy).
QuantPair = Tuple[ResNetArch, QuantPolicy]


class QuantPairEngine:
    """Ask/tell engine over (subnet, bitwidth-policy) pairs.

    The quantization analogue of :class:`repro.search.es.EvolutionEngine`:
    ``ask`` hands out the current population and :meth:`tell` records
    the generation's fitnesses in submission order. :meth:`evolve` then
    breeds the next population (parent selection + bounded admissible
    refill) — it is a separate step so a driver can skip the final
    generation's breeding, keeping the parent RNG stream identical to
    the historical loop.
    """

    def __init__(self, space: OFAResNetSpace,
                 predictor: QuantizedAccuracyPredictor,
                 accuracy_floor: float, population: int, rng) -> None:
        self.space = space
        self.predictor = predictor
        self.accuracy_floor = accuracy_floor
        self.population = population
        self.rng = rng
        self.generation = 0
        self._fitnesses: List[float] = []
        self._pairs: List[QuantPair] = []
        while len(self._pairs) < population:
            pair = self.sample_pair()
            if pair is None:
                break
            self._pairs.append(pair)

    # ----- candidate generation ----------------------------------------

    def random_policy(self) -> QuantPolicy:
        return QuantPolicy(stage_bits=tuple(
            int(self.rng.choice(BIT_CHOICES)) for _ in range(_NUM_STAGES)))

    def sample_pair(self) -> Optional[QuantPair]:
        for _ in range(64):
            arch = self.space.sample(seed=self.rng)
            policy = self.random_policy()
            if self.predictor(arch, policy) >= self.accuracy_floor:
                return arch, policy
        # fall back to the most accurate corner: largest net, fp16
        arch = self.space.largest()
        policy = QuantPolicy.uniform(16)
        if self.predictor(arch, policy) >= self.accuracy_floor:
            return arch, policy
        return None

    def mutate_pair(self, pair: QuantPair) -> QuantPair:
        arch, policy = pair
        arch = self.space.mutate(arch, rate=0.15, seed=self.rng)
        bits = tuple(int(self.rng.choice(BIT_CHOICES))
                     if self.rng.random() < 0.25
                     else b for b in policy.stage_bits)
        return arch, QuantPolicy(stage_bits=bits)

    # ----- ask/tell -----------------------------------------------------

    def ask(self, count: Optional[int] = None) -> List[QuantPair]:
        """The pairs to evaluate this generation (at most ``count``).

        The population can legitimately be smaller than the target after
        a refill-starved :meth:`evolve`; callers get what exists.
        """
        if count is None:
            return list(self._pairs)
        if count < 0:
            raise ReproError(f"ask count must be >= 0, got {count}")
        return list(self._pairs[:count])

    def tell(self, candidates: List[QuantPair],
             fitnesses: List[float]) -> None:
        """Report one full generation (tell half of ask/tell): record
        its fitnesses for :meth:`evolve`, without breeding."""
        if len(candidates) != len(fitnesses):
            raise ReproError("candidates and fitnesses length mismatch")
        self.generation += 1
        self._fitnesses = list(fitnesses)

    def evolve(self) -> None:
        """Breed the next population from the last committed generation.

        Bounded refill: when the floor rejects every child and
        ``sample_pair`` cannot help either, proceed with the partial
        population (at worst the parents) instead of hanging.
        """
        ranked = sorted(zip(self._fitnesses, range(len(self._pairs))),
                        key=lambda p: p[0])
        parents = [self._pairs[i]
                   for _, i in ranked[:max(2, self.population // 4)]]
        next_pairs = list(parents)
        attempts = _REFILL_ATTEMPTS_PER_SLOT * self.population
        while len(next_pairs) < self.population and attempts > 0:
            attempts -= 1
            child = self.mutate_pair(
                parents[int(self.rng.integers(len(parents)))])
            if self.predictor(child[0], child[1]) >= self.accuracy_floor:
                next_pairs.append(child)
            else:
                fallback = self.sample_pair()
                if fallback is not None:
                    next_pairs.append(fallback)
        self._pairs = next_pairs


class _QuantLoop(GenerationLoop):
    """Quantization-search generation loop for ``run_search_loop``."""

    def __init__(self, engine: QuantPairEngine, iterations: int,
                 accel: AcceleratorConfig, cost_model: CostModel,
                 mapping_budget: MappingSearchBudget, entropy: int) -> None:
        self.engine = engine
        self.iterations = iterations
        self.accel = accel
        self.cost_model = cost_model
        self.mapping_budget = mapping_budget
        self.entropy = entropy

        self.best_pair: Optional[QuantPair] = None
        self.best_edp = math.inf
        self.evaluations = 0
        self._current: List[QuantPair] = []

    def ask(self, iteration: int) -> List[Optional[_QuantTask]]:
        self._current = self.engine.ask()
        return [_QuantTask(arch=arch, policy=policy, accel=self.accel,
                           cost_model=self.cost_model,
                           mapping_budget=self.mapping_budget,
                           entropy=self.entropy)
                for arch, policy in self._current]

    def tell(self, iteration: int,
             outcomes: List[Optional[float]]) -> List[float]:
        fitnesses = list(outcomes)
        self.evaluations += len(fitnesses)
        for pair, edp in zip(self._current, fitnesses):
            if edp < self.best_edp:
                self.best_edp = edp
                self.best_pair = pair
        self.engine.tell(self._current, fitnesses)
        if iteration < self.iterations - 1:
            self.engine.evolve()
        return fitnesses


def search_quantized(accel: AcceleratorConfig,
                     cost_model: CostModel,
                     accuracy_floor: float,
                     population: int = 8,
                     iterations: int = 4,
                     mapping_budget: MappingSearchBudget = (
                         MappingSearchBudget()),
                     seed: SeedLike = None,
                     predictor: Optional[QuantizedAccuracyPredictor] = None,
                     workers: int = 1,
                     cache_dir: Optional[str] = None,
                     transport: Optional[Transport] = None,
                     eval_timeout: Optional[float] = None,
                     ) -> QuantSearchResult:
    """Evolve (subnet, bitwidth policy) pairs minimizing EDP on ``accel``.

    A straightforward extension of the paper's NAS loop: the genome
    gains four bitwidth genes; everything else (admissibility floor,
    mutation/crossover, mapping-searched EDP reward) is unchanged.

    ``workers`` fans each generation's pair evaluations out over that
    many processes; any worker count returns a bit-identical result
    because evaluation seeds derive from one run-level entropy via the
    cache key (the former per-evaluation draws from the parent stream
    made rewards depend on evaluation order). ``cache_dir`` backs the
    run with the persistent disk tier of
    :mod:`repro.search.diskcache`.
    """
    rng = ensure_rng(seed)
    space = OFAResNetSpace()
    predictor = predictor or QuantizedAccuracyPredictor()
    # One entropy for the whole run, drawn before any evaluation: see
    # _evaluate_quant_pair for why this keeps rewards order-independent.
    eval_entropy = seed_entropy(rng)

    engine = QuantPairEngine(space=space, predictor=predictor,
                             accuracy_floor=accuracy_floor,
                             population=population, rng=rng)
    if not engine.ask():
        return QuantSearchResult(None, None, 0.0, math.inf, 0)

    loop = _QuantLoop(engine=engine, iterations=iterations, accel=accel,
                      cost_model=cost_model, mapping_budget=mapping_budget,
                      entropy=eval_entropy)
    with ParallelEvaluator(
            _evaluate_quant_pair, workers=workers, cache_dir=cache_dir,
            transport=transport, eval_timeout=eval_timeout) as evaluator:
        history = run_search_loop(loop, evaluator)

    if loop.best_pair is None:
        return QuantSearchResult(None, None, 0.0, math.inf, loop.evaluations,
                                 history=tuple(history))
    arch, policy = loop.best_pair
    return QuantSearchResult(
        best_arch=arch, best_policy=policy,
        best_accuracy=predictor(arch, policy),
        best_edp=loop.best_edp, evaluations=loop.evaluations,
        history=tuple(history))
