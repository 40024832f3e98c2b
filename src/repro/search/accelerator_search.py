"""Outer loop: the NAAS accelerator architecture search (§II-A).

Each hardware candidate is scored by running the inner mapping search
for every unique layer of every benchmark network and aggregating the
resulting per-network EDPs (geomean). Candidates violating the resource
constraint are rejected at decode time and re-sampled, exactly as the
paper describes.

The generation loop follows the ask/tell protocol: the whole population
is sampled and decoded up front, per-candidate seeds are derived in one
batch, and the candidate evaluations are fanned out through the shared
:func:`repro.search.parallel.run_search_loop` driver (``workers=N``
reproduces the serial path bit-identically; see
:mod:`repro.search.parallel` for the execution model). Each task group
of candidates is one :func:`evaluate_accelerators` call, so at
``workers=1`` a generation's mapping searches are one lockstep search
over every candidate's shapes. Before a generation is dispatched, the
coordinator runs that group worker against a probe of its cache, which
serves the candidates whose every shape the cache already holds (see
:meth:`repro.search.cache.EvaluationCache.probe`).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Dict, List, Optional, Sequence, Tuple, Type

from repro.accelerator.arch import AcceleratorConfig
from repro.accelerator.constraints import ResourceConstraint
from repro.cost.model import CostModel
from repro.cost.report import NetworkCost
from repro.encoding.hardware import HardwareEncoder
from repro.encoding.spaces import EncodingStyle
from repro.mapping.mapping import Mapping
from repro.search.cache import EvaluationCache
from repro.search.diskcache import (
    DIGEST_SEPARATOR,
    content_digest,
    text_digest,
)
from repro.search.es import EvolutionEngine
from repro.search.mapping_search import (
    MappingSearchBudget,
    search_mapping,  # noqa: F401 (perfbench/tracing.py wraps it here)
    search_mappings,
)
from repro.search.objectives import RewardFn, geomean_edp
from repro.search.parallel import (
    GenerationLoop,
    ParallelEvaluator,
    ask_generation,
    run_search_loop,
)
from repro.search.records import CACHE_FORMAT, ShapeBest
from repro.search.result import AcceleratorSearchResult
from repro.search.transport import Transport, group_worker
from repro.tensors.layer import ConvLayer
from repro.tensors.network import Network, shape_key
from repro.utils.logging import get_logger
from repro.utils.rng import SeedLike, derive_seed, ensure_rng, seed_entropy

logger = get_logger(__name__)


@dataclasses.dataclass(frozen=True)
class NAASBudget:
    """Evolution budgets for the two nested loops."""

    accel_population: int = 10
    accel_iterations: int = 8
    mapping: MappingSearchBudget = MappingSearchBudget()

    def __post_init__(self) -> None:
        if self.accel_population < 1 or self.accel_iterations < 1:
            raise ValueError(
                f"budget must be at least 1x1, got "
                f"{self.accel_population}x{self.accel_iterations}")


#: What scoring one accelerator returns: ``(reward, {network ->
#: NetworkCost}, {layer -> Mapping})``.
Evaluation = Tuple[float, Dict[str, NetworkCost], Dict[str, Mapping]]

def evaluate_accelerator(accel: AcceleratorConfig,
                         networks: Sequence[Network],
                         cost_model: CostModel,
                         mapping_budget: MappingSearchBudget,
                         seed: SeedLike = None,
                         mapping_style: EncodingStyle = (
                             EncodingStyle.IMPORTANCE),
                         cache: Optional[EvaluationCache] = None,
                         reward_fn: RewardFn = geomean_edp,
                         ) -> Evaluation:
    """Score one accelerator: best-mapping EDP per network, geomean reward.

    Returns ``(reward, {network -> NetworkCost}, {layer -> Mapping})``.
    The mapping search runs once per unique layer shape, every shape of
    every network that misses the cache in one lockstep
    :func:`~repro.search.mapping_search.search_mappings` call; results
    are memoized on ``(accel, shape)`` across calls when a cache is
    supplied.
    Every layer of a shape group gets a ``best_mappings`` entry (not just
    the representative), so the table can be replayed through
    :meth:`repro.cost.model.CostModel.evaluate_with_mappings` directly.
    A network's layer costs carry its own representative layer names,
    also for shapes whose search another network's lookup ran.

    A network with any unmappable layer makes the whole candidate
    infeasible: the reward is ``math.inf`` and the partial network is
    *omitted* from the returned costs (it never reaches ``reward_fn``).
    Shapes after the first unmappable one are still searched (and
    cached); they just do not enter the returned tables.

    Each per-shape mapping search is seeded with
    ``derive_seed(entropy, key)`` where ``entropy`` collapses ``seed``,
    and is cached under ``(entropy, key)``: NAAS draws one entropy per
    candidate, so a candidate that recurs later in a search searches
    its mappings afresh instead of reusing the first one's. Results
    therefore depend only on what is evaluated, never on cache state,
    evaluation order or which worker's cache served a lookup — the
    invariant that keeps serial and parallel search runs bit-identical.

    When the supplied cache has a persistent tier (see
    :mod:`repro.search.diskcache`), each lookup also carries a
    ``disk_key``: ``content_digest(entropy, key, shared)``, where
    ``shared = content_digest(CACHE_FORMAT, mapping_budget,
    cost_model.params)`` is digested once per call (and the accelerator
    and each shape key rendered once per call). Together they cover
    the full identity a cached value is a pure function of, so runs
    with a different budget, cost model, seed or cache format can never
    hit a stale cross-run entry.

    The one-candidate call of :func:`evaluate_accelerators`.
    """
    [evaluation] = evaluate_accelerators(
        [accel], [seed_entropy(seed)], networks, cost_model, mapping_budget,
        mapping_style=mapping_style, cache=cache, reward_fn=reward_fn)
    return evaluation


def evaluate_accelerators(accels: Sequence[AcceleratorConfig],
                          entropies: Sequence[int],
                          networks: Sequence[Network],
                          cost_model: CostModel,
                          mapping_budget: MappingSearchBudget,
                          mapping_style: EncodingStyle = (
                              EncodingStyle.IMPORTANCE),
                          cache: Optional[EvaluationCache] = None,
                          reward_fn: RewardFn = geomean_edp,
                          ) -> List[Evaluation]:
    """Score many accelerators at once; result ``i`` equals
    ``evaluate_accelerator(accels[i], networks, ..., seed=entropies[i])``.

    Every candidate's lookups go to the cache in candidate order, keyed
    on ``(entropies[i], (accels[i], shape, style))`` as one call would
    key them, and all the misses of all candidates run as one lockstep
    :func:`~repro.search.mapping_search.search_mappings` call, each
    shape on its candidate's accelerator. With a cache, a key that
    recurs (a shape shared across networks, or two candidates with one
    entropy and accelerator) is searched once and its later lookups
    hit.
    """
    if len(entropies) != len(accels):
        raise ValueError(
            f"{len(entropies)} entropies for {len(accels)} accelerators")
    shapes = [[(layer, count, shape_key(layer))
               for layer, count in network.unique_shapes()]
              for network in networks]
    layers = [layer for group in shapes for layer, _, _ in group]
    skeys = [skey for group in shapes for _, _, skey in group]
    lookups = [(entropy, (accel, skey, mapping_style))
               for accel, entropy in zip(accels, entropies)
               for skey in skeys]
    lookup_layers = layers * len(accels)
    disk_keys = None
    if cache is not None and cache.persistent:
        shared = content_digest(CACHE_FORMAT, mapping_budget,
                                cost_model.params)
        rendered = _rendered_disk_keys(accels, entropies, skeys,
                                       mapping_style, shared)
        disk_keys = [digest for candidate in rendered
                     for digest in candidate]

    def run_searches(keys: Sequence[Tuple[int, tuple]],
                     batch: Sequence[ConvLayer]) -> List[ShapeBest]:
        # One lockstep mapping search over every shape in the batch,
        # each on its own candidate's accelerator.
        results = search_mappings(
            batch, [key[0] for _, key in keys], cost_model,
            budget=mapping_budget,
            seeds=[derive_seed(entropy, key) for entropy, key in keys],
            style=mapping_style)
        return [(result.best_mapping, result.best_cost) if result.found
                else None for result in results]

    def search_misses(keys: Sequence[Tuple[int, tuple]]) -> List[ShapeBest]:
        # Deduplicated by key: a recurring key is searched once, with
        # its first lookup's layer, and its later lookups hit — as
        # one-by-one lookups would. Its cost takes each network's own
        # layer name below.
        first_layer: Dict[Tuple[int, tuple], ConvLayer] = {}
        for key, layer in zip(lookups, lookup_layers):
            first_layer.setdefault(key, layer)
        return run_searches(keys, [first_layer[key] for key in keys])

    if cache is None:
        results = run_searches(lookups, lookup_layers)
    else:
        results = cache.get_or_compute_many(lookups, search_misses,
                                            disk_keys=disk_keys)

    size = len(layers)
    return [_reduce(accel, networks, shapes,
                    results[index * size:(index + 1) * size], reward_fn)
            for index, accel in enumerate(accels)]


def _rendered_disk_keys(accels: Sequence[AcceleratorConfig],
                        entropies: Sequence[int], skeys: Sequence[tuple],
                        mapping_style: EncodingStyle,
                        shared: str) -> List[List[str]]:
    """``content_digest(entropy, (accel, skey, mapping_style), shared)``
    per candidate and shape key, rendering each accelerator and shape
    key once per call rather than once per lookup."""
    rendered = [repr(skey) for skey in skeys]
    tail = f", {mapping_style!r}){DIGEST_SEPARATOR}{shared!r}"
    digests = []
    for accel, entropy in zip(accels, entropies):
        head = f"{entropy!r}{DIGEST_SEPARATOR}({accel!r}, "
        digests.append([text_digest(head + skey + tail)
                        for skey in rendered])
    return digests


def _reduce(accel: AcceleratorConfig, networks: Sequence[Network],
            shapes: List[List[Tuple[ConvLayer, int, tuple]]],
            results: Sequence[ShapeBest],
            reward_fn: RewardFn) -> Evaluation:
    """One candidate's evaluation from its shapes' best mappings."""
    network_costs: Dict[str, NetworkCost] = {}
    best_mappings: Dict[str, Mapping] = {}
    feasible = True
    outcomes = iter(results)
    for network, group in zip(networks, shapes):
        group_results = [next(outcomes) for _ in group]
        layer_costs = []
        shape_mappings: Dict[tuple, Mapping] = {}
        mappable = True
        for (layer, count, skey), best in zip(group, group_results):
            if best is None:
                logger.debug("no mapping for %s on %s", layer.name, accel.name)
                mappable = False
                feasible = False
                break
            shape_mappings[skey], cost = best
            if cost.layer_name != layer.name:
                cost = dataclasses.replace(cost, layer_name=layer.name)
            layer_costs.extend([cost] * count)
        for layer in network:
            mapping = shape_mappings.get(shape_key(layer))
            if mapping is not None:
                best_mappings[layer.name] = mapping
        if mappable:
            network_costs[network.name] = NetworkCost(
                network_name=network.name, layer_costs=tuple(layer_costs))
    if not feasible:
        return math.inf, network_costs, best_mappings
    reward = reward_fn([network_costs[n.name] for n in networks])
    return reward, network_costs, best_mappings


@dataclasses.dataclass(frozen=True)
class _CandidateTask:
    """Picklable payload for one accelerator evaluation."""

    accel: AcceleratorConfig
    networks: Tuple[Network, ...]
    cost_model: CostModel
    mapping_budget: MappingSearchBudget
    entropy: int
    mapping_style: EncodingStyle
    reward_fn: RewardFn


@group_worker
def _evaluate_candidates(tasks: List[_CandidateTask],
                         cache: Optional[EvaluationCache],
                         ) -> List[Evaluation]:
    """ParallelEvaluator group worker: score a task group's decoded
    candidates with one :func:`evaluate_accelerators` call. The tasks
    of one search share everything but the accelerator and entropy."""
    first = tasks[0]
    return evaluate_accelerators(
        [task.accel for task in tasks], [task.entropy for task in tasks],
        first.networks, first.cost_model, first.mapping_budget,
        mapping_style=first.mapping_style, cache=cache,
        reward_fn=first.reward_fn)


class _AcceleratorLoop(GenerationLoop):
    """Hardware-search loop for :func:`run_search_loop`.

    ``ask`` samples/decodes one generation (warm-start vectors override
    the head of generation 0) and returns one :class:`_CandidateTask`
    per decodable member; ``tell`` folds rewards back in submission
    order — ties keep the earliest candidate, matching the serial loop
    — and tells the generation to the engine at the commit boundary.
    """

    def __init__(self, engine: Any, encoder: HardwareEncoder,
                 rng, injected: List, budget: NAASBudget,
                 networks: Tuple[Network, ...], cost_model: CostModel,
                 mapping_style: EncodingStyle, reward_fn: RewardFn,
                 max_decode_attempts: int) -> None:
        self.engine = engine
        self.encoder = encoder
        self.rng = rng
        self.injected = injected
        self.budget = budget
        self.networks = networks
        self.cost_model = cost_model
        self.mapping_style = mapping_style
        self.reward_fn = reward_fn
        self.max_decode_attempts = max_decode_attempts
        self.iterations = budget.accel_iterations
        self.population = budget.accel_population

        self.best_config: Optional[AcceleratorConfig] = None
        self.best_reward = math.inf
        self.best_costs: Dict[str, NetworkCost] = {}
        self.best_maps: Dict[str, Mapping] = {}
        self.evaluations = 0
        self._vectors: List = []
        self._configs: List[Optional[AcceleratorConfig]] = []

    def ask(self, iteration: int) -> List[Optional[_CandidateTask]]:
        self._vectors, self._configs, entropies = ask_generation(
            self.engine, self.encoder, self.population, iteration,
            self.injected, self.rng,
            max_decode_attempts=self.max_decode_attempts,
            name_prefix="naas")
        members: List[Optional[_CandidateTask]] = []
        for member, config in enumerate(self._configs):
            if config is None:
                members.append(None)
                continue
            members.append(_CandidateTask(
                accel=config, networks=self.networks,
                cost_model=self.cost_model,
                mapping_budget=self.budget.mapping,
                entropy=entropies[member],
                mapping_style=self.mapping_style,
                reward_fn=self.reward_fn))
            self.evaluations += 1
        return members

    def tell(self, iteration: int, outcomes: List[Optional[Any]],
             ) -> List[float]:
        fitnesses = [math.inf] * self.population
        for member, outcome in enumerate(outcomes):
            if outcome is None:
                continue
            reward, costs, maps = outcome
            fitnesses[member] = reward
            if math.isfinite(reward) and reward < self.best_reward:
                self.best_reward = reward
                self.best_config = self._configs[member]
                self.best_costs = costs
                self.best_maps = maps
        self.engine.tell(self._vectors, fitnesses)
        return fitnesses


def search_accelerator(networks: Sequence[Network],
                       constraint: ResourceConstraint,
                       cost_model: CostModel,
                       budget: NAASBudget = NAASBudget(),
                       seed: SeedLike = None,
                       hardware_style: EncodingStyle = (
                           EncodingStyle.IMPORTANCE),
                       mapping_style: EncodingStyle = EncodingStyle.IMPORTANCE,
                       seed_configs: Sequence[AcceleratorConfig] = (),
                       engine_cls: Type = EvolutionEngine,
                       max_decode_attempts: int = 32,
                       reward_fn: RewardFn = geomean_edp,
                       workers: int = 1,
                       cache_dir: Optional[str] = None,
                       transport: Optional[Transport] = None,
                       eval_timeout: Optional[float] = None,
                       ) -> AcceleratorSearchResult:
    """Run the full NAAS hardware search under a resource constraint.

    ``seed_configs`` are encoded and injected into the first generation,
    letting the search warm-start from (e.g.) the baseline preset.
    ``workers`` fans each generation's candidate evaluations out over
    that many processes (0 = all cores) and returns the same result for
    the same seed at any worker count.
    ``cache_dir`` adds a persistent disk tier under the evaluation cache
    (shared across runs and concurrent processes; see
    :mod:`repro.search.diskcache`): a repeated run with the same seed
    and budget reuses every mapping-search result and returns a
    bit-identical ``AcceleratorSearchResult``.

    A :class:`~repro.search.transport.Transport` passed as
    ``transport`` (the caller owns and closes it, e.g. a pre-warmed
    :class:`~repro.search.transport.LocalTransport` shared by several
    searches) runs the dispatched candidate evaluations instead of a
    pool of the search's own; the result is the same either way.
    ``eval_timeout`` bounds how long any dispatched evaluation may
    stall before it is re-evaluated inline.
    """
    rng = ensure_rng(seed)
    encoder = HardwareEncoder(constraint, style=hardware_style)
    engine = engine_cls(encoder.num_params, seed=rng)

    loop = _AcceleratorLoop(
        engine=engine, encoder=encoder, rng=rng,
        injected=[encoder.encode(config) for config in seed_configs],
        budget=budget, networks=tuple(networks), cost_model=cost_model,
        mapping_style=mapping_style, reward_fn=reward_fn,
        max_decode_attempts=max_decode_attempts)

    with ParallelEvaluator(
            _evaluate_candidates, workers=workers, cache_dir=cache_dir,
            transport=transport, eval_timeout=eval_timeout) as evaluator:
        history = run_search_loop(loop, evaluator)

    return AcceleratorSearchResult(
        best_config=loop.best_config,
        best_reward=loop.best_reward,
        network_costs=loop.best_costs,
        best_mappings=loop.best_maps,
        history=tuple(history),
        evaluations=loop.evaluations,
        cache_stats=evaluator.cache_stats,
    )
