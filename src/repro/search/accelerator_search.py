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

:class:`CandidateTask` and :func:`evaluate_candidates` are also the
payload and group worker of tuning, NAS and quantization, whose
candidates carry one network each.

A shape's best mapping and cost stay one row of numbers (a
:class:`~repro.search.records.ShapeRow`) from the mapping search
through both cache tiers to the reward, which is folded from the
rows. A candidate's :class:`Evaluation` is its reward and its rows;
``Mapping``, ``LayerCost`` and ``NetworkCost`` objects are built from
them only where a caller reads them: the hardware and NAS searches on
an improving candidate, tuned baselines for every network.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import (Any, Dict, Iterator, List, NamedTuple, Optional, Sequence,
                    Tuple, Type)

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
from repro.search.records import CACHE_FORMAT, ShapeBest, ShapeRow
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


#: One network set's unique shapes: ``(layer, count, shape key)`` per
#: shape, one list per network.
Shapes = List[List[Tuple[ConvLayer, int, tuple]]]


@dataclasses.dataclass(frozen=True)
class Evaluation:
    """What scoring one accelerator on its networks returns.

    The reward, and the cached best of each of the candidate's shapes
    (each network's ``unique_shapes()`` in order, network after
    network) as rows, with no objects built: a search reads the reward
    of every candidate but the costs and mappings of few.
    :meth:`network_costs` and :meth:`best_mappings` build those from
    the rows, given the networks the candidate was scored on.
    """

    reward: float
    rows: Tuple[ShapeBest, ...]

    def _mapped(self, networks: Sequence[Network],
                ) -> Iterator[Tuple[Network, list, bool]]:
        """Each network, its shapes' ``(layer, count, row)`` up to its
        first unmappable shape, and whether it has none."""
        rows = iter(self.rows)
        for network in networks:
            shapes = network.unique_shapes()
            mapped = []
            for (layer, count), row in zip(
                    shapes, list(itertools.islice(rows, len(shapes)))):
                if row is None:
                    break
                mapped.append((layer, count, row))
            yield network, mapped, len(mapped) == len(shapes)

    def network_costs(self, networks: Sequence[Network],
                      ) -> Dict[str, NetworkCost]:
        """``{network name -> NetworkCost}``; each network's layer costs
        carry its own layer names, and a network with an unmappable
        shape is omitted."""
        costs: Dict[str, NetworkCost] = {}
        for network, mapped, mappable in self._mapped(networks):
            if mappable:
                costs[network.name] = NetworkCost(
                    network_name=network.name, layer_costs=tuple(
                        cost for layer, count, row in mapped
                        for cost in [row.layer_cost(layer.name)] * count))
        return costs

    def best_mappings(self, networks: Sequence[Network],
                      ) -> Dict[str, Mapping]:
        """``{layer name -> Mapping}`` for every layer of a mapped shape:
        each layer of a shape group (not just its representative), and
        in a network with an unmappable shape, the layers of the shapes
        before it."""
        best: Dict[str, Mapping] = {}
        for network, mapped, _ in self._mapped(networks):
            shape_mappings = {shape_key(layer): row.mapping()
                              for layer, _, row in mapped}
            for layer in network:
                mapping = shape_mappings.get(shape_key(layer))
                if mapping is not None:
                    best[layer.name] = mapping
        return best


class _NetworkTotals(NamedTuple):
    """One network's :class:`~repro.search.objectives.NetworkTotals`,
    folded from its shapes' rows."""

    valid: bool
    total_cycles: float
    total_energy_nj: float
    edp: float


def evaluate_accelerator(accel: AcceleratorConfig,
                         networks: Sequence[Network],
                         cost_model: CostModel,
                         mapping_budget: MappingSearchBudget,
                         seed: SeedLike = None,
                         mapping_style: EncodingStyle = (
                             EncodingStyle.IMPORTANCE),
                         cache: Optional[EvaluationCache] = None,
                         reward_fn: RewardFn = geomean_edp,
                         ) -> Tuple[float, Dict[str, NetworkCost],
                                    Dict[str, Mapping]]:
    """Score one accelerator: best-mapping EDP per network, geomean reward.

    Returns ``(reward, {network -> NetworkCost}, {layer -> Mapping})``,
    the :class:`Evaluation` with all its objects built.
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
        [accel], [seed_entropy(seed)], [networks], cost_model,
        mapping_budget,
        mapping_style=mapping_style, cache=cache, reward_fn=reward_fn)
    return (evaluation.reward, evaluation.network_costs(networks),
            evaluation.best_mappings(networks))


def evaluate_accelerators(accels: Sequence[AcceleratorConfig],
                          entropies: Sequence[int],
                          network_sets: Sequence[Sequence[Network]],
                          cost_model: CostModel,
                          mapping_budget: MappingSearchBudget,
                          mapping_style: EncodingStyle = (
                              EncodingStyle.IMPORTANCE),
                          cache: Optional[EvaluationCache] = None,
                          reward_fn: RewardFn = geomean_edp,
                          ) -> List[Evaluation]:
    """Score many accelerators at once, each on its own network set;
    result ``i`` is the :class:`Evaluation` that
    ``evaluate_accelerator(accels[i], network_sets[i], ...,
    seed=entropies[i])`` builds its objects from.

    Every candidate's lookups go to the cache in candidate order, keyed
    on ``(entropies[i], (accels[i], shape, style))`` as one call would
    key them, and all the misses of all candidates run as one lockstep
    :func:`~repro.search.mapping_search.search_mappings` call, each
    shape on its candidate's accelerator. With a cache, a key that
    recurs (a shape shared across networks or subnets, or two
    candidates with one entropy and accelerator) is searched once and
    its later lookups hit.

    A network set's shapes and rendered shape keys are built once per
    call however many candidates share it (the same object, as NAAS
    candidates do).

    Both cache tiers hold each shape's best as a
    :class:`~repro.search.records.ShapeRow`, and the reward is folded
    from the rows: ``reward_fn`` gets one
    :class:`~repro.search.objectives.NetworkTotals` per network, whose
    cycles and energy add each shape's row ``count`` times in shape
    order, the left fold of ``NetworkCost.total_cycles``. A disk hit
    builds no ``Mapping`` or ``LayerCost``.
    """
    if not len(entropies) == len(network_sets) == len(accels):
        raise ValueError(
            f"{len(entropies)} entropies and {len(network_sets)} network "
            f"sets for {len(accels)} accelerators")
    built: Dict[int, Tuple[Shapes, List[tuple]]] = {}
    for networks in network_sets:
        if id(networks) not in built:
            shapes = [[(layer, count, shape_key(layer))
                       for layer, count in network.unique_shapes()]
                      for network in networks]
            built[id(networks)] = shapes, [
                skey for group in shapes for _, _, skey in group]
    tables = [built[id(networks)] for networks in network_sets]
    lookups = [(entropy, (accel, skey, mapping_style))
               for accel, entropy, (_, skeys) in zip(accels, entropies,
                                                     tables)
               for skey in skeys]
    lookup_layers = [layer for shapes, _ in tables
                     for group in shapes for layer, _, _ in group]
    disk_keys = None
    if cache is not None and cache.persistent:
        shared = content_digest(CACHE_FORMAT, mapping_budget,
                                cost_model.params)
        rendered = _rendered_disk_keys(
            accels, entropies, [skeys for _, skeys in tables],
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
        return [ShapeRow.of(result.best_mapping, result.best_cost)
                if result.found else None for result in results]

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

    outcomes = iter(results)
    return [_reduce(accel, networks, shapes,
                    tuple(itertools.islice(outcomes, len(skeys))), reward_fn)
            for accel, networks, (shapes, skeys) in zip(accels, network_sets,
                                                        tables)]


def _rendered_disk_keys(accels: Sequence[AcceleratorConfig],
                        entropies: Sequence[int],
                        skey_sets: Sequence[Sequence[tuple]],
                        mapping_style: EncodingStyle,
                        shared: str) -> List[List[str]]:
    """``content_digest(entropy, (accel, skey, mapping_style), shared)``
    per candidate and shape key of its set, rendering each accelerator
    and each set's shape keys (by identity) once per call rather than
    once per lookup."""
    rendered: Dict[int, List[str]] = {}
    tail = f", {mapping_style!r}){DIGEST_SEPARATOR}{shared!r}"
    digests = []
    for accel, entropy, skeys in zip(accels, entropies, skey_sets):
        if id(skeys) not in rendered:
            rendered[id(skeys)] = [repr(skey) for skey in skeys]
        head = f"{entropy!r}{DIGEST_SEPARATOR}({accel!r}, "
        digests.append([text_digest(head + skey + tail)
                        for skey in rendered[id(skeys)]])
    return digests


def _reduce(accel: AcceleratorConfig, networks: Sequence[Network],
            shapes: Shapes, rows: Tuple[ShapeBest, ...],
            reward_fn: RewardFn) -> Evaluation:
    """One candidate's evaluation from its shapes' rows, in ``shapes``
    order."""
    totals: Dict[str, _NetworkTotals] = {}
    outcomes = iter(rows)
    for network, group in zip(networks, shapes):
        cycles = energy = 0
        for (layer, count, _), row in zip(group, outcomes):
            if row is None:
                logger.debug("no mapping for %s on %s", layer.name, accel.name)
                return Evaluation(math.inf, rows)
            for _ in range(count):
                cycles = cycles + row.cycles
                energy = energy + row.energy_nj
        totals[network.name] = _NetworkTotals(True, cycles, energy,
                                              cycles * energy)
    # By name, as network_costs() keys them.
    return Evaluation(reward_fn([totals[n.name] for n in networks]), rows)


@dataclasses.dataclass(frozen=True)
class CandidateTask:
    """Picklable payload: one accelerator scored on its networks.

    NAAS candidates share the search's ``networks`` tuple; a tuned,
    NAS or quantized network is a candidate of its own, as subnet
    names (``ResNetArch.describe`` rounds) can repeat in a generation.
    """

    accel: AcceleratorConfig
    networks: Tuple[Network, ...]
    cost_model: CostModel
    mapping_budget: MappingSearchBudget
    entropy: int
    mapping_style: EncodingStyle = EncodingStyle.IMPORTANCE
    reward_fn: RewardFn = geomean_edp


@group_worker
def evaluate_candidates(tasks: List[CandidateTask],
                        cache: Optional[EvaluationCache],
                        ) -> List[Evaluation]:
    """ParallelEvaluator group worker: score a task group's candidates
    with one :func:`evaluate_accelerators` call, one lockstep mapping
    search over the misses of all of them. The tasks of one search
    share the cost model, budgets, style and reward. What goes back to
    the coordinator is each candidate's reward and rows."""
    first = tasks[0]
    return evaluate_accelerators(
        [task.accel for task in tasks], [task.entropy for task in tasks],
        [task.networks for task in tasks], first.cost_model,
        first.mapping_budget, mapping_style=first.mapping_style,
        cache=cache, reward_fn=first.reward_fn)


class _AcceleratorLoop(GenerationLoop):
    """Hardware-search loop for :func:`run_search_loop`.

    ``ask`` samples/decodes one generation (warm-start vectors override
    the head of generation 0) and returns one :class:`CandidateTask`
    per decodable member; ``tell`` folds rewards back in submission
    order — ties keep the earliest candidate, matching the serial loop
    — and tells the generation to the engine at the commit boundary.
    """

    def __init__(self, engine: Any, encoder: HardwareEncoder,
                 rng, injected: List, budget: NAASBudget,
                 networks: Tuple[Network, ...], cost_model: CostModel,
                 mapping_style: EncodingStyle,
                 reward_fn: RewardFn) -> None:
        self.engine = engine
        self.encoder = encoder
        self.rng = rng
        self.injected = injected
        self.budget = budget
        self.networks = networks
        self.cost_model = cost_model
        self.mapping_style = mapping_style
        self.reward_fn = reward_fn
        self.iterations = budget.accel_iterations
        self.population = budget.accel_population

        self.best_config: Optional[AcceleratorConfig] = None
        self.best_reward = math.inf
        self.best_costs: Dict[str, NetworkCost] = {}
        self.best_maps: Dict[str, Mapping] = {}
        self.evaluations = 0
        self._vectors: List = []
        self._configs: List[Optional[AcceleratorConfig]] = []

    def ask(self, iteration: int) -> List[Optional[CandidateTask]]:
        self._vectors, self._configs, entropies = ask_generation(
            self.engine, self.encoder, self.population, iteration,
            self.injected, self.rng, name_prefix="naas")
        members: List[Optional[CandidateTask]] = []
        for member, config in enumerate(self._configs):
            if config is None:
                members.append(None)
                continue
            members.append(CandidateTask(
                accel=config, networks=self.networks,
                cost_model=self.cost_model,
                mapping_budget=self.budget.mapping,
                entropy=entropies[member],
                mapping_style=self.mapping_style,
                reward_fn=self.reward_fn))
            self.evaluations += 1
        return members

    def tell(self, iteration: int, outcomes: List[Optional[Evaluation]],
             ) -> List[float]:
        fitnesses = [math.inf] * self.population
        for member, outcome in enumerate(outcomes):
            if outcome is None:
                continue
            reward = outcome.reward
            fitnesses[member] = reward
            if math.isfinite(reward) and reward < self.best_reward:
                self.best_reward = reward
                self.best_config = self._configs[member]
                self.best_costs = outcome.network_costs(self.networks)
                self.best_maps = outcome.best_mappings(self.networks)
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
        mapping_style=mapping_style, reward_fn=reward_fn)

    with ParallelEvaluator(
            evaluate_candidates, workers=workers, cache_dir=cache_dir,
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
