"""Inner loop: evolutionary compiler-mapping search per layer (§II-B).

Each layer shape is optimized independently (different conv shapes want
different mappings), from its own seed, heuristic warm start and ES
state. :func:`search_mappings` runs the searches of many layers, each
on its own accelerator, in *lockstep*, as arrays:

- the ES state of every shape is one :class:`repro.search.es.EvolutionStack`
  row (mean and covariance, plus the shape's own random stream), so a
  generation's ask is one draw per shape and one stacked product, and
  its tell one stacked update; the heuristic warm starts of all shapes
  are one array pass too
  (:func:`repro.encoding.mapping_enc.heuristic_vectors`);
- the generation's vectors, layers x population lanes, are decoded in
  one array pass (:func:`repro.encoding.mapping_enc.decode_lanes`) and
  costed in another (:meth:`repro.cost.model.CostModel.evaluate_lanes`),
  each lane against its row's accelerator
  (:class:`repro.cost.batch.LaneAccels`). A NAAS generation's task
  group is one search: at workers=1 the ``quick`` profile's 8
  candidates x 31 mobilenet_v2 shapes at population 6 are one
  1,488-lane call per generation instead of 8 calls of 186 lanes, and
  ``full``'s 10 x 31 at population 16 one of 4,960; a tuned baseline's
  whole benchmark set at the ``paper`` population of 20 is one call of
  1,040 lanes (large set, 52 shapes) or 1,480 (mobile set, 74 distinct
  shapes);
- each shape's best so far is one row of a ``LaneMappings``/
  ``LaneCosts`` pair, overwritten when a generation improves on it
  (:meth:`~repro.cost.batch.LaneCosts.put`); every generation is asked
  into one reused vector array, and its mappings and costs are freed
  before the tell. The ``Mapping`` and ``LayerCost`` objects are built
  once, after the last generation.

Lockstep changes no result: each layer's search is exactly what it
would be alone on its accelerator (:func:`search_mapping` is the
one-layer call). The
encoder legalizes tilings, so nearly every sample evaluates; samples
whose decode still fails count against the budget like the paper's
rejected candidates.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.accelerator.arch import AcceleratorConfig
from repro.cost.batch import LaneAccels, LaneCosts, LaneLayers, LaneMappings
from repro.cost.model import CostModel
from repro.encoding.mapping_enc import (
    decode_lanes,
    heuristic_vectors,
    num_params,
)
from repro.encoding.spaces import EncodingStyle
from repro.search.es import EvolutionStack
from repro.search.result import (
    IterationStats,
    MappingSearchResult,
    best_and_mean,
)
from repro.tensors.layer import ConvLayer
from repro.utils.logging import get_logger
from repro.utils.rng import SeedLike

logger = get_logger(__name__)


@dataclasses.dataclass(frozen=True)
class MappingSearchBudget:
    """Evolution budget of the inner loop."""

    population: int = 16
    iterations: int = 8

    def __post_init__(self) -> None:
        if self.population < 1 or self.iterations < 1:
            raise ValueError(
                f"budget must be at least 1x1, got "
                f"{self.population}x{self.iterations}")

    @property
    def total_samples(self) -> int:
        return self.population * self.iterations


def search_mapping(layer: ConvLayer,
                   accel: AcceleratorConfig,
                   cost_model: CostModel,
                   budget: MappingSearchBudget = MappingSearchBudget(),
                   seed: SeedLike = None,
                   style: EncodingStyle = EncodingStyle.IMPORTANCE,
                   seed_with_heuristic: bool = True,
                   ) -> MappingSearchResult:
    """Find the lowest-EDP mapping for ``layer`` on ``accel``.

    When ``seed_with_heuristic`` is set (and the encoding supports it),
    the first generation includes the dataflow-preserving heuristic
    mapping, so the search never returns something worse than the
    hand-built starting point. The one-layer call of
    :func:`search_mappings`.
    """
    [result] = search_mappings(
        [layer], accel, cost_model, budget=budget, seeds=[seed],
        style=style, seed_with_heuristic=seed_with_heuristic)
    return result


def search_mappings(layers: Sequence[ConvLayer],
                    accels: Union[AcceleratorConfig,
                                  Sequence[AcceleratorConfig]],
                    cost_model: CostModel,
                    budget: MappingSearchBudget = MappingSearchBudget(),
                    seeds: Optional[Sequence[SeedLike]] = None,
                    style: EncodingStyle = EncodingStyle.IMPORTANCE,
                    seed_with_heuristic: bool = True,
                    ) -> List[MappingSearchResult]:
    """Run one mapping search per layer, all in lockstep.

    ``accels`` is one accelerator per layer, or one all layers share;
    ``seeds[i]`` seeds layer ``i``'s ES (``None`` for all-fresh
    streams). Result ``i`` equals ``search_mapping(layers[i],
    accels[i], ..., seed=seeds[i])`` whatever the other layers and
    accelerators are, provided no two layers share one ``numpy``
    generator object as their seed.
    """
    layers = list(layers)
    seeds = [None] * len(layers) if seeds is None else list(seeds)
    if len(seeds) != len(layers):
        raise ValueError(f"{len(seeds)} seeds for {len(layers)} layers")
    if isinstance(accels, AcceleratorConfig):
        accels = [accels] * len(layers)
    if len(accels) != len(layers):
        raise ValueError(
            f"{len(accels)} accelerators for {len(layers)} layers")
    if not layers:
        return []
    count, population = len(layers), budget.population
    params = num_params(style)
    stack = EvolutionStack(params, seeds)
    # Each distinct layer and accelerator is gathered once; row i of
    # the search is (distinct_layers[layer_rows[i]],
    # distinct_accels[accel_rows[i]]).
    distinct_layers, layer_rows = _distinct(layers)
    distinct_accels, accel_rows = _distinct(accels)
    # Warm starts take the head of generation 0.
    head = np.empty((count, 0, params))
    if seed_with_heuristic and style is EncodingStyle.IMPORTANCE:
        head = heuristic_vectors(
            LaneLayers(distinct_layers, layer_rows),
            LaneAccels(distinct_accels, accel_rows))[:, None]
    lanes = LaneLayers(distinct_layers, np.repeat(layer_rows, population))
    accel_lanes = LaneAccels(distinct_accels,
                             np.repeat(accel_rows, population))
    vectors = np.empty((count, population, params))
    shapes = np.arange(count)

    best_edps = np.full(count, math.inf)
    # Row i: shape i's best mapping and cost so far, read only where
    # best_edps[i] is finite. The Mapping and LayerCost objects are
    # built after the search.
    best_mappings: Optional[LaneMappings] = None
    best_costs: Optional[LaneCosts] = None
    histories: List[List[IterationStats]] = [[] for _ in layers]
    evaluations = np.zeros(count, dtype=np.int64)

    for iteration in range(budget.iterations):
        # Ask: every layer's whole generation up front, in one batch,
        # into the one array every generation reuses.
        if iteration == 0:
            warm = head.shape[1]
            vectors[:, :warm] = head
            stack.ask(population - warm, out=vectors[:, warm:])
        else:
            stack.ask(population, out=vectors)
        mappings = decode_lanes(lanes, accel_lanes, style,
                                vectors.reshape(-1, params))
        costs = cost_model.evaluate_lanes(lanes, accel_lanes, mappings)
        # The fitness is the EDP; decode failures and invalid costs
        # read inf there.
        edp = costs.edp.reshape(count, population)
        evaluations += mappings.ok.reshape(count, population).sum(axis=1)
        valid = costs.valid.reshape(count, population).sum(axis=1)

        # First-occurrence argmin, strict improvement: the lane a
        # lane-by-lane ``edp < best`` scan would keep.
        winners = edp.argmin(axis=1)
        improved = np.flatnonzero(edp[shapes, winners] < best_edps)
        if len(improved):
            chosen = improved * population + winners[improved]
            best_edps[improved] = costs.edp[chosen]
            if best_costs is None:
                firsts = shapes * population + winners
                best_mappings = mappings.take(firsts)
                best_costs = costs.take(firsts)
            else:
                best_mappings.put(improved, mappings, chosen)
                best_costs.put(improved, costs, chosen)
        # Only the best rows outlive the generation: free the rest
        # before the tell and the next generation's arrays.
        del mappings, costs

        # Tell: the lane-order fitnesses, as evaluated.
        stack.tell(vectors, edp)
        bests, means = best_and_mean(edp)
        for history, best, mean, valid_count in zip(
                histories, bests, means, valid.tolist()):
            history.append(IterationStats(
                iteration=iteration, best_fitness=best, mean_fitness=mean,
                valid_count=valid_count, population=population))
        logger.debug("mapping search of %d layers iter %d: %d improved",
                     count, iteration, len(improved))

    # The search state goes before the result objects are built.
    del stack, lanes, accel_lanes, vectors
    results = []
    for index, layer in enumerate(layers):
        best_mapping = best_cost = None
        if math.isfinite(best_edps[index]):
            best_mapping = best_mappings.mapping(index)
            best_cost = best_costs.layer_cost(index)
        results.append(MappingSearchResult(
            layer_name=layer.name,
            best_mapping=best_mapping,
            best_cost=best_cost,
            history=tuple(histories[index]),
            evaluations=int(evaluations[index]),
        ))
    return results


def _distinct(items: Sequence) -> Tuple[list, np.ndarray]:
    """``(distinct, index)``: ``items[i] == distinct[index[i]]``, each
    distinct item once, in first-occurrence order."""
    first: Dict[Any, int] = {}
    index = [first.setdefault(item, len(first)) for item in items]
    return list(first), np.asarray(index, dtype=np.int64)
