"""Inner loop: evolutionary compiler-mapping search per layer (§II-B).

Each layer shape is optimized independently (different conv shapes want
different mappings): it has its own evolution engine, seed, heuristic
warm start and ask/tell order. What is shared is the evaluation.
:func:`search_mappings` runs the searches of many layers in *lockstep*:
every generation it stacks all layers' vectors into one batch of
layers x population lanes, decodes it with one array pass
(:func:`repro.encoding.mapping_enc.decode_lanes`) and costs it with
another (:meth:`repro.cost.model.CostModel.evaluate_lanes`). That is
what makes the vectorized cost path pay: a candidate's 31 mobilenet_v2
shapes at the ``quick`` population of 6 are one 186-lane call per
generation instead of 31 six-lane calls. ``Mapping`` and ``LayerCost``
objects are built only for a generation's new best per layer.

Lockstep changes no result: each layer's search is exactly what it
would be alone (:func:`search_mapping` is the one-layer call). The
encoder legalizes tilings, so nearly every sample evaluates; samples
whose decode still fails count against the budget like the paper's
rejected candidates.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional, Sequence, Type

import numpy as np

from repro.accelerator.arch import AcceleratorConfig
from repro.cost.batch import LaneLayers
from repro.cost.model import CostModel
from repro.encoding.mapping_enc import MappingEncoder, decode_lanes
from repro.encoding.spaces import EncodingStyle
from repro.mapping.builders import dataflow_preserving_mapping
from repro.search.es import EvolutionEngine
from repro.search.result import IterationStats, MappingSearchResult
from repro.tensors.layer import ConvLayer
from repro.utils.logging import get_logger
from repro.utils.rng import SeedLike, ensure_rng

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
                   engine_cls: Type = EvolutionEngine,
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
        style=style, engine_cls=engine_cls,
        seed_with_heuristic=seed_with_heuristic)
    return result


def search_mappings(layers: Sequence[ConvLayer],
                    accel: AcceleratorConfig,
                    cost_model: CostModel,
                    budget: MappingSearchBudget = MappingSearchBudget(),
                    seeds: Optional[Sequence[SeedLike]] = None,
                    style: EncodingStyle = EncodingStyle.IMPORTANCE,
                    engine_cls: Type = EvolutionEngine,
                    seed_with_heuristic: bool = True,
                    ) -> List[MappingSearchResult]:
    """Run one mapping search per layer, all in lockstep.

    ``seeds[i]`` seeds layer ``i``'s engine (``None`` for all-fresh
    streams). Result ``i`` equals ``search_mapping(layers[i], ...,
    seed=seeds[i])`` whatever the other layers are, provided no two
    layers share one ``numpy`` generator object as their seed.
    """
    layers = list(layers)
    seeds = [None] * len(layers) if seeds is None else list(seeds)
    if len(seeds) != len(layers):
        raise ValueError(f"{len(seeds)} seeds for {len(layers)} layers")
    if not layers:
        return []
    population = budget.population
    encoders = [MappingEncoder(layer, accel, style=style) for layer in layers]
    engines = [engine_cls(encoder.num_params, seed=ensure_rng(seed))
               for encoder, seed in zip(encoders, seeds)]
    injected = [[] for _ in layers]
    if seed_with_heuristic and style is EncodingStyle.IMPORTANCE:
        injected = [[encoder.encode_mapping(
            dataflow_preserving_mapping(layer, accel))]
            for layer, encoder in zip(layers, encoders)]
    lanes = LaneLayers(layers, np.repeat(np.arange(len(layers)), population))

    best_mappings = [None] * len(layers)
    best_costs = [None] * len(layers)
    best_edps = [math.inf] * len(layers)
    histories: List[List[IterationStats]] = [[] for _ in layers]
    evaluations = [0] * len(layers)

    for iteration in range(budget.iterations):
        # Ask: each layer's whole generation up front (warm starts take
        # the head of generation 0), in one stacked batch.
        vectors = []
        for engine, head in zip(engines, injected):
            if iteration == 0 and head:
                head = head[:population]
                vectors.append(head + engine.ask(population - len(head)))
            else:
                vectors.append(engine.ask(population))
        mappings = decode_lanes(lanes, accel, style,
                                [v for layer in vectors for v in layer])
        costs = cost_model.evaluate_lanes(lanes, accel, mappings)
        # The fitness is the EDP; decode failures and invalid costs
        # read inf there.
        edp = costs.edp.reshape(len(layers), population)
        winners = edp.argmin(axis=1)
        decoded = mappings.ok.reshape(len(layers), population).sum(axis=1)
        valid = costs.valid.reshape(len(layers), population).sum(axis=1)

        for index, layer in enumerate(layers):
            fitnesses = edp[index].tolist()
            # Tell: the lane-order fitnesses, exactly as evaluated.
            engines[index].tell(vectors[index], fitnesses)
            evaluations[index] += int(decoded[index])
            # First-occurrence argmin, strict improvement: the lane a
            # lane-by-lane ``edp < best`` scan would keep.
            winner = int(winners[index])
            if edp[index, winner] < best_edps[index]:
                lane = index * population + winner
                best_edps[index] = fitnesses[winner]
                best_mappings[index] = mappings.mapping(lane)
                best_costs[index] = costs.layer_cost(lane)
            finite = [f for f in fitnesses if math.isfinite(f)]
            histories[index].append(IterationStats(
                iteration=iteration,
                best_fitness=min(finite) if finite else math.inf,
                mean_fitness=(sum(finite) / len(finite) if finite
                              else math.inf),
                valid_count=int(valid[index]),
                population=population,
            ))
            logger.debug("mapping search %s iter %d best=%.3e",
                         layer.name, iteration, best_edps[index])

    return [MappingSearchResult(
        layer_name=layer.name,
        best_mapping=best_mappings[index],
        best_cost=best_costs[index],
        history=tuple(histories[index]),
        evaluations=evaluations[index],
    ) for index, layer in enumerate(layers)]
