"""Architectural-sizing-only hardware search (the Fig 8 baseline).

Prior co-search frameworks [11][12] treat the accelerator as a fixed
template: the PE inter-connection (array dimensionality, aspect and
parallel dims) and the compiler mapping are inherited from a reference
design, and only the numerical sizes — #PEs, buffer capacities,
bandwidth — are optimized. This module reproduces that regime so the
benefit of NAAS's connectivity + mapping search can be isolated.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.accelerator.arch import AcceleratorConfig
from repro.accelerator.constraints import ResourceConstraint
from repro.cost.model import CostModel
from repro.encoding.spaces import (
    ARRAY_STRIDE,
    BUFFER_STRIDE,
    MIN_AXIS,
    MIN_L1_BYTES,
    MIN_L2_BYTES,
)
from repro.errors import EncodingError
from repro.mapping.builders import dataflow_preserving_mapping
from repro.search.es import EvolutionEngine
from repro.search.objectives import geomean_edp
from repro.search.result import AcceleratorSearchResult, IterationStats
from repro.tensors.network import Network
from repro.utils.logging import get_logger
from repro.utils.mathutils import prod
from repro.utils.rng import SeedLike, ensure_rng

logger = get_logger(__name__)


class SizingOnlyEncoder:
    """Decode [0,1]^4 vectors into size-scaled copies of a reference design.

    Parameters: PE-count scale, L1 bytes, L2 bytes, DRAM bandwidth. The
    array keeps the reference's dimensionality, aspect ratio and parallel
    dims; axis sizes scale uniformly.
    """

    NUM_PARAMS = 4

    def __init__(self, reference: AcceleratorConfig,
                 constraint: ResourceConstraint) -> None:
        self.reference = reference
        self.constraint = constraint

    @property
    def num_params(self) -> int:
        return self.NUM_PARAMS

    def decode(self, vector: Sequence[float],
               name: str = "sizing-candidate") -> AcceleratorConfig:
        vec = np.asarray(vector, dtype=float)
        if vec.shape != (self.NUM_PARAMS,):
            raise EncodingError(
                f"expected {self.NUM_PARAMS} parameters, got {vec.shape}")
        array_dims = self._decode_array(float(vec[0]))
        num_pes = int(prod(array_dims))

        onchip = self.constraint.max_onchip_bytes
        l2_hi = onchip - num_pes * MIN_L1_BYTES
        if l2_hi < MIN_L2_BYTES:
            raise EncodingError("no L2 budget for this PE count")
        l2 = MIN_L2_BYTES + int(
            float(vec[2])
            * (l2_hi - MIN_L2_BYTES) // BUFFER_STRIDE) * BUFFER_STRIDE
        l1_hi = (onchip - l2) // num_pes
        if l1_hi < MIN_L1_BYTES:
            raise EncodingError("no L1 budget left")
        l1 = MIN_L1_BYTES + int(
            float(vec[1])
            * (l1_hi - MIN_L1_BYTES) // BUFFER_STRIDE) * BUFFER_STRIDE
        bandwidth = max(1, int(round(
            1 + float(vec[3]) * (self.constraint.max_dram_bandwidth - 1))))

        config = AcceleratorConfig(
            array_dims=array_dims,
            parallel_dims=self.reference.parallel_dims,
            l1_bytes=l1, l2_bytes=l2, dram_bandwidth=bandwidth, name=name)
        violations = self.constraint.violations(config)
        if violations:
            raise EncodingError(f"sizing candidate violates: {violations}")
        return config

    def _decode_array(self, scale_value: float) -> Tuple[int, ...]:
        ref_dims = self.reference.array_dims
        ndims = len(ref_dims)
        ref_pes = self.reference.num_pes
        target = MIN_AXIS ** ndims + scale_value * (self.constraint.max_pes
                                                    - MIN_AXIS ** ndims)
        scale = (target / ref_pes) ** (1.0 / ndims)
        dims: List[int] = []
        for ref in ref_dims:
            size = max(MIN_AXIS,
                       int(round(ref * scale / ARRAY_STRIDE)) * ARRAY_STRIDE)
            dims.append(size)
        # Trim the largest axis until the PE budget is met.
        while prod(dims) > self.constraint.max_pes:
            largest = max(range(ndims), key=lambda i: dims[i])
            if dims[largest] <= MIN_AXIS:
                raise EncodingError("cannot fit reference aspect in PE budget")
            dims[largest] -= ARRAY_STRIDE
        return tuple(dims)


def search_sizing_only(networks: Sequence[Network],
                       constraint: ResourceConstraint,
                       reference: AcceleratorConfig,
                       cost_model: CostModel,
                       population: int = 12,
                       iterations: int = 8,
                       seed: SeedLike = None,
                       ) -> AcceleratorSearchResult:
    """Evolutionary sizing search with fixed connectivity and mappings."""
    rng = ensure_rng(seed)
    encoder = SizingOnlyEncoder(reference, constraint)
    engine = EvolutionEngine(encoder.num_params, seed=rng)

    best_config: Optional[AcceleratorConfig] = None
    best_reward = math.inf
    best_costs = {}
    history: List[IterationStats] = []
    evaluations = 0

    for iteration in range(iterations):
        vectors = []
        fitnesses = []
        for member in range(population):
            vector = engine.sample()
            vectors.append(vector)
            try:
                config = encoder.decode(
                    vector, name=f"sizing-g{iteration}m{member}")
            except EncodingError:
                fitnesses.append(math.inf)
                continue
            costs = {}
            for network in networks:
                costs[network.name] = cost_model.evaluate_network(
                    network, config,
                    lambda layer: dataflow_preserving_mapping(layer, config))
            reward = geomean_edp(list(costs.values()))
            evaluations += 1
            fitnesses.append(reward)
            if math.isfinite(reward) and reward < best_reward:
                best_reward = reward
                best_config = config
                best_costs = costs
        engine.update(vectors, fitnesses)
        history.append(IterationStats.from_fitnesses(
            iteration, tuple(fitnesses), population))
    return AcceleratorSearchResult(
        best_config=best_config,
        best_reward=best_reward,
        network_costs=best_costs,
        best_mappings={},
        history=tuple(history),
        evaluations=evaluations,
    )
