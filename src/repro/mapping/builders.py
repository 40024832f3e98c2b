"""Heuristic mapping constructors.

These provide sensible starting points: evaluating a baseline preset
without search, seeding a search population, and writing tests against
known-good mappings.
"""

from __future__ import annotations

import functools
from typing import Dict, Optional

from repro.accelerator.arch import AcceleratorConfig
from repro.cost.operands import tile_set_bytes
from repro.mapping.mapping import Mapping
from repro.mapping.tiling import clamp_tiles, shrink_to_budget
from repro.tensors.dims import SEARCHED_DIMS, Dim
from repro.tensors.layer import ConvLayer

#: Accumulator width assumed when legalizing tiles against the L2 budget;
#: must match :class:`repro.cost.config.CostParams.psum_bytes`.
DEFAULT_PSUM_BYTES = 4


def untiled_mapping(layer: ConvLayer) -> Mapping:
    """Whole-layer tiles with canonical loop order (baseline of baselines).

    Usually illegal for real L2 sizes — the cost model will report the
    buffer overflow — but useful as a deterministic reference point.
    """
    tiles = {dim: layer.dim_size(dim) for dim in SEARCHED_DIMS}
    return Mapping.create(array_order=SEARCHED_DIMS, pe_order=SEARCHED_DIMS,
                          tiles=tiles)


def _tile_footprint(layer: ConvLayer, tiles: Dict[Dim, int],
                    psum_bytes: int) -> float:
    return tile_set_bytes(layer, tiles, psum_bytes)


#: The heuristic's outer walk: outputs first (K, Y, X), reductions
#: innermost.
HEURISTIC_ARRAY_ORDER = (Dim.K, Dim.Y, Dim.X, Dim.C, Dim.R, Dim.S)
#: The heuristic's PE-level order: reductions innermost too, spatial
#: dims outermost.
HEURISTIC_PE_ORDER = (Dim.Y, Dim.X, Dim.K, Dim.C, Dim.R, Dim.S)


def heuristic_tile_caps(accel: AcceleratorConfig,
                        ) -> Dict[Dim, Optional[int]]:
    """The heuristic's L2 tile per dim before shrinking to budget:
    ``min(dim size, cap)``, or the whole dim where the cap is ``None``.
    """
    caps: Dict[Dim, Optional[int]] = {}
    for dim in SEARCHED_DIMS:
        spatial = accel.spatial_size(dim)
        if spatial > 1:
            # Cover the axis a small number of times: up to 4 passes.
            caps[dim] = spatial * 4
        elif dim in (Dim.R, Dim.S):
            caps[dim] = None  # kernels are tiny; keep whole
        elif dim in (Dim.Y, Dim.X):
            caps[dim] = 16
        else:
            caps[dim] = 64
    return caps


def dataflow_preserving_mapping(layer: ConvLayer,
                                accel: AcceleratorConfig) -> Mapping:
    """A reasonable hand-built mapping honouring the accelerator's dataflow.

    Heuristics mirror what the published designs do:

    - L2 tiles sized so the parallel dims cover the array exactly
      (multiples of the axis size when possible), see
      :func:`heuristic_tile_caps`;
    - reduction dims (C, R, S) kept innermost at the array level so
      partial sums stay on-chip (output-stationary outer walk);
    - PE level iterates reduction dims first for accumulate locality.

    The scalar reference of
    :func:`repro.encoding.mapping_enc.heuristic_vectors`.
    """
    tiles: Dict[Dim, int] = {}
    for dim, cap in heuristic_tile_caps(accel).items():
        size = layer.dim_size(dim)
        tiles[dim] = size if cap is None else min(size, cap)
    tiles = clamp_tiles(layer, tiles)
    footprint = functools.partial(
        _tile_footprint, psum_bytes=DEFAULT_PSUM_BYTES)
    tiles = shrink_to_budget(layer, tiles, footprint, accel.l2_bytes)
    return Mapping.create(array_order=HEURISTIC_ARRAY_ORDER,
                          pe_order=HEURISTIC_PE_ORDER, tiles=tiles)
