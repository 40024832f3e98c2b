"""Tiling sizes: how much of each dimension is staged in the L2 buffer.

The paper encodes tiling as *scaling ratios* of the full dimension
(§II-B), so the same encoding vector adapts across layers of different
sizes. This module converts ratios to concrete integer tile sizes and
clamps them to legal ranges.
"""

from __future__ import annotations

from typing import Dict, Mapping as TypingMapping, Sequence, Tuple

import numpy as np

from repro.errors import InvalidMappingError
from repro.tensors.dims import SEARCHED_DIMS, Dim
from repro.tensors.layer import ConvLayer
from repro.utils.mathutils import ceil_div

Tiles = Dict[Dim, int]


def tiles_from_ratios(layer: ConvLayer, ratios: Sequence[float]) -> Tiles:
    """Turn per-dimension scaling ratios in (0, 1] into integer tiles.

    A ratio of 1 keeps the whole dimension resident; small ratios shrink
    the tile. Tiles are at least 1 and never exceed the dimension size.
    """
    if len(ratios) != len(SEARCHED_DIMS):
        raise InvalidMappingError(
            f"need {len(SEARCHED_DIMS)} tiling ratios, got {len(ratios)}")
    tiles: Tiles = {}
    for dim, ratio in zip(SEARCHED_DIMS, ratios):
        if not 0 < ratio <= 1:
            raise InvalidMappingError(
                f"tiling ratio for {dim.name} must be in (0, 1], got {ratio}")
        size = layer.dim_size(dim)
        tiles[dim] = max(1, min(size, int(round(ratio * size))))
    return tiles


def clamp_tiles(layer: ConvLayer, tiles: TypingMapping[Dim, int]) -> Tiles:
    """Clamp arbitrary tile sizes into [1, dim size] for ``layer``."""
    clamped: Tiles = {}
    for dim in SEARCHED_DIMS:
        size = layer.dim_size(dim)
        value = int(tiles.get(dim, size))
        clamped[dim] = max(1, min(size, value))
    return clamped


def full_tiles(layer: ConvLayer) -> Tiles:
    """Tiles covering each dimension entirely (everything L2-resident)."""
    return {dim: layer.dim_size(dim) for dim in SEARCHED_DIMS}


def tile_counts(layer: ConvLayer,
                tiles: TypingMapping[Dim, int]) -> Dict[Dim, int]:
    """Outer-loop trip counts: how many tiles cover each dimension."""
    return {dim: ceil_div(layer.dim_size(dim), tiles[dim])
            for dim in SEARCHED_DIMS}


def shrink_to_budget(layer: ConvLayer, tiles: TypingMapping[Dim, int],
                     footprint, budget_bytes: int,
                     shrink_order: Sequence[Dim] = (
                         Dim.C, Dim.K, Dim.Y, Dim.X, Dim.S, Dim.R),
                     ) -> Tiles:
    """Halve tiles (in ``shrink_order``, round-robin) until they fit.

    ``footprint`` is a callable ``(layer, tiles) -> bytes``. Used by the
    mapping encoder to legalize sampled tilings instead of discarding
    them, which keeps the evolution loop's sample efficiency high. If
    even all-1 tiles exceed the budget the minimal tiling is returned and
    the cost model will flag the design invalid.
    """
    current = clamp_tiles(layer, tiles)
    guard = 0
    while footprint(layer, current) > budget_bytes:
        shrunk_any = False
        for dim in shrink_order:
            if footprint(layer, current) <= budget_bytes:
                break
            if current[dim] > 1:
                current[dim] = ceil_div(current[dim], 2)
                shrunk_any = True
        if not shrunk_any:
            break
        guard += 1
        if guard > 64:  # 2^64 shrink rounds would mean a bug, not a big layer
            raise InvalidMappingError(
                f"tile shrinking did not converge for layer {layer.name!r}")
    return current


def shrink_to_budget_batch(sizes: np.ndarray, tiles: np.ndarray,
                           footprint_batch, budget_bytes,
                           shrink_order: Sequence[Dim] = (
                               Dim.C, Dim.K, Dim.Y, Dim.X, Dim.S, Dim.R),
                           ) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`shrink_to_budget` over stacked tile rows.

    ``tiles`` and ``sizes`` (each lane's layer dimension sizes) are
    ``(B, 6)`` integers in :data:`SEARCHED_DIMS` order, so lanes may
    belong to different layers; ``footprint_batch`` is ``tiles_array ->
    (B,) bytes``, and ``budget_bytes`` one budget for every lane or a
    ``(B,)`` array of them (lanes on different accelerators). Each
    lane follows the scalar halving schedule exactly: the footprint is
    re-checked before every dim so a lane stops shrinking the moment
    it fits within the round. Returns ``(tiles,
    converged)``; lanes that hit the scalar guard are flagged
    unconverged (the scalar path raises :class:`InvalidMappingError`
    there).
    """
    column = {dim: i for i, dim in enumerate(SEARCHED_DIMS)}
    current = np.maximum(1, np.minimum(sizes,
                                       np.asarray(tiles, dtype=np.int64)))
    converged = np.ones(current.shape[0], dtype=bool)
    over = footprint_batch(current) > budget_bytes
    guard = 0
    while over.any():
        shrunk_any = np.zeros(current.shape[0], dtype=bool)
        for dim in shrink_order:
            over = over & (footprint_batch(current) > budget_bytes)
            if not over.any():
                break
            col = column[dim]
            shrink = over & (current[:, col] > 1)
            current[:, col] = np.where(shrink, -(-current[:, col] // 2),
                                       current[:, col])
            shrunk_any |= shrink
        over = shrunk_any & (footprint_batch(current) > budget_bytes)
        if not over.any():
            break
        guard += 1
        if guard > 64:
            converged &= ~over
            break
    return current, converged
