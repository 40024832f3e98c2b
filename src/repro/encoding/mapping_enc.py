"""Mapping encoder: optimizer vector in [0,1]^n <-> Mapping.

Vector layout (importance style, 18 parameters — Fig 2's mapping
encoding vector):

====== ========================================================
Index  Meaning
====== ========================================================
0-5    array-level importance per dim -> outer loop order
6-11   tiling ratio per dim (fraction of the full dimension)
12-17  PE-level importance per dim -> inner loop order
====== ========================================================

Index style (8 parameters): scalar permutation index for each loop
order instead of the importances (Fig 9 ablation).

Tiling ratios follow §II-B: sizes are expressed relative to the layer's
dimensions so one distribution generalizes across layers. Decoded tiles
are legalized against the accelerator's L2 budget by halving (largest
contributors first) rather than rejected, preserving sample efficiency.

:func:`decode_lanes` decodes a whole lockstep generation — vectors of
many layers at once — into integer arrays; :meth:`MappingEncoder.decode`
is its scalar reference and ``decode_batch`` its one-layer wrapper.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.accelerator.arch import AcceleratorConfig
from repro.cost.batch import AccelsLike, LaneAccels, LaneLayers, LaneMappings
from repro.cost.operands import tile_set_bytes
from repro.encoding.importance import importance_for_order, ranked_dims
from repro.encoding.index import decode_order_scalar
from repro.encoding.spaces import EncodingStyle
from repro.errors import EncodingError, InvalidMappingError
from repro.mapping.builders import (
    DEFAULT_PSUM_BYTES,
    HEURISTIC_ARRAY_ORDER,
    HEURISTIC_PE_ORDER,
    heuristic_tile_caps,
)
from repro.mapping.mapping import Mapping
from repro.mapping.tiling import shrink_to_budget, shrink_to_budget_batch
from repro.tensors.dims import DIM_INDEX, SEARCHED_DIMS, Dim
from repro.tensors.layer import ConvLayer

#: Accumulator width used when legalizing tiles; matches CostParams default.
PSUM_BYTES = 4

_NUM_DIMS = len(SEARCHED_DIMS)

#: Row ``i`` is the index style's ``i``-th loop order
#: (:func:`repro.encoding.index.nth_permutation` is lexicographic over
#: dim positions) as DIM_INDEX indices, outermost first.
_PERMUTATIONS = np.array(
    list(itertools.permutations([DIM_INDEX[dim] for dim in SEARCHED_DIMS])),
    dtype=np.int8)


def _tile_footprint(layer: ConvLayer, tiles: Dict[Dim, int]) -> float:
    return tile_set_bytes(layer, tiles, PSUM_BYTES)


def num_params(style: EncodingStyle) -> int:
    """Length of a mapping vector in ``style``."""
    if style is EncodingStyle.IMPORTANCE:
        return 3 * _NUM_DIMS
    return 1 + _NUM_DIMS + 1


def _stack(vectors: Sequence[Sequence[float]],
           length: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(matrix, ok)``: rows of decodable vectors, zeros elsewhere.

    A vector is decodable when it has ``length`` entries, all finite.
    """
    try:
        matrix = np.asarray(vectors, dtype=float)
    except ValueError:  # ragged: stack row by row
        matrix = None
    if matrix is None or matrix.shape != (len(vectors), length):
        matrix = np.zeros((len(vectors), length))
        shaped = np.zeros(len(vectors), dtype=bool)
        for row, vector in enumerate(vectors):
            vec = np.asarray(vector, dtype=float)
            if vec.shape == (length,):
                matrix[row] = vec
                shaped[row] = True
    else:
        shaped = np.ones(len(vectors), dtype=bool)
    ok = shaped & np.isfinite(matrix).all(axis=1)
    if not ok.all():
        matrix = np.where(ok[:, None], matrix, 0.0)
    return matrix, ok


def _ranked_rows(importance: np.ndarray) -> np.ndarray:
    """Vectorized :func:`ranked_dims` as ``int8`` DIM_INDEX rows."""
    order = np.argsort(-importance, axis=1, kind="stable").astype(np.int8)
    order += 1
    return order


def _order_rows(scalars: np.ndarray) -> np.ndarray:
    """Vectorized :func:`decode_order_scalar` (finite inputs)."""
    count = len(_PERMUTATIONS)
    with np.errstate(over="ignore"):
        index = np.clip(np.trunc(scalars * count), 0, count - 1)
    return _PERMUTATIONS[index.astype(np.int64)]


def decode_lanes(lanes: LaneLayers, accels: AccelsLike,
                 style: EncodingStyle,
                 vectors: Sequence[Sequence[float]]) -> LaneMappings:
    """Decode one vector per lane, each against its lane's layer and
    accelerator (a :class:`~repro.cost.batch.LaneAccels`, or one
    accelerator every lane shares).

    Lane ``i`` of the result equals ``MappingEncoder(lanes.layer(i),
    accel, style).decode(vectors[i])`` as arrays, with ``accel`` lane
    ``i``'s accelerator; lanes whose decode raises
    :class:`EncodingError` (wrong length, non-finite entries) come back
    with ``ok`` false. Loop orders are a stable
    ``argsort(-importance)`` (importance style) or a row of the 720
    six-dim permutations (index style); tiles are legalized against
    each lane's L2 for every lane at once.
    """
    accels = LaneAccels.of(accels, len(lanes))
    matrix, ok = _stack(vectors, num_params(style))
    if style is EncodingStyle.IMPORTANCE:
        array_order = _ranked_rows(matrix[:, 0:_NUM_DIMS])
        ratios = matrix[:, _NUM_DIMS:2 * _NUM_DIMS]
        pe_order = _ranked_rows(matrix[:, 2 * _NUM_DIMS:3 * _NUM_DIMS])
    else:
        array_order = _order_rows(matrix[:, 0])
        ratios = matrix[:, 1:1 + _NUM_DIMS]
        pe_order = _order_rows(matrix[:, 1 + _NUM_DIMS])

    sizes = lanes.sizes[:, 1:]
    with np.errstate(over="ignore"):
        tiles = np.rint(np.clip(ratios * sizes, 1.0, sizes)).astype(np.int64)
    # Parallel dims should cover the array at least once when the
    # layer allows it, otherwise PEs are guaranteed idle (an axis
    # extent of 1 leaves a tile as it is).
    for idx in accels.parallel_columns():
        col = idx - 1  # SEARCHED_DIMS are dim indices 1..6
        size = sizes[:, col]
        tiles[:, col] = np.minimum(size, np.maximum(
            tiles[:, col], np.minimum(accels.axis[:, idx], size)))
    tiles, converged = shrink_to_budget_batch(
        sizes, tiles, lambda t: lanes.tile_set_bytes(t, PSUM_BYTES),
        accels.l2_bytes)
    stuck = np.flatnonzero(ok & ~converged)
    if len(stuck):
        raise InvalidMappingError(
            f"tile shrinking did not converge for layer "
            f"{lanes.layer(stuck[0]).name!r}")
    return LaneMappings(tiles, array_order, pe_order, ok)


def heuristic_vectors(lanes: LaneLayers,
                      accels: AccelsLike) -> np.ndarray:
    """The importance-style vector of the dataflow-preserving heuristic
    mapping of every lane's layer on its accelerator, ``(B, 18)``.

    Row ``i`` equals ``MappingEncoder(lanes.layer(i), accel)
    .encode_mapping(dataflow_preserving_mapping(lanes.layer(i),
    accel))`` with ``accel`` lane ``i``'s accelerator: the heuristic's
    tiles come from :func:`repro.mapping.builders.heuristic_tile_caps` and
    shrink to each lane's L2 budget for every lane at once; its two
    loop orders are the same importance rows for every lane. This is
    the mapping search's warm start.
    """
    accels = LaneAccels.of(accels, len(lanes))
    sizes = lanes.sizes[:, 1:]
    # A cap of None keeps the whole dim: no size reaches the int64 max.
    whole = np.iinfo(np.int64).max
    caps = accels.per_accel([
        [whole if cap is None else cap
         for cap in heuristic_tile_caps(accel).values()]
        for accel in accels.accels])
    tiles, converged = shrink_to_budget_batch(
        sizes, np.minimum(sizes, caps),
        lambda t: lanes.tile_set_bytes(t, DEFAULT_PSUM_BYTES),
        accels.l2_bytes)
    stuck = np.flatnonzero(~converged)
    if len(stuck):
        raise InvalidMappingError(
            f"tile shrinking did not converge for layer "
            f"{lanes.layer(stuck[0]).name!r}")
    vectors = np.empty((len(lanes), 3 * _NUM_DIMS))
    vectors[:, 0:_NUM_DIMS] = importance_for_order(HEURISTIC_ARRAY_ORDER)
    vectors[:, _NUM_DIMS:2 * _NUM_DIMS] = tiles / sizes
    vectors[:, 2 * _NUM_DIMS:] = importance_for_order(HEURISTIC_PE_ORDER)
    return np.clip(vectors, 0.0, 1.0)


class MappingEncoder:
    """Decode optimizer vectors into legal mappings for one layer."""

    def __init__(self, layer: ConvLayer, accel: AcceleratorConfig,
                 style: EncodingStyle = EncodingStyle.IMPORTANCE) -> None:
        self.layer = layer
        self.accel = accel
        self.style = style

    @property
    def num_params(self) -> int:
        return num_params(self.style)

    def decode(self, vector: Sequence[float]) -> Mapping:
        """Turn a [0,1]^n vector into a legal mapping for the layer.

        The scalar reference for :func:`decode_lanes`. Raises
        :class:`EncodingError` for a vector of the wrong length or with
        a non-finite entry.
        """
        vec = np.asarray(vector, dtype=float)
        if vec.shape != (self.num_params,):
            raise EncodingError(
                f"expected {self.num_params} parameters, got {vec.shape}")
        if not np.isfinite(vec).all():
            raise EncodingError(f"non-finite mapping vector entries: {vec}")

        if self.style is EncodingStyle.IMPORTANCE:
            array_order = ranked_dims(list(vec[0:_NUM_DIMS]))
            ratios = vec[_NUM_DIMS:2 * _NUM_DIMS]
            pe_order = ranked_dims(list(vec[2 * _NUM_DIMS:3 * _NUM_DIMS]))
        else:
            array_order = decode_order_scalar(float(vec[0]))
            ratios = vec[1:1 + _NUM_DIMS]
            pe_order = decode_order_scalar(float(vec[1 + _NUM_DIMS]))

        tiles = self._decode_tiles(ratios)
        return Mapping.create(array_order=array_order, pe_order=pe_order,
                              tiles=tiles)

    def decode_batch(self, vectors: Sequence[Sequence[float]],
                     ) -> List[Optional[Mapping]]:
        """Decode a whole generation at once; slot ``i`` holds exactly
        ``decode(vectors[i])``, or ``None`` where decode would raise
        :class:`EncodingError` (per-vector failures don't break the
        batch — the search scores them ``inf``).

        A thin wrapper over :func:`decode_lanes` that builds one
        ``Mapping`` per lane.
        """
        vectors = list(vectors)
        lanes = LaneLayers([self.layer], [0] * len(vectors))
        decoded = decode_lanes(lanes, self.accel, self.style, vectors)
        return [decoded.mapping(lane) if decoded.ok[lane] else None
                for lane in range(len(vectors))]

    def _decode_tiles(self, ratios: Sequence[float]) -> Dict[Dim, int]:
        tiles: Dict[Dim, int] = {}
        for dim, ratio in zip(SEARCHED_DIMS, ratios):
            size = self.layer.dim_size(dim)
            # Clamping before rounding equals clamping the rounded tile
            # to [1, size], and stays finite if ``ratio * size``
            # overflows.
            tiles[dim] = int(round(min(max(float(ratio) * size, 1.0),
                                       size)))
        # Parallel dims should cover the array at least once when the
        # layer allows it, otherwise PEs are guaranteed idle.
        for dim, axis in zip(self.accel.parallel_dims, self.accel.array_dims):
            size = self.layer.dim_size(dim)
            tiles[dim] = min(size, max(tiles[dim], min(axis, size)))
        return shrink_to_budget(self.layer, tiles, _tile_footprint,
                                self.accel.l2_bytes)

    def encode_mapping(self, mapping: Mapping) -> np.ndarray:
        """Approximate inverse for seeding (importance style only)."""
        if self.style is not EncodingStyle.IMPORTANCE:
            raise EncodingError("seeding supported for importance style only")
        vec = np.zeros(self.num_params)
        vec[0:_NUM_DIMS] = importance_for_order(mapping.array_order)
        for i, dim in enumerate(SEARCHED_DIMS):
            size = self.layer.dim_size(dim)
            vec[_NUM_DIMS + i] = mapping.tile(dim) / size
        vec[2 * _NUM_DIMS:3 * _NUM_DIMS] = importance_for_order(
            mapping.pe_order)
        return np.clip(vec, 0.0, 1.0)
