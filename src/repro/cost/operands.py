"""Operand tensors of a convolution and their footprint geometry.

The reuse analysis needs, per operand, (a) which loop dimensions index it
and (b) how a set of covered loop extents translates into a data
footprint. Inputs are the interesting case: output rows/columns and
kernel rows/columns combine through the sliding window (halo), and for
grouped/depthwise convolutions the output-channel loop selects input
channels too.

Two API layers coexist here: a Dim-keyed public API, and an
integer-indexed fast path (``*_idx`` functions over 7-tuples following
:data:`repro.tensors.dims.DIM_INDEX`) used by the search's inner loops,
where enum hashing would dominate runtime. The array forms, one lane per
(layer, mapping) pair, are methods of :class:`repro.cost.batch.LaneLayers`.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, Sequence, Tuple

from repro.tensors.dims import (
    DIM_INDEX,
    IDX_C,
    IDX_K,
    IDX_R,
    IDX_S,
    IDX_X,
    IDX_Y,
    Dim,
)
from repro.tensors.layer import ConvLayer
from repro.utils.mathutils import ceil_div


class Operand(enum.Enum):
    """The three operand tensors of a convolution."""

    WEIGHT = "W"
    INPUT = "I"
    OUTPUT = "O"


#: Fixed analysis order (psum residency first, see reuse.GROW_ORDER).
OPERANDS: Tuple[Operand, ...] = (Operand.OUTPUT, Operand.WEIGHT, Operand.INPUT)


def relevant_dims(layer: ConvLayer, operand: Operand) -> FrozenSet[Dim]:
    """Loop dims whose index appears in the operand's address expression.

    For grouped convolutions (including depthwise) the K loop also selects
    the input-channel group, so K becomes input-relevant.
    """
    if operand is Operand.WEIGHT:
        return frozenset((Dim.K, Dim.C, Dim.R, Dim.S))
    if operand is Operand.INPUT:
        dims = {Dim.N, Dim.C, Dim.Y, Dim.X, Dim.R, Dim.S}
        if layer.groups > 1:
            dims.add(Dim.K)
        return frozenset(dims)
    return frozenset((Dim.N, Dim.K, Dim.Y, Dim.X))


def _build_masks(grouped: bool) -> Dict[Operand, Tuple[bool, ...]]:
    masks = {}
    for op in Operand:
        if op is Operand.INPUT and grouped:
            dims = frozenset((Dim.N, Dim.K, Dim.C, Dim.Y, Dim.X, Dim.R, Dim.S))
        elif op is Operand.WEIGHT:
            dims = frozenset((Dim.K, Dim.C, Dim.R, Dim.S))
        elif op is Operand.INPUT:
            dims = frozenset((Dim.N, Dim.C, Dim.Y, Dim.X, Dim.R, Dim.S))
        else:
            dims = frozenset((Dim.N, Dim.K, Dim.Y, Dim.X))
        masks[op] = tuple(d in dims for d in DIM_INDEX)
    return masks


_MASKS = {False: _build_masks(False), True: _build_masks(True)}


def relevance_masks(layer: ConvLayer) -> Dict[Operand, Tuple[bool, ...]]:
    """Boolean relevance per dim index, for the fast path (precomputed)."""
    return _MASKS[layer.groups > 1]


def input_channels_covered(layer: ConvLayer, k_extent: int,
                           c_extent: int) -> int:
    """Distinct input channels touched by ``k_extent`` output channels and
    ``c_extent`` within-group channels."""
    if layer.groups == 1:
        return min(layer.c, c_extent)
    groups_touched = min(layer.groups, ceil_div(k_extent, layer.k_per_group))
    return min(layer.c, groups_touched * c_extent)


def footprint_elements_idx(layer: ConvLayer, operand: Operand,
                           ext: Sequence[int]) -> int:
    """Elements covered by extents given as a 7-sequence (fast path).

    Extents are clamped against the layer's trip counts; entry 0 (batch)
    scales inputs/outputs linearly.
    """
    sizes = layer.sizes7
    if operand is Operand.WEIGHT:
        return (min(ext[IDX_K], sizes[IDX_K]) * min(ext[IDX_C], sizes[IDX_C])
                * min(ext[IDX_R], sizes[IDX_R])
                * min(ext[IDX_S], sizes[IDX_S]))
    batch = min(ext[0], sizes[0])
    if operand is Operand.OUTPUT:
        return (batch * min(ext[IDX_K], sizes[IDX_K])
                * min(ext[IDX_Y], sizes[IDX_Y])
                * min(ext[IDX_X], sizes[IDX_X]))
    rows = min(layer.input_y,
               (min(ext[IDX_Y], sizes[IDX_Y]) - 1) * layer.stride
               + min(ext[IDX_R], sizes[IDX_R]))
    cols = min(layer.input_x,
               (min(ext[IDX_X], sizes[IDX_X]) - 1) * layer.stride
               + min(ext[IDX_S], sizes[IDX_S]))
    channels = input_channels_covered(
        layer, min(ext[IDX_K], sizes[IDX_K]), min(ext[IDX_C], sizes[IDX_C]))
    return batch * channels * rows * cols


def footprint_elements(layer: ConvLayer, operand: Operand,
                       extents: Dict[Dim, int]) -> int:
    """Dim-keyed wrapper over :func:`footprint_elements_idx`."""
    ext = [1] * 7
    for dim, value in extents.items():
        ext[DIM_INDEX[dim]] = value
    return footprint_elements_idx(layer, operand, ext)


def element_bytes(layer: ConvLayer, operand: Operand,
                  psum_bytes: int) -> float:
    """Storage bytes per element while the operand lives on-chip.

    Outputs are held at accumulator precision until written back.
    """
    if operand is Operand.OUTPUT:
        return float(psum_bytes)
    return layer.bytes_per_element


def tile_set_bytes(layer: ConvLayer, tiles: Dict[Dim, int],
                   psum_bytes: int) -> float:
    """L2 bytes needed to hold one tile of all three operands at once."""
    return sum(footprint_elements(layer, op, tiles)
               * element_bytes(layer, op, psum_bytes)
               for op in Operand)


def total_elements(layer: ConvLayer, operand: Operand) -> int:
    """Whole-layer element count for the operand (cold-miss lower bound)."""
    if operand is Operand.WEIGHT:
        return layer.weight_elements
    if operand is Operand.INPUT:
        return layer.input_elements
    return layer.output_elements
