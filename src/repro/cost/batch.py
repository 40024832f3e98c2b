"""Array-native cost kernel: one pass over many (layer, mapping) lanes.

The scalar pipeline (:mod:`repro.cost.reuse`, :mod:`repro.cost.traffic`,
:mod:`repro.cost.latency`, :mod:`repro.cost.energy`) evaluates one
``(layer, accel, mapping)`` triple per call. This module evaluates a
whole batch of *lanes* at once. A lane is one mapping of one layer on
one accelerator, and lanes of different layers and accelerators mix
freely: the lockstep mapping search (:mod:`repro.search.mapping_search`)
costs every layer shape of every hardware candidate of a task group,
or of a tuned baseline's whole benchmark set, in a single call, which
puts the batch at candidates x shapes x population lanes (1,488 for a
``quick`` generation of 8 candidates on mobilenet_v2's 31 shapes at
population 6, 4,960 at ``full``'s 10 x 31 x 16; 1,040 and 1,480 for
the large and mobile sets tuned at ``paper``). Everything a lane needs
from its layer (sizes, stride, groups, relevance masks, bytes per
element) is an array gathered per lane by :class:`LaneLayers`, and
everything it needs from its accelerator (array extent per dim,
buffer sizes, bandwidth, PE count) by :class:`LaneAccels`; every
mapping is three integer rows of :class:`LaneMappings`.

The scalar functions remain the reference implementation. The kernel
is required to be *exactly* equal — every ``LayerCost`` float matches
to the last bit — so each expression below mirrors the scalar code's
association order and int-vs-float promotion points:

- accumulations use ``total + (new_fp - fp)``, never ``(total - fp) +
  new_fp``, because float addition is not associative;
- values the scalar code keeps as Python ints (deliveries, trip
  products, psum byte counts) stay ``int64`` here and convert to float
  at the same expression position the scalar code does;
- constants the scalar code derives from one layer (MAC count, whole
  tensor sizes, MAC energy) or one accelerator (energy rates, L2
  bandwidth) are computed per layer or accelerator by the scalar
  expressions and then gathered per lane;
- an array axis is a per-lane extent on each dim, 1 on the dims the
  lane's accelerator does not parallelize: every term an axis adds is
  a product or a ``min`` of small integers, exact in any order, and an
  extent of 1 leaves it unchanged;
- the reuse growth loop's early exit per operand becomes a per-lane
  ``active`` mask, and the product of trips outside a window (the
  scalar ``window_start`` loop) is multiplied in as the loop walks out
  past the window, an exact integer product either way.

Results stay arrays (:class:`LaneCosts`); ``LayerCost`` and ``Mapping``
objects are built only for the lanes a caller asks for. The search keeps
each shape's best lane as one row (:meth:`LaneCosts.take`,
:meth:`LaneCosts.put` and their :class:`LaneMappings` twins) and builds
its objects once, at the end.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.accelerator.arch import AcceleratorConfig
from repro.cost.config import CostParams
from repro.cost.energy import EnergyReport
from repro.cost.latency import LatencyReport, l2_bandwidth_bytes_per_cycle
from repro.cost.operands import Operand, relevance_masks, total_elements
from repro.cost.reuse import GROW_ORDER
from repro.cost.report import LayerCost
from repro.cost.traffic import TrafficReport
from repro.mapping.mapping import Mapping
from repro.tensors.dims import (
    DIM_INDEX,
    IDX_C,
    IDX_K,
    IDX_R,
    IDX_S,
    IDX_X,
    IDX_Y,
    INDEX_DIM,
    OUTPUT_DIMS,
    REDUCTION_DIMS,
    SEARCHED_DIMS,
    Dim,
)
from repro.tensors.layer import ConvLayer

#: Memoized loop-order -> dim-index tuples (at most 720 six-dim orders).
_ORDER_IDX: Dict[Tuple[Dim, ...], Tuple[int, ...]] = {}


def _order_indices(order: Tuple[Dim, ...]) -> Tuple[int, ...]:
    cached = _ORDER_IDX.get(order)
    if cached is None:
        cached = tuple(DIM_INDEX[d] for d in order)
        _ORDER_IDX[order] = cached
    return cached


#: Row of each operand in the kernel's per-operand arrays: row ``i``
#: is ``GROW_ORDER[i]``, the order the reuse windows grow in.
SLOT: Dict[Operand, int] = {op: row for row, op in enumerate(GROW_ORDER)}
_O, _W, _I = SLOT[Operand.OUTPUT], SLOT[Operand.WEIGHT], SLOT[Operand.INPUT]
#: The rows in ``Operand`` declaration order, the scalar sums' order.
_DECLARED = tuple(SLOT[op] for op in Operand)


class LaneLayers:
    """Per-lane layer constants: lane ``i`` carries ``layers[index[i]]``.

    Integer quantities are ``int64`` and ``bpe`` (bytes per element) is
    ``float64``, each shaped ``(B,)`` except ``sizes`` (``(B, 7)`` in
    :data:`DIM_INDEX` order) and ``masks`` (``(3, B, 7)``, one row per
    operand in :data:`SLOT` order). ``per_layer`` gathers any other
    per-layer value a caller computes with the scalar expressions.
    """

    def __init__(self, layers: Sequence[ConvLayer],
                 index: Sequence[int]) -> None:
        self.layers = tuple(layers)
        self.index = np.asarray(index, dtype=np.int64)
        self.sizes = np.array([layer.sizes7 for layer in self.layers],
                              dtype=np.int64).reshape(-1, 7)[self.index]
        self.stride = self.per_layer([layer.stride for layer in layers])
        self.groups = self.per_layer([layer.groups for layer in layers])
        self.k_per_group = self.per_layer([layer.k_per_group
                                           for layer in layers])
        self.channels = self.per_layer([layer.c for layer in layers])
        self.input_y = self.per_layer([layer.input_y for layer in layers])
        self.input_x = self.per_layer([layer.input_x for layer in layers])
        self.bpe = self.per_layer([layer.bytes_per_element
                                   for layer in layers], np.float64)
        # Relevance per (operand, lane, dim index): only the input's K
        # entry varies (grouped convolutions select input channels by K).
        self.masks = np.ascontiguousarray(np.array(
            [[relevance_masks(layer)[op] for op in GROW_ORDER]
             for layer in self.layers],
            dtype=bool).reshape(-1, 3, 7)[self.index].transpose(1, 0, 2))

    def __len__(self) -> int:
        return len(self.index)

    def per_layer(self, values: Sequence, dtype=np.int64) -> np.ndarray:
        """Gather one value per layer out to the lanes."""
        return np.asarray(values, dtype=dtype)[self.index]

    def layer(self, lane: int) -> ConvLayer:
        return self.layers[self.index[lane]]

    def elements(self, slot: int) -> np.ndarray:
        """Per-lane :func:`repro.cost.operands.total_elements` of the
        operand in row ``slot`` of :data:`SLOT`."""
        operand = GROW_ORDER[slot]
        return self.per_layer([total_elements(layer, operand)
                               for layer in self.layers])

    def window_elements(self, slot: int, ext: Sequence) -> np.ndarray:
        """Per-lane :func:`repro.cost.operands.footprint_elements_idx`
        of the operand in row ``slot`` of :data:`SLOT`.

        ``ext[d]`` is the covered extent of dim index ``d``: a ``(B,)``
        array, or a scalar every lane shares. Extents must already lie
        within each lane's sizes (the scalar function's clamp is then a
        no-op). The result stays ``int64``; for ungrouped layers the
        group term is 1, so one expression covers both cases exactly.
        """
        if slot == _W:
            return ext[IDX_K] * ext[IDX_C] * ext[IDX_R] * ext[IDX_S]
        if slot == _O:
            return ext[0] * ext[IDX_K] * ext[IDX_Y] * ext[IDX_X]
        rows = np.minimum(self.input_y,
                          (ext[IDX_Y] - 1) * self.stride + ext[IDX_R])
        cols = np.minimum(self.input_x,
                          (ext[IDX_X] - 1) * self.stride + ext[IDX_S])
        groups_touched = np.minimum(self.groups,
                                    -(-ext[IDX_K] // self.k_per_group))
        channels = np.minimum(self.channels, groups_touched * ext[IDX_C])
        return ext[0] * channels * rows * cols

    def tile_set_bytes(self, tiles: np.ndarray, psum_bytes: int) -> np.ndarray:
        """Per-lane :func:`repro.cost.operands.tile_set_bytes`.

        ``tiles`` is ``(B, 6)`` in :data:`SEARCHED_DIMS` order (batch
        extent 1). The operand sum runs in ``Operand`` declaration
        order, matching the scalar sum.
        """
        ext = (1, *np.minimum(tiles, self.sizes[:, 1:]).T)
        total = 0.0
        for slot in _DECLARED:
            total = total + (self.window_elements(slot, ext)
                             * self.element_bytes(slot, psum_bytes))
        return total

    def element_bytes(self, slot: int, psum_bytes: int):
        """Per-lane :func:`repro.cost.operands.element_bytes` of the
        operand in row ``slot`` of :data:`SLOT`."""
        if slot == _O:
            return float(psum_bytes)
        return self.bpe


class LaneAccels:
    """Per-lane accelerator parameters: lane ``i`` runs on
    ``accels[index[i]]``.

    ``axis`` is ``(B, 7)`` in :data:`DIM_INDEX` order: the array extent
    along each dim, 1 for the dims the lane's accelerator does not
    parallelize (and for the batch). ``l1_bytes``, ``l2_bytes``,
    ``dram_bandwidth`` and ``num_pes`` are ``(B,)`` ``int64``.
    ``per_accel`` gathers any other per-accelerator value a caller
    computes with the scalar expressions.
    """

    def __init__(self, accels: Sequence[AcceleratorConfig],
                 index: Sequence[int]) -> None:
        self.accels = tuple(accels)
        self.index = np.asarray(index, dtype=np.int64)
        self.axis = np.array(
            [[accel.spatial_size(dim) for dim in INDEX_DIM]
             for accel in self.accels],
            dtype=np.int64).reshape(-1, 7)[self.index]
        self.l1_bytes = self.per_accel([a.l1_bytes for a in self.accels])
        self.l2_bytes = self.per_accel([a.l2_bytes for a in self.accels])
        self.dram_bandwidth = self.per_accel([a.dram_bandwidth
                                              for a in self.accels])
        self.num_pes = self.per_accel([a.num_pes for a in self.accels])

    @classmethod
    def of(cls, accels: "LaneAccels | AcceleratorConfig",
           count: int) -> "LaneAccels":
        """``accels`` itself, or one accelerator shared by ``count``
        lanes."""
        if isinstance(accels, LaneAccels):
            return accels
        return cls([accels], np.zeros(count, dtype=np.int64))

    def per_accel(self, values: Sequence, dtype=np.int64) -> np.ndarray:
        """Gather one value per accelerator out to the lanes."""
        return np.asarray(values, dtype=dtype)[self.index]

    def parallel_columns(self) -> np.ndarray:
        """The dim indices some lane's accelerator parallelizes,
        ascending; an axis extent of 1 elsewhere makes every other
        dim's term a no-op."""
        return np.flatnonzero((self.axis > 1).any(axis=0))


#: Lane accelerators, or one accelerator every lane shares.
AccelsLike = Union[LaneAccels, AcceleratorConfig]


class LaneMappings:
    """Mappings as integer rows, one per lane.

    ``tiles`` is ``(B, 6)`` in :data:`SEARCHED_DIMS` order;
    ``array_order``/``pe_order`` are ``(B, 6)`` ``int8``
    :data:`DIM_INDEX` indices, outermost first. ``ok`` marks lanes that
    hold a mapping at all (a vector that failed to decode leaves its
    lane ``False``).
    """

    def __init__(self, tiles: np.ndarray, array_order: np.ndarray,
                 pe_order: np.ndarray,
                 ok: Optional[np.ndarray] = None) -> None:
        self.tiles = tiles
        self.array_order = array_order
        self.pe_order = pe_order
        self.ok = np.ones(len(tiles), dtype=bool) if ok is None else ok

    def take(self, lanes: np.ndarray) -> "LaneMappings":
        """The mappings of ``lanes`` only: row ``i`` is lane ``lanes[i]``."""
        return LaneMappings(self.tiles[lanes], self.array_order[lanes],
                            self.pe_order[lanes], self.ok[lanes])

    def put(self, rows: np.ndarray, source: "LaneMappings",
            lanes: np.ndarray) -> None:
        """Overwrite rows ``rows`` with ``source``'s lanes ``lanes``."""
        for name in ("tiles", "array_order", "pe_order", "ok"):
            getattr(self, name)[rows] = getattr(source, name)[lanes]

    @classmethod
    def from_mappings(cls, mappings: Sequence[Mapping]) -> "LaneMappings":
        return cls(
            tiles=np.array([[size for _, size in m.tiles] for m in mappings],
                           dtype=np.int64).reshape(-1, 6),
            array_order=np.array([_order_indices(m.array_order)
                                  for m in mappings],
                                 dtype=np.int8).reshape(-1, 6),
            pe_order=np.array([_order_indices(m.pe_order)
                               for m in mappings],
                              dtype=np.int8).reshape(-1, 6))

    def mapping(self, lane: int) -> Mapping:
        """The lane's :class:`Mapping` object."""
        return Mapping.create(
            array_order=[INDEX_DIM[i] for i in self.array_order[lane]],
            pe_order=[INDEX_DIM[i] for i in self.pe_order[lane]],
            tiles={dim: int(size) for dim, size
                   in zip(SEARCHED_DIMS, self.tiles[lane])})


def _reuse_windows_batch(lanes: LaneLayers,
                         loop_dims: np.ndarray,
                         ext: np.ndarray,
                         caps: np.ndarray,
                         budget_bytes: np.ndarray,
                         psum_bytes: int,
                         ) -> Tuple[np.ndarray, np.ndarray,
                                    np.ndarray, np.ndarray]:
    """Vectorized :func:`repro.cost.reuse.analyze_reuse` over B lanes.

    ``loop_dims`` is ``(B, L)`` dim indices, outermost first, each dim
    at most once per lane. ``ext`` (``(B, 7)``) holds the resident
    extents, which the windows grow from and overwrite; ``caps``
    (``(B, 7)``, within the lanes' sizes) bounds them, and a dim's loop
    runs ``ceil(cap / resident extent)`` trips (both levels of
    :func:`analyze_traffic_batch` are built that way). ``budget_bytes``
    is each lane's buffer budget, ``(B,)``. Returns
    ``(footprint bytes, deliveries, base_feasible, base_total)``, the
    first two ``(3, B)`` with one row per operand in :data:`SLOT`
    order; window values for lanes with ``base_feasible == False`` are
    unspecified (the scalar path returns early there and callers must
    ignore them).

    One extent array serves all three operands: a dim's loop occurs
    once, so every window that takes it in reaches the same ``min(cap,
    start * trips)`` there, and the dims an operand ignores never
    change its footprint. What differs per operand — footprint elements
    and bytes, and whether its window still grows — are ``(3, B)``
    rows, updated in place where a lane's window takes in the loop.
    Once a window stops, each loop outside it multiplies its elements
    into deliveries.
    """
    count, length = loop_dims.shape
    cols = ext.T
    elements = np.stack([lanes.window_elements(slot, cols)
                         for slot in range(3)])
    unit = [lanes.element_bytes(slot, psum_bytes) for slot in range(3)]
    footprints = np.empty((3, count))
    total = np.zeros(count)
    for slot in range(3):
        np.multiply(elements[slot], unit[slot], out=footprints[slot])
        total = total + footprints[slot]
    base_total = total.copy()
    base_feasible = total <= budget_bytes

    active = np.ones((3, count), dtype=bool)
    lane_offsets = np.arange(count) * 7
    masks = lanes.masks.reshape(3, -1)

    for position in range(length - 1, -1, -1):
        # Flat (lane, dim) index of this loop into every (B, 7) array.
        flat = lane_offsets + loop_dims[:, position]
        cap_here = np.take(caps, flat)
        resident = np.take(ext, flat)
        trips = -(-cap_here // resident)
        multi = trips > 1
        if not multi.any():
            continue
        np.put(ext, flat, np.minimum(cap_here, resident * trips))
        relevant = np.take(masks, flat, axis=1)
        for slot in range(3):
            grow = multi & active[slot] & relevant[slot]
            if not grow.any():
                continue
            new_elements = lanes.window_elements(slot, cols)
            new_fp = new_elements * unit[slot]
            accept = grow & (total - footprints[slot] + new_fp
                             <= budget_bytes)
            np.add(total, new_fp - footprints[slot], out=total,
                   where=accept)
            np.copyto(footprints[slot], new_fp, where=accept)
            np.copyto(elements[slot], new_elements, where=accept)
            active[slot] &= ~(grow & ~accept)
        # This loop is outside every window that has stopped.
        np.multiply(elements, trips, out=elements, where=~active)
    return footprints, elements, base_feasible, base_total


class _LaneFields:
    """Named per-lane arrays, plus values every lane shares."""

    def __init__(self, **fields: Any) -> None:
        self.__dict__.update(fields)

    def take(self, lanes: np.ndarray):
        """The same fields for ``lanes`` only: row ``i`` is lane
        ``lanes[i]``; shared values stay as they are."""
        taken = {}
        for name, value in vars(self).items():
            if isinstance(value, np.ndarray):
                value = value[lanes]
            elif isinstance(value, _LaneFields):
                value = value.take(lanes)
            taken[name] = value
        return type(self)(**taken)

    def put(self, rows: np.ndarray, source: "_LaneFields",
            lanes: np.ndarray) -> None:
        """Overwrite rows ``rows`` with ``source``'s lanes ``lanes``;
        shared values stay as they are."""
        for name, value in vars(self).items():
            if isinstance(value, np.ndarray):
                value[rows] = getattr(source, name)[lanes]
            elif isinstance(value, _LaneFields):
                value.put(rows, getattr(source, name), lanes)


class TrafficArrays(_LaneFields):
    """Per-lane :class:`TrafficReport` fields, plus the two
    reuse-feasibility checks and the footprints their reasons quote."""

    def report(self, lane: int) -> TrafficReport:
        return TrafficReport(
            feasible=True,
            reasons=(),
            dram_read_bytes=float(self.dram_read[lane]),
            dram_write_bytes=float(self.dram_write[lane]),
            l2_read_bytes=float(self.l2_read[lane]),
            l2_write_bytes=float(self.l2_write[lane]),
            noc_bytes=float(self.noc[lane]),
            forwarded_bytes=float(self.forwarded[lane]),
            reduction_bytes=float(self.reduction[lane]),
            l1_bytes=float(self.l1[lane]),
            tiles_count=int(self.tiles_count[lane]),
            steps_per_tile=int(self.steps_per_tile[lane]),
            active_pes=int(self.active_pes[lane]),
            first_tile_fill_bytes=float(self.first_fill[lane]),
        )

    def infeasibility(self, lane: int) -> Optional[str]:
        """The scalar analysis's reason for rejecting the lane, if any."""
        if not self.l2_ok[lane]:
            return (f"L2 overflow: base footprint {self.l2_base[lane]:.0f} "
                    f"B exceeds budget {self.l2_budget[lane]:.0f} B")
        if not self.l1_ok[lane]:
            return (f"L1 overflow: base footprint {self.l1_base[lane]:.0f} "
                    f"B exceeds budget {self.l1_budget[lane]:.0f} B")
        return None


def analyze_traffic_batch(lanes: LaneLayers, accels: AccelsLike,
                          mappings: LaneMappings, params: CostParams,
                          ) -> TrafficArrays:
    """Batch :func:`repro.cost.traffic.analyze_traffic` over every lane;
    each lane's fields equal the scalar analysis of that lane on its
    accelerator exactly."""
    count = len(lanes)
    accels = LaneAccels.of(accels, count)
    sizes = lanes.sizes
    bpe = lanes.bpe
    psum = params.psum_bytes

    def tiles7() -> np.ndarray:
        tiles = np.ones((count, 7), dtype=np.int64)
        tiles[:, 1:] = np.minimum(mappings.tiles, sizes[:, 1:])
        return tiles

    # ---- PE level: L2 <-> PE, element-granular -----------------------------
    # The tiles become the PE level's trips per dim in place, and are
    # made again for the array level, which grows its windows over
    # them: two (B, 7) arrays live per level instead of four. Each
    # parallelized dim's active extent is min(axis, tile); it is 1 on
    # lanes whose accelerator does not parallelize the dim.
    mid_trips = tiles7()
    axes = [(INDEX_DIM[idx], idx,
             np.minimum(accels.axis[:, idx], mid_trips[:, idx]))
            for idx in accels.parallel_columns()]
    tile_outputs = (mid_trips[:, IDX_K] * mid_trips[:, IDX_Y]
                    * mid_trips[:, IDX_X])
    for _, idx, eff in axes:
        mid_trips[:, idx] = -(-mid_trips[:, idx] // eff)
    l1_budget = accels.l1_bytes.astype(np.float64)
    _, pe_del, l1_ok, l1_base = _reuse_windows_batch(
        lanes, mappings.pe_order, np.ones((count, 7), dtype=np.int64),
        mid_trips, l1_budget, psum)
    steps_per_tile = np.prod(mid_trips[:, 1:], axis=1)
    del mid_trips

    # ---- Array level: DRAM <-> L2, tile-granular --------------------------
    tiles = tiles7()
    tiles_count = sizes[:, 0].copy()
    for idx in range(1, 7):
        tiles_count *= -(-sizes[:, idx] // tiles[:, idx])
    # The batch loop is outermost, then the mapping's array order.
    loop_dims = np.zeros((count, 7), dtype=np.int8)
    loop_dims[:, 1:] = mappings.array_order
    l2_budget = accels.l2_bytes * (1.0 - params.double_buffer_fraction)
    array_fp, array_del, l2_ok, l2_base = _reuse_windows_batch(
        lanes, loop_dims, tiles, sizes, l2_budget, psum)
    del tiles, loop_dims
    first_fill = array_fp[_W] + array_fp[_I]
    dram_read = np.zeros(count)
    for slot in (_W, _I):
        deliveries = np.maximum(array_del[slot], lanes.elements(slot))
        dram_read = dram_read + deliveries * bpe
    out_distinct = lanes.elements(_O)
    out_deliveries = np.maximum(array_del[_O], out_distinct)
    out_revisits = np.maximum(0, out_deliveries - out_distinct)
    dram_write = out_distinct * bpe + out_revisits * psum
    dram_read = dram_read + out_revisits * psum
    del array_fp, array_del

    active_pes = np.ones(count, dtype=np.int64)
    for _, _, eff in axes:
        active_pes = active_pes * eff

    l2_read = np.zeros(count)
    noc = np.zeros(count)
    forwarded = np.zeros(count)
    for slot in (_W, _I):
        unique_factor = np.ones(count)
        forward_discount = np.ones(count)
        for dim, idx, eff in axes:
            relevant = lanes.masks[slot, :, idx]
            unique_factor = np.where(relevant, unique_factor * eff,
                                     unique_factor)
            if slot == _I and dim in (Dim.Y, Dim.X):
                kernel = sizes[:, IDX_R if dim is Dim.Y else IDX_S]
                # Neighbouring PEs share (kernel - stride) of each halo;
                # forwarded elements cost NoC hops instead of L2 reads.
                forward_discount = np.where(
                    relevant, forward_discount * np.minimum(
                        eff, np.maximum(1, kernel // lanes.stride)),
                    forward_discount)
        unique = pe_del[slot] * unique_factor * tiles_count * bpe
        kept = unique / forward_discount
        l2_read = l2_read + kept
        forwarded = forwarded + (unique - kept)
        noc = noc + unique

    # Partial sums: spatial reduction merges across reduction axes.
    out_factor = np.ones(count, dtype=np.int64)
    reduction_span = np.ones(count, dtype=np.int64)
    for dim, idx, eff in axes:
        if dim in OUTPUT_DIMS:
            out_factor = out_factor * eff
        if dim in REDUCTION_DIMS:
            reduction_span = reduction_span * eff
    unique_out = pe_del[_O] * out_factor * tiles_count
    # Scalar code takes max(0.0, int); keeping the int64 product here and
    # promoting at the addition below reproduces its rounding exactly.
    l2_psum_read = np.maximum(0, unique_out - tile_outputs * tiles_count) \
        * psum
    noc = noc + unique_out * psum

    merges_per_step = active_pes - active_pes / np.maximum(1, reduction_span)
    reduction = merges_per_step * steps_per_tile * tiles_count * psum

    per_pe_fills = (pe_del[_W] + pe_del[_I]) * bpe
    l1_compute = lanes.per_layer(
        [layer.macs * (2 * layer.bytes_per_element + 2 * psum)
         for layer in lanes.layers], np.float64)

    return TrafficArrays(
        dram_read=dram_read,
        dram_write=dram_write,
        # L2 also serves the DRAM interface (fills and drains pass
        # through it).
        l2_read=l2_read + l2_psum_read + dram_write,
        l2_write=unique_out * psum + dram_read,
        noc=noc,
        forwarded=forwarded,
        reduction=reduction,
        l1=per_pe_fills * active_pes * tiles_count + l1_compute,
        tiles_count=tiles_count,
        steps_per_tile=steps_per_tile,
        active_pes=active_pes,
        first_fill=first_fill,
        l2_ok=l2_ok, l2_base=l2_base, l2_budget=l2_budget,
        l1_ok=l1_ok, l1_base=l1_base, l1_budget=l1_budget,
    )


class LaneCosts:
    """Per-lane cost results: ``valid``, ``cycles``, ``energy_nj`` and
    ``edp`` arrays for ranking, and :meth:`layer_cost` to build one
    lane's full ``LayerCost``.

    Invalid lanes read ``inf`` in the three value arrays, matching
    :meth:`LayerCost.invalid`. Built by :func:`cost_lanes`.
    """

    def __init__(self, valid: np.ndarray, cycles: np.ndarray,
                 energy_nj: np.ndarray, rows: "_CostRows") -> None:
        self.valid = valid
        self.cycles = np.where(valid, cycles, np.inf)
        self.energy_nj = np.where(valid, energy_nj, np.inf)
        with np.errstate(invalid="ignore", over="ignore"):
            self.edp = self.cycles * self.energy_nj
        self._rows = rows

    def layer_cost(self, lane: int) -> LayerCost:
        return self._rows.build(lane)

    def take(self, lanes: np.ndarray) -> "LaneCosts":
        """The costs of ``lanes`` only: row ``i`` is lane ``lanes[i]``.

        Keeps just what those lanes' ``LayerCost`` objects are built
        from, so the rest of the batch can be freed.
        """
        return LaneCosts(self.valid[lanes], self.cycles[lanes],
                         self.energy_nj[lanes], self._rows.take(lanes))

    def put(self, rows: np.ndarray, source: "LaneCosts",
            lanes: np.ndarray) -> None:
        """Overwrite rows ``rows`` with ``source``'s lanes ``lanes``."""
        for name in ("valid", "cycles", "energy_nj", "edp"):
            getattr(self, name)[rows] = getattr(source, name)[lanes]
        self._rows.put(rows, source._rows, lanes)


class _CostRows(_LaneFields):
    """What :func:`cost_lanes` builds one lane's ``LayerCost`` from."""

    def build(self, lane: int) -> LayerCost:
        layer = self.layers[self.layer_index[lane]]
        problems = self.accel_problems[self.accel_index[lane]]
        if problems:
            return LayerCost.invalid(layer.name, problems)
        if not self.legal[lane]:
            return LayerCost.invalid(
                layer.name, ("mapping tiles exceed layer dimensions",))
        reason = self.traffic.infeasibility(lane)
        if reason is not None:
            return LayerCost.invalid(layer.name, (reason,))
        latency = LatencyReport(compute_cycles=float(self.compute[lane]),
                                dram_cycles=float(self.dram[lane]),
                                l2_cycles=float(self.l2[lane]),
                                fill_cycles=float(self.fill[lane]))
        energy = EnergyReport(mac_pj=float(self.mac[lane]),
                              l1_pj=float(self.l1_energy[lane]),
                              l2_pj=float(self.l2_energy[lane]),
                              dram_pj=float(self.dram_energy[lane]),
                              noc_pj=float(self.noc_energy[lane]),
                              static_pj=float(self.static[lane]))
        utilization = layer.macs / max(
            1.0, latency.compute_cycles * int(self.num_pes[lane]))
        return LayerCost(
            layer_name=layer.name,
            valid=True,
            cycles=latency.cycles,
            energy_nj=energy.total_nj,
            utilization=min(1.0, utilization),
            macs=layer.macs,
            traffic=self.traffic.report(lane),
            latency=latency,
            energy=energy,
        )


def cost_lanes(lanes: LaneLayers, accels: AccelsLike,
               mappings: LaneMappings, params: CostParams,
               traffic: TrafficArrays,
               problems: Optional[Sequence[Sequence[str]]] = None,
               ) -> LaneCosts:
    """Latency, energy and EDP per lane from the traffic arrays. Mirrors
    :func:`repro.cost.latency.analyze_latency`,
    :func:`repro.cost.energy.analyze_energy` and
    :meth:`repro.cost.model.CostModel.evaluate` term by term.

    ``problems[a]`` lists what
    :func:`repro.accelerator.validation.validate_architecture` found
    wrong with ``accels.accels[a]`` (all valid when ``None``); that
    accelerator's lanes come back invalid, with those reasons.
    """
    accels = LaneAccels.of(accels, len(lanes))
    problems = tuple(tuple(found) for found in (
        problems if problems is not None else [()] * len(accels.accels)))
    legal = (mappings.tiles <= lanes.sizes[:, 1:]).all(axis=1)
    valid = mappings.ok & legal & traffic.l2_ok & traffic.l1_ok
    if any(problems):
        valid &= accels.per_accel([not found for found in problems], bool)

    def rate(per_accel) -> np.ndarray:
        """A per-accelerator float, by the scalar expression, per lane."""
        return accels.per_accel([per_accel(accel)
                                 for accel in accels.accels], np.float64)

    total_dram = traffic.dram_read + traffic.dram_write
    total_l2 = traffic.l2_read + traffic.l2_write
    compute = (traffic.tiles_count.astype(np.float64)
               * traffic.steps_per_tile.astype(np.float64))
    dram = total_dram / accels.dram_bandwidth
    l2 = total_l2 / rate(lambda a: l2_bandwidth_bytes_per_cycle(a, params))
    fill = traffic.first_fill / accels.dram_bandwidth
    cycles = np.maximum(np.maximum(compute, dram), l2) + fill

    mac = lanes.per_layer([layer.macs * params.mac_pj(layer.bits)
                           for layer in lanes.layers], np.float64)
    l1_energy = traffic.l1 * rate(lambda a: params.l1_pj(a.l1_bytes))
    l2_energy = total_l2 * rate(lambda a: params.l2_pj(a.l2_bytes))
    dram_energy = total_dram * params.dram_pj_per_byte
    noc_rate = rate(lambda a: params.noc_pj(a.num_pes))
    # Forwarded halo elements hop a single neighbour link (cheap); the
    # reduction tree moves one psum per merge.
    noc_energy = (traffic.noc * noc_rate
                  + traffic.forwarded * noc_rate * 0.5
                  + traffic.reduction * noc_rate)
    static = cycles * rate(lambda a: params.static_pj_per_cycle(
        a.num_pes, a.onchip_bytes))
    energy_nj = (mac + l1_energy + l2_energy + dram_energy + noc_energy
                 + static) / 1000.0

    return LaneCosts(valid, cycles, energy_nj, _CostRows(
        layers=lanes.layers, layer_index=lanes.index,
        accel_problems=problems, accel_index=accels.index,
        num_pes=accels.num_pes, legal=legal, traffic=traffic,
        compute=compute, dram=dram, l2=l2, fill=fill, mac=mac,
        l1_energy=l1_energy, l2_energy=l2_energy, dram_energy=dram_energy,
        noc_energy=noc_energy, static=static))
