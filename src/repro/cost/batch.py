"""Array-native cost kernel: one pass over many (layer, mapping) lanes.

The scalar pipeline (:mod:`repro.cost.reuse`, :mod:`repro.cost.traffic`,
:mod:`repro.cost.latency`, :mod:`repro.cost.energy`) evaluates one
``(layer, accel, mapping)`` triple per call. This module evaluates a
whole batch of *lanes* at once on one accelerator. A lane is one mapping
of one layer, and lanes of different layers mix freely: the lockstep
mapping search (:mod:`repro.search.mapping_search`) costs every layer
shape of a hardware candidate in a single call, which puts the batch at
shapes x population lanes (186 for mobilenet_v2 at the ``quick``
profile, 240-680 per network at ``paper``). Everything a lane needs
from its layer (sizes, stride, groups, relevance masks, bytes per
element) is an array gathered per lane by :class:`LaneLayers`; every
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
  tensor sizes, MAC energy) are computed per layer by the scalar
  expressions and then gathered per lane;
- the reuse growth loop's early exit per operand becomes a per-lane
  ``active`` mask, and the data-dependent ``window_start`` becomes a
  prefix-product gather.

Results stay arrays (:class:`LaneCosts`); ``LayerCost`` and ``Mapping``
objects are built only for the lanes a caller asks for. The search keeps
each shape's best lane as rows (:meth:`LaneCosts.take`,
:meth:`LaneMappings.take`) and builds its objects once, at the end.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.accelerator.arch import AcceleratorConfig
from repro.cost.config import CostParams
from repro.cost.energy import EnergyReport
from repro.cost.latency import LatencyReport, l2_bandwidth_bytes_per_cycle
from repro.cost.operands import OPERANDS, Operand, relevance_masks
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


class LaneLayers:
    """Per-lane layer constants: lane ``i`` carries ``layers[index[i]]``.

    Integer quantities are ``int64`` and ``bpe`` (bytes per element) is
    ``float64``, each shaped ``(B,)`` except ``sizes`` (``(B, 7)`` in
    :data:`DIM_INDEX` order). ``per_layer`` gathers any other per-layer
    value a caller computes with the scalar expressions.
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
        self.elements = {
            Operand.WEIGHT: self.per_layer([layer.weight_elements
                                            for layer in layers]),
            Operand.INPUT: self.per_layer([layer.input_elements
                                           for layer in layers]),
            Operand.OUTPUT: self.per_layer([layer.output_elements
                                            for layer in layers]),
        }
        # Relevance per (lane, dim index): only the input's K entry
        # varies (grouped convolutions select input channels by K).
        self.masks = {op: np.array([relevance_masks(layer)[op]
                                    for layer in self.layers],
                                   dtype=bool).reshape(-1, 7)[self.index]
                      for op in OPERANDS}

    def __len__(self) -> int:
        return len(self.index)

    def per_layer(self, values: Sequence, dtype=np.int64) -> np.ndarray:
        """Gather one value per layer out to the lanes."""
        return np.asarray(values, dtype=dtype)[self.index]

    def layer(self, lane: int) -> ConvLayer:
        return self.layers[self.index[lane]]

    def footprint(self, operand: Operand, ext: np.ndarray) -> np.ndarray:
        """Per-lane :func:`repro.cost.operands.footprint_elements_idx`.

        ``ext`` is ``(B, 7)``; extents clamp against each lane's sizes
        and the result stays ``int64``. For ungrouped layers the group
        term is 1, so one expression covers both cases exactly.
        """
        ext = np.minimum(ext, self.sizes)
        if operand is Operand.WEIGHT:
            return (ext[:, IDX_K] * ext[:, IDX_C] * ext[:, IDX_R]
                    * ext[:, IDX_S])
        if operand is Operand.OUTPUT:
            return ext[:, 0] * ext[:, IDX_K] * ext[:, IDX_Y] * ext[:, IDX_X]
        rows = np.minimum(self.input_y,
                          (ext[:, IDX_Y] - 1) * self.stride + ext[:, IDX_R])
        cols = np.minimum(self.input_x,
                          (ext[:, IDX_X] - 1) * self.stride + ext[:, IDX_S])
        groups_touched = np.minimum(self.groups,
                                    -(-ext[:, IDX_K] // self.k_per_group))
        channels = np.minimum(self.channels, groups_touched * ext[:, IDX_C])
        return ext[:, 0] * channels * rows * cols

    def tile_set_bytes(self, tiles: np.ndarray, psum_bytes: int) -> np.ndarray:
        """Per-lane :func:`repro.cost.operands.tile_set_bytes`.

        ``tiles`` is ``(B, 6)`` in :data:`SEARCHED_DIMS` order (batch
        extent 1). The operand sum runs in ``Operand`` declaration
        order, matching the scalar sum.
        """
        ext = np.ones((len(tiles), 7), dtype=np.int64)
        ext[:, 1:] = tiles
        total = 0.0
        for op in Operand:
            total = total + (self.footprint(op, ext)
                             * self.element_bytes(op, psum_bytes))
        return total

    def element_bytes(self, operand: Operand, psum_bytes: int):
        """Per-lane :func:`repro.cost.operands.element_bytes`."""
        if operand is Operand.OUTPUT:
            return float(psum_bytes)
        return self.bpe


class LaneMappings:
    """Mappings as integer rows, one per lane.

    ``tiles`` is ``(B, 6)`` in :data:`SEARCHED_DIMS` order;
    ``array_order``/``pe_order`` are ``(B, 6)`` :data:`DIM_INDEX`
    indices, outermost first. ``ok`` marks lanes that hold a mapping at
    all (a vector that failed to decode leaves its lane ``False``).
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

    @classmethod
    def from_mappings(cls, mappings: Sequence[Mapping]) -> "LaneMappings":
        return cls(
            tiles=np.array([[size for _, size in m.tiles] for m in mappings],
                           dtype=np.int64).reshape(-1, 6),
            array_order=np.array([_order_indices(m.array_order)
                                  for m in mappings],
                                 dtype=np.int64).reshape(-1, 6),
            pe_order=np.array([_order_indices(m.pe_order)
                               for m in mappings],
                              dtype=np.int64).reshape(-1, 6))

    def mapping(self, lane: int) -> Mapping:
        """The lane's :class:`Mapping` object."""
        return Mapping.create(
            array_order=[INDEX_DIM[i] for i in self.array_order[lane]],
            pe_order=[INDEX_DIM[i] for i in self.pe_order[lane]],
            tiles={dim: int(size) for dim, size
                   in zip(SEARCHED_DIMS, self.tiles[lane])})


def _reuse_windows_batch(lanes: LaneLayers,
                         loop_dims: np.ndarray,
                         loop_trips: np.ndarray,
                         base_extents: np.ndarray,
                         caps: np.ndarray,
                         budget_bytes: float,
                         psum_bytes: int,
                         ) -> Tuple[Dict[Operand, np.ndarray],
                                    Dict[Operand, np.ndarray],
                                    np.ndarray, np.ndarray]:
    """Vectorized :func:`repro.cost.reuse.analyze_reuse` over B lanes.

    ``loop_dims``/``loop_trips`` are ``(B, L)`` outermost-first;
    ``base_extents``/``caps`` are ``(B, 7)``. Returns ``(footprint
    bytes, deliveries, base_feasible, base_total)``, the first two per
    operand; window values for lanes with ``base_feasible == False``
    are unspecified (the scalar path returns early there and callers
    must ignore them).
    """
    count, length = loop_dims.shape
    rows = np.arange(count)
    start = np.minimum(base_extents, caps)

    extents: Dict[Operand, np.ndarray] = {}
    footprints: Dict[Operand, np.ndarray] = {}
    total = np.zeros(count)
    for op in OPERANDS:
        ext = start.copy()
        extents[op] = ext
        fp = lanes.footprint(op, ext) * lanes.element_bytes(op, psum_bytes)
        footprints[op] = fp
        total = total + fp
    base_total = total.copy()
    base_feasible = total <= budget_bytes

    active = {op: np.ones(count, dtype=bool) for op in OPERANDS}
    window_start = {op: np.zeros(count, dtype=np.int64) for op in OPERANDS}

    for position in range(length - 1, -1, -1):
        dim_idx = loop_dims[:, position]
        trips = loop_trips[:, position]
        multi = trips > 1
        if not multi.any():
            continue
        cap_here = caps[rows, dim_idx]
        for op in GROW_ORDER:
            grow = multi & active[op] & lanes.masks[op][rows, dim_idx]
            if not grow.any():
                continue
            ext = extents[op]
            old = ext[rows, dim_idx]
            grown = np.minimum(cap_here, old * trips)
            ext[rows, dim_idx] = np.where(grow, grown, old)
            new_fp = (lanes.footprint(op, ext)
                      * lanes.element_bytes(op, psum_bytes))
            accept = grow & (total - footprints[op] + new_fp <= budget_bytes)
            reject = grow & ~accept
            total = np.where(accept, total + (new_fp - footprints[op]), total)
            footprints[op] = np.where(accept, new_fp, footprints[op])
            ext[rows, dim_idx] = np.where(accept, grown, old)
            active[op] &= ~reject
            window_start[op] = np.where(reject, position + 1,
                                        window_start[op])

    # outside_trips = product of trips of loops outside the window; the
    # scalar loop becomes a prefix-product gather at window_start.
    prefix = np.ones((count, length + 1), dtype=np.int64)
    np.cumprod(loop_trips, axis=1, out=prefix[:, 1:])
    deliveries = {op: lanes.footprint(op, extents[op])
                  * prefix[rows, window_start[op]] for op in OPERANDS}
    return footprints, deliveries, base_feasible, base_total


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
                    f"B exceeds budget {self.l2_budget:.0f} B")
        if not self.l1_ok[lane]:
            return (f"L1 overflow: base footprint {self.l1_base[lane]:.0f} "
                    f"B exceeds budget {self.l1_budget:.0f} B")
        return None


def analyze_traffic_batch(lanes: LaneLayers, accel: AcceleratorConfig,
                          mappings: LaneMappings, params: CostParams,
                          ) -> TrafficArrays:
    """Batch :func:`repro.cost.traffic.analyze_traffic` over every lane;
    each lane's fields equal the scalar analysis of that lane exactly."""
    count = len(lanes)
    sizes = lanes.sizes
    bpe = lanes.bpe
    psum = params.psum_bytes

    tiles7 = np.ones((count, 7), dtype=np.int64)
    tiles7[:, 1:] = np.minimum(mappings.tiles, sizes[:, 1:])

    # ---- Array level: DRAM <-> L2, tile-granular --------------------------
    outer_trips = -(-sizes // tiles7)
    loop_dims = np.zeros((count, 7), dtype=np.int64)
    loop_dims[:, 1:] = mappings.array_order
    loop_trips = np.take_along_axis(outer_trips, loop_dims, axis=1)
    loop_trips[:, 0] = sizes[:, 0]
    l2_budget = accel.l2_bytes * (1.0 - params.double_buffer_fraction)
    array_fp, array_del, l2_ok, l2_base = _reuse_windows_batch(
        lanes, loop_dims, loop_trips, tiles7, sizes, l2_budget, psum)

    # ---- PE level: L2 <-> PE, element-granular -----------------------------
    axes = [(dim, DIM_INDEX[dim], np.minimum(size, tiles7[:, DIM_INDEX[dim]]))
            for dim, size in zip(accel.parallel_dims, accel.array_dims)]
    mid_trips = tiles7.copy()
    mid_trips[:, 0] = 1
    for _, idx, eff in axes:
        mid_trips[:, idx] = -(-tiles7[:, idx] // eff)
    pe_dims = mappings.pe_order
    pe_trips = np.take_along_axis(mid_trips, pe_dims, axis=1)
    _, pe_del, l1_ok, l1_base = _reuse_windows_batch(
        lanes, pe_dims, pe_trips, np.ones((count, 7), dtype=np.int64),
        mid_trips, float(accel.l1_bytes), psum)

    dram_read = np.zeros(count)
    for op in (Operand.WEIGHT, Operand.INPUT):
        deliveries = np.maximum(array_del[op], lanes.elements[op])
        dram_read = dram_read + deliveries * bpe
    out_distinct = lanes.elements[Operand.OUTPUT]
    out_deliveries = np.maximum(array_del[Operand.OUTPUT], out_distinct)
    out_revisits = np.maximum(0, out_deliveries - out_distinct)
    dram_write = out_distinct * bpe + out_revisits * psum
    dram_read = dram_read + out_revisits * psum

    tiles_count = sizes[:, 0] * np.prod(outer_trips[:, 1:], axis=1)
    steps_per_tile = np.prod(mid_trips[:, 1:], axis=1)
    active_pes = np.ones(count, dtype=np.int64)
    for _, _, eff in axes:
        active_pes = active_pes * eff

    l2_read = np.zeros(count)
    noc = np.zeros(count)
    forwarded = np.zeros(count)
    for op in (Operand.WEIGHT, Operand.INPUT):
        unique_factor = np.ones(count)
        forward_discount = np.ones(count)
        for dim, idx, eff in axes:
            relevant = lanes.masks[op][:, idx]
            unique_factor = np.where(relevant, unique_factor * eff,
                                     unique_factor)
            if op is Operand.INPUT and dim in (Dim.Y, Dim.X):
                kernel = sizes[:, IDX_R if dim is Dim.Y else IDX_S]
                # Neighbouring PEs share (kernel - stride) of each halo;
                # forwarded elements cost NoC hops instead of L2 reads.
                forward_discount = np.where(
                    relevant, forward_discount * np.minimum(
                        eff, np.maximum(1, kernel // lanes.stride)),
                    forward_discount)
        unique = pe_del[op] * unique_factor * tiles_count * bpe
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
    unique_out = pe_del[Operand.OUTPUT] * out_factor * tiles_count
    tile_outputs = tiles7[:, IDX_K] * tiles7[:, IDX_Y] * tiles7[:, IDX_X]
    # Scalar code takes max(0.0, int); keeping the int64 product here and
    # promoting at the addition below reproduces its rounding exactly.
    l2_psum_read = np.maximum(0, unique_out - tile_outputs * tiles_count) \
        * psum
    noc = noc + unique_out * psum

    merges_per_step = active_pes - active_pes / np.maximum(1, reduction_span)
    reduction = merges_per_step * steps_per_tile * tiles_count * psum

    per_pe_fills = (pe_del[Operand.WEIGHT] + pe_del[Operand.INPUT]) * bpe
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
        first_fill=array_fp[Operand.WEIGHT] + array_fp[Operand.INPUT],
        l2_ok=l2_ok, l2_base=l2_base, l2_budget=l2_budget,
        l1_ok=l1_ok, l1_base=l1_base, l1_budget=float(accel.l1_bytes),
    )


class LaneCosts:
    """Per-lane cost results: ``valid``, ``cycles``, ``energy_nj`` and
    ``edp`` arrays for ranking, and :meth:`layer_cost` to build one
    lane's full ``LayerCost``.

    Invalid lanes read ``inf`` in the three value arrays, matching
    :meth:`LayerCost.invalid`. Build with :func:`cost_lanes` (the
    kernel) or :meth:`from_objects` (per-lane objects from a scalar
    evaluator).
    """

    def __init__(self, valid: np.ndarray, cycles: np.ndarray,
                 energy_nj: np.ndarray,
                 rows: "_CostRows | _CostObjects") -> None:
        self.valid = valid
        self.cycles = np.where(valid, cycles, np.inf)
        self.energy_nj = np.where(valid, energy_nj, np.inf)
        with np.errstate(invalid="ignore", over="ignore"):
            self.edp = self.cycles * self.energy_nj
        self._rows = rows

    @classmethod
    def from_objects(cls, costs: Sequence[Optional[LayerCost]],
                     ) -> "LaneCosts":
        """Wrap per-lane ``LayerCost`` objects (``None`` = no mapping)."""
        valid = np.array([cost is not None and cost.valid
                          for cost in costs], dtype=bool)
        objects = np.empty(len(costs), dtype=object)
        objects[:] = costs
        return cls(valid,
                   np.array([cost.cycles if cost is not None else np.inf
                             for cost in costs], dtype=np.float64),
                   np.array([cost.energy_nj if cost is not None else np.inf
                             for cost in costs], dtype=np.float64),
                   _CostObjects(costs=objects))

    def layer_cost(self, lane: int) -> LayerCost:
        return self._rows.build(lane)

    def take(self, lanes: np.ndarray) -> "LaneCosts":
        """The costs of ``lanes`` only: row ``i`` is lane ``lanes[i]``.

        Keeps just what those lanes' ``LayerCost`` objects are built
        from, so the rest of the batch can be freed.
        """
        return LaneCosts(self.valid[lanes], self.cycles[lanes],
                         self.energy_nj[lanes], self._rows.take(lanes))


class _CostObjects(_LaneFields):
    """Ready-made per-lane ``LayerCost`` objects (``costs``)."""

    def build(self, lane: int) -> LayerCost:
        return self.costs[lane]


class _CostRows(_LaneFields):
    """What :func:`cost_lanes` builds one lane's ``LayerCost`` from."""

    def build(self, lane: int) -> LayerCost:
        layer = self.layers[self.layer_index[lane]]
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
            1.0, latency.compute_cycles * self.num_pes)
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


def cost_lanes(lanes: LaneLayers, accel: AcceleratorConfig,
               mappings: LaneMappings, params: CostParams,
               traffic: TrafficArrays) -> LaneCosts:
    """Latency, energy and EDP per lane from the traffic arrays, on an
    accelerator that passed validation. Mirrors
    :func:`repro.cost.latency.analyze_latency`,
    :func:`repro.cost.energy.analyze_energy` and
    :meth:`repro.cost.model.CostModel.evaluate` term by term.
    """
    legal = (mappings.tiles <= lanes.sizes[:, 1:]).all(axis=1)
    valid = mappings.ok & legal & traffic.l2_ok & traffic.l1_ok

    total_dram = traffic.dram_read + traffic.dram_write
    total_l2 = traffic.l2_read + traffic.l2_write
    compute = (traffic.tiles_count.astype(np.float64)
               * traffic.steps_per_tile.astype(np.float64))
    dram = total_dram / accel.dram_bandwidth
    l2 = total_l2 / l2_bandwidth_bytes_per_cycle(accel, params)
    fill = traffic.first_fill / accel.dram_bandwidth
    cycles = np.maximum(np.maximum(compute, dram), l2) + fill

    mac = lanes.per_layer([layer.macs * params.mac_pj(layer.bits)
                           for layer in lanes.layers], np.float64)
    l1_energy = traffic.l1 * params.l1_pj(accel.l1_bytes)
    l2_energy = total_l2 * params.l2_pj(accel.l2_bytes)
    dram_energy = total_dram * params.dram_pj_per_byte
    noc_rate = params.noc_pj(accel.num_pes)
    # Forwarded halo elements hop a single neighbour link (cheap); the
    # reduction tree moves one psum per merge.
    noc_energy = (traffic.noc * noc_rate
                  + traffic.forwarded * noc_rate * 0.5
                  + traffic.reduction * noc_rate)
    static = cycles * params.static_pj_per_cycle(accel.num_pes,
                                                 accel.onchip_bytes)
    energy_nj = (mac + l1_energy + l2_energy + dram_energy + noc_energy
                 + static) / 1000.0

    return LaneCosts(valid, cycles, energy_nj, _CostRows(
        layers=lanes.layers, layer_index=lanes.index, num_pes=accel.num_pes,
        legal=legal, traffic=traffic, compute=compute, dram=dram, l2=l2,
        fill=fill, mac=mac, l1_energy=l1_energy, l2_energy=l2_energy,
        dram_energy=dram_energy, noc_energy=noc_energy, static=static))

