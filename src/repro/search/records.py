"""The disk tier's record value: one shape's best mapping and cost as a row.

What both cache tiers keep per lookup is a :data:`ShapeBest`: the
shape's best :class:`~repro.mapping.mapping.Mapping` and its
:class:`~repro.cost.report.LayerCost`, or ``None`` when no mapping fits.
On disk (:mod:`repro.search.diskcache`) it is one fixed-width
``struct`` row, little-endian, in this order:

=============  =========  ==========================================
field          format     holds
=============  =========  ==========================================
tag            ``B``      1 (a ``None`` row is the lone byte 0)
array order    ``6s``     ``DIM_INDEX`` ids, outermost first
PE order       ``6s``     ``DIM_INDEX`` ids, outermost first
tiles          ``6I``     per dim, in ``SEARCHED_DIMS`` order
cost           ``3dq``    cycles, energy_nj, utilization, macs
traffic        ``8d3qd``  :class:`TrafficReport`'s numbers
latency        ``4d``     :class:`LatencyReport`'s numbers
energy         ``6d``     :class:`EnergyReport`'s numbers
name length    ``H``      bytes of the UTF-8 layer name that follows
=============  =========  ==========================================

Only a valid cost with all three reports and no ``reasons`` has a row,
which is every best cost a mapping search returns; :func:`encode_row`
raises on anything else, and on a field whose type a row would not give
back, so ``decode_row(encode_row(v)) == v`` holds bit for bit.
:func:`decode_row` checks each row with integer tests only (each order
is a permutation of the searched dims, each tile is at least 1) and
raises ``ValueError`` on a row that fails one; the store reads that as
a miss.
"""

from __future__ import annotations

import itertools
import struct
from typing import Dict, Optional, Tuple

from repro.cost.energy import EnergyReport
from repro.cost.latency import LatencyReport
from repro.cost.report import LayerCost
from repro.cost.traffic import TrafficReport
from repro.mapping.mapping import Mapping
from repro.tensors.dims import DIM_INDEX, SEARCHED_DIMS, Dim

#: What both cache tiers keep per ``(entropy, (accel, shape, style))``:
#: the shape's best mapping and its cost, or ``None`` when no mapping
#: fits. The mapping search's history stays out of the cache.
ShapeBest = Optional[Tuple[Mapping, LayerCost]]

#: Names the :data:`ShapeBest` row layout in every disk key, so records
#: of another layout are never served. Change it whenever the row
#: changes.
CACHE_FORMAT = "shape-best/3"

#: The numbers of a row, per report, in each dataclass's field order.
_COST_FIELDS = ("cycles", "energy_nj", "utilization", "macs")
_TRAFFIC_FIELDS = ("dram_read_bytes", "dram_write_bytes", "l2_read_bytes",
                   "l2_write_bytes", "noc_bytes", "forwarded_bytes",
                   "reduction_bytes", "l1_bytes", "tiles_count",
                   "steps_per_tile", "active_pes", "first_tile_fill_bytes")
_LATENCY_FIELDS = ("compute_cycles", "dram_cycles", "l2_cycles",
                   "fill_cycles")
_ENERGY_FIELDS = ("mac_pj", "l1_pj", "l2_pj", "dram_pj", "noc_pj",
                  "static_pj")

_ROW = struct.Struct("<B6s6s6I" "3dq" "8d3qd" "4d" "6d" "H")
#: The type each number of a row (tiles first) decodes to.
_NUMBER_TYPES = ((int,) * 6 + (float,) * 3 + (int,) + (float,) * 8
                 + (int,) * 3 + (float,) * 11)
#: Where each group of :data:`_ROW` fields starts and ends.
_TILES = slice(3, 9)
_COST = slice(9, 13)
_TRAFFIC = slice(13, 25)
_LATENCY = slice(25, 29)
_ENERGY = slice(29, 35)
#: The row of ``None``.
_NONE_ROW = b"\x00"
_TAG = 1

#: Every loop order as its row bytes, and back: the 720 permutations
#: of the searched dims. A 6-byte key missing from :data:`_ORDERS` is
#: not a permutation.
_ORDERS: Dict[bytes, Tuple[Dim, ...]] = {
    bytes(DIM_INDEX[dim] for dim in order): order
    for order in itertools.permutations(SEARCHED_DIMS)}
_ORDER_KEYS: Dict[Tuple[Dim, ...], bytes] = {
    order: key for key, order in _ORDERS.items()}


def encode_row(value: ShapeBest) -> bytes:
    """The row of ``value``; raises ``ValueError`` on a value that a
    row cannot give back exactly."""
    if value is None:
        return _NONE_ROW
    mapping, cost = value
    traffic, latency, energy = cost.traffic, cost.latency, cost.energy
    if (type(mapping) is not Mapping or type(cost) is not LayerCost
            or type(traffic) is not TrafficReport
            or type(latency) is not LatencyReport
            or type(energy) is not EnergyReport):
        raise ValueError(f"not a (Mapping, LayerCost) with every report: "
                         f"{value!r}")
    if (cost.valid is not True or cost.reasons != ()
            or traffic.feasible is not True or traffic.reasons != ()):
        raise ValueError(f"only a valid cost without reasons has a row: "
                         f"{cost!r}")
    array_key = _ORDER_KEYS.get(mapping.array_order)
    pe_key = _ORDER_KEYS.get(mapping.pe_order)
    if (array_key is None or pe_key is None
            or tuple(dim for dim, _ in mapping.tiles) != SEARCHED_DIMS):
        raise ValueError(f"not a canonical mapping: {mapping!r}")
    tiles = [size for _, size in mapping.tiles]
    numbers = (*tiles,
               *(getattr(cost, field) for field in _COST_FIELDS),
               *(getattr(traffic, field) for field in _TRAFFIC_FIELDS),
               *(getattr(latency, field) for field in _LATENCY_FIELDS),
               *(getattr(energy, field) for field in _ENERGY_FIELDS))
    if (any(type(number) is not kind
            for number, kind in zip(numbers, _NUMBER_TYPES))
            or min(tiles) < 1):
        raise ValueError(f"a number a row would not give back: {value!r}")
    name = cost.layer_name.encode()
    try:
        return _ROW.pack(_TAG, array_key, pe_key, *numbers, len(name)) + name
    except struct.error as exc:  # an int or name out of the row's range
        raise ValueError(f"{exc}: {value!r}") from None


def decode_row(row: bytes) -> ShapeBest:
    """The value of a row :func:`encode_row` wrote; raises
    ``ValueError`` on a damaged one."""
    if row == _NONE_ROW:
        return None
    if len(row) < _ROW.size:
        raise ValueError(f"a {len(row)}-byte row is shorter than "
                         f"{_ROW.size} bytes")
    fields = _ROW.unpack_from(row)
    array_order = _ORDERS.get(fields[1])
    pe_order = _ORDERS.get(fields[2])
    tiles = fields[_TILES]
    if (fields[0] != _TAG or array_order is None or pe_order is None
            or min(tiles) < 1 or fields[-1] != len(row) - _ROW.size):
        raise ValueError("damaged row")
    mapping = object.__new__(Mapping)
    # The checks above are the ones Mapping.__post_init__ makes, on ids
    # instead of enum members; the tuples are already canonical.
    object.__setattr__(mapping, "array_order", array_order)
    object.__setattr__(mapping, "pe_order", pe_order)
    object.__setattr__(mapping, "tiles", tuple(zip(SEARCHED_DIMS, tiles)))
    cycles, energy_nj, utilization, macs = fields[_COST]
    cost = LayerCost(row[_ROW.size:].decode(), True, (), cycles,
                     energy_nj, utilization, macs,
                     TrafficReport(True, (), *fields[_TRAFFIC]),
                     LatencyReport(*fields[_LATENCY]),
                     EnergyReport(*fields[_ENERGY]))
    return mapping, cost
