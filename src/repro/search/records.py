"""The cache's value: one shape's best mapping and cost as a row.

What both cache tiers keep per lookup, and what a candidate's reward is
folded from, is a :data:`ShapeBest`: a :class:`ShapeRow`, or ``None``
when no mapping fits. A row is the numbers of the shape's best
:class:`~repro.mapping.mapping.Mapping` and of its
:class:`~repro.cost.report.LayerCost`, without the layer name (every
network puts in its own). Objects are built on read:
:meth:`ShapeRow.mapping` and :meth:`ShapeRow.layer_cost` build exactly
the objects the row was made of, for the evaluations a caller reads.

On disk (:mod:`repro.search.diskcache`) a row is one fixed-width
``struct`` record, little-endian, in this order:

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
=============  =========  ==========================================

A :class:`ShapeRow` holds the fields after the tag, in this order.
Only a valid cost with all three reports and no ``reasons`` has a row,
which is every best cost a mapping search returns; :meth:`ShapeRow.of`
raises on anything else, and on a field whose type or range a row
would not give back, so ``row.mapping()`` and ``row.layer_cost(name)``
equal what the row was made of bit for bit. :func:`decode_row` checks
each disk row with integer tests only (each order is a permutation of
the searched dims, each tile is at least 1) and raises ``ValueError``
on a row that fails one; the store reads that as a miss.
"""

from __future__ import annotations

import itertools
import struct
from operator import attrgetter, itemgetter
from typing import Dict, Optional, Tuple

from repro.cost.energy import EnergyReport
from repro.cost.latency import LatencyReport
from repro.cost.report import LayerCost
from repro.cost.traffic import TrafficReport
from repro.mapping.mapping import Mapping
from repro.tensors.dims import DIM_INDEX, SEARCHED_DIMS, Dim

#: Names the :class:`ShapeRow` layout in every disk key, so records of
#: another layout are never served. Change it whenever the row changes.
CACHE_FORMAT = "shape-best/4"

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

_cost_numbers = attrgetter(*_COST_FIELDS)
_traffic_numbers = attrgetter(*_TRAFFIC_FIELDS)
_latency_numbers = attrgetter(*_LATENCY_FIELDS)
_energy_numbers = attrgetter(*_ENERGY_FIELDS)

#: A :class:`ShapeRow`'s fields as packed behind the tag byte.
_FIELDS = struct.Struct("<6s6s6I" "3dq" "8d3qd" "4d" "6d")
#: The type each number of a row (tiles first) holds.
_NUMBER_TYPES = ((int,) * 6 + (float,) * 3 + (int,) + (float,) * 8
                 + (int,) * 3 + (float,) * 11)
#: Where each group of :class:`ShapeRow` fields starts and ends.
_TILES = slice(2, 8)
_COST = slice(8, 12)
_TRAFFIC = slice(12, 24)
_LATENCY = slice(24, 28)
_ENERGY = slice(28, 34)
#: The row of ``None``, and the first byte of every other row.
_NONE_ROW = b"\x00"
_TAG = 1
_TAG_BYTE = bytes([_TAG])
#: Bytes of every row but ``None``'s.
_ROW_BYTES = 1 + _FIELDS.size

#: Every loop order as its row bytes, and back: the 720 permutations
#: of the searched dims. A 6-byte key missing from :data:`_ORDERS` is
#: not a permutation.
_ORDERS: Dict[bytes, Tuple[Dim, ...]] = {
    bytes(DIM_INDEX[dim] for dim in order): order
    for order in itertools.permutations(SEARCHED_DIMS)}
_ORDER_KEYS: Dict[Tuple[Dim, ...], bytes] = {
    order: key for key, order in _ORDERS.items()}


class ShapeRow(tuple):
    """One shape's best mapping and its cost as numbers (see the module
    docstring for the fields); immutable, picklable and compared as a
    tuple."""

    __slots__ = ()

    cycles = property(itemgetter(_COST.start))
    energy_nj = property(itemgetter(_COST.start + 1))

    @classmethod
    def of(cls, mapping: Mapping, cost: LayerCost) -> "ShapeRow":
        """The row of a best mapping and its cost; raises ``ValueError``
        on a value that a row cannot give back exactly."""
        traffic, latency, energy = cost.traffic, cost.latency, cost.energy
        if (type(mapping) is not Mapping or type(cost) is not LayerCost
                or type(traffic) is not TrafficReport
                or type(latency) is not LatencyReport
                or type(energy) is not EnergyReport):
            raise ValueError(f"not a (Mapping, LayerCost) with every "
                             f"report: {(mapping, cost)!r}")
        if (cost.valid is not True or cost.reasons != ()
                or traffic.feasible is not True or traffic.reasons != ()):
            raise ValueError(f"only a valid cost without reasons has a "
                             f"row: {cost!r}")
        array_key = _ORDER_KEYS.get(mapping.array_order)
        pe_key = _ORDER_KEYS.get(mapping.pe_order)
        dims, tiles = zip(*mapping.tiles)
        if array_key is None or pe_key is None or dims != SEARCHED_DIMS:
            raise ValueError(f"not a canonical mapping: {mapping!r}")
        numbers = (*tiles, *_cost_numbers(cost),
                   *_traffic_numbers(traffic), *_latency_numbers(latency),
                   *_energy_numbers(energy))
        if tuple(map(type, numbers)) != _NUMBER_TYPES or min(tiles) < 1:
            raise ValueError(f"a number a row would not give back: "
                             f"{(mapping, cost)!r}")
        row = tuple.__new__(cls, (array_key, pe_key, *numbers))
        try:
            _FIELDS.pack(*row)
        except struct.error as exc:  # an int out of the row's range
            raise ValueError(f"{exc}: {(mapping, cost)!r}") from None
        return row

    def mapping(self) -> Mapping:
        """The best mapping this row was made of."""
        mapping = object.__new__(Mapping)
        # A row's orders are permutations and its tiles at least 1 (the
        # checks Mapping.__post_init__ makes); the tuples are canonical.
        object.__setattr__(mapping, "array_order", _ORDERS[self[0]])
        object.__setattr__(mapping, "pe_order", _ORDERS[self[1]])
        object.__setattr__(mapping, "tiles",
                           tuple(zip(SEARCHED_DIMS, self[_TILES])))
        return mapping

    def layer_cost(self, layer_name: str) -> LayerCost:
        """The cost this row was made of, named ``layer_name``."""
        return LayerCost(layer_name, True, (), *self[_COST],
                         TrafficReport(True, (), *self[_TRAFFIC]),
                         LatencyReport(*self[_LATENCY]),
                         EnergyReport(*self[_ENERGY]))


#: What both cache tiers keep per ``(entropy, (accel, shape, style))``:
#: the shape's best mapping and its cost as a row, or ``None`` when no
#: mapping fits. The mapping search's history stays out of the cache.
ShapeBest = Optional[ShapeRow]


def encode_row(value: ShapeBest) -> bytes:
    """The disk row of ``value``."""
    if value is None:
        return _NONE_ROW
    return _TAG_BYTE + _FIELDS.pack(*value)


def decode_row(row: bytes) -> ShapeBest:
    """The value of a row :func:`encode_row` wrote; raises
    ``ValueError`` on a damaged one."""
    if row == _NONE_ROW:
        return None
    if len(row) != _ROW_BYTES or row[0] != _TAG:
        raise ValueError(f"damaged {len(row)}-byte row")
    fields = _FIELDS.unpack_from(row, 1)
    if (fields[0] not in _ORDERS or fields[1] not in _ORDERS
            or min(fields[_TILES]) < 1):
        raise ValueError("damaged row")
    return tuple.__new__(ShapeRow, fields)
