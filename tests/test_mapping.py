"""Tests for repro.mapping: loops, tiling, the Mapping dataclass, builders."""

import pytest

from repro.errors import InvalidMappingError
from repro.mapping.builders import dataflow_preserving_mapping, untiled_mapping
from repro.mapping.loops import (
    canonical_order,
    order_from_importance,
    position_of,
    validate_order,
)
from repro.mapping.mapping import Mapping
from repro.mapping.tiling import (
    clamp_tiles,
    full_tiles,
    shrink_to_budget,
    tile_counts,
    tiles_from_ratios,
)
from repro.tensors.dims import SEARCHED_DIMS, Dim


class TestLoopOrder:
    def test_canonical_is_permutation(self):
        assert sorted(d.name for d in canonical_order()) == \
            sorted(d.name for d in SEARCHED_DIMS)

    def test_validate_rejects_missing_dim(self):
        with pytest.raises(InvalidMappingError):
            validate_order((Dim.K, Dim.C))

    def test_validate_rejects_duplicates(self):
        with pytest.raises(InvalidMappingError):
            validate_order((Dim.K,) * 6)

    @pytest.mark.parametrize("order", [
        SEARCHED_DIMS + (Dim.K,),
        SEARCHED_DIMS[:5] + (Dim.N,),
        SEARCHED_DIMS[:5] + ("S",),
        (),
    ])
    def test_validate_names_what_it_got(self, order):
        with pytest.raises(InvalidMappingError) as error:
            validate_order(order, "PE-level order")
        assert str(error.value) == (
            "PE-level order must be a permutation of "
            "['K', 'C', 'Y', 'X', 'R', 'S'], got "
            f"{[getattr(d, 'name', d) for d in order]}")

    def test_validate_accepts_every_rotation(self):
        for shift in range(len(SEARCHED_DIMS)):
            order = SEARCHED_DIMS[shift:] + SEARCHED_DIMS[:shift]
            assert validate_order(list(order)) == order

    def test_order_from_importance_descending(self):
        # K=0.9 > C=0.5 > others
        importance = [0.9, 0.5, 0.1, 0.2, 0.3, 0.4]
        order = order_from_importance(importance)
        assert order[0] is Dim.K
        assert order[1] is Dim.C

    def test_order_from_importance_fig3(self):
        """The paper's Fig 3 example: importances (3,5,2,4,5,1) for
        (K,C,Y,X,R,S) yield order C,R,X,K,Y,S (ties broken canonically)."""
        importance = [3, 5, 2, 4, 5, 1]
        order = order_from_importance(importance)
        assert order == (Dim.C, Dim.R, Dim.X, Dim.K, Dim.Y, Dim.S)

    def test_position_of(self):
        order = canonical_order()
        assert position_of(order, order[0]) == 0
        assert position_of(order, order[-1]) == len(order) - 1


class TestTiling:
    def test_ratios_full(self, small_layer):
        tiles = tiles_from_ratios(small_layer, [1.0] * 6)
        assert tiles == full_tiles(small_layer)

    def test_ratios_minimum_one(self, small_layer):
        tiles = tiles_from_ratios(small_layer, [1e-9] * 6)
        assert all(v == 1 for v in tiles.values())

    def test_rejects_out_of_range_ratio(self, small_layer):
        with pytest.raises(InvalidMappingError):
            tiles_from_ratios(small_layer, [0.0] * 6)
        with pytest.raises(InvalidMappingError):
            tiles_from_ratios(small_layer, [1.5] * 6)

    def test_clamp(self, small_layer):
        tiles = clamp_tiles(small_layer, {Dim.K: 1000, Dim.C: 0})
        assert tiles[Dim.K] == small_layer.k
        assert tiles[Dim.C] == 1

    def test_tile_counts(self, small_layer):
        tiles = clamp_tiles(small_layer, {d: 5 for d in SEARCHED_DIMS})
        counts = tile_counts(small_layer, tiles)
        assert counts[Dim.K] == 7  # ceil(32/5)
        assert counts[Dim.R] == 1  # tile clamped to 3

    def test_shrink_to_budget_fits(self, small_layer):
        def footprint(layer, tiles):
            from repro.cost.operands import tile_set_bytes
            return tile_set_bytes(layer, tiles, 4)

        tiles = shrink_to_budget(small_layer, full_tiles(small_layer),
                                 footprint, 2048)
        assert footprint(small_layer, tiles) <= 2048

    def test_shrink_stops_at_ones(self, small_layer):
        shrunk = shrink_to_budget(small_layer, full_tiles(small_layer),
                                  lambda *_: 10**9, 1)
        assert all(v == 1 for v in shrunk.values())


class TestMapping:
    def test_create_and_lookup(self, small_layer):
        mapping = untiled_mapping(small_layer)
        assert mapping.tile(Dim.K) == small_layer.k
        assert mapping.legal_for(small_layer)

    def test_hashable(self, small_layer):
        a = untiled_mapping(small_layer)
        b = untiled_mapping(small_layer)
        assert hash(a) == hash(b)
        assert a == b

    def test_rejects_missing_tiles(self):
        with pytest.raises(InvalidMappingError):
            Mapping(array_order=SEARCHED_DIMS, pe_order=SEARCHED_DIMS,
                    tiles=((Dim.K, 4),))

    def test_rejects_bad_tile_value(self):
        tiles = tuple((d, 0) for d in SEARCHED_DIMS)
        with pytest.raises(InvalidMappingError):
            Mapping(array_order=SEARCHED_DIMS, pe_order=SEARCHED_DIMS,
                    tiles=tiles)

    def test_illegal_for_smaller_layer(self, small_layer, pointwise_layer):
        big = untiled_mapping(small_layer)
        assert not big.legal_for(pointwise_layer) or \
            all(big.tile(d) <= pointwise_layer.dim_size(d)
                for d in SEARCHED_DIMS)

    def test_describe(self, small_layer):
        text = untiled_mapping(small_layer).describe()
        assert "outer[" in text and "tiles[" in text


class TestBuilders:
    def test_heuristic_fits_l2(self, small_layer, small_accel):
        from repro.cost.operands import tile_set_bytes
        mapping = dataflow_preserving_mapping(small_layer, small_accel)
        assert tile_set_bytes(small_layer, mapping.tile_map, 4) \
            <= small_accel.l2_bytes

    def test_heuristic_legal(self, small_layer, small_accel):
        mapping = dataflow_preserving_mapping(small_layer, small_accel)
        assert mapping.legal_for(small_layer)

    def test_heuristic_covers_array(self, small_layer, small_accel):
        mapping = dataflow_preserving_mapping(small_layer, small_accel)
        for dim, axis in zip(small_accel.parallel_dims,
                             small_accel.array_dims):
            expected = min(small_layer.dim_size(dim), axis)
            assert mapping.tile(dim) >= min(expected, mapping.tile(dim))
