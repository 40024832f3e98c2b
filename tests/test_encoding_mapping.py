"""Tests for the mapping encoder (vector <-> Mapping)."""

import numpy as np
import pytest

from repro.accelerator.presets import BASELINE_PRESETS
from repro.cost.batch import LaneLayers
from repro.cost.operands import tile_set_bytes
from repro.encoding.mapping_enc import MappingEncoder, heuristic_vectors
from repro.encoding.spaces import EncodingStyle
from repro.errors import EncodingError
from repro.mapping.builders import dataflow_preserving_mapping
from repro.models import MODEL_BUILDERS, build_model
from repro.tensors.network import shape_key
from repro.utils.rng import ensure_rng


@pytest.fixture
def encoder(small_layer, small_accel):
    return MappingEncoder(small_layer, small_accel)


class TestDecode:
    def test_num_params(self, encoder, small_layer, small_accel):
        assert encoder.num_params == 18
        index_enc = MappingEncoder(small_layer, small_accel,
                                   style=EncodingStyle.INDEX)
        assert index_enc.num_params == 8

    def test_every_sample_is_legal(self, encoder, small_layer, small_accel):
        rng = ensure_rng(0)
        for _ in range(100):
            mapping = encoder.decode(rng.random(encoder.num_params))
            assert mapping.legal_for(small_layer)
            assert tile_set_bytes(small_layer, mapping.tile_map, 4) \
                <= small_accel.l2_bytes

    def test_index_style_samples(self, small_layer, small_accel):
        encoder = MappingEncoder(small_layer, small_accel,
                                 style=EncodingStyle.INDEX)
        rng = ensure_rng(1)
        for _ in range(50):
            mapping = encoder.decode(rng.random(encoder.num_params))
            assert mapping.legal_for(small_layer)

    def test_index_style_batch_covers_every_order(self, small_layer,
                                                  small_accel):
        encoder = MappingEncoder(small_layer, small_accel,
                                 style=EncodingStyle.INDEX)
        vectors = []
        for index in range(720):
            vector = np.full(encoder.num_params, 0.5)
            vector[0] = vector[-1] = (index + 0.5) / 720
            vectors.append(vector)
        for vector, mapping in zip(vectors, encoder.decode_batch(vectors)):
            assert mapping == encoder.decode(vector)

    def test_wrong_shape_raises(self, encoder):
        with pytest.raises(EncodingError):
            encoder.decode(np.zeros(3))

    def test_deterministic(self, encoder):
        vector = ensure_rng(2).random(encoder.num_params)
        assert encoder.decode(vector) == encoder.decode(vector)

    def test_parallel_dims_covered(self, encoder, small_layer, small_accel):
        """Decoded tiles cover the array along parallel dims when the
        layer is big enough (no guaranteed-idle PEs)."""
        rng = ensure_rng(3)
        for _ in range(30):
            mapping = encoder.decode(rng.random(encoder.num_params))
            for dim, axis in zip(small_accel.parallel_dims,
                                 small_accel.array_dims):
                limit = min(axis, small_layer.dim_size(dim))
                assert mapping.tile(dim) >= min(limit, mapping.tile(dim))


class TestNonFiniteVectors:
    """A vector that cannot decode raises EncodingError (scalar) or
    comes back ``None`` (batch); it never aborts the batch."""

    @pytest.mark.parametrize("style", (EncodingStyle.IMPORTANCE,
                                       EncodingStyle.INDEX))
    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_scalar_decode_raises_encoding_error(self, small_layer,
                                                 small_accel, style, bad):
        encoder = MappingEncoder(small_layer, small_accel, style=style)
        for position in range(encoder.num_params):
            vector = np.full(encoder.num_params, 0.5)
            vector[position] = bad
            with pytest.raises(EncodingError):
                encoder.decode(vector)
        with pytest.raises(EncodingError):
            encoder.decode(np.full(encoder.num_params, bad))

    @pytest.mark.parametrize("style", (EncodingStyle.IMPORTANCE,
                                       EncodingStyle.INDEX))
    def test_batch_returns_none_next_to_valid_vectors(
            self, small_layer, small_accel, style):
        encoder = MappingEncoder(small_layer, small_accel, style=style)
        rng = ensure_rng(5)
        valid = [rng.random(encoder.num_params) for _ in range(4)]
        nan = valid[0].copy()
        nan[1] = np.nan
        vectors = [
            valid[0],
            nan,
            np.full(encoder.num_params, np.inf),
            valid[1],
            np.full(encoder.num_params, -np.inf),
            np.zeros(encoder.num_params + 1),  # wrong length
            valid[2],
            valid[3],
        ]
        decoded = encoder.decode_batch(vectors)
        assert [m is None for m in decoded] == [
            False, True, True, False, True, True, False, False]
        for vector, mapping in zip(vectors, decoded):
            if mapping is not None:
                assert mapping == encoder.decode(vector)

    def test_huge_finite_entries_decode_alike(self, small_layer,
                                              small_accel):
        # ratio * size overflows to inf; both paths clamp to the size.
        for style in (EncodingStyle.IMPORTANCE, EncodingStyle.INDEX):
            encoder = MappingEncoder(small_layer, small_accel, style=style)
            vectors = [np.full(encoder.num_params, 1e308),
                       np.full(encoder.num_params, -1e308)]
            for vector, mapping in zip(vectors,
                                       encoder.decode_batch(vectors)):
                assert mapping == encoder.decode(vector)


class TestEncodeInverse:
    def test_heuristic_round_trip(self, encoder, small_layer, small_accel):
        mapping = dataflow_preserving_mapping(small_layer, small_accel)
        decoded = encoder.decode(encoder.encode_mapping(mapping))
        assert decoded.array_order == mapping.array_order
        assert decoded.pe_order == mapping.pe_order
        for dim, size in mapping.tiles:
            assert abs(decoded.tile(dim) - size) <= 1

    def test_index_style_cannot_encode(self, small_layer, small_accel):
        encoder = MappingEncoder(small_layer, small_accel,
                                 style=EncodingStyle.INDEX)
        mapping = dataflow_preserving_mapping(small_layer, small_accel)
        with pytest.raises(EncodingError):
            encoder.encode_mapping(mapping)


class TestHeuristicVectors:
    @pytest.mark.parametrize("preset", sorted(BASELINE_PRESETS))
    def test_equals_encoded_heuristic_mapping(self, preset):
        """The array warm start is the scalar heuristic, encoded, for
        every unique shape of every zoo model."""
        accel = BASELINE_PRESETS[preset]
        layers = list({shape_key(layer): layer
                       for name in sorted(MODEL_BUILDERS)
                       for layer, _ in build_model(name).unique_shapes()
                       }.values())
        vectors = heuristic_vectors(
            LaneLayers(layers, np.arange(len(layers))), accel)
        expected = [MappingEncoder(layer, accel).encode_mapping(
            dataflow_preserving_mapping(layer, accel)) for layer in layers]
        assert vectors.tolist() == np.array(expected).tolist()

