"""Parity tests: one kernel call over lanes of many accelerators.

The mapping search costs every candidate of a task group in one call,
so the batch kernel takes each lane's accelerator from
:class:`repro.cost.batch.LaneAccels`. A batch that mixes 1-D, 2-D and
3-D arrays, different parallel dims, buffer sizes and bandwidths must
give every lane exactly what the one-accelerator calls give it, and
every cost must equal the scalar ``CostModel.evaluate`` bit for bit.
"""

import dataclasses

import numpy as np
import pytest

from repro.accelerator.arch import AcceleratorConfig
from repro.accelerator.presets import baseline_preset
from repro.accelerator.validation import validate_architecture
from repro.cost.batch import LaneAccels, LaneLayers
from repro.cost.model import CostModel
from repro.encoding.mapping_enc import (
    EncodingStyle,
    MappingEncoder,
    decode_lanes,
    heuristic_vectors,
    num_params,
)
from repro.mapping.builders import dataflow_preserving_mapping
from repro.models import build_model
from repro.tensors.dims import Dim
from repro.tensors.layer import ConvLayer

ACCELS = (
    AcceleratorConfig(array_dims=(64,), parallel_dims=(Dim.K,),
                      l1_bytes=96, l2_bytes=48 * 1024, dram_bandwidth=8,
                      name="line-k"),
    AcceleratorConfig(array_dims=(12, 14), parallel_dims=(Dim.Y, Dim.X),
                      l1_bytes=512, l2_bytes=108 * 1024, dram_bandwidth=16,
                      name="grid-yx"),
    AcceleratorConfig(array_dims=(16, 32), parallel_dims=(Dim.C, Dim.K),
                      l1_bytes=64, l2_bytes=256 * 1024, dram_bandwidth=32,
                      name="grid-ck"),
    AcceleratorConfig(array_dims=(4, 6, 6),
                      parallel_dims=(Dim.K, Dim.Y, Dim.R),
                      l1_bytes=256, l2_bytes=24 * 1024, dram_bandwidth=4,
                      name="cube-kyr"),
    baseline_preset("eyeriss"),
)

#: Fails ``validate_architecture`` (L1 below its minimum): its lanes
#: must come back invalid with the validation problems as reasons.
INVALID = dataclasses.replace(ACCELS[2], l1_bytes=2, name="tiny-l1")

LAYERS = tuple(build_model("mobilenet_v2").layers[1:6]) + (
    ConvLayer(name="strided", k=96, c=48, y=14, x=14, r=5, s=5, stride=2),
    ConvLayer(name="grouped", k=32, c=32, y=14, x=14, r=3, s=3, groups=4),
)

#: Vectors per (accelerator, layer) pair.
PER_PAIR = 6


def _assert_identical(scalar, batched):
    assert dataclasses.asdict(scalar) == dataclasses.asdict(batched)


def _lanes(accels, style):
    """Every (accelerator, layer) pair, ``PER_PAIR`` random vectors
    each; lanes interleave accelerators so no accelerator is a
    contiguous block."""
    pairs = [(a, l) for l in range(len(LAYERS)) for a in range(len(accels))]
    accel_index = np.repeat([a for a, _ in pairs], PER_PAIR)
    layer_index = np.repeat([l for _, l in pairs], PER_PAIR)
    rng = np.random.default_rng(11)
    vectors = rng.random((len(accel_index), num_params(style)))
    return accel_index, layer_index, vectors


@pytest.mark.parametrize("style", (EncodingStyle.IMPORTANCE,
                                   EncodingStyle.INDEX))
def test_mixed_batch_equals_per_accelerator_calls(style):
    accels = ACCELS + (INVALID,)
    model = CostModel()
    accel_index, layer_index, vectors = _lanes(accels, style)
    lanes = LaneLayers(LAYERS, layer_index)
    lane_accels = LaneAccels(accels, accel_index)
    mappings = decode_lanes(lanes, lane_accels, style, vectors)
    costs = model.evaluate_lanes(lanes, lane_accels, mappings)

    for which, accel in enumerate(accels):
        rows = np.flatnonzero(accel_index == which)
        alone_lanes = LaneLayers(LAYERS, layer_index[rows])
        alone = decode_lanes(alone_lanes, accel, style, vectors[rows])
        alone_costs = model.evaluate_lanes(alone_lanes, accel, alone)
        for row, lane in enumerate(rows):
            assert mappings.mapping(lane) == alone.mapping(row)
            assert costs.valid[lane] == alone_costs.valid[row]
            assert costs.edp[lane] == alone_costs.edp[row]
            _assert_identical(alone_costs.layer_cost(row),
                              costs.layer_cost(lane))

    lanes_of_invalid = accel_index == len(ACCELS)
    assert not costs.valid[lanes_of_invalid].any()
    assert costs.valid[~lanes_of_invalid].any()


def test_mixed_batch_matches_scalar_bit_for_bit():
    accels = ACCELS + (INVALID,)
    model = CostModel()
    style = EncodingStyle.IMPORTANCE
    accel_index, layer_index, vectors = _lanes(accels, style)
    lanes = LaneLayers(LAYERS, layer_index)
    lane_accels = LaneAccels(accels, accel_index)
    mappings = decode_lanes(lanes, lane_accels, style, vectors)
    costs = model.evaluate_lanes(lanes, lane_accels, mappings)

    reasons = set()
    for lane in range(len(lanes)):
        layer, accel = LAYERS[layer_index[lane]], accels[accel_index[lane]]
        decoded = MappingEncoder(layer, accel, style).decode(vectors[lane])
        assert mappings.mapping(lane) == decoded
        scalar = model.evaluate(layer, accel, decoded)
        assert costs.valid[lane] == scalar.valid
        assert costs.cycles[lane] == scalar.cycles
        assert costs.energy_nj[lane] == scalar.energy_nj
        _assert_identical(scalar, costs.layer_cost(lane))
        reasons.update(scalar.reasons)
    assert set(validate_architecture(INVALID)) <= reasons
    assert costs.valid.sum() > len(lanes) // 2


def test_heuristic_vectors_per_lane_accelerator():
    accel_index = np.arange(len(LAYERS) * len(ACCELS)) % len(ACCELS)
    layer_index = np.arange(len(LAYERS) * len(ACCELS)) // len(ACCELS)
    mixed = heuristic_vectors(LaneLayers(LAYERS, layer_index),
                              LaneAccels(ACCELS, accel_index))
    for lane, (which, layer) in enumerate(zip(accel_index, layer_index)):
        accel = ACCELS[which]
        [alone] = heuristic_vectors(LaneLayers(LAYERS, [layer]), accel)
        assert mixed[lane].tolist() == alone.tolist()
        encoder = MappingEncoder(LAYERS[layer], accel)
        expected = encoder.encode_mapping(
            dataflow_preserving_mapping(LAYERS[layer], accel))
        assert mixed[lane].tolist() == expected.tolist()
