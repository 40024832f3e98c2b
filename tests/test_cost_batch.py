"""Parity tests: the batch cost kernel vs scalar ``evaluate``.

The batch kernels in :mod:`repro.cost.batch` promise *exact* equality —
every ``LayerCost`` float matches the scalar reference implementation to
the last bit. These tests sweep presets x encoding styles x random and
deliberately-infeasible mappings and compare full field-by-field, both
through the one-layer ``CostModel.evaluate_batch`` and through
``CostModel.evaluate_lanes`` on batches that mix layers lane by lane.
"""

import dataclasses
import random

import pytest

from repro.accelerator.presets import baseline_preset
from repro.cost.batch import LaneLayers, LaneMappings
from repro.cost.model import CostModel
from repro.encoding.mapping_enc import EncodingStyle, MappingEncoder
from repro.mapping.builders import dataflow_preserving_mapping
from repro.mapping.mapping import Mapping
from repro.models import build_model
from repro.tensors.dims import SEARCHED_DIMS
from repro.tensors.layer import ConvLayer, conv1x1, depthwise
from repro.utils.rng import ensure_rng

PRESETS = ("eyeriss", "nvdla_256", "nvdla_1024")

LAYERS = (
    ConvLayer(name="conv3x3", k=64, c=32, y=28, x=28, r=3, s=3),
    ConvLayer(name="strided", k=96, c=48, y=14, x=14, r=5, s=5, stride=2),
    depthwise("dw", channels=64, y=28, x=28),
    conv1x1("pw", k=128, c=64, y=7, x=7),
    ConvLayer(name="grouped", k=32, c=32, y=14, x=14, r=3, s=3, groups=4),
)


def _assert_identical(scalar, batched):
    assert dataclasses.asdict(scalar) == dataclasses.asdict(batched)
    assert scalar.edp == batched.edp or (
        scalar.edp != scalar.edp and batched.edp != batched.edp)


def _assert_take(costs, lanes, mappings):
    """``take`` keeps exactly the picked lanes' costs and mappings."""
    picked = list(range(len(mappings)))[::-3]
    taken = costs.take(picked)
    taken_mappings = lanes.take(picked)
    for row, lane in enumerate(picked):
        assert taken.valid[row] == costs.valid[lane]
        assert taken.edp[row] == costs.edp[lane]
        _assert_identical(costs.layer_cost(lane), taken.layer_cost(row))
        assert taken_mappings.mapping(row) == mappings[lane]


def _random_mapping(rng, layer):
    array_order = list(SEARCHED_DIMS)
    pe_order = list(SEARCHED_DIMS)
    rng.shuffle(array_order)
    rng.shuffle(pe_order)
    tiles = {dim: rng.randint(1, layer.dim_size(dim))
             for dim in SEARCHED_DIMS}
    return Mapping.create(array_order, pe_order, tiles)


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("layer", LAYERS, ids=lambda l: l.name)
def test_random_mappings_match_scalar_exactly(preset, layer):
    accel = baseline_preset(preset)
    model = CostModel()
    rng = random.Random(f"{preset}:{layer.name}")
    mappings = [_random_mapping(rng, layer) for _ in range(64)]
    mappings.append(dataflow_preserving_mapping(layer, accel))

    batched = model.evaluate_batch(layer, accel, mappings)
    assert len(batched) == len(mappings)
    for mapping, cost in zip(mappings, batched):
        _assert_identical(model.evaluate(layer, accel, mapping), cost)


@pytest.mark.parametrize("preset", PRESETS)
def test_infeasible_and_illegal_lanes_match_scalar(preset):
    accel = baseline_preset(preset)
    model = CostModel()
    layer = ConvLayer(name="big", k=512, c=512, y=28, x=28, r=3, s=3)
    full = {dim: layer.dim_size(dim) for dim in SEARCHED_DIMS}
    mappings = [
        # whole layer as one tile: overflows any preset's L2
        Mapping.create(SEARCHED_DIMS, SEARCHED_DIMS, full),
        # tiles exceeding layer dims: illegal before analysis
        Mapping.create(SEARCHED_DIMS, SEARCHED_DIMS,
                       {dim: size * 2 for dim, size in full.items()}),
        # minimal tiles: feasible lane sandwiched between bad ones
        Mapping.create(SEARCHED_DIMS, SEARCHED_DIMS,
                       {dim: 1 for dim in SEARCHED_DIMS}),
    ]
    batched = model.evaluate_batch(layer, accel, mappings)
    for mapping, cost in zip(mappings, batched):
        _assert_identical(model.evaluate(layer, accel, mapping), cost)
    assert not batched[0].valid and "L2 overflow" in batched[0].reasons[0]
    assert not batched[1].valid
    assert batched[2].valid


@pytest.mark.parametrize("preset", ("eyeriss", "nvdla_256"))
@pytest.mark.parametrize("style", (EncodingStyle.IMPORTANCE,
                                   EncodingStyle.INDEX))
def test_decoded_generations_match_scalar(preset, style):
    """Encoder-produced mappings (the search's actual distribution)."""
    accel = baseline_preset(preset)
    model = CostModel()
    for layer in build_model("mobilenet_v2").layers[4:8]:
        encoder = MappingEncoder(layer, accel, style=style)
        rng = ensure_rng(7)
        mappings = [encoder.decode(rng.random(encoder.num_params))
                    for _ in range(32)]
        batched = model.evaluate_batch(layer, accel, mappings)
        for mapping, cost in zip(mappings, batched):
            _assert_identical(model.evaluate(layer, accel, mapping), cost)


def test_tiny_l1_hits_pe_level_infeasibility():
    # 16-bit operands on a minimum-size L1: the base per-PE footprint
    # (psum + 2 elements) exceeds the budget, so the PE-level reuse
    # analysis itself reports infeasibility.
    accel = dataclasses.replace(baseline_preset("eyeriss"), l1_bytes=6)
    model = CostModel()
    layer = ConvLayer(name="wide", k=64, c=32, y=28, x=28, r=3, s=3, bits=16)
    mapping = dataflow_preserving_mapping(layer, accel)
    scalar = model.evaluate(layer, accel, mapping)
    [batched] = model.evaluate_batch(layer, accel, [mapping])
    _assert_identical(scalar, batched)
    assert not scalar.valid
    assert "L1 overflow" in scalar.reasons[0]


def test_empty_batch():
    model = CostModel()
    assert model.evaluate_batch(LAYERS[0], baseline_preset("eyeriss"),
                                []) == []


def _mixed_lanes(rng, layers):
    """Lanes cycling through ``layers``: random mappings, plus whole-
    layer tiles (L2 overflow) and tiles beyond the layer (illegal)."""
    index, mappings = [], []
    for lane in range(12 * len(layers)):
        which = lane % len(layers)
        layer = layers[which]
        full = {dim: layer.dim_size(dim) for dim in SEARCHED_DIMS}
        if lane % 7 == 3:
            mapping = Mapping.create(SEARCHED_DIMS, SEARCHED_DIMS, full)
        elif lane % 11 == 5:
            mapping = Mapping.create(
                SEARCHED_DIMS, SEARCHED_DIMS,
                {dim: size + 1 for dim, size in full.items()})
        else:
            mapping = _random_mapping(rng, layer)
        index.append(which)
        mappings.append(mapping)
    return index, mappings


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("tiny_l1", (False, True), ids=("l1", "tiny-l1"))
def test_mixed_layer_batch_matches_scalar_exactly(preset, tiny_l1):
    """One batch interleaving all five layers, plus one whose whole-
    layer tile overflows every preset's L2 (and, on a 6-byte L1, their
    16-bit twins, whose per-PE base footprint overflows it)."""
    accel = baseline_preset(preset)
    layers = list(LAYERS) + [
        ConvLayer(name="big", k=512, c=512, y=28, x=28, r=3, s=3)]
    if tiny_l1:
        accel = dataclasses.replace(accel, l1_bytes=6)
        layers += [dataclasses.replace(layer, name=layer.name + "16",
                                       bits=16) for layer in layers]
    model = CostModel()
    index, mappings = _mixed_lanes(random.Random(preset), layers)
    lanes = LaneMappings.from_mappings(mappings)
    costs = model.evaluate_lanes(LaneLayers(layers, index), accel, lanes)

    reasons = set()
    for lane, (which, mapping) in enumerate(zip(index, mappings)):
        scalar = model.evaluate(layers[which], accel, mapping)
        assert costs.valid[lane] == scalar.valid
        assert costs.cycles[lane] == scalar.cycles
        assert costs.energy_nj[lane] == scalar.energy_nj
        assert costs.edp[lane] == scalar.edp
        _assert_identical(scalar, costs.layer_cost(lane))
        reasons.update(reason.split(":")[0] for reason in scalar.reasons)
    assert {"L2 overflow", "mapping tiles exceed layer dimensions"} <= reasons
    assert ("L1 overflow" in reasons) == tiny_l1
    assert costs.valid.any()
    _assert_take(costs, lanes, mappings)


def test_invalid_architecture_lanes_match_scalar():
    accel = dataclasses.replace(baseline_preset("eyeriss"), l1_bytes=2)
    model = CostModel()
    index, mappings = _mixed_lanes(random.Random(1), list(LAYERS))
    lanes = LaneMappings.from_mappings(mappings)
    costs = model.evaluate_lanes(LaneLayers(LAYERS, index), accel, lanes)
    assert not costs.valid.any()
    for lane, (which, mapping) in enumerate(zip(index, mappings)):
        _assert_identical(model.evaluate(LAYERS[which], accel, mapping),
                          costs.layer_cost(lane))
    _assert_take(costs, lanes, mappings)
