"""Shared fixtures for the test suite."""

from __future__ import annotations

import dataclasses

import pytest

import repro.search.accelerator_search as accelerator_search
from repro.accelerator.arch import AcceleratorConfig
from repro.accelerator.constraints import ResourceConstraint
from repro.cost.model import CostModel
from repro.mapping.builders import dataflow_preserving_mapping
from repro.search.parallel import ParallelEvaluator
from repro.search.records import ShapeRow
from repro.tensors.dims import Dim
from repro.tensors.layer import ConvLayer


@pytest.fixture
def cost_model() -> CostModel:
    return CostModel()


@pytest.fixture
def small_layer() -> ConvLayer:
    """A modest 3x3 conv used across cost/search tests."""
    return ConvLayer(name="test_conv", k=32, c=16, y=14, x=14, r=3, s=3)


@pytest.fixture
def pointwise_layer() -> ConvLayer:
    return ConvLayer(name="test_pw", k=64, c=32, y=14, x=14, r=1, s=1)


@pytest.fixture
def depthwise_layer() -> ConvLayer:
    return ConvLayer(name="test_dw", k=32, c=32, y=14, x=14, r=3, s=3,
                     groups=32)


@pytest.fixture
def strided_layer() -> ConvLayer:
    return ConvLayer(name="test_stride", k=32, c=16, y=7, x=7, r=3, s=3,
                     stride=2)


@pytest.fixture
def small_accel() -> AcceleratorConfig:
    """A small NVDLA-style C-K array."""
    return AcceleratorConfig(
        array_dims=(8, 8), parallel_dims=(Dim.C, Dim.K),
        l1_bytes=64, l2_bytes=64 * 1024, dram_bandwidth=16,
        name="test-accel")


@pytest.fixture
def small_constraint(small_accel) -> ResourceConstraint:
    return ResourceConstraint.from_config(small_accel, name="test-budget")


@pytest.fixture
def heuristic_mapping(small_layer, small_accel):
    return dataflow_preserving_mapping(small_layer, small_accel)


@pytest.fixture
def shape_best(small_layer, small_accel, heuristic_mapping, cost_model):
    """``shape_best(n)``: a cache value (the row of a best mapping and
    its cost), distinct for each ``n``."""
    cost = cost_model.evaluate(small_layer, small_accel, heuristic_mapping)

    def make(n: int):
        return ShapeRow.of(heuristic_mapping, dataclasses.replace(
            cost, cycles=cost.cycles + n))

    return make


@pytest.fixture
def searches_per_generation(monkeypatch):
    """The ``search_mappings`` calls of each ``ParallelEvaluator.evaluate``
    call (one per generation of a search), in order."""
    calls, per_generation = [], []
    search = accelerator_search.search_mappings
    evaluate = ParallelEvaluator.evaluate

    def counting_search(*args, **kwargs):
        calls.append(None)
        return search(*args, **kwargs)

    def counting_evaluate(self, payloads):
        before = len(calls)
        results = evaluate(self, payloads)
        per_generation.append(len(calls) - before)
        return results

    monkeypatch.setattr(accelerator_search, "search_mappings",
                        counting_search)
    monkeypatch.setattr(ParallelEvaluator, "evaluate", counting_evaluate)
    return per_generation
