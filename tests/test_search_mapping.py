"""Tests for the inner (mapping) search loop."""

import math

import pytest

from repro.encoding.spaces import EncodingStyle
from repro.mapping.builders import dataflow_preserving_mapping
from repro.search.mapping_search import (
    MappingSearchBudget,
    search_mapping,
    search_mappings,
)
from repro.tensors.layer import ConvLayer


class TestBudget:
    def test_total_samples(self):
        budget = MappingSearchBudget(population=4, iterations=3)
        assert budget.total_samples == 12

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            MappingSearchBudget(population=0, iterations=1)


class TestSearchMapping:
    def test_finds_valid_mapping(self, small_layer, small_accel, cost_model):
        result = search_mapping(small_layer, small_accel, cost_model,
                                budget=MappingSearchBudget(6, 4), seed=0)
        assert result.found
        assert math.isfinite(result.best_edp)
        assert result.best_cost.valid
        assert result.evaluations > 0

    def test_never_worse_than_heuristic(self, small_layer, small_accel,
                                        cost_model):
        heuristic = dataflow_preserving_mapping(small_layer, small_accel)
        heuristic_edp = cost_model.evaluate(small_layer, small_accel,
                                            heuristic).edp
        result = search_mapping(small_layer, small_accel, cost_model,
                                budget=MappingSearchBudget(6, 3), seed=1)
        assert result.best_edp <= heuristic_edp * (1 + 1e-9)

    def test_deterministic_given_seed(self, small_layer, small_accel,
                                      cost_model):
        a = search_mapping(small_layer, small_accel, cost_model,
                           budget=MappingSearchBudget(5, 3), seed=7)
        b = search_mapping(small_layer, small_accel, cost_model,
                           budget=MappingSearchBudget(5, 3), seed=7)
        assert a.best_edp == b.best_edp
        assert a.best_mapping == b.best_mapping

    def test_history_length(self, small_layer, small_accel, cost_model):
        result = search_mapping(small_layer, small_accel, cost_model,
                                budget=MappingSearchBudget(4, 5), seed=2)
        assert len(result.history) == 5
        assert all(h.population == 4 for h in result.history)

    def test_more_budget_not_worse(self, small_layer, small_accel,
                                   cost_model):
        small = search_mapping(small_layer, small_accel, cost_model,
                               budget=MappingSearchBudget(4, 2), seed=3)
        big = search_mapping(small_layer, small_accel, cost_model,
                             budget=MappingSearchBudget(12, 8), seed=3)
        assert big.best_edp <= small.best_edp * 1.05

    def test_index_style_works(self, small_layer, small_accel, cost_model):
        result = search_mapping(small_layer, small_accel, cost_model,
                                budget=MappingSearchBudget(6, 4), seed=4,
                                style=EncodingStyle.INDEX)
        assert result.found

    def test_depthwise_layer(self, depthwise_layer, small_accel, cost_model):
        result = search_mapping(depthwise_layer, small_accel, cost_model,
                                budget=MappingSearchBudget(6, 3), seed=6)
        assert result.found

    def test_pointwise_layer(self, pointwise_layer, small_accel, cost_model):
        result = search_mapping(pointwise_layer, small_accel, cost_model,
                                budget=MappingSearchBudget(6, 3), seed=7)
        assert result.found


class TestLockstep:
    """``search_mappings`` shares evaluation across layers, never
    results: each layer's search is exactly its one-layer search."""

    @pytest.fixture
    def layers(self, small_layer, pointwise_layer, depthwise_layer,
               strided_layer):
        return [small_layer, pointwise_layer, depthwise_layer,
                strided_layer,
                ConvLayer(name="test_grouped", k=32, c=32, y=14, x=14,
                          r=3, s=3, groups=4)]

    @pytest.mark.parametrize("style", (EncodingStyle.IMPORTANCE,
                                       EncodingStyle.INDEX))
    def test_equals_one_layer_searches(self, layers, small_accel,
                                       cost_model, style):
        kwargs = dict(budget=MappingSearchBudget(5, 3), style=style)
        seeds = [100 + i for i in range(len(layers))]
        lockstep = search_mappings(layers, small_accel, cost_model,
                                   seeds=seeds, **kwargs)
        alone = [search_mapping(layer, small_accel, cost_model, seed=seed,
                                **kwargs)
                 for layer, seed in zip(layers, seeds)]
        assert lockstep == alone
        assert all(result.found for result in lockstep)

    @pytest.mark.parametrize("style", (EncodingStyle.IMPORTANCE,
                                       EncodingStyle.INDEX))
    def test_layer_order_is_irrelevant(self, layers, small_accel,
                                       cost_model, style):
        seeds = [7 * i + 1 for i in range(len(layers))]
        budget = MappingSearchBudget(4, 3)
        forward = search_mappings(layers, small_accel, cost_model,
                                  budget=budget, seeds=seeds, style=style)
        order = [3, 0, 4, 2, 1]
        permuted = search_mappings(
            [layers[i] for i in order], small_accel, cost_model,
            budget=budget, seeds=[seeds[i] for i in order], style=style)
        assert [permuted[order.index(i)] for i in range(len(layers))] \
            == forward

    def test_seed_count_must_match(self, layers, small_accel, cost_model):
        with pytest.raises(ValueError):
            search_mappings(layers, small_accel, cost_model, seeds=[1])

    def test_no_layers(self, small_accel, cost_model):
        assert search_mappings([], small_accel, cost_model) == []
