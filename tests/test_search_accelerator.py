"""Tests for the outer (NAAS accelerator) search loop."""

import math

import numpy as np
import pytest

from repro.accelerator.presets import baseline_constraint, baseline_preset
from repro.cost.model import CostModel
from repro.experiments.common import tuned_baseline_costs
from repro.models import mobile_benchmark_set
from repro.search.accelerator_search import (
    NAASBudget,
    evaluate_accelerator,
    search_accelerator,
)
from repro.search.cache import EvaluationCache
from repro.search.mapping_search import MappingSearchBudget
from repro.search.random_search import RandomEngine
from repro.tensors.layer import ConvLayer
from repro.tensors.network import Network

TINY = NAASBudget(accel_population=4, accel_iterations=3,
                  mapping=MappingSearchBudget(population=4, iterations=2))


class _VetoCostModel(CostModel):
    """Cost model that makes one named layer unmappable: its lanes come
    back invalid, with ``inf`` costs."""

    def __init__(self, veto: str) -> None:
        super().__init__()
        self._veto = veto

    def evaluate_lanes(self, lanes, accels, mappings):
        costs = super().evaluate_lanes(lanes, accels, mappings)
        vetoed = lanes.per_layer(
            [layer.name == self._veto for layer in lanes.layers], bool)
        costs.valid[vetoed] = False
        for values in (costs.cycles, costs.energy_nj, costs.edp):
            values[vetoed] = np.inf
        return costs


@pytest.fixture
def tiny_network(small_layer, pointwise_layer):
    return Network(name="tiny", layers=(small_layer, pointwise_layer))


class TestEvaluateAccelerator:
    def test_scores_preset(self, tiny_network, cost_model):
        preset = baseline_preset("nvdla_256")
        reward, costs, mappings = evaluate_accelerator(
            preset, [tiny_network], cost_model, MappingSearchBudget(4, 2),
            seed=0)
        assert math.isfinite(reward)
        assert costs[tiny_network.name].valid
        assert set(mappings) == {layer.name for layer in tiny_network}

    def test_cache_reuses_results(self, tiny_network, cost_model):
        preset = baseline_preset("nvdla_256")
        cache = EvaluationCache()
        evaluate_accelerator(preset, [tiny_network], cost_model,
                             MappingSearchBudget(4, 2), seed=0, cache=cache)
        misses = cache.misses
        evaluate_accelerator(preset, [tiny_network], cost_model,
                             MappingSearchBudget(4, 2), seed=0, cache=cache)
        assert cache.misses == misses  # second call fully cached
        assert cache.hits >= misses

    def test_cache_never_serves_another_seed(self, cost_model):
        """Regression: the in-memory key used to leave out the seed, so
        a candidate evaluated under one seed was served the mappings
        searched under another — and which one a worker held depended
        on scheduling."""
        network = Network(name="iso", layers=(
            ConvLayer(name="iso_conv", k=96, c=48, y=28, x=28, r=3, s=3),
            ConvLayer(name="iso_pw", k=160, c=96, y=14, x=14, r=1,
                      s=1)))
        preset = baseline_preset("eyeriss")
        budget = MappingSearchBudget(6, 3)
        cache = EvaluationCache()
        evaluate_accelerator(preset, [network], cost_model, budget, seed=0,
                             cache=cache)
        shared = evaluate_accelerator(preset, [network], cost_model, budget,
                                      seed=1, cache=cache)
        fresh = evaluate_accelerator(preset, [network], cost_model, budget,
                                     seed=1)
        assert cache.hits == 0
        assert shared[0] == fresh[0]
        assert fresh[0] != evaluate_accelerator(
            preset, [network], cost_model, budget, seed=0)[0]

    def test_unmappable_network_scores_inf(self, tiny_network, small_layer):
        """Regression: an accelerator that cannot map a network must be
        rewarded ``inf``, and the partial network must not leak an empty
        NetworkCost into the reward aggregation."""
        preset = baseline_preset("nvdla_256")
        reward, costs, _ = evaluate_accelerator(
            preset, [tiny_network], _VetoCostModel(small_layer.name),
            MappingSearchBudget(4, 2), seed=0)
        assert reward == math.inf
        assert tiny_network.name not in costs
        assert all(cost.layer_costs for cost in costs.values())

    def test_one_unmappable_network_vetoes_candidate(
            self, small_layer, pointwise_layer, depthwise_layer):
        """A candidate is infeasible if *any* benchmark network is; the
        mappable networks still report their (finite) costs."""
        preset = baseline_preset("nvdla_256")
        good = Network(name="good", layers=(pointwise_layer,))
        bad = Network(name="bad", layers=(small_layer, depthwise_layer))
        reward, costs, _ = evaluate_accelerator(
            preset, [good, bad], _VetoCostModel(depthwise_layer.name),
            MappingSearchBudget(4, 2), seed=0)
        assert reward == math.inf
        assert set(costs) == {"good"}
        assert costs["good"].valid

    def test_shape_group_shares_mapping(self, small_layer, cost_model):
        """Regression: every layer of a shape group gets a best_mappings
        entry, so the table replays through evaluate_with_mappings."""
        twin = ConvLayer(name="twin_conv", k=small_layer.k, c=small_layer.c,
                         y=small_layer.y, x=small_layer.x, r=small_layer.r,
                         s=small_layer.s)
        network = Network(name="twins", layers=(small_layer, twin))
        assert len(network.unique_shapes()) == 1
        preset = baseline_preset("nvdla_256")
        reward, _, mappings = evaluate_accelerator(
            preset, [network], cost_model, MappingSearchBudget(4, 2), seed=0)
        assert set(mappings) == {small_layer.name, twin.name}
        assert mappings[small_layer.name] == mappings[twin.name]
        replayed = cost_model.evaluate_with_mappings(network, preset, mappings)
        assert replayed.valid
        assert math.isfinite(reward)

    def test_cache_state_does_not_change_results(self, tiny_network,
                                                 cost_model):
        """Evaluation seeds derive from content, so a warm cache returns
        exactly what a cold evaluation computes."""
        preset = baseline_preset("nvdla_256")
        cold_reward, cold_costs, _ = evaluate_accelerator(
            preset, [tiny_network], cost_model, MappingSearchBudget(4, 2),
            seed=7)
        cache = EvaluationCache()
        evaluate_accelerator(preset, [tiny_network], cost_model,
                             MappingSearchBudget(4, 2), seed=7, cache=cache)
        warm_reward, warm_costs, _ = evaluate_accelerator(
            preset, [tiny_network], cost_model, MappingSearchBudget(4, 2),
            seed=7, cache=cache)
        assert warm_reward == cold_reward
        assert warm_costs[tiny_network.name].edp == \
            cold_costs[tiny_network.name].edp


    def test_shared_shape_keeps_each_networks_layer_names(self,
                                                          cost_model):
        """Regression: a shape two networks share is searched once, and
        the second network's costs used to carry the first network's
        layer names."""
        first = Network(name="first", layers=(
            ConvLayer(name="first_conv", k=32, c=16, y=14, x=14, r=3,
                      s=3),))
        second = Network(name="second", layers=(
            ConvLayer(name="second_conv", k=32, c=16, y=14, x=14, r=3,
                      s=3),))
        preset = baseline_preset("nvdla_256")
        budget = MappingSearchBudget(4, 2)
        _, together, _ = evaluate_accelerator(
            preset, [first, second], cost_model, budget, seed=0,
            cache=EvaluationCache())
        _, alone, _ = evaluate_accelerator(
            preset, [second], cost_model, budget, seed=0)
        assert [cost.layer_name for cost in together["second"].layer_costs] \
            == ["second_conv"]
        assert together["second"] == alone["second"]


class TestTunedBaselineCosts:
    def test_same_costs_at_any_chunking(self):
        """Regression: mnasnet shares shapes with mobilenet_v2, and at
        workers=1 its tuned costs carried mobilenet_v2's layer names,
        unlike workers=2 or a call per network."""
        networks = mobile_benchmark_set()
        budget = MappingSearchBudget(4, 2)

        def tune(nets, workers=1):
            return tuned_baseline_costs("eyeriss", nets, CostModel(), budget,
                                        seed=0, workers=workers)

        serial = tune(networks)
        assert tune(networks, workers=2) == serial
        one_by_one = {}
        for network in networks:
            one_by_one.update(tune([network]))
        assert one_by_one == serial


class TestSearchAccelerator:
    def test_finds_design(self, tiny_network, cost_model, small_constraint):
        result = search_accelerator([tiny_network], small_constraint,
                                    cost_model, budget=TINY, seed=0)
        assert result.found
        assert small_constraint.admits(result.best_config)
        assert len(result.history) == TINY.accel_iterations

    def test_deterministic(self, tiny_network, cost_model, small_constraint):
        a = search_accelerator([tiny_network], small_constraint, cost_model,
                               budget=TINY, seed=3)
        b = search_accelerator([tiny_network], small_constraint, cost_model,
                               budget=TINY, seed=3)
        assert a.best_reward == b.best_reward
        assert a.best_config == b.best_config

    def test_workers_do_not_change_results(self, tiny_network, cost_model,
                                           small_constraint):
        """The acceptance bar for the parallel engine: any worker count
        returns a bit-identical AcceleratorSearchResult."""
        serial = search_accelerator([tiny_network], small_constraint,
                                    cost_model, budget=TINY, seed=11,
                                    workers=1)
        parallel = search_accelerator([tiny_network], small_constraint,
                                      cost_model, budget=TINY, seed=11,
                                      workers=4)
        assert serial.best_reward == parallel.best_reward
        assert serial.best_config == parallel.best_config
        assert serial.history == parallel.history
        assert serial.evaluations == parallel.evaluations
        assert serial.network_costs[tiny_network.name].edp == \
            parallel.network_costs[tiny_network.name].edp

    def test_seeded_preset_bounds_reward(self, cost_model):
        """Seeding with the baseline makes the search at least as good as
        the baseline evaluated with mapping search."""
        network = Network(name="n", layers=(
            ConvLayer(name="c1", k=32, c=16, y=14, x=14, r=3, s=3),))
        preset = baseline_preset("nvdla_256")
        constraint = baseline_constraint("nvdla_256")
        preset_reward, _, _ = evaluate_accelerator(
            preset, [network], cost_model, TINY.mapping, seed=5)
        result = search_accelerator([network], constraint, cost_model,
                                    budget=TINY, seed=5,
                                    seed_configs=[preset])
        # allow mapping-search noise: the seeded candidate re-searches
        # mappings with a different stream
        assert result.best_reward <= preset_reward * 1.3

    def test_random_engine(self, tiny_network, cost_model, small_constraint):
        result = search_accelerator([tiny_network], small_constraint,
                                    cost_model, budget=TINY, seed=1,
                                    engine_cls=RandomEngine)
        assert result.found

    def test_multi_network_geomean(self, cost_model, small_constraint,
                                   small_layer, pointwise_layer):
        net_a = Network(name="a", layers=(small_layer,))
        net_b = Network(name="b", layers=(pointwise_layer,))
        result = search_accelerator([net_a, net_b], small_constraint,
                                    cost_model, budget=TINY, seed=2)
        assert result.found
        assert set(result.network_costs) == {"a", "b"}
        edp_a = result.network_costs["a"].edp
        edp_b = result.network_costs["b"].edp
        assert result.best_reward == pytest.approx(
            math.sqrt(edp_a * edp_b), rel=1e-9)
