"""Generation-wide lockstep: a task group of candidates is one search.

``evaluate_accelerators`` scores many hardware candidates with one
lockstep mapping search over all their shapes, and the search's group
worker receives a whole task group in one call, so at ``workers=1``
a NAAS generation is one ``search_mappings`` call (the group-worker
contract itself is tested in ``test_search_grouping.py``). None of it
may change a result: every candidate's evaluation equals the
one-candidate ``evaluate_accelerator`` call, with the same cache
counts, however the candidates are chunked.
"""

import dataclasses

import pytest

import repro.search.accelerator_search as accelerator_search
from repro.accelerator.arch import AcceleratorConfig
from repro.accelerator.presets import baseline_constraint, baseline_preset
from repro.cost.model import CostModel
from repro.models import build_model
from repro.search.accelerator_search import (
    NAASBudget,
    evaluate_accelerator,
    evaluate_accelerators,
    search_accelerator,
)
from repro.search.cache import EvaluationCache
from repro.search.mapping_search import MappingSearchBudget
from repro.tensors.dims import Dim
from repro.tensors.layer import ConvLayer
from repro.tensors.network import Network

BUDGET = MappingSearchBudget(population=3, iterations=2)

#: Two networks sharing a shape (``shared`` and ``again``).
NETWORKS = (
    Network(name="first", layers=(
        ConvLayer(name="shared", k=32, c=16, y=14, x=14, r=3, s=3),
        ConvLayer(name="pw", k=64, c=32, y=14, x=14, r=1, s=1))),
    Network(name="second", layers=(
        ConvLayer(name="again", k=32, c=16, y=14, x=14, r=3, s=3),
        ConvLayer(name="dw", k=32, c=32, y=14, x=14, r=3, s=3, groups=32))),
)

CANDIDATES = (
    baseline_preset("eyeriss"),
    AcceleratorConfig(array_dims=(32,), parallel_dims=(Dim.K,),
                      l1_bytes=64, l2_bytes=32 * 1024, dram_bandwidth=8,
                      name="line"),
    AcceleratorConfig(array_dims=(4, 4, 4),
                      parallel_dims=(Dim.C, Dim.Y, Dim.X),
                      l1_bytes=128, l2_bytes=64 * 1024, dram_bandwidth=16,
                      name="cube"),
    # Fails validation (L1 below its minimum): unmappable, reward inf.
    AcceleratorConfig(array_dims=(8, 8), parallel_dims=(Dim.C, Dim.K),
                      l1_bytes=2, l2_bytes=64 * 1024, dram_bandwidth=16,
                      name="tiny-l1"),
    baseline_preset("nvdla_256"),
    # The first candidate again, with its entropy: the same lookups.
    baseline_preset("eyeriss"),
)
ENTROPIES = (101, 102, 103, 104, 105, 101)


def _one_by_one(cache=None):
    return [evaluate_accelerator(accel, NETWORKS, CostModel(), BUDGET,
                                 seed=entropy, cache=cache)
            for accel, entropy in zip(CANDIDATES, ENTROPIES)]


def _chunked(size, cache=None):
    results = []
    pairs = list(zip(CANDIDATES, ENTROPIES))
    for start in range(0, len(pairs), size):
        chunk = pairs[start:start + size]
        results += evaluate_accelerators(
            [accel for accel, _ in chunk], [entropy for _, entropy in chunk],
            NETWORKS, CostModel(), BUDGET, cache=cache)
    return results


class TestEvaluateAccelerators:
    @pytest.mark.parametrize("size", (1, 2, 3, len(CANDIDATES)))
    def test_equals_one_call_per_candidate(self, size):
        expected = _one_by_one()
        assert _chunked(size) == expected
        rewards = [reward for reward, _, _ in expected]
        assert rewards[3] == float("inf")
        assert rewards[0] == rewards[5] < float("inf")

    @pytest.mark.parametrize("size", (1, 2, 3, len(CANDIDATES)))
    def test_equals_one_call_per_candidate_with_a_cache(self, size):
        alone_cache, chunked_cache = EvaluationCache(), EvaluationCache()
        expected = _one_by_one(alone_cache)
        assert _chunked(size, chunked_cache) == expected
        assert chunked_cache.stats() == alone_cache.stats()
        # Each candidate's second lookup of the shared shape hits, and
        # so do the repeated candidate's three other lookups.
        assert chunked_cache.hits == len(CANDIDATES) + 3

    def test_costs_keep_each_networks_layer_names(self):
        [(_, costs, _)] = evaluate_accelerators(
            [CANDIDATES[0]], [ENTROPIES[0]], NETWORKS, CostModel(), BUDGET,
            cache=EvaluationCache())
        assert [cost.layer_name for cost in costs["second"].layer_costs] \
            == ["again", "dw"]

    def test_entropies_must_match_accelerators(self):
        with pytest.raises(ValueError, match="entropies"):
            evaluate_accelerators(CANDIDATES[:2], ENTROPIES[:1], NETWORKS,
                                  CostModel(), BUDGET)


class TestSearchAccelerator:
    def test_serial_generation_is_one_mapping_search(self, monkeypatch):
        calls = []
        original = accelerator_search.search_mappings

        def counting(layers, *args, **kwargs):
            calls.append(len(layers))
            return original(layers, *args, **kwargs)

        monkeypatch.setattr(accelerator_search, "search_mappings", counting)
        budget = NAASBudget(accel_population=4, accel_iterations=3,
                            mapping=BUDGET)
        network = build_model("squeezenet")
        result = search_accelerator(
            [network], baseline_constraint("eyeriss"), CostModel(),
            budget=budget, seed=5)
        shapes = len(network.unique_shapes())
        assert len(calls) == budget.accel_iterations
        assert all(count <= budget.accel_population * shapes
                   for count in calls)
        assert calls[0] == budget.accel_population * shapes
        monkeypatch.undo()
        assert search_accelerator(
            [network], baseline_constraint("eyeriss"), CostModel(),
            budget=budget, seed=5, workers=2) == result


def test_reward_ignores_other_candidates_in_the_group():
    """A candidate's evaluation does not depend on its group mates."""
    accel = dataclasses.replace(CANDIDATES[1], dram_bandwidth=4)
    alone = evaluate_accelerator(accel, NETWORKS, CostModel(), BUDGET,
                                 seed=7)
    grouped = evaluate_accelerators(
        [CANDIDATES[2], accel, CANDIDATES[0]], [1, 7, 2], NETWORKS,
        CostModel(), BUDGET)
    assert grouped[1] == alone
