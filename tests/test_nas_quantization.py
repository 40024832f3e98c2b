"""Tests for the mixed-precision quantization extension."""

import math

import pytest

from repro.accelerator.presets import baseline_preset
from repro.cost.model import CostModel
from repro.errors import ReproError
from repro.mapping.builders import dataflow_preserving_mapping
from repro.nas.ofa_space import OFAResNetSpace
from repro.nas.quantization import (
    QuantPolicy,
    QuantizedAccuracyPredictor,
    quantize_subnet,
    search_quantized,
)
from repro.search.accelerator_search import CandidateTask, evaluate_candidates
from repro.search.cache import EvaluationCache
from repro.search.mapping_search import MappingSearchBudget
from repro.utils.rng import ensure_rng


@pytest.fixture
def space():
    return OFAResNetSpace()


class TestQuantPolicy:
    def test_uniform(self):
        policy = QuantPolicy.uniform(8)
        assert policy.stage_bits == (8, 8, 8, 8)

    def test_rejects_bad_bits(self):
        with pytest.raises(ReproError):
            QuantPolicy(stage_bits=(8, 8, 8, 12))

    def test_rejects_wrong_length(self):
        with pytest.raises(ReproError):
            QuantPolicy(stage_bits=(8, 8))

    def test_accuracy_drop_ordering(self):
        assert QuantPolicy.uniform(16).accuracy_drop() == 0.0
        assert QuantPolicy.uniform(8).accuracy_drop() < \
            QuantPolicy.uniform(4).accuracy_drop()

    def test_describe(self):
        assert QuantPolicy(stage_bits=(4, 8, 8, 16)).describe() == "b4-8-8-16"


class TestQuantizeSubnet:
    def test_bits_assigned_per_stage(self, space):
        arch = space.resnet50_like()
        policy = QuantPolicy(stage_bits=(4, 8, 16, 8))
        network = quantize_subnet(arch, policy)
        for layer in network:
            if layer.name.startswith("s1"):
                assert layer.bits == 4
            elif layer.name.startswith("s3"):
                assert layer.bits == 16

    def test_stem_follows_stage1(self, space):
        arch = space.resnet50_like()
        network = quantize_subnet(arch, QuantPolicy(stage_bits=(4, 8, 8, 8)))
        stem = next(layer for layer in network if layer.name == "stem")
        assert stem.bits == 4

    def test_structure_preserved(self, space):
        arch = space.resnet50_like()
        a = quantize_subnet(arch, QuantPolicy.uniform(8))
        b = quantize_subnet(arch, QuantPolicy.uniform(4))
        assert len(a) == len(b)
        assert a.total_macs == b.total_macs


class TestQuantizedCosts:
    def test_lower_bits_cheaper(self, space, cost_model):
        accel = baseline_preset("nvdla_256")
        arch = space.resnet50_like()

        def edp(bits):
            network = quantize_subnet(arch, QuantPolicy.uniform(bits))
            cost = cost_model.evaluate_network(
                network, accel,
                lambda layer: dataflow_preserving_mapping(layer, accel))
            return cost.edp

        assert edp(4) < edp(8) < edp(16)

    def test_predictor_penalizes_low_bits(self, space):
        predictor = QuantizedAccuracyPredictor()
        arch = space.resnet50_like()
        assert predictor(arch, QuantPolicy.uniform(16)) > \
            predictor(arch, QuantPolicy.uniform(4))


class TestQuantSearch:
    def test_finds_pair(self):
        result = search_quantized(
            baseline_preset("nvdla_256"), CostModel(), accuracy_floor=74.0,
            population=4, iterations=2,
            mapping_budget=MappingSearchBudget(population=4, iterations=2),
            seed=0)
        assert result.found
        assert result.best_accuracy >= 74.0
        assert math.isfinite(result.best_edp)

    def test_impossible_floor(self):
        result = search_quantized(
            baseline_preset("nvdla_256"), CostModel(), accuracy_floor=99.0,
            population=4, iterations=2,
            mapping_budget=MappingSearchBudget(population=4, iterations=2),
            seed=1)
        assert not result.found

    def test_deterministic(self):
        kwargs = dict(accuracy_floor=74.0, population=4, iterations=2,
                      mapping_budget=MappingSearchBudget(4, 2), seed=9)
        a = search_quantized(baseline_preset("nvdla_256"), CostModel(),
                             **kwargs)
        b = search_quantized(baseline_preset("nvdla_256"), CostModel(),
                             **kwargs)
        assert a == b

    def test_workers_do_not_change_results(self):
        kwargs = dict(accuracy_floor=74.0, population=4, iterations=2,
                      mapping_budget=MappingSearchBudget(4, 2), seed=9)
        serial = search_quantized(baseline_preset("nvdla_256"), CostModel(),
                                  workers=1, **kwargs)
        parallel = search_quantized(baseline_preset("nvdla_256"), CostModel(),
                                    workers=2, **kwargs)
        assert serial == parallel

    def test_cache_dir_repeat_run_is_bit_identical(self, tmp_path):
        kwargs = dict(accuracy_floor=74.0, population=4, iterations=2,
                      mapping_budget=MappingSearchBudget(4, 2), seed=9)
        cold = search_quantized(baseline_preset("nvdla_256"), CostModel(),
                                **kwargs)
        first = search_quantized(baseline_preset("nvdla_256"), CostModel(),
                                 cache_dir=tmp_path, **kwargs)
        second = search_quantized(baseline_preset("nvdla_256"), CostModel(),
                                  cache_dir=tmp_path, **kwargs)
        assert cold == first == second

    def test_quantization_beats_uniform8_edp(self, space, cost_model):
        """With bits searchable, the best EDP is no worse than uniform 8."""
        accel = baseline_preset("nvdla_256")
        arch = space.resnet50_like()
        uniform = quantize_subnet(arch, QuantPolicy.uniform(8))
        uniform_cost = cost_model.evaluate_network(
            uniform, accel,
            lambda layer: dataflow_preserving_mapping(layer, accel))
        result = search_quantized(
            accel, cost_model, accuracy_floor=72.0,
            population=6, iterations=3,
            mapping_budget=MappingSearchBudget(population=4, iterations=2),
            seed=2)
        assert result.best_edp <= uniform_cost.edp


class _VanishingFloorPredictor(QuantizedAccuracyPredictor):
    """Admits the first ``admit_calls`` queries, rejects all later ones.

    Models the pathological regime the refill loop used to hang on:
    the initial population is admissible, but once the floor tightens
    (here: permanently, after the initial samples) neither mutated
    children nor fresh samples ever pass again.
    """

    def __init__(self, admit_calls: int) -> None:
        super().__init__()
        self.calls = 0
        self.admit_calls = admit_calls

    def predict(self, arch, policy):
        self.calls += 1
        return 100.0 if self.calls <= self.admit_calls else -100.0


def test_serial_generation_is_one_mapping_search(searches_per_generation):
    """A generation's pairs are one task group of the searches' group
    worker: all their misses run as one lockstep search."""
    result = search_quantized(
        baseline_preset("nvdla_256"), CostModel(), accuracy_floor=70.0,
        population=4, iterations=3,
        mapping_budget=MappingSearchBudget(population=4, iterations=2),
        seed=0)
    assert result.evaluations == 4 * 3
    assert searches_per_generation == [1] * 3


class TestQuantSearchRegressions:
    @staticmethod
    def _rewards(pairs, entropy, cache=None):
        """The pairs' rewards from one call of the searches' group
        worker, as a quantization generation scores them."""
        tasks = [CandidateTask(accel=baseline_preset("nvdla_256"),
                               networks=(quantize_subnet(*pair),),
                               cost_model=CostModel(),
                               mapping_budget=MappingSearchBudget(4, 2),
                               entropy=entropy)
                 for pair in pairs]
        return [evaluation.reward
                for evaluation in evaluate_candidates(tasks, cache)]

    def test_reward_independent_of_evaluation_order(self, space):
        """Regression: evaluation seeds used to be drawn from the parent
        stream inside the loop, so a pair's reward depended on where in
        the population it sat. Seeds now derive from the run entropy and
        the cache key, making the reward a pure function of the pair,
        whatever the order of the group it is scored in."""
        rng = ensure_rng(0)
        pair_a = (space.sample(seed=rng), QuantPolicy.uniform(8))
        pair_b = (space.sample(seed=rng), QuantPolicy.uniform(4))
        entropy = 1234
        forward = self._rewards([pair_a, pair_b], entropy)
        backward = self._rewards([pair_b, pair_a], entropy)
        assert forward[0] == backward[1]
        assert forward[1] == backward[0]

    def test_cache_hit_matches_fresh_computation(self, space):
        """Regression: a cache hit used to return a value computed under
        a different seed than a fresh computation would use."""
        rng = ensure_rng(1)
        pair = (space.sample(seed=rng), QuantPolicy.uniform(8))
        other = (space.sample(seed=rng), QuantPolicy.uniform(16))
        entropy = 99
        [fresh] = self._rewards([pair], entropy)
        cache = EvaluationCache()
        self._rewards([other], entropy, cache)
        self._rewards([pair], entropy, cache)  # populate
        [warm] = self._rewards([pair], entropy, cache)
        assert warm == fresh
        assert self._rewards([other, pair], entropy, cache)[1] == fresh

    def test_refill_starvation_terminates(self):
        """Regression: the refill loop used to spin forever when every
        mutated child failed the floor and sample_pair could not help;
        it must return the best design found so far instead."""
        predictor = _VanishingFloorPredictor(admit_calls=3)
        result = search_quantized(
            baseline_preset("nvdla_256"), CostModel(), accuracy_floor=74.0,
            population=3, iterations=2,
            mapping_budget=MappingSearchBudget(population=2, iterations=1),
            seed=0, predictor=predictor)
        assert result.found
        assert result.evaluations >= 3  # generation 0 fully evaluated
        assert math.isfinite(result.best_edp)
