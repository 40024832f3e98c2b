"""Tests for the NAS loop and the joint three-level search."""

import math


from repro.accelerator.presets import baseline_constraint, baseline_preset
from repro.nas.accuracy import AccuracyPredictor
from repro.nas.joint import JointBudget, search_joint
from repro.nas.search import NASBudget, search_architecture
from repro.search.mapping_search import MappingSearchBudget

TINY_NAS = NASBudget(population=4, iterations=2)
TINY_MAPPING = MappingSearchBudget(population=4, iterations=2)


class TestNASSearch:
    def test_finds_admissible_arch(self, cost_model):
        accel = baseline_preset("nvdla_256")
        result = search_architecture(accel, cost_model, accuracy_floor=73.0,
                                     budget=TINY_NAS,
                                     mapping_budget=TINY_MAPPING, seed=0)
        assert result.found
        assert result.best_accuracy >= 73.0
        assert math.isfinite(result.best_edp)

    def test_tight_floor_still_feasible(self, cost_model):
        """Floors near the predictor ceiling resolve via mutate-largest."""
        accel = baseline_preset("nvdla_256")
        result = search_architecture(accel, cost_model, accuracy_floor=78.8,
                                     budget=TINY_NAS,
                                     mapping_budget=TINY_MAPPING, seed=1)
        assert result.found
        assert result.best_accuracy >= 78.8

    def test_impossible_floor_returns_not_found(self, cost_model):
        accel = baseline_preset("nvdla_256")
        result = search_architecture(accel, cost_model, accuracy_floor=99.0,
                                     budget=TINY_NAS,
                                     mapping_budget=TINY_MAPPING, seed=2)
        assert not result.found
        assert result.best_edp == math.inf

    def test_deterministic(self, cost_model):
        accel = baseline_preset("nvdla_256")
        kwargs = dict(accuracy_floor=73.0, budget=TINY_NAS,
                      mapping_budget=TINY_MAPPING, seed=5)
        a = search_architecture(accel, cost_model, **kwargs)
        b = search_architecture(accel, cost_model, **kwargs)
        assert a.best_edp == b.best_edp
        assert a.best_arch == b.best_arch

    def test_workers_do_not_change_results(self, cost_model):
        accel = baseline_preset("nvdla_256")
        kwargs = dict(accuracy_floor=73.0, budget=TINY_NAS,
                      mapping_budget=TINY_MAPPING, seed=5)
        serial = search_architecture(accel, cost_model, workers=1, **kwargs)
        parallel = search_architecture(accel, cost_model, workers=3, **kwargs)
        assert serial.best_edp == parallel.best_edp
        assert serial.best_arch == parallel.best_arch
        assert serial.history == parallel.history

    def test_serial_generation_is_one_mapping_search(
            self, cost_model, searches_per_generation):
        """A generation's subnets are one task group of the searches'
        group worker: all their misses run as one lockstep search."""
        result = search_architecture(
            baseline_preset("nvdla_256"), cost_model, accuracy_floor=73.0,
            budget=TINY_NAS, mapping_budget=TINY_MAPPING, seed=0)
        assert result.evaluations == TINY_NAS.population * TINY_NAS.iterations
        assert searches_per_generation == [1] * TINY_NAS.iterations

    def test_lower_floor_never_hurts(self, cost_model):
        accel = baseline_preset("nvdla_256")
        low = search_architecture(accel, cost_model, accuracy_floor=70.0,
                                  budget=TINY_NAS,
                                  mapping_budget=TINY_MAPPING, seed=3)
        high = search_architecture(accel, cost_model, accuracy_floor=78.5,
                                   budget=TINY_NAS,
                                   mapping_budget=TINY_MAPPING, seed=3)
        assert low.best_edp <= high.best_edp * 1.5


class TestJointSearch:
    def test_joint_finds_tuple(self, cost_model):
        constraint = baseline_constraint("nvdla_256")
        result = search_joint(
            constraint, cost_model, accuracy_floor=73.0,
            budget=JointBudget(accel_population=3, accel_iterations=2,
                               nas=TINY_NAS, mapping=TINY_MAPPING),
            seed=0)
        assert result.found
        assert constraint.admits(result.best_config)
        assert result.best_accuracy >= 73.0
        assert result.hardware_evaluations > 0
        assert result.network_evaluations > 0

    def test_joint_workers_do_not_change_results(self, cost_model):
        constraint = baseline_constraint("nvdla_256")
        kwargs = dict(accuracy_floor=73.0,
                      budget=JointBudget(accel_population=2,
                                         accel_iterations=1,
                                         nas=TINY_NAS, mapping=TINY_MAPPING),
                      seed=2)
        serial = search_joint(constraint, cost_model, workers=1, **kwargs)
        parallel = search_joint(constraint, cost_model, workers=2, **kwargs)
        assert serial.best_edp == parallel.best_edp
        assert serial.best_config == parallel.best_config
        assert serial.history == parallel.history

    def test_joint_respects_seed_configs(self, cost_model):
        constraint = baseline_constraint("nvdla_256")
        preset = baseline_preset("nvdla_256")
        result = search_joint(
            constraint, cost_model, accuracy_floor=73.0,
            budget=JointBudget(accel_population=2, accel_iterations=2,
                               nas=TINY_NAS, mapping=TINY_MAPPING),
            seed=1, seed_configs=(preset,))
        assert result.found


class TestPredictorIntegration:
    def test_custom_predictor_is_used(self, cost_model):
        class Pessimist(AccuracyPredictor):
            def predict(self, arch):
                return 0.0

        accel = baseline_preset("nvdla_256")
        result = search_architecture(accel, cost_model, accuracy_floor=50.0,
                                     budget=TINY_NAS,
                                     mapping_budget=TINY_MAPPING, seed=4,
                                     predictor=Pessimist())
        assert not result.found
