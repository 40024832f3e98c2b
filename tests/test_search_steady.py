"""Tests for the steady-state (barrier-free) evaluation schedule.

The steady schedule explicitly opts out of the bit-identity contract
the batched schedule upholds, so these tests assert a different set of
properties:

- mechanics: the evaluator keeps results streaming in completion order,
  counts each group's cache lookups as it lands, and salvages pool
  failures;
- engines: ``ask_one``/``tell_one`` apply a full window of results
  exactly like one generational ``update`` (population-replacement
  rule), and the quantization engine's replace-worst archive breeds
  admissible children;
- convergence: at *equal evaluation budgets* each of the four search
  entry points reaches a final best reward comparable to the batched
  path (``workers=1`` steady runs are deterministic, so the tolerance
  bands are stable for fixed seeds).
"""

import math
import pickle
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.accelerator.presets import baseline_constraint, baseline_preset
from repro.cost.model import CostModel
from repro.errors import ReproError, SearchError
from repro.nas.joint import JointBudget, search_joint
from repro.nas.ofa_space import OFAResNetSpace
from repro.nas.quantization import (
    QuantizedAccuracyPredictor,
    QuantPairEngine,
    search_quantized,
)
from repro.nas.search import NASBudget, search_architecture
from repro.search.accelerator_search import NAASBudget, search_accelerator
from repro.search.cache import EvaluationCache
from repro.search.es import EvolutionEngine
from repro.search.mapping_search import MappingSearchBudget
from repro.search.parallel import (
    SCHEDULES,
    SteadyLoop,
    SteadyStateEvaluator,
    build_evaluator,
    resolve_schedule,
    run_steady_loop,
)
from repro.search.random_search import RandomEngine
from repro.tensors.layer import ConvLayer
from repro.tensors.network import Network
from repro.utils.rng import ensure_rng


def _square(payload, cache):
    if cache is None:
        return payload * payload
    return cache.get_or_compute(payload, lambda: payload * payload)


def _boom(payload, cache):
    raise RuntimeError(f"boom {payload}")


class ScriptedExecutor:
    """Inline executor emulating process isolation (pickle round-trips).

    ``fail_results`` marks submission indices whose futures fail with
    :class:`BrokenProcessPool` instead of running; ``fail_submit_after``
    makes ``submit`` itself raise once that many submissions happened.
    """

    def __init__(self, fail_results=(), fail_submit_after=None):
        self.fail_results = set(fail_results)
        self.fail_submit_after = fail_submit_after
        self.submitted = 0

    def submit(self, fn, *args):
        if (self.fail_submit_after is not None
                and self.submitted >= self.fail_submit_after):
            raise BrokenProcessPool("injected submit failure")
        index = self.submitted
        self.submitted += 1
        future = Future()
        future.scripted_index = index
        if index in self.fail_results:
            future.set_exception(BrokenProcessPool("injected worker death"))
            return future
        fn, *rest = pickle.loads(pickle.dumps((fn, *args)))
        try:
            future.set_result(fn(*rest))
        except BaseException as exc:  # pragma: no cover - defensive
            future.set_exception(exc)
        return future

    def shutdown(self, wait=True):
        pass


class PermutedSteadyEvaluator(SteadyStateEvaluator):
    """SteadyStateEvaluator whose futures land in a scripted order."""

    def __init__(self, *args, order, **kwargs):
        super().__init__(*args, **kwargs)
        self._order = list(order)

    def _wait_any(self, pending):
        while self._order:
            index = self._order[0]
            future = next((f for f in pending
                           if getattr(f, "scripted_index", None) == index),
                          None)
            if future is None:
                self._order.pop(0)
                continue
            self._order.pop(0)
            return {future}, pending - {future}
        return set(pending), set()  # pragma: no cover - script exhausted


# ---------------------------------------------------------------------------
# Schedule registry and sharding rejection.
# ---------------------------------------------------------------------------


class TestScheduleRegistry:
    def test_steady_is_a_known_schedule(self):
        assert "steady" in SCHEDULES
        assert resolve_schedule("steady") == "steady"

    def test_build_evaluator_returns_steady_class(self):
        with build_evaluator(_square, schedule="steady") as evaluator:
            assert isinstance(evaluator, SteadyStateEvaluator)


# ---------------------------------------------------------------------------
# SteadyStateEvaluator mechanics.
# ---------------------------------------------------------------------------


class TestSteadyStateEvaluator:
    def test_inline_submit_collect_fifo(self):
        with SteadyStateEvaluator(_square, workers=1) as evaluator:
            tickets = [evaluator.submit(p) for p in (3, 1, 2)]
            assert evaluator.pending == 3
            landed = [evaluator.collect() for _ in range(3)]
        assert landed == [(tickets[0], 9), (tickets[1], 1), (tickets[2], 4)]

    def test_collect_with_nothing_in_flight_raises(self):
        with SteadyStateEvaluator(_square, workers=1) as evaluator:
            with pytest.raises(SearchError):
                evaluator.collect()

    def test_evaluate_matches_inline_results(self):
        payloads = list(range(11))
        with SteadyStateEvaluator(_square, workers=3) as evaluator:
            assert evaluator.evaluate(payloads) == [p * p for p in payloads]

    def test_worker_caches_merge_back(self):
        """Worker caches stay in the workers; their counts come back."""
        cache = EvaluationCache()
        with SteadyStateEvaluator(_square, workers=2,
                                  cache=cache) as evaluator:
            evaluator.evaluate([1, 2, 3, 4])
            assert len(cache) == 0
            assert (cache.hits, cache.misses) == (0, 4)
            evaluator.evaluate([1, 2, 3, 4])
        assert cache.hits + cache.misses == 8

    def test_cache_delta_merges_at_collect_not_later(self):
        """Steady has no commit boundary: a group's counts land with
        its result."""
        cache = EvaluationCache()
        evaluator = SteadyStateEvaluator(
            _square, workers=2, cache=cache,
            executor_factory=lambda workers: ScriptedExecutor())
        ticket = evaluator.submit(7)
        assert cache.misses == 0  # evaluated, but not collected yet
        landed_ticket, result = evaluator.collect()
        assert (landed_ticket, result) == (ticket, 49)
        assert cache.misses == 1  # counted the moment the result landed
        assert len(cache) == 0  # the entry stays in the worker

    def test_worker_exception_propagates(self):
        with SteadyStateEvaluator(_boom, workers=2) as evaluator:
            with pytest.raises(RuntimeError):
                evaluator.evaluate([1, 2])

    def test_empty_batch(self):
        with SteadyStateEvaluator(_square, workers=2) as evaluator:
            assert evaluator.evaluate([]) == []

    def test_scripted_completion_orders_all_collectable(self):
        payloads = [7, 3, 9, 1]
        for order in ([0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]):
            evaluator = PermutedSteadyEvaluator(
                _square, workers=2, order=order,
                executor_factory=lambda workers: ScriptedExecutor())
            tickets = {evaluator.submit(p): p for p in payloads}
            landed = [evaluator.collect() for _ in range(len(payloads))]
            # completion order follows the script...
            assert [ticket for ticket, _ in landed] == order
            # ...and every result matches its own submission.
            for ticket, result in landed:
                assert result == tickets[ticket] ** 2

    def test_pool_failure_salvages_and_degrades(self):
        executor = ScriptedExecutor(fail_results=[1])
        evaluator = SteadyStateEvaluator(
            _square, workers=2,
            executor_factory=lambda workers: executor)
        assert sorted(evaluator.evaluate([1, 2, 3, 4])) == [1, 4, 9, 16]
        assert evaluator.workers == 1  # degraded: later work runs inline
        assert evaluator.evaluate([5]) == [25]

    def test_submit_failure_falls_back_inline(self):
        executor = ScriptedExecutor(fail_submit_after=1)
        evaluator = SteadyStateEvaluator(
            _square, workers=2,
            executor_factory=lambda workers: executor)
        assert sorted(evaluator.evaluate([1, 2, 3])) == [1, 4, 9]
        assert evaluator.workers == 1


# ---------------------------------------------------------------------------
# run_steady_loop: capacity, evaluation-count windows, None slots.
# ---------------------------------------------------------------------------


class _ScriptedLoop(SteadyLoop):
    """Asks scripted payloads; records tell order."""

    def __init__(self, payloads, stats_window):
        self.payloads = payloads
        self.max_evaluations = len(payloads)
        self.stats_window = stats_window
        self.told = []

    def ask_one(self, index):
        return self.payloads[index]

    def tell_one(self, index, outcome):
        self.told.append((index, outcome))
        if outcome is None:
            return math.inf
        return float(outcome)


class TestRunSteadyLoop:
    def test_reports_in_evaluation_windows(self):
        loop = _ScriptedLoop(list(range(7)), stats_window=3)
        with SteadyStateEvaluator(_square, workers=1) as evaluator:
            history = run_steady_loop(loop, evaluator)
        assert [stats.population for stats in history] == [3, 3, 1]
        assert [stats.iteration for stats in history] == [0, 1, 2]
        # inline capacity=1 keeps submission order == completion order
        assert [index for index, _ in loop.told] == list(range(7))
        assert history[0].best_fitness == 0.0  # square of payload 0
        assert history[2].best_fitness == 36.0

    def test_none_payloads_told_immediately_as_infeasible(self):
        loop = _ScriptedLoop([1, None, 2, None], stats_window=4)
        with SteadyStateEvaluator(_square, workers=1) as evaluator:
            history = run_steady_loop(loop, evaluator)
        assert dict(loop.told)[1] is None and dict(loop.told)[3] is None
        assert len(history) == 1
        assert history[0].valid_count == 2
        assert history[0].population == 4

    def test_zero_budget_is_empty_history(self):
        loop = _ScriptedLoop([], stats_window=4)
        with SteadyStateEvaluator(_square, workers=1) as evaluator:
            assert run_steady_loop(loop, evaluator) == []


# ---------------------------------------------------------------------------
# Engine steady surfaces.
# ---------------------------------------------------------------------------


class TestEngineSteadySurface:
    @pytest.mark.parametrize("engine_cls", [EvolutionEngine, RandomEngine])
    def test_full_window_applies_one_generational_update(self, engine_cls):
        reference = engine_cls(4, seed=3)
        candidates = reference.ask(5)
        fitnesses = [3.0, 1.0, math.inf, 2.0, 0.5]
        reference.tell(candidates, fitnesses)

        steady = engine_cls(4, seed=3)
        same = steady.ask(5)
        steady.configure_steady(5)
        for candidate, fitness in zip(same, fitnesses):
            steady.tell_one(candidate, fitness)
        assert steady.generation == reference.generation == 1
        assert steady.pending_steady_tells == 0
        if engine_cls is EvolutionEngine:
            np.testing.assert_array_equal(steady.mean, reference.mean)
            np.testing.assert_array_equal(steady.cov, reference.cov)

    def test_partial_window_buffers_without_update(self):
        engine = EvolutionEngine(3, seed=0)
        engine.configure_steady(4)
        mean_before = engine.mean.copy()
        for fitness in (1.0, 2.0, 3.0):
            engine.tell_one(engine.ask_one(), fitness)
        assert engine.pending_steady_tells == 3
        assert engine.generation == 0
        np.testing.assert_array_equal(engine.mean, mean_before)
        engine.tell_one(engine.ask_one(), 0.5)
        assert engine.pending_steady_tells == 0
        assert engine.generation == 1

    def test_ask_one_samples_current_distribution(self):
        engine = EvolutionEngine(3, seed=7)
        vector = engine.ask_one()
        assert vector.shape == (3,)
        assert np.all(vector >= 0.0) and np.all(vector <= 1.0)

    def test_tell_one_requires_configure(self):
        engine = EvolutionEngine(3, seed=0)
        with pytest.raises(SearchError, match="configure_steady"):
            engine.tell_one(engine.ask_one(), 1.0)

    def test_invalid_window_rejected(self):
        with pytest.raises(SearchError):
            EvolutionEngine(3, seed=0).configure_steady(0)


class TestQuantPairEngineSteady:
    def _engine(self, floor=0.0, population=4, seed=0):
        return QuantPairEngine(
            space=OFAResNetSpace(), predictor=QuantizedAccuracyPredictor(),
            accuracy_floor=floor, population=population, rng=ensure_rng(seed))

    def test_initial_population_handed_out_first(self):
        engine = self._engine()
        engine.configure_steady()
        initial = engine.ask()
        assert [engine.ask_one() for _ in range(4)] == initial

    def test_breeds_admissible_children_from_archive(self):
        engine = self._engine(floor=0.5)
        engine.configure_steady()
        for _ in range(4):
            pair = engine.ask_one()
            engine.tell_one(pair, float(engine._steady_tells + 1))
        child = engine.ask_one()  # past the initial population: bred
        assert child is not None
        arch, policy = child
        assert engine.predictor(arch, policy) >= 0.5

    def test_archive_is_replace_worst(self):
        engine = self._engine(population=2)
        engine.configure_steady()
        pairs = [engine.ask_one() for _ in range(2)]
        engine.tell_one(pairs[0], 5.0)
        engine.tell_one(pairs[1], 1.0)
        engine.tell_one(engine.ask_one(), 3.0)
        fitnesses = [fitness for fitness, _ in engine._steady_archive]
        assert fitnesses == [1.0, 3.0]  # the 5.0 entry was evicted

    def test_generation_paced_by_window(self):
        engine = self._engine()
        engine.configure_steady()
        for step in range(8):
            engine.tell_one(engine.ask_one(), float(step))
        assert engine.generation == 2  # two windows of population=4

    def test_requires_configure(self):
        engine = self._engine()
        with pytest.raises(ReproError, match="configure_steady"):
            engine.ask_one()
        with pytest.raises(ReproError, match="configure_steady"):
            engine.tell_one(engine.ask()[0], 1.0)

    def test_pending_steady_tells_stays_zero(self):
        """The mixin's property must work here too: the archive absorbs
        results immediately, so nothing is ever pending."""
        engine = self._engine()
        engine.configure_steady()
        assert engine.pending_steady_tells == 0
        engine.tell_one(engine.ask_one(), 1.0)
        assert engine.pending_steady_tells == 0


# ---------------------------------------------------------------------------
# Convergence at equal evaluation budgets: the four entry points.
# ---------------------------------------------------------------------------

_TINY_MAPPING = MappingSearchBudget(population=4, iterations=2)

_TINY_NAAS = NAASBudget(accel_population=4, accel_iterations=2,
                        mapping=_TINY_MAPPING)

_TINY_NETWORK = Network(name="tiny", layers=(
    ConvLayer(name="a", k=16, c=8, y=14, x=14, r=3, s=3),
    ConvLayer(name="b", k=32, c=16, y=7, x=7, r=1, s=1),
))

#: Steady trajectories legitimately differ from batched ones (that is
#: the schedule's stated trade); at these budgets both paths must still
#: land within a factor of each other on the seeded configs. The runs
#: below are deterministic (workers=1), so the band is stable.
_CONVERGENCE_BAND = 2.0


def _assert_converged(steady_best, batched_best):
    assert math.isfinite(steady_best) and math.isfinite(batched_best)
    ratio = steady_best / batched_best
    assert 1.0 / _CONVERGENCE_BAND <= ratio <= _CONVERGENCE_BAND, (
        f"steady={steady_best:.6e} batched={batched_best:.6e} "
        f"ratio={ratio:.3f}")


class TestEntryPointConvergence:
    def test_search_accelerator(self):
        kwargs = dict(budget=_TINY_NAAS, seed=19)
        batched = search_accelerator(
            [_TINY_NETWORK], baseline_constraint("nvdla_256"), CostModel(),
            **kwargs)
        steady = search_accelerator(
            [_TINY_NETWORK], baseline_constraint("nvdla_256"), CostModel(),
            schedule="steady", **kwargs)
        assert steady.found
        # Equal evaluation budget, reported in evaluation-count windows.
        assert steady.evaluations == batched.evaluations
        assert len(steady.history) == _TINY_NAAS.accel_iterations
        assert sum(s.population for s in steady.history) == (
            _TINY_NAAS.accel_population * _TINY_NAAS.accel_iterations)
        _assert_converged(steady.best_reward, batched.best_reward)

    def test_search_architecture(self):
        kwargs = dict(budget=NASBudget(population=4, iterations=2),
                      mapping_budget=_TINY_MAPPING, seed=23)
        batched = search_architecture(
            baseline_preset("nvdla_256"), CostModel(), 0.70, **kwargs)
        steady = search_architecture(
            baseline_preset("nvdla_256"), CostModel(), 0.70,
            schedule="steady", **kwargs)
        assert steady.found
        assert steady.evaluations == batched.evaluations
        assert steady.best_accuracy >= 0.70
        _assert_converged(steady.best_edp, batched.best_edp)

    def test_search_joint(self):
        budget = JointBudget(accel_population=3, accel_iterations=2,
                             nas=NASBudget(population=4, iterations=2),
                             mapping=_TINY_MAPPING)
        batched = search_joint(
            baseline_constraint("nvdla_256"), CostModel(), 0.70,
            budget=budget, seed=29)
        steady = search_joint(
            baseline_constraint("nvdla_256"), CostModel(), 0.70,
            budget=budget, seed=29, schedule="steady")
        assert steady.found
        assert math.isfinite(steady.best_edp)
        assert math.isfinite(batched.best_edp)
        # The joint search's reward is an entire inner NAS run, so the
        # band is wider: at quick budgets a lucky inner run dominates.
        # Steady must do no worse than 2x the batched result (it is
        # free to do much better).
        assert steady.best_edp <= batched.best_edp * _CONVERGENCE_BAND

    def test_search_quantized(self):
        kwargs = dict(population=4, iterations=2,
                      mapping_budget=_TINY_MAPPING, seed=31)
        batched = search_quantized(
            baseline_preset("nvdla_256"), CostModel(), 0.66, **kwargs)
        steady = search_quantized(
            baseline_preset("nvdla_256"), CostModel(), 0.66,
            schedule="steady", **kwargs)
        assert steady.found
        assert steady.evaluations == batched.evaluations
        assert len(steady.history) == 2
        _assert_converged(steady.best_edp, batched.best_edp)

    def test_steady_parallel_smoke(self):
        """workers=2 steady is not bit-reproducible; assert the contract
        it does make: full budget spent, feasible design found."""
        result = search_accelerator(
            [_TINY_NETWORK], baseline_constraint("nvdla_256"), CostModel(),
            budget=_TINY_NAAS, seed=19, schedule="steady", workers=2)
        assert result.found
        assert sum(s.population for s in result.history) == (
            _TINY_NAAS.accel_population * _TINY_NAAS.accel_iterations)

    def test_steady_with_disk_tier(self, tmp_path):
        """The persistent tier composes with steady: a warm re-run hits
        disk (identical seeds => identical per-slot entropies at
        workers=1, where the ask order is deterministic)."""
        cache_dir = str(tmp_path / "tier")
        cold = search_accelerator(
            [_TINY_NETWORK], baseline_constraint("nvdla_256"), CostModel(),
            budget=_TINY_NAAS, seed=19, schedule="steady",
            cache_dir=cache_dir)
        warm = search_accelerator(
            [_TINY_NETWORK], baseline_constraint("nvdla_256"), CostModel(),
            budget=_TINY_NAAS, seed=19, schedule="steady",
            cache_dir=cache_dir)
        assert warm == cold  # workers=1 steady is deterministic
        assert warm.cache_stats.disk_hits > 0
