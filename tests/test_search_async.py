"""Determinism suite for the generational evaluation engine.

The contract under test: any completion order of task-group futures —
and any worker count or task-group partition — yields a bit-identical
final search result versus the serial path, because results land
index-keyed into one slot per task group and every tell is applied at
a commit boundary in submission order.
"""

import itertools
import math
import pickle
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.accelerator.presets import baseline_constraint, baseline_preset
from repro.cost.model import CostModel
from repro.errors import SearchError
from repro.nas.joint import JointBudget, search_joint
from repro.nas.ofa_space import OFAResNetSpace
from repro.nas.quantization import (
    QuantizedAccuracyPredictor,
    QuantPairEngine,
    search_quantized,
)
from repro.nas.search import NASBudget, search_architecture
from repro.search.accelerator_search import NAASBudget, search_accelerator
from repro.search import parallel as parallel_module
from repro.search.cache import EvaluationCache
from repro.search.diskcache import build_cache
from repro.search.es import EvolutionEngine
from repro.search.mapping_search import MappingSearchBudget
from repro.search.parallel import ParallelEvaluator
from repro.search.random_search import RandomEngine
from repro.tensors.layer import ConvLayer
from repro.tensors.network import Network
from repro.utils.rng import ensure_rng

# ---------------------------------------------------------------------------
# Test doubles: in-process executors with scripted completion/failure.
# ---------------------------------------------------------------------------

#: Payloads evaluated by _counting worker since the last reset.
_CALLS = []


def _square(payload, cache):
    if cache is None:
        return payload * payload
    return cache.get_or_compute(payload, lambda: payload * payload)


def _counting_square(payload, cache):
    _CALLS.append(payload)
    return payload * payload


class ScriptedExecutor:
    """Runs submits eagerly and inline, emulating process isolation.

    Arguments are pickle-roundtripped (as a real pool would) so shared
    argument objects cannot leak mutations between task groups, and the
    worker function must be picklable. ``fail_results`` marks submission
    indices whose futures fail with :class:`BrokenProcessPool` *instead
    of running* (their work is genuinely lost, as when a worker dies);
    ``fail_submit_after`` makes ``submit`` itself raise once that many
    submissions have been accepted.
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


class PermutedEvaluator(ParallelEvaluator):
    """ParallelEvaluator whose futures complete in a scripted permutation."""

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
# ParallelEvaluator: out-of-order landing, commit-boundary semantics.
# ---------------------------------------------------------------------------


class TestCommitBoundary:
    def test_matches_inline(self):
        payloads = list(range(11))
        with ParallelEvaluator(_square, workers=1) as inline:
            serial = inline.evaluate(payloads)
        with ParallelEvaluator(_square, workers=3) as fanned:
            parallel = fanned.evaluate(payloads)
        assert serial == parallel == [p * p for p in payloads]

    def test_results_in_submission_order(self):
        payloads = [5, 1, 4, 2, 3]
        with ParallelEvaluator(_square, workers=2) as evaluator:
            assert evaluator.evaluate(payloads) == [25, 1, 16, 4, 9]

    def test_worker_caches_merge_back(self):
        """A worker's cache lasts the run; its counts come back."""
        with ParallelEvaluator(
                _square, workers=2,
                executor_factory=lambda _count: ScriptedExecutor(),
        ) as evaluator:
            evaluator.evaluate([1, 2, 3, 4])
            # only dispatched: the coordinator never built its cache
            assert evaluator.cache is None
            stats = evaluator.cache_stats
            assert (stats.hits, stats.misses) == (0, 4)
            evaluator.evaluate([1, 2, 3, 4])
        # the second generation hits in the resident worker cache
        stats = evaluator.cache_stats
        assert (stats.hits, stats.misses) == (4, 4)

    def test_worker_exception_propagates(self):
        with ParallelEvaluator(_boom, workers=2) as evaluator:
            with pytest.raises(RuntimeError):
                evaluator.evaluate([1, 2])

    def test_empty_batch(self):
        with ParallelEvaluator(_square, workers=2) as evaluator:
            assert evaluator.evaluate([]) == []

    @pytest.mark.parametrize("workers,groups", ((4, 4), (2, 2)),
                             ids=("ungrouped", "grouped"))
    def test_every_completion_order_is_bit_identical(self, workers, groups):
        """The permutation property at the evaluator level: one task
        group per payload, and two payloads per task group."""
        payloads = [7, 3, 9, 1]
        expected = [p * p for p in payloads]
        for order in itertools.permutations(range(groups)):
            executor = ScriptedExecutor()
            evaluator = PermutedEvaluator(
                _square, workers=workers, order=order,
                executor_factory=lambda _count: executor)
            assert evaluator.evaluate(payloads) == expected
            assert executor.submitted == groups
            assert evaluator.cache_stats.misses == len(payloads)


def _boom(payload, cache):
    raise RuntimeError(f"boom {payload}")


# ---------------------------------------------------------------------------
# Pool-failure salvage: completed futures keep their results.
# ---------------------------------------------------------------------------


class TestPoolFailureSalvage:
    def test_batched_salvages_completed_chunks(self):
        _CALLS.clear()
        executor = ScriptedExecutor(fail_results=[1])
        evaluator = ParallelEvaluator(
            _counting_square, workers=3,
            executor_factory=lambda workers: executor)
        results = evaluator.evaluate([0, 1, 2, 3, 4, 5])
        assert results == [0, 1, 4, 9, 16, 25]
        # Chunks 0 and 2 completed before the "pool" broke: their four
        # payloads ran exactly once (in the executor); only the failed
        # chunk's two payloads were re-evaluated inline.
        assert sorted(_CALLS) == [0, 1, 2, 3, 4, 5]
        assert evaluator.workers == 1  # degraded for later generations
        assert evaluator.evaluate([6]) == [36]

    def test_salvages_groups_landed_out_of_order(self):
        _CALLS.clear()
        executor = ScriptedExecutor(fail_results=[2])
        evaluator = ParallelEvaluator(
            _counting_square, workers=4,
            executor_factory=lambda workers: executor)
        assert evaluator.evaluate([1, 2, 3, 4]) == [1, 4, 9, 16]
        assert sorted(_CALLS) == [1, 2, 3, 4]

    def test_submit_failure_runs_remainder_inline(self):
        _CALLS.clear()
        executor = ScriptedExecutor(fail_submit_after=1)
        evaluator = ParallelEvaluator(
            _counting_square, workers=3,
            executor_factory=lambda workers: executor)
        assert evaluator.evaluate([0, 1, 2, 3, 4, 5]) == [0, 1, 4, 9, 16, 25]
        assert sorted(_CALLS) == [0, 1, 2, 3, 4, 5]
        assert evaluator.workers == 1

    def test_salvaged_cache_deltas_still_merge(self):
        cache = EvaluationCache()
        executor = ScriptedExecutor(fail_results=[1])
        evaluator = ParallelEvaluator(
            _square, workers=2, cache=cache,
            executor_factory=lambda workers: executor)
        assert evaluator.evaluate([1, 2, 3, 4]) == [1, 4, 9, 16]
        # the salvaged chunk's counts are summed; the inline remainder
        # looks its payloads up in the coordinator's own cache
        assert evaluator.cache_stats.misses == 4
        assert (cache.hits, cache.misses) == (0, 2)
        assert len(cache) == 2

    def test_salvage_builds_the_coordinator_cache_once(self, monkeypatch,
                                                       tmp_path):
        """The coordinator's cache is built on the first salvage, serves
        every re-evaluated group, and closes with the evaluator."""
        built, closed = [], []

        def spy_build_cache(cache_dir=None):
            cache = build_cache(cache_dir)
            built.append(cache)
            close = cache.close
            cache.close = lambda: closed.append(cache) or close()
            return cache

        monkeypatch.setattr(parallel_module, "build_cache", spy_build_cache)
        executor = ScriptedExecutor(fail_results=[0, 2])
        with ParallelEvaluator(
                _square, workers=3, cache_dir=tmp_path / "coordinator",
                executor_factory=lambda workers: executor) as evaluator:
            # groups [1, 2], [3, 4], [1, 2]: the first and last are lost
            assert evaluator.evaluate([1, 2, 3, 4, 1, 2]) == [
                1, 4, 9, 16, 1, 4]
            assert len(built) == 1 and evaluator.cache is built[0]
            # the second lost group is served by the first one's entries
            assert (built[0].hits, built[0].misses) == (2, 2)
            stats = evaluator.cache_stats
            assert (stats.hits, stats.misses) == (2, 4)
            assert evaluator.evaluate([3]) == [9]  # inline from here on
            assert len(built) == 1
        assert evaluator.cache is None
        assert closed == built


# ---------------------------------------------------------------------------
# Engine tells: one tell is one generation's update.
# ---------------------------------------------------------------------------


class TestTell:
    @pytest.mark.parametrize("engine_cls", [EvolutionEngine, RandomEngine])
    def test_tell_is_one_update(self, engine_cls):
        reference = engine_cls(4, seed=3)
        candidates = reference.ask(6)
        fitnesses = [3.0, 1.0, math.inf, 1.0, 2.0, 0.5]
        reference.update(candidates, fitnesses)

        engine = engine_cls(4, seed=3)
        engine.tell(engine.ask(6), fitnesses)
        assert engine.generation == reference.generation == 1
        np.testing.assert_array_equal(engine.ask(3), reference.ask(3))
        if engine_cls is EvolutionEngine:
            np.testing.assert_array_equal(engine.mean, reference.mean)
            np.testing.assert_array_equal(engine.cov, reference.cov)

    def test_all_infeasible_generation_advances_counter_once(self):
        engine = EvolutionEngine(3, seed=0)
        candidates = engine.ask(4)
        mean_before = engine.mean.copy()
        engine.tell(candidates, [math.inf] * 4)
        assert engine.generation == 1
        np.testing.assert_array_equal(engine.mean, mean_before)
        engine.tell(candidates, [math.inf] * 4)
        assert engine.generation == 2

    def test_length_mismatches_raise(self):
        for engine in (EvolutionEngine(2, seed=0), RandomEngine(2, seed=0)):
            with pytest.raises(SearchError):
                engine.tell([np.zeros(2)], [1.0, 2.0])


class TestQuantPairEngine:
    def test_ask_tell_commit_evolve(self):
        engine = QuantPairEngine(
            space=OFAResNetSpace(), predictor=QuantizedAccuracyPredictor(),
            accuracy_floor=0.0, population=4, rng=ensure_rng(0))
        pairs = engine.ask()
        assert len(pairs) == 4
        assert engine.ask(2) == pairs[:2]
        engine.tell(pairs, [4.0, 3.0, 2.0, 1.0])
        assert engine.generation == 1
        engine.evolve()
        assert 2 <= len(engine.ask()) <= 4


# ---------------------------------------------------------------------------
# End-to-end: all four search entry points, workers=2 vs serial.
# ---------------------------------------------------------------------------

_TINY_MAPPING = MappingSearchBudget(population=4, iterations=2)

_TINY_NETWORK = Network(name="tiny", layers=(
    ConvLayer(name="a", k=16, c=8, y=14, x=14, r=3, s=3),
    ConvLayer(name="b", k=32, c=16, y=7, x=7, r=1, s=1),
))


class TestEntryPointDeterminism:
    """A two-worker pool must be bit-identical to the serial path."""

    def test_search_accelerator(self):
        budget = NAASBudget(accel_population=4, accel_iterations=2,
                            mapping=_TINY_MAPPING)
        kwargs = dict(budget=budget, seed=19)
        serial = search_accelerator(
            [_TINY_NETWORK], baseline_constraint("nvdla_256"), CostModel(),
            **kwargs)
        parallel = search_accelerator(
            [_TINY_NETWORK], baseline_constraint("nvdla_256"), CostModel(),
            workers=2, **kwargs)
        assert parallel == serial
        assert parallel.history == serial.history

    def test_search_architecture(self):
        kwargs = dict(budget=NASBudget(population=4, iterations=2),
                      mapping_budget=_TINY_MAPPING, seed=23)
        serial = search_architecture(
            baseline_preset("nvdla_256"), CostModel(), 0.70, **kwargs)
        parallel = search_architecture(
            baseline_preset("nvdla_256"), CostModel(), 0.70,
            workers=2, **kwargs)
        assert parallel == serial

    def test_search_joint(self):
        budget = JointBudget(accel_population=3, accel_iterations=2,
                             nas=NASBudget(population=4, iterations=2),
                             mapping=_TINY_MAPPING)
        serial = search_joint(baseline_constraint("nvdla_256"), CostModel(),
                              0.70, budget=budget, seed=29)
        parallel = search_joint(
            baseline_constraint("nvdla_256"), CostModel(), 0.70,
            budget=budget, seed=29, workers=2)
        assert parallel == serial

    def test_search_quantized(self):
        kwargs = dict(population=4, iterations=2,
                      mapping_budget=_TINY_MAPPING, seed=31)
        serial = search_quantized(
            baseline_preset("nvdla_256"), CostModel(), 0.66, **kwargs)
        parallel = search_quantized(
            baseline_preset("nvdla_256"), CostModel(), 0.66,
            workers=2, **kwargs)
        assert parallel == serial
        assert parallel.history == serial.history

    def test_parallel_with_disk_tier_matches_serial(self, tmp_path):
        """Workers reading and appending to the persistent tier stay
        bit-identical, cold and warm."""
        budget = NAASBudget(accel_population=4, accel_iterations=2,
                            mapping=_TINY_MAPPING)
        common = dict(budget=budget, seed=37)
        serial = search_accelerator(
            [_TINY_NETWORK], baseline_constraint("nvdla_256"), CostModel(),
            **common)
        cache_dir = str(tmp_path / "tier")
        cold = search_accelerator(
            [_TINY_NETWORK], baseline_constraint("nvdla_256"), CostModel(),
            workers=2, cache_dir=cache_dir,
            **common)
        warm = search_accelerator(
            [_TINY_NETWORK], baseline_constraint("nvdla_256"), CostModel(),
            workers=2, cache_dir=cache_dir,
            **common)
        assert cold == serial
        assert warm == serial
        assert warm.cache_stats.disk_hits > 0
