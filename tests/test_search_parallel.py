"""Tests for the batched parallel evaluation engine."""

import dataclasses
import os

import pytest

from repro.accelerator.presets import baseline_constraint
from repro.cost.model import CostModel
from repro.errors import SearchError
from repro.search.accelerator_search import NAASBudget, search_accelerator
from repro.search.cache import EvaluationCache
from repro.search.diskcache import DiskCacheStore
from repro.search.mapping_search import MappingSearchBudget
from repro.search import parallel as parallel_module
from repro.search.parallel import (
    ParallelEvaluator,
    resolve_workers,
    split_chunks,
)
from repro.search.transport import LocalTransport
from repro.tensors.layer import ConvLayer
from repro.tensors.network import Network


def _square(payload, cache):
    """Module-level worker (picklable by qualified name)."""
    if cache is None:
        return payload * payload
    return cache.get_or_compute(payload, lambda: payload * payload)


def _boom(payload, cache):
    raise RuntimeError(f"boom {payload}")


class TestResolveWorkers:
    def test_explicit(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(7) == 7

    def test_zero_and_none_mean_all_cores(self):
        assert resolve_workers(0) >= 1
        assert resolve_workers(None) >= 1

    def test_all_cores_means_the_affinity_set(self, monkeypatch):
        # A host with 8 cores that lets this process run on one of them.
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert resolve_workers(0) == 1
        assert resolve_workers(None) == 1

    def test_all_cores_without_affinity_counts_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert resolve_workers(0) == 3

    def test_negative_raises(self):
        with pytest.raises(SearchError):
            resolve_workers(-2)


class TestSplitChunks:
    def test_balanced_contiguous(self):
        chunks = split_chunks(list(range(7)), 3)
        assert chunks == [[0, 1, 2], [3, 4], [5, 6]]

    def test_fewer_items_than_parts(self):
        assert split_chunks([1, 2], 5) == [[1], [2]]

    def test_empty(self):
        assert split_chunks([], 3) == []

    def test_invalid_parts(self):
        with pytest.raises(SearchError):
            split_chunks([1], 0)


class TestParallelEvaluator:
    def test_inline_matches_parallel(self):
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

    def test_empty_batch(self):
        with ParallelEvaluator(_square, workers=2) as evaluator:
            assert evaluator.evaluate([]) == []

    def test_inline_shares_master_cache(self):
        cache = EvaluationCache()
        with ParallelEvaluator(_square, workers=1, cache=cache) as evaluator:
            evaluator.evaluate([3, 3, 3])
        assert cache.misses == 1
        assert cache.hits == 2
        assert evaluator.cache_stats == cache.stats()

    def test_worker_caches_merge_back(self):
        """Worker caches stay in the workers; their counts come back."""
        cache = EvaluationCache()
        with ParallelEvaluator(_square, workers=2, cache=cache) as evaluator:
            evaluator.evaluate([1, 2, 3, 4])
            assert len(cache) == 0  # no entry crosses a process boundary
            stats = evaluator.cache_stats
            assert (stats.hits, stats.misses) == (0, 4)
            evaluator.evaluate([1, 2, 3, 4])
        # every lookup counts once, whichever worker made it
        stats = evaluator.cache_stats
        assert stats.hits + stats.misses == 8
        # the caller's cache counts only lookups made through it
        assert (cache.hits, cache.misses) == (0, 0)

    def test_builds_its_cache_on_first_inline_evaluation(self, tmp_path):
        evaluator = ParallelEvaluator(_square, workers=1,
                                      cache_dir=tmp_path / "cache")
        assert evaluator.cache is None
        with evaluator:
            assert evaluator.evaluate([2, 2]) == [4, 4]
            built = evaluator.cache
            assert built.store.directory == tmp_path / "cache"
            assert (built.hits, built.misses) == (1, 1)
        assert evaluator.cache is None  # closed with the evaluator

    def test_a_passed_cache_wins_and_stays_open(self, tmp_path):
        cache = EvaluationCache()
        with ParallelEvaluator(_square, workers=1, cache=cache,
                               cache_dir=tmp_path / "unused") as evaluator:
            evaluator.evaluate([5])
        assert evaluator.cache is cache
        assert len(cache) == 1
        assert not (tmp_path / "unused").exists()

    def test_worker_exception_propagates(self):
        with ParallelEvaluator(_boom, workers=2) as evaluator:
            with pytest.raises(RuntimeError):
                evaluator.evaluate([1, 2])

    def test_close_is_idempotent(self):
        evaluator = ParallelEvaluator(_square, workers=2)
        evaluator.evaluate([1])
        evaluator.close()
        evaluator.close()
        # inline evaluation still works after close
        assert ParallelEvaluator(_square, workers=1).evaluate([2]) == [4]


_TINY_NETWORK = Network(name="tiny", layers=(
    ConvLayer(name="a", k=16, c=8, y=14, x=14, r=3, s=3),
    ConvLayer(name="b", k=32, c=16, y=7, x=7, r=1, s=1),
))


_BUDGET = NAASBudget(accel_population=4, accel_iterations=2,
                     mapping=MappingSearchBudget(population=4, iterations=2))


def _search(workers, cache_dir=None, transport=None, budget=_BUDGET):
    return search_accelerator(
        [_TINY_NETWORK], baseline_constraint("nvdla_256"), CostModel(),
        budget=budget, seed=41, workers=workers, cache_dir=cache_dir,
        transport=transport)


def _lookups(result):
    return result.cache_stats.hits + result.cache_stats.misses


class RecordingPool(LocalTransport):
    """The process pool, recording the payloads of every submit."""

    def __init__(self, workers=2):
        super().__init__(workers)
        self.submitted = []

    def submit(self, worker_fn, payloads, cache):
        self.submitted.append(list(payloads))
        return super().submit(worker_fn, payloads, cache)


def _record_opens(monkeypatch):
    """The directories stores are opened on in this process."""
    opened = []
    init = DiskCacheStore.__init__
    pid = os.getpid()

    def recording_init(self, directory):
        if os.getpid() == pid:
            opened.append(str(directory))
        init(self, directory)

    monkeypatch.setattr(DiskCacheStore, "__init__", recording_init)
    return opened


class TestCoordinatorCache:
    """A batch that would be dispatched is first served from the
    coordinator's cache; only the rest reaches the transport."""

    def test_warm_pooled_search_is_served_here(self, tmp_path,
                                               monkeypatch):
        """A fully warm pooled search opens the store once, here, and
        submits nothing."""
        cache_dir = str(tmp_path / "cache")
        cold = _search(workers=1, cache_dir=cache_dir)
        opened = _record_opens(monkeypatch)
        with RecordingPool() as pool:
            warm = _search(workers=2, cache_dir=cache_dir, transport=pool)
        assert opened == [cache_dir]
        assert pool.submitted == []
        assert warm == cold
        stats = warm.cache_stats
        assert stats.disk_hits == stats.hits + stats.misses > 0

    def test_partly_warm_search_dispatches_only_the_rest(self, tmp_path):
        """A fill of generation 0 serves it here; generation 1 goes to
        the pool, and the run still matches a cold serial run."""
        cache_dir = str(tmp_path / "cache")
        fill = _search(workers=1, cache_dir=cache_dir, budget=(
            dataclasses.replace(_BUDGET, accel_iterations=1)))
        cold = _search(workers=1)
        with RecordingPool() as pool:
            warm = _search(workers=2, cache_dir=cache_dir, transport=pool)
        assert warm == cold
        dispatched = [task.accel.name for group in pool.submitted
                      for task in group]
        assert dispatched
        assert all(name.startswith("naas-g1m") for name in dispatched)
        assert len(dispatched) == cold.evaluations - fill.evaluations
        assert _lookups(warm) == _lookups(cold)
        assert warm.cache_stats.disk_hits >= _lookups(fill) > 0

    def test_a_record_that_vanishes_after_the_probe_is_computed(
            self, tmp_path, monkeypatch):
        """The probe saw a record the lookup then cannot read: the
        coordinator computes that shape, and the result holds."""
        cache_dir = str(tmp_path / "cache")
        cold = _search(workers=1, cache_dir=cache_dir)
        get = DiskCacheStore.get
        lost = []

        def lose_first_read(self, digest):
            if not lost:
                lost.append(digest)
                return False, None
            return get(self, digest)

        monkeypatch.setattr(DiskCacheStore, "get", lose_first_read)
        with RecordingPool() as pool:
            warm = _search(workers=2, cache_dir=cache_dir, transport=pool)
        assert lost
        assert pool.submitted == []
        assert warm == cold
        stats = warm.cache_stats
        assert stats.misses == 1
        assert stats.disk_hits == stats.hits == _lookups(cold) - 1

    def test_in_memory_pooled_search_probes_nothing(self, monkeypatch):
        """Without a cache directory the coordinator's cache could hold
        nothing: it is not built, and no candidate is probed."""
        built, probed = [], []
        build = parallel_module.build_cache
        holds = EvaluationCache._holds
        pid = os.getpid()

        def recording_build(*args, **kwargs):
            built.append(args)
            return build(*args, **kwargs)

        def recording_holds(self, key, disk_key):
            if os.getpid() == pid:
                probed.append(key)
            return holds(self, key, disk_key)

        monkeypatch.setattr(parallel_module, "build_cache", recording_build)
        monkeypatch.setattr(EvaluationCache, "_holds", recording_holds)
        with RecordingPool() as pool:
            pooled = _search(workers=2, transport=pool)
        assert built == probed == []
        assert pool.submitted
        assert pooled == _search(workers=1)
