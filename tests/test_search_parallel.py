"""Tests for the batched parallel evaluation engine."""

import os

import pytest

from repro.errors import SearchError
from repro.search.cache import EvaluationCache
from repro.search.parallel import (
    ParallelEvaluator,
    resolve_workers,
    split_chunks,
)


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

    def test_worker_caches_merge_back(self):
        """Worker caches stay in the workers; their counts come back."""
        cache = EvaluationCache()
        with ParallelEvaluator(_square, workers=2, cache=cache) as evaluator:
            evaluator.evaluate([1, 2, 3, 4])
            assert len(cache) == 0  # no entry crosses a process boundary
            assert (cache.hits, cache.misses) == (0, 4)
            evaluator.evaluate([1, 2, 3, 4])
        # every lookup counts once, whichever worker made it
        assert cache.hits + cache.misses == 8

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
