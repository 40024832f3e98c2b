"""Failure-mode and ownership suite for the transport seam.

The contract under test: whatever a transport does — answer with a
malformed outcome, hang, fail to start, break mid-generation — the
evaluator degrades to the salvage/inline path instead of returning
wrong results or hanging the search; a transport handed in belongs to
its caller, who alone closes it; and a pool worker's cache serves one
run only.
"""

import contextlib
import io
import pickle
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.accelerator.presets import baseline_constraint, baseline_preset
from repro.cost.model import CostModel
from repro.errors import EvaluationTimeout, TransportError
from repro.search.accelerator_search import NAASBudget, search_accelerator
from repro.search.cache import EvaluationCache
from repro.search.diskcache import DiskCacheStore, RunCache
from repro.search.mapping_search import MappingSearchBudget
from repro.search.parallel import ParallelEvaluator
from repro.search.result import CacheStats
from repro.search import transport as transport_module
from repro.search.transport import LocalTransport, Transport
from repro.tensors.layer import ConvLayer
from repro.tensors.network import Network


def _square(payload, cache):
    if cache is None:
        return payload * payload
    return cache.get_or_compute(payload, lambda: payload * payload)


#: What a scripted transport reports for a group that looked nothing up.
_NO_LOOKUPS = CacheStats(hits=0, misses=0, disk_hits=0)


class AnsweringTransport(Transport):
    """Futures that resolve at once to a scripted answer: ``answer``
    maps a group's squares to what its future carries."""

    def __init__(self, answer):
        self.answer = answer

    def available(self):
        return True

    def submit(self, worker_fn, payloads, cache):
        future = Future()
        future.set_result(self.answer([p * p for p in payloads]))
        return future

    def close(self):
        pass


class TestMalformedOutcomes:
    """An outcome that is not ``(results, counts)`` with one result per
    payload is a transport failure: salvaged and re-evaluated inline,
    never returned as a misaligned generation."""

    @pytest.mark.parametrize("answer", [
        lambda squares: (squares[:-1], _NO_LOOKUPS),
        lambda squares: (squares + [-1], _NO_LOOKUPS),
        lambda squares: (squares, None),
        lambda squares: squares,
    ], ids=["short", "long", "no_counts", "non_tuple"])
    def test_malformed_result_is_recomputed_inline(self, answer):
        transport = AnsweringTransport(answer)
        with ParallelEvaluator(_square, workers=2,
                               transport=transport) as evaluator:
            evaluator.salvage_grace = 0.5
            assert evaluator.evaluate([2, 3]) == [4, 9]
            assert evaluator.workers == 1  # degraded to inline
            assert evaluator._transport is None


# ---------------------------------------------------------------------------
# Evaluation timeouts: a hung (not dead) worker must not stall a search.
# ---------------------------------------------------------------------------


class StallTransport(Transport):
    """Futures that never complete — a perfectly hung pool."""

    def __init__(self):
        self.submitted = []

    def available(self):
        return True

    def submit(self, worker_fn, payloads, cache):
        future = Future()
        self.submitted.append(future)
        return future

    def close(self):
        pass


class TestEvaluationTimeout:
    def test_batched_timeout_routes_through_inline_salvage(self):
        """The timeout bounds the wait for *any* task group to finish:
        two hung groups raise one "no progress" failure, and the whole
        generation re-runs inline."""
        transport = StallTransport()
        evaluator = ParallelEvaluator(_square, workers=2,
                                      transport=transport,
                                      eval_timeout=0.2)
        failures = []
        original = evaluator._salvage

        def spy(failure, *args, **kwargs):
            failures.append(failure)
            return original(failure, *args, **kwargs)

        evaluator._salvage = spy
        evaluator.salvage_grace = 0.1
        assert evaluator.evaluate([1, 2, 3, 4]) == [1, 4, 9, 16]
        assert len(transport.submitted) == 2
        assert len(failures) == 1
        assert isinstance(failures[0], EvaluationTimeout)
        assert str(failures[0]) == (
            "2 in-flight task groups made no progress within "
            "eval_timeout=0.2s")
        assert evaluator.workers == 1  # degraded: hung pool abandoned

    def test_timeout_with_live_pool_changes_nothing(self):
        with ParallelEvaluator(_square, workers=2,
                               eval_timeout=30.0) as evaluator:
            assert evaluator.evaluate([1, 2, 3]) == [1, 4, 9]

    def test_invalid_timeout_rejected(self):
        with pytest.raises(Exception, match="eval_timeout"):
            ParallelEvaluator(_square, workers=2, eval_timeout=0.0)


class TestBuildEvaluator:
    """How an evaluator is built around a transport: it builds, owns
    and closes its own local pool, or takes a caller's instance."""

    def test_evaluator_accepts_transport_instance(self):
        transport = StallTransport()
        evaluator = ParallelEvaluator(_square, workers=2,
                                      transport=transport, eval_timeout=0.2)
        evaluator.salvage_grace = 0.1
        assert evaluator._transport is transport
        assert evaluator.evaluate([2]) == [4]

    @pytest.mark.parametrize("spec", ["local", "tcp"])
    def test_transport_string_is_refused(self, spec):
        with pytest.raises(TransportError, match="Transport instance"):
            ParallelEvaluator(_square, workers=2, transport=spec)

    def test_evaluator_closes_the_local_pool_it_built(self):
        """Regression: the implicit local transport belongs to the
        evaluator — close() must actually shut its process pool down."""
        evaluator = ParallelEvaluator(_square, workers=2)
        assert evaluator.evaluate([2, 3]) == [4, 9]
        transport = evaluator._transport
        assert isinstance(transport, LocalTransport)
        assert transport._executor is not None  # pool was really used
        evaluator.close()
        assert transport._executor is None


def _no_fork(_count):
    raise OSError("no process pool here")


class _BrokenExecutor:
    """A pool whose every task group dies with its worker."""

    def submit(self, fn, *args):
        future = Future()
        future.set_exception(BrokenProcessPool("injected worker death"))
        return future

    def shutdown(self, wait=True):
        pass


def _broken_pool(_count):
    return _BrokenExecutor()


class WatchedPool(LocalTransport):
    """A caller's local pool that records being closed or shut down."""

    def __init__(self, executor_factory):
        super().__init__(2, executor_factory=executor_factory)
        self.teardowns = []

    def close(self):
        self.teardowns.append("close")
        super().close()

    def shutdown_broken(self):
        self.teardowns.append("shutdown_broken")
        super().shutdown_broken()


class TestSharedTransportOwnership:
    """A caller-owned transport outlives each search using it."""

    def test_evaluator_close_leaves_shared_transport_open(self):
        with WatchedPool(executor_factory=None) as pool:
            for round_payloads in ([1, 2], [3, 4]):
                with ParallelEvaluator(_square, workers=2,
                                       transport=pool) as evaluator:
                    assert evaluator.evaluate(round_payloads) == [
                        p * p for p in round_payloads]
            assert pool.teardowns == []
            assert pool._executor is not None  # the pool survived both
        assert pool.teardowns == ["close"]  # the caller's with, only

    def test_degrade_detaches_but_does_not_close_shared_transport(self):
        transport = StallTransport()
        evaluator = ParallelEvaluator(_square, workers=2,
                                      transport=transport, eval_timeout=0.1)
        evaluator.salvage_grace = 0.1
        closed = []
        transport.close = lambda: closed.append(True)
        assert evaluator.evaluate([3]) == [9]  # timed out, ran inline
        assert evaluator._transport is None  # detached for this search
        assert not closed  # the shared transport keeps serving others

    @pytest.mark.parametrize("factory", [_no_fork, _broken_pool],
                             ids=["unavailable", "broken"])
    def test_handed_in_local_pool_is_never_torn_down(self, factory):
        """Degrading to inline, whether the pool cannot start or breaks
        mid-generation, only detaches a caller's pool."""
        with WatchedPool(factory) as pool:
            with ParallelEvaluator(_square, workers=2,
                                   transport=pool) as evaluator:
                assert evaluator.evaluate([2, 3]) == [4, 9]
                assert evaluator._transport is None  # ran inline
            assert pool.teardowns == []
        assert pool.teardowns == ["close"]  # the caller's with, only


# ---------------------------------------------------------------------------
# Worker caches: one per process and run, never shipped.
# ---------------------------------------------------------------------------

_ISOLATION_NETWORK = Network(name="iso", layers=(
    ConvLayer(name="iso_conv", k=96, c=48, y=28, x=28, r=3, s=3),
    ConvLayer(name="iso_pw", k=160, c=96, y=14, x=14, r=1, s=1)))


#: Back-to-back runs: two seeds, then the second seed again at another
#: mapping budget. Its first generation repeats the previous run's
#: in-memory keys (the key holds the seed, not the budget), so only the
#: run token keeps a worker from serving it the previous run's results.
_BACK_TO_BACK = ((1, MappingSearchBudget(6, 3)),
                 (2, MappingSearchBudget(6, 3)),
                 (2, MappingSearchBudget(5, 3)))


def _isolation_search(seed, workers, transport=None, cache_dir=None,
                      mapping=MappingSearchBudget(6, 3)):
    """A small search whose first generation holds the eyeriss preset."""
    return search_accelerator(
        [_ISOLATION_NETWORK], baseline_constraint("eyeriss"), CostModel(),
        budget=NAASBudget(3, 2, mapping), seed=seed,
        seed_configs=[baseline_preset("eyeriss")], workers=workers,
        transport=transport, cache_dir=cache_dir)


class PickledInlineExecutor:
    """Runs each submit at once in this process, after a pickle round
    trip of its arguments (as a process pool would)."""

    def submit(self, fn, *args):
        fn, *args = pickle.loads(pickle.dumps((fn, *args)))
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait=True):
        pass


@contextlib.contextmanager
def _shared_transport(kind, monkeypatch):
    """One transport instance that outlives the searches it serves."""
    assert kind == "pool"
    # These pool "workers" run in this process. Start its pool-worker
    # cache empty: a worker ignoring tokens would keep an earlier test's
    # run.
    monkeypatch.setattr(transport_module, "_pool_worker_cache",
                        RunCache())
    with LocalTransport(2, executor_factory=lambda _count: (
            PickledInlineExecutor())) as transport:
        yield transport


def _back_to_back(kind, monkeypatch):
    with _shared_transport(kind, monkeypatch) as transport:
        return [_isolation_search(seed, workers=2, transport=transport,
                                  mapping=mapping)
                for seed, mapping in _BACK_TO_BACK]


def _ignore_tokens(monkeypatch):
    """A worker that keeps its first run's cache for every later run."""
    build = RunCache.get

    def get_any_run(self, handle):
        return self.cache if self.cache is not None else build(self,
                                                                handle)

    monkeypatch.setattr(RunCache, "get", get_any_run)


class TestRunCacheIsolation:
    @pytest.mark.parametrize("kind", ["pool"])
    def test_back_to_back_runs_match_fresh_runs(self, kind, monkeypatch):
        """Regression: one transport serves searches back to back; each
        must return what a fresh inline run returns."""
        fresh = [_isolation_search(seed, workers=1, mapping=mapping)
                 for seed, mapping in _BACK_TO_BACK]
        assert _back_to_back(kind, monkeypatch) == fresh

    @pytest.mark.parametrize("kind", ["pool"])
    def test_a_cache_that_outlives_its_run_is_caught(self, kind,
                                                     monkeypatch):
        """The check above has teeth: a worker ignoring the run token
        serves the last run mappings searched at the previous budget."""
        seed, mapping = _BACK_TO_BACK[-1]
        fresh = _isolation_search(seed, workers=1, mapping=mapping)
        _ignore_tokens(monkeypatch)
        last = _back_to_back(kind, monkeypatch)[-1]
        assert last.cache_stats.hits > 0
        assert last != fresh


class _CacheSniffer(pickle.Pickler):
    """Fails on any cache or store anywhere inside what it pickles."""

    def persistent_id(self, obj):
        assert not isinstance(obj, (EvaluationCache, DiskCacheStore)), (
            f"{type(obj).__name__} shipped to a worker")
        return None


class RecordingLocalTransport(LocalTransport):
    """The process pool, checking and recording every submit."""

    def __init__(self, workers):
        super().__init__(workers)
        self.handles = []

    def submit(self, worker_fn, payloads, cache):
        _CacheSniffer(io.BytesIO()).dump((worker_fn, payloads, cache))
        self.handles.append(cache)
        return super().submit(worker_fn, payloads, cache)


class TestNothingCacheShapedIsShipped:
    def test_pool_runs_ship_handles_and_sum_counts(self, tmp_path):
        """The cold run ships handles and sums its workers' counts; the
        warm rerun is served by the coordinator and ships nothing."""
        cache_dir = str(tmp_path / "cache")
        serial = _isolation_search(0, workers=1)
        lookups = serial.cache_stats.hits + serial.cache_stats.misses
        transport = RecordingLocalTransport(2)
        try:
            cold = _isolation_search(0, workers=2, transport=transport,
                                     cache_dir=cache_dir)
            shipped = list(transport.handles)
            warm = _isolation_search(0, workers=2, transport=transport,
                                     cache_dir=cache_dir)
        finally:
            transport.close()
        assert cold == warm == serial
        assert transport.handles == shipped
        assert transport.handles
        assert {handle.directory for handle in transport.handles} == {
            cache_dir}
        assert len({handle.token for handle in transport.handles}) == 1
        assert cold.cache_stats.hits + cold.cache_stats.misses == lookups
        stats = warm.cache_stats
        assert stats.disk_hits == stats.hits + stats.misses == lookups
