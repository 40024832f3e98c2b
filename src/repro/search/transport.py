"""Where a dispatched evaluation runs: the transport seam and the pool.

The evaluator in :mod:`repro.search.parallel` submits *task groups* —
``(worker_fn, payloads, cache handle)`` triples — and collects
:class:`~concurrent.futures.Future` results. :class:`Transport` is the
seam between that submit/collect surface and the machinery that
executes a group; :class:`LocalTransport` is its one implementation,
the in-process :class:`~concurrent.futures.ProcessPoolExecutor`: lazy
pool creation, graceful degradation to inline evaluation when the
sandbox cannot fork, and the ``executor_factory`` test hook. An
evaluator handed no transport builds its own.

Every transport fulfils one execution contract, :func:`run_chunk`:
a task group is one :func:`run_group` call against the executing
process's cache for the group's run, and its future resolves to
``(results, cache counts)``. A transport that runs groups elsewhere
(another host, say) plugs in behind the same seam by running
:func:`run_chunk` there.

Caches
------
A cache never crosses a process boundary. A task group carries a
:class:`~repro.search.diskcache.CacheHandle`; a pool worker process
keeps one :class:`~repro.search.diskcache.RunCache` for the run it
serves. A group returns its results and the cache counts it added,
which the coordinator's evaluator sums into its ``cache_stats``; the
coordinator's own cache is the evaluator's (see
:mod:`repro.search.parallel`) and serves inline evaluation, salvage
and, through a probe of it, the group workers' payloads it already
holds, which are never submitted. Every evaluation is seeded from
content digests, so cache state can change only cost, never results.

Failure model
-------------
A pool that cannot start degrades the evaluator to inline evaluation;
a pool that breaks mid-generation (a worker killed, say) fails its
futures, and the evaluator salvages the groups that completed and
re-evaluates the rest inline. A hung worker is bounded by the
evaluator's ``eval_timeout``, which routes the stuck groups through
the same salvage path. A search therefore finishes (more slowly,
never wrongly) whatever the pool does.
"""

from __future__ import annotations

from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.errors import SearchError, TransportError
from repro.search.cache import EvaluationCache
from repro.search.diskcache import CacheHandle, RunCache
from repro.search.result import CacheStats
from repro.utils.logging import get_logger

logger = get_logger(__name__)

#: A worker maps ``(payload, cache-or-None)`` to a picklable result;
#: a :func:`group_worker` maps ``(payloads, cache-or-None)`` to one
#: result per payload. :func:`run_group` calls either kind.
WorkerFn = Callable[[Any, Optional[EvaluationCache]], Any]
#: The group form: ``(payloads, cache-or-None)`` to one result each.
GroupFn = Callable[[List[Any], Optional[EvaluationCache]], List[Any]]


class TransportUnavailable(TransportError):
    """The transport cannot accept submissions (no pool)."""


class Transport:
    """Where dispatched task groups run; futures carry their outcomes.

    ``submit`` returns a :class:`~concurrent.futures.Future` resolving
    to ``(results, cache counts)`` — the exact contract of
    :func:`run_chunk` — so the evaluator's commit boundary, salvage
    logic and scripted-completion test seams work identically over any
    transport. The evaluator dispatches only when its ``workers`` is
    above 1; its worker count, not the transport, sets the partition.

    A transport belongs to whoever built it: use it as a ``with`` item
    (``__exit__`` closes it) and pass it to any number of evaluators,
    which never close a transport they were handed.
    """

    def available(self) -> bool:
        """Can this transport execute work right now?

        May lazily create resources (a process pool); a
        ``False`` return means the evaluator should run inline instead.
        """
        raise NotImplementedError

    def submit(self, worker_fn: WorkerFn, payloads: Sequence[Any],
               cache: CacheHandle) -> Future:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *_exc_info: Any) -> None:
        self.close()


#: The run cache of this process when it serves as a pool worker. A
#: pool worker keeps nothing between tasks but module state; run tokens
#: keep the runs of one process's callers apart.
_pool_worker_cache = RunCache()


def group_worker(worker_fn: GroupFn) -> WorkerFn:
    """Mark ``worker_fn`` as evaluating a whole task group in one call.

    A group worker takes ``(payloads, cache)`` and returns one result
    per payload, in order, so it can share work across the group (the
    NAAS candidates of a group run one lockstep mapping search). The
    mark is a function attribute, so it travels with the function's
    qualified name to pool workers.

    Before dispatching a generation, the coordinator's
    :class:`~repro.search.parallel.ParallelEvaluator` runs a group
    worker against a :meth:`~repro.search.cache.EvaluationCache.probe`
    of its cache, which serves the payloads the cache fully holds, so
    a warm generation never reaches the transport. A worker needs
    nothing more for that than to do its lookups through the cache.
    """
    worker_fn.takes_group = True
    return worker_fn


def run_group(worker_fn: WorkerFn, payloads: Sequence[Any],
              cache: Optional[EvaluationCache]) -> List[Any]:
    """One task group's results, in payload order: one call of a
    :func:`group_worker`, or one call per payload of any other worker.
    Inline evaluation, salvage and :func:`run_chunk` all call this."""
    if not getattr(worker_fn, "takes_group", False):
        return [worker_fn(payload, cache) for payload in payloads]
    results = list(worker_fn(list(payloads), cache))
    if len(results) != len(payloads):
        raise SearchError(
            f"{getattr(worker_fn, '__qualname__', worker_fn)} returned "
            f"{len(results)} results for {len(payloads)} payloads")
    return results


def run_chunk(worker_fn: WorkerFn, payloads: Sequence[Any],
              handle: CacheHandle) -> Tuple[List[Any], CacheStats]:
    """Evaluate one task group; ``(results, cache counts)``.

    The group runs against this process's pool-worker cache for the
    handle's run and reports what it added to that cache. The single
    execution contract every transport fulfils.
    """
    cache = _pool_worker_cache.get(handle)
    before = cache.stats()
    results = run_group(worker_fn, payloads, cache)
    return results, cache.stats() - before


class LocalTransport(Transport):
    """The in-process default: one ProcessPoolExecutor, lazily built.

    Preserves the pre-seam behavior bit for bit: the pool is created on
    first use, recycled across generations, and a sandbox that cannot
    fork degrades to inline evaluation (``available()`` returns False
    after logging) instead of failing the search. ``executor_factory``
    is the test seam for deterministic completion orders and failure
    injection.
    """

    def __init__(self, workers: int,
                 executor_factory: Optional[Callable[[int], Any]] = None,
                 ) -> None:
        self.workers = workers
        self._executor: Optional[Any] = None
        self._executor_factory = executor_factory

    def available(self) -> bool:
        return self._ensure_executor() is not None

    def submit(self, worker_fn: WorkerFn, payloads: Sequence[Any],
               cache: CacheHandle) -> Future:
        executor = self._ensure_executor()
        if executor is None:
            raise TransportUnavailable("process pool unavailable")
        return executor.submit(run_chunk, worker_fn, payloads, cache)

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def shutdown_broken(self) -> None:
        """Tear down a pool that already failed (refusals tolerated)."""
        executor, self._executor = self._executor, None
        if executor is not None:
            try:
                executor.shutdown(wait=False)
            except Exception:  # broken pools may refuse even shutdown
                pass

    def _ensure_executor(self) -> Optional[Any]:
        if self._executor is None:
            # repro: owner(LocalTransport.close, via self._executor)
            factory = self._executor_factory or (
                lambda max_workers: ProcessPoolExecutor(
                    max_workers=max_workers))
            try:
                self._executor = factory(self.workers)
            except OSError as exc:
                # Sandboxes without fork/spawn support still get correct
                # (serial) results; the determinism contract makes the
                # two paths interchangeable.
                logger.warning(
                    "process pool unavailable (%s); evaluating inline", exc)
                return None
        return self._executor
