"""Parallel candidate evaluation for the nested NAAS loops.

Every generation of the outer searches is embarrassingly parallel: each
candidate accelerator (and, in the joint search, each per-candidate NAS
run) is scored independently. This module provides the execution layer
those searches run on:

- :class:`ParallelEvaluator` is the one evaluation schedule, the
  generational one NAAS describes (sample a population, rank it, update
  the distribution): it partitions a generation into task groups,
  submits them all, lands completions in whatever order they finish
  into one slot per group, and returns them in **submission order**
  once every slot is filled (the generation's commit boundary), which
  is what keeps the ``workers=1`` ↔ ``workers=N`` bit-identity contract
  intact (see below).
- :func:`run_search_loop` is the one generation driver all four outer
  searches (accelerator, joint, NAS, quantization) share: ask a
  generation from a :class:`GenerationLoop`, dispatch the decodable
  members through an evaluator, stitch outcomes back to member slots in
  submission order, tell, record :class:`~repro.search.result.IterationStats`.
- Caches never cross a process boundary. The coordinator's cache
  belongs to its evaluator, which builds it on first use and closes
  it, unless the caller hands one in (see :class:`ParallelEvaluator`).
  It serves inline evaluation, salvage, and the payloads of a batch
  about to be dispatched whose every lookup it already holds: the
  group worker runs here against a
  :meth:`~repro.search.cache.EvaluationCache.probe` of it, which
  refuses before computing anything it does not hold, so a fully warm
  generation never reaches the transport. Each worker process keeps
  its own cache for the run, built from the small
  :class:`~repro.search.diskcache.CacheHandle` (run token and disk
  directory) every task group carries. A task group returns its
  results and the cache counts it added, which the evaluator sums into
  its ``cache_stats``; entries stay where they were computed, and the
  disk tier is how processes share them.
- *Where* a dispatched task group runs is a
  :class:`~repro.search.transport.Transport`, by default the in-process
  ProcessPoolExecutor of :class:`~repro.search.transport.LocalTransport`;
  the evaluator sees only the submit/collect future contract.
- A generation goes out as one contiguous chunk per worker slot. The
  partition only decides which process evaluates which payloads;
  commit order and content-derived seeds do not depend on it, so the
  bit-identity contract below holds for any partition.

Determinism contract
--------------------
``workers=1`` and ``workers=N`` — whatever order task groups complete
in — produce bit-identical search results because the search loops
uphold three invariants:

1. per-candidate seeds are derived *in batch* (``spawn_rngs``) before any
   evaluation is dispatched, so the parent stream never observes
   evaluation order;
2. every stochastic sub-search is seeded from
   :func:`repro.utils.rng.derive_seed` over its cache key, so a cache hit
   returns exactly what a fresh computation would — cache state (and
   therefore worker scheduling) can never change a result, only its
   cost; and
3. tells are applied at *commit boundaries*: results land in their
   group's slot as they complete and are returned in submission order
   once the full generation has landed, so the engines
   (:class:`~repro.search.es.EvolutionEngine` via ``tell``) never
   observe completion order.

Worker functions must be module-level (picklable by qualified name) and
take ``(payload, cache)``, returning a picklable result, or, marked with
:func:`~repro.search.transport.group_worker`, take a whole task group's
``(payloads, cache)`` and return one result per payload. Every task
group is one :func:`~repro.search.transport.run_group` call, inline or
dispatched; at ``workers=1`` a whole generation is one group.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.errors import (
    EncodingError,
    EvaluationTimeout,
    SearchError,
    TransportError,
)
from repro.search.cache import EvaluationCache, NotHeld
from repro.search.diskcache import CacheHandle, build_cache
from repro.search.result import CacheStats, IterationStats
from repro.search.transport import (
    LocalTransport,
    Transport,
    WorkerFn,
    run_group,
)
from repro.utils.logging import get_logger
from repro.utils.rng import seed_entropy, spawn_rngs

logger = get_logger(__name__)

#: The future-failure types that mean "the execution layer broke" (and
#: trigger salvage + inline fallback) rather than "the evaluation
#: raised" (which propagates to the caller unchanged).
_DISPATCH_FAILURES = (OSError, BrokenProcessPool, TransportError)

#: Run tokens, one per evaluator; with the pid, unique on a host.
_run_tokens = itertools.count()


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a ``--workers`` value.

    ``None`` and ``0`` both mean "use every core this process may run
    on": the CPU-affinity set where the platform has one, else
    ``os.cpu_count()``. Positive values are taken literally; negative
    values are rejected.
    """
    if workers is None or workers == 0:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0)) or 1
        return os.cpu_count() or 1
    if workers < 0:
        raise SearchError(f"workers must be >= 0, got {workers}")
    return workers


def split_chunks(items: Sequence[Any], parts: int) -> List[List[Any]]:
    """Split ``items`` into at most ``parts`` contiguous, balanced chunks."""
    if parts < 1:
        raise SearchError(f"parts must be >= 1, got {parts}")
    items = list(items)
    parts = min(parts, len(items))
    if parts == 0:
        return []
    base, extra = divmod(len(items), parts)
    chunks: List[List[Any]] = []
    start = 0
    for index in range(parts):
        size = base + (1 if index < extra else 0)
        chunks.append(items[start:start + size])
        start += size
    return chunks


class ParallelEvaluator:
    """Generational schedule: fan a generation out, commit it in order.

    :meth:`evaluate` partitions the generation into task groups
    (:meth:`_task_groups`), submits them all, lands completions in
    whatever order they finish into one slot per group, and returns
    the results in submission order once every group has landed — the
    commit boundary. Results, and everything the search loops derive
    from them, are therefore bit-identical to the inline ``workers=1``
    path for any completion order and any partition.

    ``workers=1`` evaluates inline against the coordinator's cache — no
    subprocess, no pickling — and is the reference behavior every
    parallel path must reproduce bit-identically.

    A batch that would be dispatched (``workers > 1``) is first served
    here as far as the coordinator's cache holds it: when the cache can
    hold anything (a ``cache`` passed in, or a ``cache_dir``) and the
    worker is a :func:`~repro.search.transport.group_worker`, it runs
    against a probe of the cache
    (:meth:`~repro.search.cache.EvaluationCache.probe`), and only the
    payloads the probe refuses are dispatched, after
    ``transport.available()``. Results are stitched back in submission
    order; content-derived seeds make a held result equal to a
    dispatched one.

    The coordinator's cache has one owner, like the transport. A
    ``cache`` passed in belongs to the caller and is never closed here.
    Otherwise the evaluator builds one over ``cache_dir`` (in memory
    when ``None``) the first time it evaluates inline or probes a
    batch, and :meth:`close` closes it; an in-memory run that only
    dispatches never builds it. Dispatched task groups carry that
    directory (a passed cache's store directory) in their
    :class:`~repro.search.diskcache.CacheHandle`, and
    :attr:`cache_stats` counts every lookup this evaluator made, here
    or in a worker.

    Dispatched task groups run on a
    :class:`~repro.search.transport.Transport`. With ``transport=None``
    the evaluator builds its own
    :class:`~repro.search.transport.LocalTransport`, which creates its
    process pool lazily on the first parallel batch and recycles
    workers across generations; :meth:`close` (or leaving the instance
    as a context manager) shuts that pool down. A transport passed in
    belongs to the caller and is never closed here.
    ``executor_factory`` exists for tests that need deterministic
    control over completion order and failure injection;
    ``eval_timeout`` bounds how long collection waits for *any*
    dispatched task group to finish before routing the stuck work
    through the salvage/inline fallback (a hung — not dead — worker
    must not stall the search).
    """

    #: How long salvage waits for in-flight futures to settle after a
    #: transport failure before declaring them lost (class attribute so
    #: failure-mode tests need not wait out the production grace).
    salvage_grace = 5.0

    def __init__(self, worker_fn: WorkerFn, workers: int = 1,
                 cache: Optional[EvaluationCache] = None,
                 cache_dir: Union[str, Path, None] = None,
                 executor_factory: Optional[Callable[[int], Any]] = None,
                 transport: Optional[Transport] = None,
                 eval_timeout: Optional[float] = None,
                 ) -> None:
        if eval_timeout is not None and eval_timeout <= 0:
            raise SearchError(
                f"eval_timeout must be positive, got {eval_timeout}")
        if transport is not None and not isinstance(transport, Transport):
            raise TransportError(
                f"transport must be a Transport instance or None, "
                f"got {transport!r}")
        self.worker_fn = worker_fn
        self.workers = resolve_workers(workers)
        #: The caller's cache, or the one this evaluator builds (over
        #: ``cache_dir``) on its first inline evaluation.
        self.cache = cache
        self._cache_dir = cache_dir
        self._own_cache: Optional[EvaluationCache] = None
        #: Whether the coordinator's cache can hold anything this
        #: evaluator did not put there: the caller's, or one over a
        #: cache directory. Only then is a batch worth probing.
        self._cache_may_hold = cache is not None or cache_dir is not None
        if cache is not None:
            store = getattr(cache, "store", None)
            cache_dir = None if store is None else store.directory
        #: What every dispatched task group carries instead of a cache.
        self._cache_handle = CacheHandle(
            f"{os.getpid()}-{next(_run_tokens)}",
            None if cache_dir is None else str(Path(cache_dir)))
        #: The lookups of this evaluator's task groups, wherever they ran.
        self.cache_stats = CacheStats(hits=0, misses=0, disk_hits=0)
        self.eval_timeout = eval_timeout
        #: The pool this evaluator built, the one transport it may close
        #: or shut down; a transport handed in is only ever detached.
        self._own_pool: Optional[LocalTransport] = None
        if transport is None:
            # repro: owner(ParallelEvaluator.close)
            transport = self._own_pool = LocalTransport(
                self.workers, executor_factory=executor_factory)
        self._transport: Optional[Transport] = transport

    def close(self) -> None:
        """Shut down the pool and close the cache this evaluator built
        (idempotent).

        Both are rebuilt if the evaluator is used again. A transport or
        cache handed in by the caller is left open for the next search.
        """
        if self._own_pool is not None:
            self._own_pool.close()
        if self._own_cache is not None:
            self._own_cache.close()
            self.cache = self._own_cache = None

    def __enter__(self) -> "ParallelEvaluator":
        return self

    def __exit__(self, *_exc_info: Any) -> None:
        self.close()

    def _dispatching(self) -> bool:
        """Would this batch fan out through the transport? Only with
        more than one worker."""
        return self._transport is not None and self.workers > 1

    def _transport_available(self) -> bool:
        """Can the transport take the batch now?

        A transport that reports itself unavailable — no pool in this
        sandbox — degrades the evaluator to inline for the rest of the
        run.
        """
        transport = self._transport
        if transport.available():
            return True
        self.workers = 1
        self._transport = None
        if transport is self._own_pool:
            transport.close()
        return False

    def _on_own_cache(self, evaluate: Callable[[EvaluationCache], Any],
                      ) -> Any:
        """``evaluate(cache)`` against the coordinator's cache, which is
        built on the first call; its lookups join :attr:`cache_stats`."""
        if self.cache is None:
            # repro: owner(ParallelEvaluator.close)
            self.cache = self._own_cache = build_cache(self._cache_dir)
        before = self.cache.stats()
        outcome = evaluate(self.cache)
        self.cache_stats += self.cache.stats() - before
        return outcome

    def _run_inline(self, payloads: List[Any]) -> List[Any]:
        """One task group's results, evaluated here against the
        coordinator's cache."""
        return self._on_own_cache(
            lambda cache: run_group(self.worker_fn, payloads, cache))

    def _run_probed(self, payloads: List[Any]) -> List[Any]:
        """One task group's results, served by a probe of the
        coordinator's cache, which raises :class:`NotHeld` where a
        lookup would miss; its lookups join :attr:`cache_stats` only
        if it succeeds."""
        probe = self._on_own_cache(lambda cache: cache.probe())
        results = run_group(self.worker_fn, payloads, probe)
        self.cache_stats += probe.stats()
        return results

    def _serve_held(self, payloads: List[Any]) -> Dict[int, Any]:
        """The results, by index, of the payloads the coordinator's
        cache fully holds: a group worker is probed over the whole
        batch, then payload by payload if the refusal shows the cache
        holds part of it. Nothing is probed for other workers or a
        cache that can hold nothing yet."""
        if not (self._cache_may_hold
                and getattr(self.worker_fn, "takes_group", False)):
            return {}
        try:
            return dict(enumerate(self._run_probed(payloads)))
        except NotHeld as refusal:
            if not refusal.partly or len(payloads) == 1:
                return {}
        served: Dict[int, Any] = {}
        for index, payload in enumerate(payloads):
            try:
                served[index] = self._run_probed([payload])[0]
            except NotHeld:
                pass
        return served

    def _group_results(self, future: Future, size: int) -> List[Any]:
        """A landed group's results; its cache counts join the run's.

        Called on the coordinator thread only, for futures known to be
        done (``timeout=0`` turns a broken guarantee into an error). An
        outcome that is not ``(results, counts)`` with one result per
        payload and :class:`~repro.search.result.CacheStats` counts came
        from a broken transport: it would shift every later result onto
        the wrong candidate, so it is a transport failure, salvaged like
        a lost group.
        """
        outcome = future.result(timeout=0)
        if not (isinstance(outcome, tuple) and len(outcome) == 2
                and isinstance(outcome[0], list)
                and len(outcome[0]) == size
                and isinstance(outcome[1], CacheStats)):
            raise TransportError(
                f"malformed outcome for a task group of {size} payloads")
        results, counts = outcome
        self.cache_stats += counts
        return results

    def _wait_any(self, pending: set) -> Tuple[set, set]:
        """Wait until a pending future completes (or ``eval_timeout``).

        An empty ``done`` set means the timeout expired with nothing
        finished; the caller routes the stuck work through the
        salvage/inline path. Overridable seam: the determinism tests
        replace it to replay completion orders deterministically.
        """
        done, still_pending = wait(pending, timeout=self.eval_timeout,
                                   return_when=FIRST_COMPLETED)
        return done, still_pending

    def _degrade_to_inline(self) -> None:
        """Run inline from here on. The pool this evaluator built is
        shut down; a transport handed in is merely detached, and keeps
        serving its other searches."""
        self.workers = 1
        transport, self._transport = self._transport, None
        if transport is not None and transport is self._own_pool:
            transport.shutdown_broken()

    def evaluate(self, payloads: Sequence[Any]) -> List[Any]:
        """Evaluate a generation, returning results in submission order.

        A batch that would be dispatched is first served from the
        coordinator's cache as far as it holds it; only the remainder
        reaches the transport.
        """
        payloads = list(payloads)
        if not payloads:
            return []
        if not self._dispatching():
            return self._run_inline(payloads)
        served = self._serve_held(payloads)
        rest = [payload for index, payload in enumerate(payloads)
                if index not in served]
        results: List[Any] = []
        if rest and self._transport_available():
            groups = self._dispatch(self._task_groups(rest))
            results = [result for group in groups for result in group]
        elif rest:
            results = self._run_inline(rest)
        cursor = iter(results)
        return [served[index] if index in served else next(cursor)
                for index in range(len(payloads))]

    def _task_groups(self, payloads: List[Any]) -> List[List[Any]]:
        """One contiguous chunk per worker slot."""
        return split_chunks(payloads, self.workers)

    def _dispatch(self, groups: List[List[Any]]) -> List[List[Any]]:
        """Submit task groups and gather their results, salvage-aware.

        Every landing happens here, on the coordinator thread, so the
        results are one plain slot per group (``None``: not landed),
        returned in submission order.
        """
        futures: List[Future] = []
        submit_failure: Optional[BaseException] = None
        for group in groups:
            try:
                futures.append(self._transport.submit(
                    self.worker_fn, group, self._cache_handle))
            except _DISPATCH_FAILURES as exc:
                # Fork/spawn can also fail at submit time (seccomp,
                # cgroup limits), not just at pool construction.
                submit_failure = exc
                break
        landed: List[Optional[List[Any]]] = [None] * len(groups)
        failure = submit_failure
        if failure is None:
            failure = self._land_completions(futures, groups, landed)
        if failure is not None:
            self._salvage(failure, futures, groups, landed)
        return landed

    def _land_completions(self, futures: List[Future],
                          groups: List[List[Any]],
                          landed: List[Optional[List[Any]]],
                          ) -> Optional[BaseException]:
        """Land future results into their slots as they complete.

        Returns the transport failure to salvage from, if one occurred
        — including an :class:`~repro.errors.EvaluationTimeout` when no
        group finished within ``eval_timeout``. Worker-raised exceptions
        (anything that is not a transport failure) propagate to the
        caller unchanged.
        """
        index_of: Dict[Future, int] = {
            future: index for index, future in enumerate(futures)}
        pending = set(futures)
        while pending:
            done, pending = self._wait_any(pending)
            if not done:
                return EvaluationTimeout(
                    f"{len(pending)} in-flight task groups made no "
                    f"progress within eval_timeout={self.eval_timeout:g}s")
            for future in done:
                try:
                    index = index_of[future]
                    landed[index] = self._group_results(
                        future, len(groups[index]))
                except _DISPATCH_FAILURES as exc:
                    return exc
        return None

    def _salvage(self, failure: BaseException, futures: List[Future],
                 groups: List[List[Any]],
                 landed: List[Optional[List[Any]]]) -> None:
        """Recover from a mid-generation transport failure, keeping work.

        Futures that completed cleanly before the transport broke keep
        their results (content-derived evaluation seeds make them
        identical to inline recomputations); only the remainder is
        re-evaluated inline, against the coordinator's cache. The
        transport is torn down and the evaluator degrades to inline for
        subsequent generations.
        """
        # Let in-flight futures settle: a broken pool marks them all
        # failed almost immediately, but a clean completion racing the
        # breakage is worth the short wait.
        outstanding = [index for index, results in enumerate(landed)
                       if results is None and index < len(futures)]
        if outstanding:
            wait([futures[index] for index in outstanding],
                 timeout=self.salvage_grace)
        salvaged = 0
        for index in outstanding:
            future = futures[index]
            if (future.done() and not future.cancelled()
                    and future.exception() is None):
                try:
                    landed[index] = self._group_results(
                        future, len(groups[index]))
                except TransportError:
                    continue  # malformed: recomputed inline below
                salvaged += 1
        remainder = [index for index, results in enumerate(landed)
                     if results is None]
        logger.warning(
            "evaluation transport failed (%s); salvaged %d completed task "
            "groups, re-evaluating %d inline", failure, salvaged,
            len(remainder))
        self._degrade_to_inline()
        for index in remainder:
            landed[index] = self._run_inline(groups[index])


class GenerationLoop:
    """Protocol for :func:`run_search_loop`: one object per search run.

    A loop owns the search-specific state (engine or population, best
    tracking, evaluation counters) and exposes the two halves of a
    generation:

    - ``ask(iteration)`` returns one payload per population member, with
      ``None`` marking members that cannot be evaluated (e.g. no valid
      decode); ``None`` slots score ``math.inf`` without dispatching.
    - ``tell(iteration, outcomes)`` receives the outcomes aligned with
      ``ask``'s members (``None`` for skipped slots), folds them into the
      loop's state — engine ``tell``, best-so-far,
      next population — and returns the per-member fitness list the
      generation's :class:`~repro.search.result.IterationStats` are
      computed from.

    ``iterations`` bounds the loop. The driver guarantees ``tell`` sees
    outcomes in submission order whatever order they completed in.
    """

    iterations: int

    def ask(self, iteration: int) -> List[Optional[Any]]:
        raise NotImplementedError

    def tell(self, iteration: int,
             outcomes: List[Optional[Any]]) -> Sequence[float]:
        raise NotImplementedError


def run_search_loop(loop: GenerationLoop,
                    evaluator: ParallelEvaluator) -> List[IterationStats]:
    """Drive a :class:`GenerationLoop` to completion on an evaluator.

    The one generation loop all outer searches share: ask, dispatch the
    decodable members, stitch results back to member slots in submission
    order, tell at the commit boundary, record stats. Returns the
    per-generation history.
    """
    history: List[IterationStats] = []
    for iteration in range(loop.iterations):
        members = loop.ask(iteration)
        tasks = [member for member in members if member is not None]
        results = evaluator.evaluate(tasks)
        cursor = iter(results)
        outcomes = [next(cursor) if member is not None else None
                    for member in members]
        fitnesses = loop.tell(iteration, outcomes)
        stats = IterationStats.from_fitnesses(
            iteration, tuple(fitnesses), len(members))
        history.append(stats)
        # DEBUG, not INFO: this line fires for every generation of every
        # nested loop (the joint search runs a whole inner NAS per
        # candidate), and per-iteration progress is debug-level by the
        # package's logging convention.
        logger.debug("%s gen %d: best %.3e (%d/%d valid)",
                     type(loop).__name__, iteration, stats.best_fitness,
                     stats.valid_count, len(members))
    return history


#: Default re-sampling budget when a sampled vector fails to decode.
DEFAULT_DECODE_ATTEMPTS = 32


def ask_generation(engine: Any, encoder: Any, population: int,
                   iteration: int, injected: Sequence[np.ndarray],
                   rng: np.random.Generator,
                   max_decode_attempts: int = DEFAULT_DECODE_ATTEMPTS,
                   name_prefix: str = "naas",
                   ) -> Tuple[List[np.ndarray], List[Optional[Any]],
                              List[int]]:
    """Ask phase of one batched generation, shared by both outer loops.

    Samples the whole generation up front (warm-start vectors override
    the head of generation 0), decodes each vector with re-sampling on
    :class:`~repro.errors.EncodingError`, and batch-derives one
    evaluation entropy per member *before* anything is dispatched so the
    parent stream never observes evaluation order.

    Returns ``(vectors, configs, entropies)`` — ``configs[i]`` is
    ``None`` when no valid decode was found within
    ``max_decode_attempts``; ``entropies[i]`` seeds member ``i``'s
    evaluation.
    """
    if iteration == 0 and injected:
        head = list(injected[:population])
        vectors = head + engine.ask(population - len(head))
    else:
        vectors = engine.ask(population)
    configs: List[Optional[Any]] = []
    for member in range(population):
        config = None
        for _ in range(max_decode_attempts):
            try:
                config = encoder.decode(
                    vectors[member],
                    name=f"{name_prefix}-g{iteration}m{member}")
                break
            except EncodingError:
                vectors[member] = engine.sample()
        configs.append(config)
    entropies = [seed_entropy(member_rng)
                 for member_rng in spawn_rngs(rng, population)]
    return vectors, configs, entropies
