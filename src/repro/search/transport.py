"""Pluggable worker transports: where a dispatched evaluation runs.

The evaluator in :mod:`repro.search.parallel` submits *task groups* —
``(worker_fn, payloads, cache handle)`` triples — and collect
:class:`~concurrent.futures.Future` results. This module owns the seam
between that submit/collect surface and the machinery that actually
executes a group:

- :class:`LocalTransport` (``--transport local``, the default; an
  evaluator handed no transport builds its own) wraps the in-process
  :class:`~concurrent.futures.ProcessPoolExecutor` exactly as the
  evaluator used it before the seam existed: lazy pool creation,
  graceful degradation to inline evaluation when the sandbox cannot
  fork, and the ``executor_factory`` test hook.
- :class:`TcpTransport` (``--transport tcp``) dispatches task groups to
  remote worker processes (``repro worker --connect HOST:PORT``) over
  length-prefixed, versioned frames. The coordinator binds and listens;
  workers dial in, so a fleet can be pointed at a coordinator with one
  address and no inbound connectivity of its own.

Wire protocol
-------------
Every frame is ``magic | version | header-length | body-length`` (a
fixed :mod:`struct` prefix) followed by a JSON header and an opaque
binary body::

    !4sBII  NTP1  <version>  <header bytes>  <body bytes>

The header names the frame ``kind`` (hello / welcome / reject / job /
result / error / heartbeat / goodbye) and carries the job id plus
integrity digests; job and result bodies are pickles, exactly what the
process pool would have shipped. Workers are trusted peers executing
our own code on our own machines — the transport authenticates protocol
compatibility, not identity; do not expose the bind address to
untrusted networks.

A ``job`` header carries a blake2b digest of the body plus
:func:`job_context` content digests over the payloads' seed entropy,
mapping-search budget and cost-model parameters. The worker recomputes
all of them after unpickling and refuses a job whose digests disagree:
a torn body the length prefix did not catch, or — the case that matters
for distributed determinism — a worker running skewed code whose
dataclass ``repr`` no longer matches the coordinator's, which would
silently break the content-derived cache keys and seeds that keep
workers=1 and workers=N bit-identical.

Caches
------
A cache never crosses a process boundary. A task group carries a
:class:`~repro.search.diskcache.CacheHandle`; a pool worker process,
and each :func:`run_worker` loop, keeps one
:class:`~repro.search.diskcache.RunCache` for the run it serves (over
TCP only the run token travels, and the worker caches over its own
``--cache-dir``). A group returns its results and the cache counts it
added, which the coordinator's evaluator sums into its
``cache_stats``; the coordinator's own cache is the evaluator's (see
:mod:`repro.search.parallel`) and serves inline evaluation, salvage
and the payloads it already holds, which are never submitted. Every
evaluation is seeded from content digests, so cache state can change
only cost, never results.

Failure model
-------------
A worker disconnect mid-job requeues the job to the remaining workers
(bounded attempts); when no worker is left, the job's future fails with
:class:`WorkerDisconnect` and the evaluator salvages completed work and
re-evaluate the remainder inline — the same path a broken process pool
takes, so a search finishes (more slowly, never wrongly) whatever the
fleet does. A hung worker is caught twice: the coordinator drops
connections silent past the heartbeat grace, and the evaluator's
``eval_timeout`` routes any still-stuck ticket through the same salvage
path.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import queue
import select
import signal
import socket
import struct
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
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

from repro.errors import SearchError, TransportError
from repro.search.cache import EvaluationCache
from repro.search.diskcache import CacheHandle, RunCache, content_digest
from repro.search.result import CacheStats
from repro.utils.logging import get_logger

logger = get_logger(__name__)

#: A worker maps ``(payload, cache-or-None)`` to a picklable result;
#: a :func:`group_worker` maps ``(payloads, cache-or-None)`` to one
#: result per payload. :func:`run_group` calls either kind.
WorkerFn = Callable[[Any, Optional[EvaluationCache]], Any]
#: The group form: ``(payloads, cache-or-None)`` to one result each.
GroupFn = Callable[[List[Any], Optional[EvaluationCache]], List[Any]]
#: A group worker's companion: ``(payloads, cache)`` to the results of
#: the payloads the cache fully holds, keyed by payload index.
HeldFn = Callable[[List[Any], EvaluationCache], Dict[int, Any]]

#: Bumped on any incompatible change to framing, header or body semantics
#: (v4: a job body's worker may be a group worker, called once per job).
PROTOCOL_VERSION = 4

_MAGIC = b"NTP1"
#: magic | protocol version | header length | body length
_FRAME = struct.Struct("!4sBII")
_MAX_HEADER = 1 << 20          # 1 MiB of JSON is already absurd
_MAX_BODY = 1 << 30            # 1 GiB bounds a garbage length prefix

#: Frame kinds (the ``kind`` field of the JSON header).
HELLO = "hello"
WELCOME = "welcome"
REJECT = "reject"
JOB = "job"
RESULT = "result"
ERROR = "error"
HEARTBEAT = "heartbeat"
GOODBYE = "goodbye"


class ProtocolError(TransportError):
    """The peer sent bytes that are not a well-formed protocol frame."""


class TornFrame(ProtocolError):
    """The connection ended (or timed out) in the middle of a frame."""


class VersionMismatch(ProtocolError):
    """The peer speaks a different protocol version; refused up front."""


class WorkerDisconnect(TransportError):
    """A remote worker vanished with our evaluation still in flight."""


class TransportUnavailable(TransportError):
    """The transport cannot accept submissions (closed, or no workers)."""


def parse_address(text: str) -> Tuple[str, int]:
    """Parse ``HOST:PORT`` into a ``(host, port)`` pair."""
    host, sep, port_text = str(text).rpartition(":")
    if not sep or not host:
        raise TransportError(
            f"worker address must look like HOST:PORT, got {text!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise TransportError(
            f"invalid port in worker address {text!r}") from None
    if not 0 <= port <= 65535:
        raise TransportError(f"port out of range in worker address {text!r}")
    return host, port


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


def encode_frame(kind: str, header: Optional[Dict[str, Any]] = None,
                 body: bytes = b"") -> bytes:
    """One wire frame: fixed prefix, JSON header, opaque body."""
    payload = dict(header or {})
    payload["kind"] = kind
    header_bytes = json.dumps(payload, sort_keys=True).encode()
    return (_FRAME.pack(_MAGIC, PROTOCOL_VERSION, len(header_bytes),
                        len(body))
            + header_bytes + body)


class _Drain(Exception):
    """Internal: an idle check asked the read loop to stop waiting."""


#: How long a started frame may stall (no bytes arriving) before it is
#: declared torn, independent of the socket's poll timeout.
FRAME_STALL_GRACE = 30.0


def _recv_exact(sock: socket.socket, count: int, started: bool,
                idle_check: Optional[Callable[[], None]] = None,
                grace: float = FRAME_STALL_GRACE) -> bytes:
    """Read exactly ``count`` bytes.

    A clean EOF before the first byte of a *frame* (``started=False``)
    returns ``b""`` so callers can treat it as a normal disconnect; an
    EOF, or ``grace`` seconds without progress after a frame has begun,
    raises :class:`TornFrame`. While no frame is in progress a socket
    timeout runs ``idle_check`` (worker loops poll their stop flag
    there); with no ``idle_check``, idle silence past the socket
    timeout is itself torn — that is how the coordinator's heartbeat
    grace reaps a wedged worker.
    """
    chunks: List[bytes] = []
    received = 0
    last_progress = time.monotonic()
    while received < count:
        try:
            chunk = sock.recv(count - received)
        except socket.timeout:
            if received or started:
                # Mid-frame: tolerate slow links up to the stall grace.
                if time.monotonic() - last_progress > grace:
                    raise TornFrame(
                        f"frame stalled after {received} bytes")
                continue
            if idle_check is None:
                raise TornFrame("no frame within the read deadline")
            idle_check()
            continue
        if not chunk:
            if received or started:
                raise TornFrame(
                    f"connection closed mid-frame after {received} bytes")
            return b""
        chunks.append(chunk)
        received += len(chunk)
        last_progress = time.monotonic()
    return b"".join(chunks)


def recv_frame(sock: socket.socket,
               idle_check: Optional[Callable[[], None]] = None,
               ) -> Optional[Tuple[str, Dict[str, Any], bytes]]:
    """Read one frame; ``None`` on clean EOF between frames.

    Raises :class:`TornFrame` for a truncated frame,
    :class:`VersionMismatch` for a foreign protocol version and
    :class:`ProtocolError` for garbage (bad magic, oversized lengths,
    undecodable header).
    """
    prefix = _recv_exact(sock, _FRAME.size, started=False,
                         idle_check=idle_check)
    if not prefix:
        return None
    magic, version, header_len, body_len = _FRAME.unpack(prefix)
    if magic != _MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise VersionMismatch(
            f"peer speaks protocol v{version}, this side v{PROTOCOL_VERSION}")
    if header_len > _MAX_HEADER or body_len > _MAX_BODY:
        raise ProtocolError(
            f"implausible frame lengths (header={header_len}, "
            f"body={body_len})")
    header_bytes = _recv_exact(sock, header_len, started=True)
    body = _recv_exact(sock, body_len, started=True)
    try:
        header = json.loads(header_bytes)
        kind = header["kind"]
    except (ValueError, KeyError) as exc:
        raise ProtocolError(f"undecodable frame header ({exc})") from None
    return kind, header, body


def _send_frame(sock: socket.socket, kind: str,
                header: Optional[Dict[str, Any]] = None,
                body: bytes = b"",
                lock: Optional[threading.Lock] = None) -> None:
    frame = encode_frame(kind, header, body)
    if lock is None:
        sock.sendall(frame)
        return
    with lock:
        sock.sendall(frame)


# ---------------------------------------------------------------------------
# Job identity: what travels alongside the pickled payloads.
# ---------------------------------------------------------------------------


def body_digest(body: bytes) -> str:
    """Integrity digest of a frame body (cheap, order-independent of IO)."""
    return hashlib.blake2b(body, digest_size=16).hexdigest()


def job_context(payloads: Sequence[Any]) -> Dict[str, str]:
    """Content digests of the evaluation identity the payloads carry.

    Pulls the fields the search task dataclasses share — per-candidate
    seed entropy, the mapping/NAS search budgets and the cost-model
    parameters — and digests their ``repr`` with the same scheme the
    disk-cache keys use. The worker recomputes these from the unpickled
    payloads; a mismatch means the two sides' class definitions (and
    therefore their cache keys and derived seeds) have diverged, which
    would silently break distributed bit-identity — so the job is
    refused instead.
    """
    entropies: List[Any] = []
    budgets: List[Any] = []
    params: List[Any] = []
    for payload in payloads:
        entropy = getattr(payload, "entropy", None)
        if entropy is not None:
            entropies.append(entropy)
        for attr in ("mapping_budget", "nas_budget"):
            budget = getattr(payload, attr, None)
            if budget is not None:
                budgets.append(budget)
        cost_model = getattr(payload, "cost_model", None)
        cost_params = getattr(cost_model, "params", None)
        if cost_params is not None:
            params.append(cost_params)
    digests: Dict[str, str] = {}
    if entropies:
        digests["entropy"] = content_digest(tuple(entropies))
    if budgets:
        digests["budget"] = content_digest(tuple(budgets))
    if params:
        digests["cost_params"] = content_digest(tuple(params))
    return digests


# ---------------------------------------------------------------------------
# The transport seam.
# ---------------------------------------------------------------------------


class Transport:
    """Where dispatched task groups run; futures carry their outcomes.

    ``submit`` returns a :class:`~concurrent.futures.Future` resolving
    to ``(results, cache counts)`` — the exact contract of
    :func:`run_chunk` — so the evaluator's commit boundary, salvage
    logic and scripted-completion test seams work identically over any
    transport. ``remote`` transports are dispatched to even when the
    evaluator's ``workers`` is 1 (the parallelism lives elsewhere).

    A transport belongs to whoever built it: use it as a ``with`` item
    (``__exit__`` closes it) and pass it to any number of evaluators,
    which never close a transport they were handed.
    """

    #: True when task groups leave this process.
    remote = False

    @property
    def closed(self) -> bool:
        raise NotImplementedError

    def available(self) -> bool:
        """Can this transport execute work right now?

        May lazily create resources (pools, worker connections); a
        ``False`` return means the evaluator should run inline instead.
        """
        raise NotImplementedError

    def capacity(self) -> int:
        """How many task groups can usefully run concurrently."""
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

    def describe(self) -> str:
        return type(self).__name__


#: The run cache of this process when it serves as a pool worker. A
#: pool worker keeps nothing between tasks but module state; run tokens
#: keep the runs of one process's callers apart.
_pool_worker_cache = RunCache()


def group_worker(worker_fn: Optional[GroupFn] = None, *,
                 held: Optional[HeldFn] = None,
                 ) -> Union[WorkerFn, Callable[[GroupFn], WorkerFn]]:
    """Mark ``worker_fn`` as evaluating a whole task group in one call.

    A group worker takes ``(payloads, cache)`` and returns one result
    per payload, in order, so it can share work across the group (the
    NAAS candidates of a group run one lockstep mapping search). The
    mark is a function attribute, so it travels with the function's
    qualified name to pool and TCP workers.

    ``held`` is the worker's optional companion: given a generation's
    payloads and a cache, it evaluates the payloads whose every lookup
    the cache already holds and returns their results by payload index,
    leaving the rest alone. Before dispatching a generation the
    coordinator's :class:`~repro.search.parallel.ParallelEvaluator`
    serves those payloads itself, so a warm generation never reaches
    the transport. Used bare (``@group_worker``) or with the companion
    (``@group_worker(held=...)``).
    """
    def mark(fn: GroupFn) -> WorkerFn:
        fn.takes_group = True
        fn.held = held
        return fn

    return mark if worker_fn is None else mark(worker_fn)


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
              handle: CacheHandle, run_cache: Optional[RunCache] = None,
              ) -> Tuple[List[Any], CacheStats]:
    """Evaluate one task group; ``(results, cache counts)``.

    The group runs against ``run_cache``'s cache for the handle's run
    (this process's pool-worker cache by default) and reports what it
    added to that cache. The single execution contract every transport
    (process pool, TCP worker) fulfills.
    """
    cache = (run_cache or _pool_worker_cache).get(handle)
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

    @property
    def closed(self) -> bool:
        return False  # a closed pool is rebuilt on the next available()

    def available(self) -> bool:
        return self._ensure_executor() is not None

    def capacity(self) -> int:
        return max(1, self.workers)

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

    def describe(self) -> str:
        return f"local({self.workers} workers)"

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


@dataclasses.dataclass
class _Job:
    """One dispatched task group awaiting a remote result."""

    job_id: int
    header: Dict[str, Any]
    body: bytes
    future: Future
    attempts: int = 0


class _WorkerConn:
    """Coordinator-side state for one connected worker."""

    def __init__(self, worker_id: str, sock: socket.socket,
                 grace: float) -> None:
        self.worker_id = worker_id
        self.sock = sock
        self.send_lock = threading.Lock()
        self.jobs_done = 0
        #: Read deadline for this worker: several of ITS advertised
        #: heartbeat intervals, never below the transport's floor — a
        #: worker pulsing every 60s must not be reaped after 30s.
        self.grace = grace


class TcpTransport(Transport):
    """Coordinator side of ``--transport tcp``.

    Binds ``bind`` (``--workers-addr``), accepts ``repro worker``
    connections, and feeds submitted task groups to whichever worker is
    free — a single shared queue, so a slow worker never holds jobs
    hostage while a fast one idles. Which host evaluates which group is
    immaterial to results: the evaluator commits in submission order and every
    evaluation is content-seeded, so the workers=1 ↔ workers=N
    bit-identity holds across machines exactly as it does across
    processes.
    """

    remote = True

    #: How many times a job is re-dispatched after worker failures
    #: before its future fails over to the evaluator's inline path.
    max_attempts = 3

    # The worker table and job-id counter are touched from the accept
    # loop, per-worker pump threads, and the coordinator; lint enforces
    # that every access outside __init__ holds the lock.
    _GUARDED_BY = {"_workers": "_lock", "_next_job_id": "_lock"}

    def __init__(self, bind: str = "127.0.0.1:0",
                 connect_timeout: float = 60.0,
                 heartbeat_grace: float = 30.0) -> None:
        host, port = parse_address(bind)
        self.connect_timeout = connect_timeout
        self.heartbeat_grace = heartbeat_grace
        self._lock = threading.Lock()
        self._workers: Dict[str, _WorkerConn] = {}
        self._queue: "queue.Queue[_Job]" = queue.Queue()
        self._closed = False
        self._ever_connected = threading.Event()
        self._gave_up_waiting = False
        self._next_job_id = 0
        self._threads: List[threading.Thread] = []

        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(64)
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="tcp-transport-accept",
            daemon=True)
        self._accept_thread.start()

    # ----- Transport surface --------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def available(self) -> bool:
        """True once at least one worker has connected.

        Blocks up to ``connect_timeout`` for the first worker, so a
        coordinator started moments before its fleet does not degrade
        to inline evaluation by accident — but a mistyped address makes
        the search proceed locally (with a warning) instead of hanging.
        One full wait per transport: once it has expired empty, later
        callers (the next searches of an experiment sharing this
        transport) fail fast instead of re-paying the timeout — unless
        a worker has shown up in the meantime.
        """
        if self._closed:
            return False
        wait_for = 0.0 if self._gave_up_waiting else self.connect_timeout
        if self._ever_connected.wait(timeout=wait_for):
            return True
        if not self._gave_up_waiting:
            self._gave_up_waiting = True
            logger.warning(
                "no worker connected to %s:%d within %.0fs; evaluating "
                "inline", self.address[0], self.address[1],
                self.connect_timeout)
        return False

    def capacity(self) -> int:
        with self._lock:
            return max(1, len(self._workers))

    def connected_workers(self) -> int:
        with self._lock:
            return len(self._workers)

    def wait_for_workers(self, count: int, timeout: float = 60.0) -> int:
        """Block until ``count`` workers are connected (or timeout)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            connected = self.connected_workers()
            if connected >= count:
                return connected
            time.sleep(0.05)
        return self.connected_workers()

    def submit(self, worker_fn: WorkerFn, payloads: Sequence[Any],
               cache: CacheHandle) -> Future:
        if self._closed:
            raise TransportUnavailable("transport is closed")
        if self._ever_connected.is_set() and self.connected_workers() == 0:
            raise TransportUnavailable("all workers disconnected")
        body = pickle.dumps((worker_fn, list(payloads)),
                            protocol=pickle.HIGHEST_PROTOCOL)
        with self._lock:
            job_id = self._next_job_id
            self._next_job_id += 1
        # Only the run token travels: workers cache over their own dirs.
        header = {"job": job_id, "digest": body_digest(body),
                  "context": job_context(payloads),
                  "cache": cache.token}
        job = _Job(job_id=job_id, header=header, body=body, future=Future())
        self._queue.put(job)
        # Re-check AFTER the put: the last pump thread may have drained
        # the queue and exited between the guard above and the put, in
        # which case nothing would ever fail this job's future and a
        # search with no eval_timeout would wait on it forever.
        if self._ever_connected.is_set() and self.connected_workers() == 0:
            self._fail_queued(WorkerDisconnect("all workers disconnected"))
        return job.future

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            # close() alone leaves a socket blocked in accept() listening
            # on Linux, so the port keeps taking connections; shutdown
            # wakes the accept thread first.
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            workers = list(self._workers.values())
            self._workers.clear()
        for worker in workers:
            try:
                _send_frame(worker.sock, GOODBYE, lock=worker.send_lock)
            except OSError:
                pass
            try:
                worker.sock.close()
            except OSError:
                pass
        self._fail_queued(TransportUnavailable("transport closed"))
        for thread in self._threads:
            thread.join(timeout=2.0)

    def describe(self) -> str:
        return (f"tcp({self.address[0]}:{self.address[1]}, "
                f"{self.connected_workers()} workers)")

    # ----- coordinator internals ----------------------------------------

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                sock, addr = self._listener.accept()
            except OSError:
                return  # listener closed
            thread = threading.Thread(
                target=self._serve_worker, args=(sock, addr),
                name=f"tcp-transport-worker-{addr[0]}:{addr[1]}",
                daemon=True)
            self._threads.append(thread)
            thread.start()

    def _serve_worker(self, sock: socket.socket,
                      addr: Tuple[str, int]) -> None:
        worker = None
        try:
            # Accepted sockets must carry SO_REUSEADDR themselves: their
            # TIME_WAIT remnants otherwise block a later coordinator
            # from rebinding this port (sequential searches, CI steps).
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            worker = self._handshake(sock, addr)
        except (ProtocolError, OSError) as exc:
            logger.warning("rejected connection from %s:%d: %s",
                           addr[0], addr[1], exc)
            try:
                sock.close()
            except OSError:
                pass
            return
        if worker is None:
            return
        try:
            self._pump_jobs(worker)
        finally:
            self._unregister(worker)

    def _handshake(self, sock: socket.socket,
                   addr: Tuple[str, int]) -> Optional[_WorkerConn]:
        sock.settimeout(self.heartbeat_grace)
        try:
            frame = recv_frame(sock)
        except VersionMismatch as exc:
            # Best-effort: our framing may still be legible to them.
            try:
                _send_frame(sock, REJECT, {"reason": str(exc)})
            except OSError:
                pass
            raise
        if frame is None:
            raise ProtocolError("connection closed before hello")
        kind, header, _body = frame
        if kind != HELLO:
            raise ProtocolError(f"expected hello, got {kind!r}")
        worker_id = (f"{addr[0]}:{addr[1]}"
                     f"/pid{header.get('pid', '?')}")
        try:
            interval = float(header.get("heartbeat_interval") or 0.0)
        except (TypeError, ValueError):
            interval = 0.0
        grace = max(self.heartbeat_grace, 6.0 * interval)
        _send_frame(sock, WELCOME, {"coordinator_pid": os.getpid()})
        worker = _WorkerConn(worker_id, sock, grace=grace)
        with self._lock:
            if self._closed:
                sock.close()
                return None
            self._workers[worker_id] = worker
        self._ever_connected.set()
        logger.info("worker %s connected", worker_id)
        return worker

    def _pump_jobs(self, worker: _WorkerConn) -> None:
        """Feed queue jobs to one worker until it (or we) go away."""
        while not self._closed:
            try:
                job = self._queue.get(timeout=0.25)
            except queue.Empty:
                if not self._poll_idle(worker):
                    return
                continue
            if self._closed:
                self._requeue(job, WorkerDisconnect("transport closed"))
                return
            if not self._run_job(worker, job):
                return

    def _poll_idle(self, worker: _WorkerConn) -> bool:
        """Drain idle-time frames (heartbeats, goodbye); False = gone."""
        try:
            while select.select([worker.sock], [], [], 0)[0]:
                worker.sock.settimeout(worker.grace)
                frame = recv_frame(worker.sock)
                if frame is None or frame[0] == GOODBYE:
                    return False
                if frame[0] != HEARTBEAT:
                    logger.warning("unexpected idle frame %r from %s",
                                   frame[0], worker.worker_id)
        except (ProtocolError, OSError, ValueError):
            # ValueError: the socket was closed under us (coordinator
            # shutdown), leaving a -1 file descriptor.
            return False
        return True

    def _run_job(self, worker: _WorkerConn, job: _Job) -> bool:
        """Dispatch one job to one worker; False = worker unusable."""
        job.attempts += 1
        try:
            _send_frame(worker.sock, JOB, job.header, job.body,
                        lock=worker.send_lock)
            outcome = self._await_result(worker, job)
        except (TransportError, OSError) as exc:
            # Disconnects, torn frames, stalled sockets: the job is
            # lost on this worker, not necessarily on the fleet.
            self._requeue(job, exc)
            return False
        if isinstance(outcome, BaseException):
            job.future.set_exception(outcome)
        else:
            job.future.set_result(outcome)
        worker.jobs_done += 1
        return True

    def _await_result(self, worker: _WorkerConn, job: _Job) -> Any:
        """Read frames until this job's result or error arrives.

        Heartbeats reset the read deadline; frames for other job ids
        (a duplicate result from a retried job that ended up completing
        twice) are logged and dropped, never delivered — the commit
        buffer's double-land guard stays unreachable from the wire.
        """
        worker.sock.settimeout(worker.grace)
        while True:
            frame = recv_frame(worker.sock)
            if frame is None:
                raise WorkerDisconnect(
                    f"worker {worker.worker_id} disconnected mid-job")
            kind, header, body = frame
            if kind == HEARTBEAT:
                continue
            if kind == GOODBYE:
                raise WorkerDisconnect(
                    f"worker {worker.worker_id} drained mid-job")
            if kind not in (RESULT, ERROR):
                raise ProtocolError(f"unexpected frame {kind!r} mid-job")
            if header.get("job") != job.job_id:
                logger.warning(
                    "dropping duplicate %s frame for job %s from %s "
                    "(waiting on job %d)", kind, header.get("job"),
                    worker.worker_id, job.job_id)
                continue
            if kind == ERROR:
                return self._decode_error(header, body)
            try:
                return pickle.loads(body)
            except Exception as exc:
                raise ProtocolError(
                    f"undecodable result for job {job.job_id} ({exc})")

    def _decode_error(self, header: Dict[str, Any],
                      body: bytes) -> BaseException:
        """Reconstruct a worker-side exception (fallback: TransportError).

        Worker-raised evaluation errors propagate to the caller exactly
        as they would from a process pool; protocol-level refusals
        (digest mismatch) surface as :class:`ProtocolError`, which the
        evaluator treats as a transport failure and salvages from.
        """
        if header.get("protocol"):
            return ProtocolError(header.get("message", "worker refused job"))
        try:
            exc = pickle.loads(body)
            if isinstance(exc, BaseException):
                return exc
        except Exception:
            pass
        return TransportError(
            f"worker evaluation failed: {header.get('message', 'unknown')}")

    def _requeue(self, job: _Job, cause: BaseException) -> None:
        """Give a lost job to the remaining fleet, or fail it over."""
        if (not self._closed and job.attempts < self.max_attempts
                and self.connected_workers() > 0):
            logger.warning(
                "requeueing job %d after %s (attempt %d/%d)", job.job_id,
                cause, job.attempts, self.max_attempts)
            self._queue.put(job)
            return
        if not job.future.done():
            job.future.set_exception(
                cause if isinstance(cause, TransportError)
                else WorkerDisconnect(str(cause)))

    def _unregister(self, worker: _WorkerConn) -> None:
        with self._lock:
            self._workers.pop(worker.worker_id, None)
            remaining = len(self._workers)
        try:
            worker.sock.close()
        except OSError:
            pass
        logger.info("worker %s disconnected after %d jobs (%d remaining)",
                    worker.worker_id, worker.jobs_done, remaining)
        if remaining == 0 and not self._closed:
            # Nobody left to serve the queue: fail queued jobs so the
            # evaluator falls back inline instead of waiting forever.
            self._fail_queued(WorkerDisconnect(
                "all workers disconnected"))

    def _fail_queued(self, cause: TransportError) -> None:
        while True:
            try:
                job = self._queue.get_nowait()
            except queue.Empty:
                return
            if not job.future.done():
                job.future.set_exception(cause)


# ---------------------------------------------------------------------------
# The worker side: ``repro worker --connect HOST:PORT``.
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class WorkerStats:
    """What a worker loop did before it exited."""

    jobs: int = 0
    failures: int = 0
    drained: bool = False


def _connect_with_retry(host: str, port: int,
                        retry_for: float) -> socket.socket:
    """Dial the coordinator, retrying while it may still be starting."""
    deadline = time.monotonic() + max(0.0, retry_for)
    while True:
        try:
            # repro: owner(run_worker, which closes in its finally)
            return socket.create_connection((host, port), timeout=10.0)
        except OSError as exc:
            if time.monotonic() >= deadline:
                raise TransportError(
                    f"could not connect to coordinator at {host}:{port} "
                    f"within {retry_for:.0f}s ({exc})") from exc
            time.sleep(0.2)


def _worker_handshake(sock: socket.socket,
                      heartbeat_interval: float) -> None:
    _send_frame(sock, HELLO, {
        "pid": os.getpid(),
        "host": socket.gethostname(),
        "heartbeat_interval": heartbeat_interval,
    })
    frame = recv_frame(sock)
    if frame is None:
        raise TransportError("coordinator closed during handshake")
    kind, header, _body = frame
    if kind == REJECT:
        raise VersionMismatch(
            header.get("reason", "coordinator rejected this worker"))
    if kind != WELCOME:
        raise ProtocolError(f"expected welcome, got {kind!r}")


class _Heartbeat:
    """Background thread pulsing heartbeats while a worker is connected.

    Runs independently of the (synchronous) evaluation loop, so the
    coordinator can tell a long evaluation from a dead peer; if the
    worker process truly wedges, the pulse stops and the coordinator's
    heartbeat grace reaps the connection.
    """

    def __init__(self, sock: socket.socket, send_lock: threading.Lock,
                 interval: float) -> None:
        self._sock = sock
        self._send_lock = send_lock
        self._interval = max(0.1, interval)
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._pulse, name="repro-worker-heartbeat", daemon=True)

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *_exc_info: Any) -> None:
        self._stop.set()
        self._thread.join(timeout=2.0)

    def _pulse(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                _send_frame(self._sock, HEARTBEAT, lock=self._send_lock)
            except OSError:
                return


def run_worker(connect: str,
               cache_dir: Optional[str] = None,
               retry_for: float = 30.0,
               heartbeat_interval: float = 5.0,
               stop_event: Optional[threading.Event] = None,
               max_jobs: Optional[int] = None,
               install_signal_handlers: bool = False) -> WorkerStats:
    """Serve evaluations for a coordinator until told to stop.

    Connects to ``HOST:PORT`` (retrying for ``retry_for`` seconds so
    fleet and coordinator can start in any order), then loops: receive
    a job frame, verify its integrity and context digests, evaluate the
    task group against this loop's cache for the job's run — over this
    host's own persistent store when ``cache_dir`` is set — and return
    the :func:`run_chunk` outcome. Exits cleanly when the coordinator
    says goodbye or closes, after ``max_jobs`` jobs, or — gracefully,
    finishing the in-flight job first — when ``stop_event`` is set or
    SIGTERM/SIGINT arrives (with ``install_signal_handlers``).
    """
    host, port = parse_address(connect)
    stop = stop_event if stop_event is not None else threading.Event()
    if (install_signal_handlers
            and threading.current_thread() is threading.main_thread()):
        # Signal handlers can only be installed from the main thread;
        # embedded workers (tests, notebooks) drain via stop_event.
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, lambda *_args: stop.set())
    # Owned by this loop, not the process: embedded workers are threads.
    run_cache = RunCache()
    stats = WorkerStats()
    sock = _connect_with_retry(host, port, retry_for)
    send_lock = threading.Lock()
    try:
        sock.settimeout(10.0)
        _worker_handshake(sock, heartbeat_interval)
        logger.info("connected to coordinator %s:%d", host, port)
        sock.settimeout(0.5)

        def idle_check() -> None:
            if stop.is_set():
                raise _Drain()

        with _Heartbeat(sock, send_lock, heartbeat_interval):
            while not stop.is_set():
                try:
                    frame = recv_frame(sock, idle_check=idle_check)
                except _Drain:
                    break
                if frame is None:
                    return stats
                kind, header, body = frame
                if kind == GOODBYE:
                    return stats
                if kind == HEARTBEAT:
                    continue
                if kind != JOB:
                    raise ProtocolError(
                        f"unexpected frame {kind!r} from coordinator")
                _serve_job(sock, send_lock, header, body, run_cache,
                           cache_dir, stats)
                if max_jobs is not None and stats.jobs >= max_jobs:
                    break
        stats.drained = True
        try:
            _send_frame(sock, GOODBYE, lock=send_lock)
        except OSError:
            pass
        return stats
    finally:
        run_cache.close()
        try:
            sock.close()
        except OSError:
            pass


def _serve_job(sock: socket.socket, send_lock: threading.Lock,
               header: Dict[str, Any], body: bytes, run_cache: RunCache,
               cache_dir: Optional[str], stats: WorkerStats) -> None:
    """Verify, evaluate and answer one job frame."""
    job_id = header.get("job")
    if header.get("digest") != body_digest(body):
        _send_frame(sock, ERROR,
                    {"job": job_id, "protocol": True,
                     "message": "job body digest mismatch (torn frame?)"},
                    lock=send_lock)
        stats.failures += 1
        return
    try:
        worker_fn, payloads = pickle.loads(body)
    except Exception as exc:
        _send_frame(sock, ERROR,
                    {"job": job_id, "protocol": True,
                     "message": f"undecodable job body ({exc})"},
                    lock=send_lock)
        stats.failures += 1
        return
    expected = header.get("context", {})
    actual = job_context(payloads)
    if expected != actual:
        _send_frame(sock, ERROR,
                    {"job": job_id, "protocol": True,
                     "message": "job context digests disagree — "
                                "coordinator/worker code versions differ"},
                    lock=send_lock)
        stats.failures += 1
        return
    try:
        # The run's cache lives under this worker's own directory.
        handle = CacheHandle(header["cache"], cache_dir)
        outcome = run_chunk(worker_fn, payloads, handle, run_cache)
    except Exception as exc:
        try:
            exc_body = pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            exc_body = b""
        _send_frame(sock, ERROR,
                    {"job": job_id, "message": repr(exc)}, exc_body,
                    lock=send_lock)
        stats.failures += 1
        return
    _send_frame(sock, RESULT, {"job": job_id},
                pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL),
                lock=send_lock)
    stats.jobs += 1
