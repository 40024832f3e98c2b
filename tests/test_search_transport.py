"""Failure-mode and determinism suite for the worker transports.

The contract under test: evaluation dispatched over the TCP transport
returns bit-identically what the in-process path returns, and every way
the fleet can misbehave (disconnect mid-job, version skew, torn frames,
duplicate results, silent hangs)
degrades to the salvage/inline path instead of wrong results or a hung
search.

Workers run as in-process threads (``run_worker`` against a real
socket), so the suite exercises the actual wire protocol without
process-spawn latency; the CLI-level two-process topology is covered by
the ``distributed`` CI job.
"""

import contextlib
import io
import pickle
import socket
import threading
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.accelerator.presets import baseline_constraint, baseline_preset
from repro.cost.model import CostModel
from repro.errors import EvaluationTimeout, TransportError
from repro.nas.search import NASBudget
from repro.search.accelerator_search import NAASBudget, search_accelerator
from repro.search.cache import EvaluationCache
from repro.search.diskcache import (
    CacheHandle,
    DiskCacheStore,
    RunCache,
    build_cache,
)
from repro.search.mapping_search import MappingSearchBudget
from repro.search.parallel import ParallelEvaluator
from repro.search.pareto import sweep_accuracy_frontier
from repro.search.result import CacheStats
from repro.search import transport as transport_module
from repro.search.transport import (
    HEARTBEAT,
    HELLO,
    JOB,
    PROTOCOL_VERSION,
    RESULT,
    WELCOME,
    _FRAME,
    _MAGIC,
    LocalTransport,
    ProtocolError,
    TcpTransport,
    TornFrame,
    Transport,
    VersionMismatch,
    body_digest,
    encode_frame,
    job_context,
    parse_address,
    recv_frame,
    run_worker,
)
from repro.tensors.layer import ConvLayer
from repro.tensors.network import Network


def _square(payload, cache):
    if cache is None:
        return payload * payload
    return cache.get_or_compute(payload, lambda: payload * payload)


def _boom(payload, cache):
    raise RuntimeError(f"boom {payload}")


# ---------------------------------------------------------------------------
# Harness: a coordinator with an in-thread worker fleet.
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def tcp_fleet(count=2, cache_dirs=None, **transport_kwargs):
    """A TcpTransport with ``count`` thread workers connected to it."""
    transport_kwargs.setdefault("connect_timeout", 10.0)
    transport_kwargs.setdefault("heartbeat_grace", 10.0)
    transport = TcpTransport(bind="127.0.0.1:0", **transport_kwargs)
    address = f"{transport.address[0]}:{transport.address[1]}"
    stop = threading.Event()
    errors = []

    def serve(cache_dir):
        try:
            run_worker(address, cache_dir=cache_dir, retry_for=10.0,
                       heartbeat_interval=0.2, stop_event=stop)
        except Exception as exc:  # surfaced by the test teardown
            errors.append(exc)

    threads = []
    for index in range(count):
        cache_dir = cache_dirs[index] if cache_dirs else None
        thread = threading.Thread(target=serve, args=(cache_dir,),
                                  daemon=True)
        thread.start()
        threads.append(thread)
    assert transport.wait_for_workers(count, timeout=10.0) == count
    try:
        yield transport
    finally:
        stop.set()
        transport.close()
        for thread in threads:
            thread.join(timeout=5.0)
        assert not errors, errors


def _raw_worker_socket(transport):
    """Handshake a bare socket so a test can script worker behavior."""
    sock = socket.create_connection(transport.address, timeout=10.0)
    sock.sendall(encode_frame(HELLO, {"pid": 0}))
    sock.settimeout(10.0)
    frame = recv_frame(sock)
    assert frame is not None and frame[0] == WELCOME
    return sock


# ---------------------------------------------------------------------------
# Framing and addresses.
# ---------------------------------------------------------------------------


class TestFraming:
    def roundtrip(self, payload_frames):
        server, client = socket.socketpair()
        server.settimeout(5.0)
        try:
            for frame in payload_frames:
                client.sendall(frame)
            client.close()
            received = []
            while True:
                frame = recv_frame(server)
                if frame is None:
                    return received
                received.append(frame)
        finally:
            server.close()

    def test_roundtrip_header_and_body(self):
        frames = self.roundtrip([
            encode_frame(JOB, {"job": 7, "digest": "abc"}, b"\x00\x01binary"),
            encode_frame(HEARTBEAT),
        ])
        assert frames[0] == (JOB, {"kind": JOB, "job": 7, "digest": "abc"},
                             b"\x00\x01binary")
        assert frames[1][0] == HEARTBEAT and frames[1][2] == b""

    def test_clean_eof_between_frames_is_none(self):
        assert self.roundtrip([]) == []

    def test_torn_frame_mid_prefix(self):
        with pytest.raises(TornFrame):
            self.roundtrip([encode_frame(HEARTBEAT)[:5]])

    def test_torn_frame_mid_body(self):
        frame = encode_frame(JOB, {"job": 1}, b"x" * 64)
        with pytest.raises(TornFrame):
            self.roundtrip([frame[:-10]])

    def test_bad_magic_is_protocol_error(self):
        with pytest.raises(ProtocolError):
            self.roundtrip([b"JUNK" + encode_frame(HEARTBEAT)[4:]])

    def test_version_mismatch_detected(self):
        frame = bytearray(encode_frame(HEARTBEAT))
        frame[4] = PROTOCOL_VERSION + 1  # the version byte
        with pytest.raises(VersionMismatch):
            self.roundtrip([bytes(frame)])

    def test_implausible_lengths_rejected(self):
        prefix = _FRAME.pack(_MAGIC, PROTOCOL_VERSION, 2**24, 0)
        with pytest.raises(ProtocolError):
            self.roundtrip([prefix])

    def test_parse_address(self):
        assert parse_address("10.0.0.2:7070") == ("10.0.0.2", 7070)
        for bad in ("localhost", ":7070", "host:", "host:notaport",
                    "host:70707"):
            with pytest.raises(TransportError):
                parse_address(bad)

    def test_job_context_tracks_identity(self):
        class Task:
            def __init__(self, entropy):
                self.entropy = entropy
                self.mapping_budget = MappingSearchBudget()
        same = job_context([Task(3)])
        assert same == job_context([Task(3)])
        assert same != job_context([Task(4)])
        assert set(same) == {"entropy", "budget"}




# ---------------------------------------------------------------------------
# Happy path over real sockets.
# ---------------------------------------------------------------------------


class TestTcpEvaluate:
    def test_fanned_out_matches_inline(self):
        payloads = list(range(9))
        with tcp_fleet(count=2) as transport:
            with ParallelEvaluator(_square, workers=2,
                                   transport=transport) as evaluator:
                assert evaluator.evaluate(payloads) == [
                    p * p for p in payloads]

    def test_batched_single_remote_worker_still_dispatches(self):
        with tcp_fleet(count=1) as transport:
            with ParallelEvaluator(_square, workers=1,
                                   transport=transport) as evaluator:
                assert evaluator.evaluate([3, 4, 5]) == [9, 16, 25]

    def test_worker_deltas_merge_into_master_cache(self):
        """The counts each worker's groups add are summed into the
        evaluator's stats; the entries stay in the workers."""
        cache = EvaluationCache()
        with tcp_fleet(count=2) as transport:
            with ParallelEvaluator(_square, workers=2, cache=cache,
                                   transport=transport) as evaluator:
                evaluator.evaluate([1, 2, 3, 4])
        assert len(cache) == 0  # entries stay in the workers
        assert evaluator.cache_stats.misses == 4

    def test_worker_reads_through_its_own_disk_cache(self, tmp_path):
        cache_dir = str(tmp_path / "worker-cache")
        # Warm the worker-side store out of band.
        with build_cache(cache_dir) as warm:
            warm.get_or_compute(3, lambda: 9, disk_key="digest-of-3")
        # The coordinator's cache is in-memory (its handle names no
        # directory); the worker still caches over its own --cache-dir.
        cache = EvaluationCache()
        with tcp_fleet(count=1, cache_dirs=[cache_dir]) as transport:
            with ParallelEvaluator(_disk_square, workers=2, cache=cache,
                                   transport=transport) as evaluator:
                assert evaluator.evaluate([2, 3]) == [4, 9]
        stats = evaluator.cache_stats
        assert (stats.hits, stats.disk_hits, stats.misses) == (1, 1, 1)
        with build_cache(cache_dir) as stats:
            assert stats.store.get("digest-of-2")[0]  # worker appended it

    def test_worker_exception_propagates(self):
        with tcp_fleet(count=1) as transport:
            with ParallelEvaluator(_boom, workers=2,
                                   transport=transport) as evaluator:
                with pytest.raises(RuntimeError, match="boom"):
                    evaluator.evaluate([1])

    def test_search_accelerator_over_tcp_is_bit_identical(self):
        budget = NAASBudget(accel_population=4, accel_iterations=2,
                            mapping=MappingSearchBudget(population=4,
                                                        iterations=2))
        network = Network(name="tiny", layers=(
            ConvLayer(name="a", k=16, c=8, y=14, x=14, r=3, s=3),
            ConvLayer(name="b", k=32, c=16, y=7, x=7, r=1, s=1),
        ))
        serial = search_accelerator(
            [network], baseline_constraint("nvdla_256"), CostModel(),
            budget=budget, seed=19)
        with tcp_fleet(count=2) as transport:
            remote = search_accelerator(
                [network], baseline_constraint("nvdla_256"), CostModel(),
                budget=budget, seed=19, workers=2, transport=transport)
        assert remote == serial
        assert remote.history == serial.history


def _disk_square(payload, cache):
    if cache is None:
        return payload * payload
    return cache.get_or_compute(payload, lambda: payload * payload,
                                disk_key=f"digest-of-{payload}")


# ---------------------------------------------------------------------------
# Failure modes.
# ---------------------------------------------------------------------------


class TestWorkerDisconnect:
    def test_disconnect_mid_job_requeues_to_surviving_worker(self):
        with tcp_fleet(count=1) as transport:
            vanish = _raw_worker_socket(transport)
            assert transport.wait_for_workers(2, timeout=5.0) == 2

            def eat_one_job_and_die():
                frame = recv_frame(vanish)
                assert frame is not None and frame[0] == JOB
                vanish.close()

            eater = threading.Thread(target=eat_one_job_and_die, daemon=True)
            eater.start()
            with ParallelEvaluator(_square, workers=2,
                                   transport=transport) as evaluator:
                assert evaluator.evaluate(list(range(6))) == [
                    p * p for p in range(6)]
            eater.join(timeout=5.0)

    def test_last_worker_dying_falls_back_inline(self):
        transport = TcpTransport(bind="127.0.0.1:0", connect_timeout=10.0,
                                 heartbeat_grace=10.0)
        try:
            vanish = _raw_worker_socket(transport)

            def eat_one_job_and_die():
                recv_frame(vanish)
                vanish.close()

            eater = threading.Thread(target=eat_one_job_and_die, daemon=True)
            eater.start()
            evaluator = ParallelEvaluator(_square, workers=2,
                                          transport=transport)
            evaluator.salvage_grace = 0.5
            assert evaluator.evaluate([1, 2, 3]) == [1, 4, 9]
            # Degraded to inline; later generations still work.
            assert evaluator.workers == 1
            assert evaluator.evaluate([5]) == [25]
            eater.join(timeout=5.0)
        finally:
            transport.close()

    def test_torn_result_frame_counts_as_disconnect(self):
        transport = TcpTransport(bind="127.0.0.1:0", connect_timeout=10.0,
                                 heartbeat_grace=2.0)
        try:
            liar = _raw_worker_socket(transport)

            def answer_with_half_a_frame():
                frame = recv_frame(liar)
                assert frame is not None and frame[0] == JOB
                whole = encode_frame(RESULT, {"job": frame[1]["job"]},
                                     b"x" * 64)
                liar.sendall(whole[: len(whole) // 2])
                liar.close()

            thread = threading.Thread(target=answer_with_half_a_frame,
                                      daemon=True)
            thread.start()
            evaluator = ParallelEvaluator(_square, workers=2,
                                          transport=transport)
            evaluator.salvage_grace = 0.5
            assert evaluator.evaluate([7]) == [49]  # salvaged inline
            thread.join(timeout=5.0)
        finally:
            transport.close()

    def test_no_worker_ever_connecting_degrades_inline(self):
        transport = TcpTransport(bind="127.0.0.1:0", connect_timeout=0.2)
        try:
            with ParallelEvaluator(_square, workers=2,
                                   transport=transport) as evaluator:
                assert evaluator.evaluate([1, 2]) == [1, 4]
                assert evaluator.workers == 1
        finally:
            transport.close()


class TestProtocolRejections:
    def test_foreign_protocol_version_is_rejected(self):
        with tcp_fleet(count=1) as transport:
            sock = socket.create_connection(transport.address, timeout=10.0)
            try:
                hello = bytearray(encode_frame(HELLO, {"pid": 0}))
                hello[4] = PROTOCOL_VERSION + 9
                sock.sendall(bytes(hello))
                sock.settimeout(10.0)
                frame = recv_frame(sock)
                assert frame is not None
                kind, header, _body = frame
                assert kind == "reject"
                assert "protocol" in header["reason"]
                # The real worker is untouched: evaluations still run.
                with ParallelEvaluator(_square, workers=2,
                                       transport=transport) as evaluator:
                    assert evaluator.evaluate([2]) == [4]
            finally:
                sock.close()

    def test_worker_side_version_mismatch_raises(self):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()[:2]

        def reject_all():
            conn, _addr = listener.accept()
            recv_frame(conn)
            conn.sendall(encode_frame("reject", {"reason": "protocol v0"}))
            conn.close()

        thread = threading.Thread(target=reject_all, daemon=True)
        thread.start()
        try:
            with pytest.raises(VersionMismatch):
                run_worker(f"{host}:{port}", retry_for=5.0)
            thread.join(timeout=5.0)
        finally:
            listener.close()

    def test_tampered_job_body_is_refused_not_evaluated(self):
        """A body whose digest disagrees comes back as a transport
        failure (inline fallback), never as a silently-wrong result."""
        with tcp_fleet(count=1) as transport:
            body = b"not the pickle the digest promises"
            header = {"job": 0, "digest": body_digest(b"something else"),
                      "context": {}}
            future = Future()
            from repro.search.transport import _Job
            transport._queue.put(_Job(job_id=0, header=header, body=body,
                                      future=future))
            with pytest.raises(ProtocolError, match="digest"):
                raise future.exception(timeout=10.0)


#: What a raw test peer reports for a group that looked nothing up.
_NO_LOOKUPS = CacheStats(hits=0, misses=0, disk_hits=0)


class TestDuplicateResults:
    def test_duplicate_result_frames_are_dropped(self):
        transport = TcpTransport(bind="127.0.0.1:0", connect_timeout=10.0,
                                 heartbeat_grace=10.0)
        try:
            chatty = _raw_worker_socket(transport)

            def answer_every_job_twice():
                for _ in range(2):
                    frame = recv_frame(chatty)
                    if frame is None or frame[0] != JOB:
                        return
                    job_id = frame[1]["job"]
                    _fn, payloads = pickle.loads(frame[2])
                    outcome = ([p * p for p in payloads], _NO_LOOKUPS)
                    body = pickle.dumps(outcome)
                    # An answer for a job nobody asked about, the real
                    # answer, then the real answer again.
                    chatty.sendall(encode_frame(RESULT, {"job": 999}, body))
                    chatty.sendall(encode_frame(RESULT, {"job": job_id},
                                                body))
                    chatty.sendall(encode_frame(RESULT, {"job": job_id},
                                                body))
                chatty.close()

            thread = threading.Thread(target=answer_every_job_twice,
                                      daemon=True)
            thread.start()
            with ParallelEvaluator(_square, workers=2,
                                   transport=transport) as evaluator:
                # Two sequential generations: the duplicate from job 0
                # must not be mistaken for job 1's answer.
                assert evaluator.evaluate([3]) == [9]
                assert evaluator.evaluate([5]) == [25]
            thread.join(timeout=5.0)
        finally:
            transport.close()


class TestMalformedOutcomes:
    """A RESULT body that is not ``(results, counts)`` with one result
    per payload is a transport failure: salvaged and re-evaluated
    inline, never returned as a misaligned generation."""

    @pytest.mark.parametrize("answer", [
        lambda squares: (squares[:-1], _NO_LOOKUPS),
        lambda squares: (squares + [-1], _NO_LOOKUPS),
        lambda squares: (squares, None),
        lambda squares: squares,
    ], ids=["short", "long", "no_counts", "non_tuple"])
    def test_malformed_result_is_recomputed_inline(self, answer):
        transport = TcpTransport(bind="127.0.0.1:0", connect_timeout=10.0,
                                 heartbeat_grace=10.0)
        try:
            liar = _raw_worker_socket(transport)

            def answer_one_job():
                frame = recv_frame(liar)
                assert frame is not None and frame[0] == JOB
                _fn, payloads = pickle.loads(frame[2])
                squares = [p * p for p in payloads]
                liar.sendall(encode_frame(RESULT, {"job": frame[1]["job"]},
                                          pickle.dumps(answer(squares))))
                liar.close()

            thread = threading.Thread(target=answer_one_job, daemon=True)
            thread.start()
            with ParallelEvaluator(_square, workers=2,
                                   transport=transport) as evaluator:
                evaluator.salvage_grace = 0.5
                assert evaluator.evaluate([2, 3]) == [4, 9]
                assert evaluator.workers == 1  # degraded to inline
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        finally:
            transport.close()


class TestCloseReleasesPort:
    def test_closed_transport_stops_listening(self):
        """A closed coordinator must not keep accepting on its port (its
        accept thread would otherwise hold the listener open)."""
        transport = TcpTransport(bind="127.0.0.1:0")
        host, port = transport.address
        transport.close()
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection((host, port), timeout=5.0).close()
        TcpTransport(bind=f"{host}:{port}").close()  # the port rebinds


class TestGracefulDrain:
    def test_stop_event_drains_and_says_goodbye(self):
        transport = TcpTransport(bind="127.0.0.1:0", connect_timeout=10.0)
        stop = threading.Event()
        done = {}

        def serve():
            address = f"{transport.address[0]}:{transport.address[1]}"
            done["stats"] = run_worker(address, retry_for=10.0,
                                       heartbeat_interval=0.2,
                                       stop_event=stop)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            assert transport.wait_for_workers(1, timeout=10.0) == 1
            with ParallelEvaluator(_square, workers=2,
                                   transport=transport) as evaluator:
                # One connected worker: each generation is one job.
                assert evaluator.evaluate([2, 3]) == [4, 9]
                assert evaluator.evaluate([4]) == [16]
                stop.set()
                thread.join(timeout=5.0)
            assert done["stats"].jobs == 2
            assert done["stats"].drained
        finally:
            stop.set()
            transport.close()

    def test_max_jobs_bounds_a_worker(self):
        with tcp_fleet(count=1):
            pass  # fleet teardown itself exercises goodbye-on-close


# ---------------------------------------------------------------------------
# Evaluation timeouts: a hung (not dead) worker must not stall a search.
# ---------------------------------------------------------------------------


class StallTransport(Transport):
    """Futures that never complete — a perfectly hung remote fleet."""

    remote = True
    closed = False

    def __init__(self):
        self.submitted = []

    def available(self):
        return True

    def capacity(self):
        return 2

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
        assert evaluator.workers == 1  # degraded: hung fleet abandoned

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

    def test_chunks_track_remote_fleet(self):
        with tcp_fleet(count=2) as transport:
            with ParallelEvaluator(_square, workers=1,
                                   transport=transport) as evaluator:
                # One coordinator-side worker, but a two-worker fleet:
                # one chunk per connected worker.
                assert evaluator._task_groups([1, 2, 3, 4]) == [
                    [1, 2], [3, 4]]
                assert evaluator.evaluate([1, 2, 3, 4]) == [1, 4, 9, 16]


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
    """A caller-owned transport outlives each search using it — the
    contract multi-search experiments (`run_experiment`) rely on."""

    def test_evaluator_close_leaves_shared_transport_open(self):
        with tcp_fleet(count=1) as transport:
            for round_payloads in ([1, 2], [3, 4]):
                with ParallelEvaluator(_square, workers=2,
                                       transport=transport) as evaluator:
                    assert evaluator.evaluate(round_payloads) == [
                        p * p for p in round_payloads]
            assert not transport.closed
            assert transport.connected_workers() == 1  # fleet survived

    def test_degrade_detaches_but_does_not_close_shared_transport(self):
        transport = StallTransport()
        evaluator = ParallelEvaluator(_square, workers=2,
                                      transport=transport, eval_timeout=0.1)
        evaluator.salvage_grace = 0.1
        closed = []
        transport.close = lambda: closed.append(True)
        assert evaluator.evaluate([3]) == [9]  # timed out, ran inline
        assert evaluator._transport is None  # detached for this search
        assert not closed  # the shared fleet keeps serving others

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

    def test_run_experiment_leaves_caller_instance_open(self, monkeypatch):
        from repro.experiments import registry
        from repro.experiments.runner import ExperimentResult

        monkeypatch.setitem(
            registry.EXPERIMENTS, "fake",
            lambda **kwargs: ExperimentResult(experiment="fake", headers=(),
                                              rows=[], claims={}))
        transport = TcpTransport(bind="127.0.0.1:0", connect_timeout=0.1)
        try:
            registry.run_experiment("fake", transport=transport)
            assert not transport.closed  # the caller's fleet survives
        finally:
            transport.close()

    def test_connect_wait_is_paid_once_per_transport(self):
        transport = TcpTransport(bind="127.0.0.1:0", connect_timeout=0.3)
        try:
            start = time.monotonic()
            assert not transport.available()  # pays the full wait once
            first = time.monotonic() - start
            start = time.monotonic()
            assert not transport.available()  # later searches fail fast
            second = time.monotonic() - start
            assert first >= 0.25
            assert second < 0.2
        finally:
            transport.close()

    def test_submit_after_last_worker_left_fails_the_future(self):
        """Regression for the submit/unregister race: a job queued just
        as the last pump thread exits must fail over, never hang."""
        transport = TcpTransport(bind="127.0.0.1:0", connect_timeout=5.0)
        try:
            sock = _raw_worker_socket(transport)
            sock.close()
            deadline = time.monotonic() + 5.0
            while (transport.connected_workers()
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            future = transport.submit(_square, [3], CacheHandle("race"))
            with pytest.raises(TransportError):
                future.result(timeout=5.0)
        except TransportError:
            pass  # submit itself may already refuse: equally safe
        finally:
            transport.close()


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
    if kind == "tcp":
        with tcp_fleet(count=1) as transport:  # one loop serves every run
            yield transport
        return
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
    @pytest.mark.parametrize("kind", ["pool", "tcp"])
    def test_back_to_back_runs_match_fresh_runs(self, kind, monkeypatch):
        """Regression: one transport serves searches back to back; each
        must return what a fresh inline run returns."""
        fresh = [_isolation_search(seed, workers=1, mapping=mapping)
                 for seed, mapping in _BACK_TO_BACK]
        assert _back_to_back(kind, monkeypatch) == fresh

    @pytest.mark.parametrize("kind", ["pool", "tcp"])
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


class TestFrontierSweepOverTcp:
    def test_worker_caches_in_its_own_directory(self, tmp_path):
        """The coordinator's cache directory never travels in a floor's
        payload: a remote worker caches under its own --cache-dir."""
        coordinator_dir = tmp_path / "coordinator"
        worker_dir = tmp_path / "worker"
        kwargs = dict(
            accuracy_floors=[72.0, 76.0],
            nas_budget=NASBudget(population=4, iterations=2),
            mapping_budget=MappingSearchBudget(population=4, iterations=2),
            seed=4)
        local = sweep_accuracy_frontier(
            baseline_preset("nvdla_256"), CostModel(), **kwargs)
        with tcp_fleet(count=1, cache_dirs=[str(worker_dir)]) as transport:
            remote = sweep_accuracy_frontier(
                baseline_preset("nvdla_256"), CostModel(),
                cache_dir=str(coordinator_dir), transport=transport,
                **kwargs)
        assert remote == local
        assert list(worker_dir.glob("shard-*"))
        assert not list(coordinator_dir.glob("*"))
