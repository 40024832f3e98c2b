"""Cost-aware task grouping: sizing, dispatch shapes, determinism.

The contract under test: the :class:`GroupSizer` only changes how the
evaluator *partitions* payloads across transport submissions — never
the results, their order, or the cache semantics. Uncalibrated sizers
must reproduce the ungrouped partitioning exactly (one contiguous chunk
per worker slot), because that is what the rest of the suite's
scripted tests pin down.
"""

from concurrent.futures import Future

import pytest

from repro.search.parallel import (
    GroupSizer,
    ParallelEvaluator,
    split_chunks,
)
from repro.search.transport import Transport, run_chunk


def _square(payload, cache):
    if cache is None:
        return payload * payload
    return cache.get_or_compute(payload, lambda: payload * payload)


class RecordingTransport(Transport):
    """Synchronous transport that records every submitted group."""

    remote = False

    def __init__(self):
        self.groups = []
        self._closed = False

    @property
    def closed(self):
        return self._closed

    def available(self):
        return True

    def capacity(self):
        return 4

    def submit(self, worker_fn, payloads, cache):
        self.groups.append(list(payloads))
        future = Future()
        try:
            future.set_result(run_chunk(worker_fn, payloads, cache))
        except BaseException as exc:  # worker exceptions ride the future
            future.set_exception(exc)
        return future

    def close(self):
        self._closed = True


class FixedSizer:
    """Deterministic stand-in: always the given group size."""

    enabled = True
    calibrated = True

    def __init__(self, size):
        self._size = size

    def size(self, fallback):
        return self._size

    def observe(self, tasks, seconds):
        pass


class TestGroupSizer:
    def test_uncalibrated_returns_fallback(self):
        sizer = GroupSizer(0.05)
        assert not sizer.calibrated
        assert sizer.size(fallback=7) == 7
        assert sizer.size(fallback=0) == 1  # at least one task per group

    def test_zero_target_disables_grouping(self):
        sizer = GroupSizer(0.0)
        sizer.observe(100, 0.001)
        assert not sizer.enabled
        assert not sizer.calibrated
        assert sizer.size(fallback=3) == 3

    def test_calibrates_after_min_tasks(self):
        sizer = GroupSizer(0.05, min_tasks=8)
        sizer.observe(4, 0.04)
        assert not sizer.calibrated
        assert sizer.size(fallback=1) == 1
        sizer.observe(4, 0.04)
        assert sizer.calibrated

    def test_sizes_to_target_over_per_task(self):
        sizer = GroupSizer(0.05, min_tasks=1)
        sizer.observe(10, 0.1)  # 10 ms per task
        assert sizer.size(fallback=1) == 5  # 0.05 / 0.01

    def test_max_group_clamps_cheap_tasks(self):
        sizer = GroupSizer(0.05, max_group=16, min_tasks=1)
        sizer.observe(100, 1e-4)  # a microsecond per task
        assert sizer.size(fallback=1) == 16

    def test_expensive_tasks_stay_ungrouped(self):
        sizer = GroupSizer(0.05, min_tasks=1)
        sizer.observe(2, 2.0)  # a second per task
        assert sizer.size(fallback=1) == 1

    def test_ewma_retracks_within_a_run(self):
        # Calibrated cheap, then the workload turns expensive: the
        # estimate must follow (half weight on the newest sample).
        sizer = GroupSizer(0.05, min_tasks=1)
        sizer.observe(10, 0.01)  # 1 ms/task -> size 50
        assert sizer.size(fallback=1) == 50
        sizer.observe(4, 1.6)    # 400 ms/task lands
        assert sizer.size(fallback=1) <= 1 or sizer.size(fallback=1) < 50

    def test_failed_groups_are_not_observed(self):
        evaluator = ParallelEvaluator(
            _boom, workers=2, transport=RecordingTransport(),
            group_target_seconds=0.05)
        with pytest.raises(RuntimeError):
            evaluator.evaluate([1, 2])
        assert evaluator._sizer._observed == 0


def _boom(payload, cache):
    raise RuntimeError(f"boom {payload}")


class TestGroupedBatched:
    def test_uncalibrated_uses_contiguous_chunks(self):
        transport = RecordingTransport()
        evaluator = ParallelEvaluator(_square, workers=2,
                                      transport=transport)
        payloads = list(range(6))
        assert evaluator.evaluate(payloads) == [p * p for p in payloads]
        assert transport.groups == split_chunks(payloads, 2)

    def test_calibrated_slow_tasks_split_finer(self):
        transport = RecordingTransport()
        evaluator = ParallelEvaluator(_square, workers=2,
                                      transport=transport)
        evaluator._sizer = FixedSizer(1)
        payloads = list(range(6))
        assert evaluator.evaluate(payloads) == [p * p for p in payloads]
        assert transport.groups == [[p] for p in payloads]

    def test_group_size_at_or_above_chunk_keeps_chunking(self):
        transport = RecordingTransport()
        evaluator = ParallelEvaluator(_square, workers=2,
                                      transport=transport)
        evaluator._sizer = FixedSizer(100)
        payloads = list(range(6))
        evaluator.evaluate(payloads)
        assert transport.groups == split_chunks(payloads, 2)

    def test_grouping_capped_to_keep_slots_busy(self):
        transport = RecordingTransport()
        evaluator = ParallelEvaluator(_square, workers=4,
                                      transport=transport)
        evaluator._sizer = FixedSizer(100)
        payloads = list(range(8))
        assert evaluator.evaluate(payloads) == [p * p for p in payloads]
        # 8 payloads over 4 worker slots: groups of 2, never one giant
        # group that would idle three slots.
        assert transport.groups == [[0, 1], [2, 3], [4, 5], [6, 7]]

    def test_grouped_results_stay_in_submission_order(self):
        transport = RecordingTransport()
        evaluator = ParallelEvaluator(_square, workers=4,
                                      transport=transport)
        evaluator._sizer = FixedSizer(3)
        payloads = [5, 1, 4, 2, 3, 9, 8, 7]
        assert evaluator.evaluate(payloads) == [p * p for p in payloads]


class TestGroupingDeterminism:
    """Grouped and ungrouped dispatch must return identical results."""

    PAYLOADS = [7, 3, 9, 1, 5, 8, 2, 6, 4, 0, 11, 10]

    def _ungrouped(self):
        evaluator = ParallelEvaluator(_square, workers=4,
                                      transport=RecordingTransport(),
                                      group_target_seconds=0.0)
        return evaluator.evaluate(self.PAYLOADS)

    @pytest.mark.parametrize("size", (2, 3, 5, 100))
    def test_every_group_size(self, size):
        evaluator = ParallelEvaluator(_square, workers=4,
                                      transport=RecordingTransport())
        evaluator._sizer = FixedSizer(size)
        grouped = evaluator.evaluate(self.PAYLOADS)
        assert grouped == self._ungrouped()
        assert grouped == [p * p for p in self.PAYLOADS]


class TestCalibrationPipeline:
    def test_submit_group_feeds_the_sizer(self):
        transport = RecordingTransport()
        evaluator = ParallelEvaluator(_square, workers=2,
                                      transport=transport,
                                      group_target_seconds=0.05)
        payloads = list(range(10))
        evaluator.evaluate(payloads)
        # Both chunks completed cleanly: all ten tasks observed.
        assert evaluator._sizer._observed == 10

    def test_sizer_learns_reported_busy_time(self):
        # A group's future can land long after its worker finished it
        # (queued behind other groups, or in transit); only the busy
        # seconds the worker reports measure what its tasks cost.
        class ReportingTransport(RecordingTransport):
            def submit(self, worker_fn, payloads, cache):
                future = super().submit(worker_fn, payloads, cache)
                results, counts, _busy = future.result(timeout=0)
                reported = Future()
                reported.set_result((results, counts, 0.01 * len(payloads)))
                return reported

        evaluator = ParallelEvaluator(_square, workers=2,
                                      transport=ReportingTransport(),
                                      group_target_seconds=0.05)
        evaluator.evaluate(list(range(8)))
        assert evaluator._sizer._per_task == pytest.approx(0.01)
        assert evaluator._sizer.size(fallback=4) == 5

    def test_run_chunk_reports_busy_seconds(self):
        results, counts, busy = run_chunk(_square, [2, 3], None)
        assert results == [4, 9] and counts is None
        assert busy >= 0.0

    def test_scripted_executor_seam_disables_grouping(self):
        # Evaluators built over the executor_factory test seam must not
        # calibrate: scripted futures resolve synchronously, which would
        # otherwise teach the sizer that tasks are free.
        class InlineExecutor:
            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

            def shutdown(self, wait=True):
                pass

        evaluator = ParallelEvaluator(
            _square, workers=2,
            executor_factory=lambda workers: InlineExecutor())
        assert not evaluator._sizer.enabled
        evaluator.evaluate(list(range(20)))
        assert not evaluator._sizer.calibrated
