"""Task partitioning: dispatch shapes and partition independence.

The contract under test: a generation goes out as one contiguous chunk
per worker slot (per connected worker on a remote transport), and the
partition only decides which process evaluates which payloads — never
the results, their order, or the cache semantics.
"""

from concurrent.futures import Future

import pytest

from repro.search.parallel import ParallelEvaluator, split_chunks
from repro.search.transport import Transport, run_chunk


def _square(payload, cache):
    if cache is None:
        return payload * payload
    return cache.get_or_compute(payload, lambda: payload * payload)


class RecordingTransport(Transport):
    """Synchronous transport that records every submitted group."""

    def __init__(self, slots=4, remote=False):
        self.groups = []
        self.slots = slots
        self.remote = remote
        self._closed = False

    @property
    def closed(self):
        return self._closed

    def available(self):
        return True

    def capacity(self):
        return self.slots

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


class TestGroupedBatched:
    def test_uncalibrated_uses_contiguous_chunks(self):
        transport = RecordingTransport()
        evaluator = ParallelEvaluator(_square, workers=2,
                                      transport=transport)
        payloads = list(range(6))
        assert evaluator.evaluate(payloads) == [p * p for p in payloads]
        assert transport.groups == split_chunks(payloads, 2)

    @pytest.mark.parametrize("workers", (1, 3, 7))
    def test_local_groups_are_one_chunk_per_worker_slot(self, workers):
        # A local transport's own capacity does not matter: the
        # evaluator's worker count sets the partition.
        evaluator = ParallelEvaluator(_square, workers=workers,
                                      transport=RecordingTransport(slots=4))
        payloads = list(range(6))
        assert (evaluator._task_groups(payloads)
                == split_chunks(payloads, workers))


class TestGroupingDeterminism:
    """Every partition of a generation returns the inline results."""

    PAYLOADS = [7, 3, 9, 1, 5, 8, 2, 6, 4, 0, 11, 10]

    @pytest.mark.parametrize("slots", (1, 2, 3, 5, 12))
    def test_every_group_size(self, slots):
        # From one group of all twelve payloads to one group per payload.
        transport = RecordingTransport(slots=slots, remote=True)
        evaluator = ParallelEvaluator(_square, workers=1,
                                      transport=transport)
        grouped = evaluator.evaluate(self.PAYLOADS)
        assert transport.groups == split_chunks(self.PAYLOADS, slots)
        inline = ParallelEvaluator(_square, workers=1)
        assert grouped == inline.evaluate(self.PAYLOADS)
        assert grouped == [p * p for p in self.PAYLOADS]
