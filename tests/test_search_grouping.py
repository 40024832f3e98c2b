"""Task partitioning: dispatch shapes and partition independence.

The contract under test: a generation goes out as one contiguous chunk
per worker slot, each chunk one call of a group worker, and the
partition only decides which process evaluates which payloads — never
the results, their order, or the cache semantics.
"""

from concurrent.futures import Future

import pytest

from repro.accelerator.presets import baseline_constraint, baseline_preset
from repro.cost.model import CostModel
from repro.encoding.spaces import EncodingStyle
from repro.errors import SearchError
from repro.experiments.common import tuned_baseline_costs
from repro.models import mobile_benchmark_set
from repro.nas.search import NASBudget, search_architecture
from repro.search.accelerator_search import (
    NAASBudget,
    CandidateTask,
    evaluate_candidates,
    search_accelerator,
)
from repro.search.cache import EvaluationCache
from repro.search.mapping_search import MappingSearchBudget
from repro.search.objectives import geomean_edp
from repro.search.parallel import ParallelEvaluator, split_chunks
from repro.search.transport import (
    LocalTransport,
    Transport,
    group_worker,
    run_chunk,
    run_group,
)
from repro.tensors.layer import ConvLayer
from repro.tensors.network import Network


def _square(payload, cache):
    if cache is None:
        return payload * payload
    return cache.get_or_compute(payload, lambda: payload * payload)


@group_worker
def _squares(payloads, cache):
    """A group worker: one call per task group."""
    _squares.calls.append(list(payloads))
    return [_square(payload, cache) for payload in payloads]


_squares.calls = []


@group_worker
def _short(payloads, cache):
    return payloads[1:]


@group_worker
def _squares_served_here(payloads, cache):
    """A group worker that looks its payloads up in one batch, so a
    probe that refuses it sees which of them the cache holds."""
    if cache is None:
        return [payload * payload for payload in payloads]
    return cache.get_or_compute_many(
        payloads, lambda keys: [key * key for key in keys])


class RecordingTransport(Transport):
    """Synchronous transport that records every submitted group."""

    def __init__(self):
        self.groups = []

    def available(self):
        return True

    def submit(self, worker_fn, payloads, cache):
        self.groups.append(list(payloads))
        future = Future()
        try:
            future.set_result(run_chunk(worker_fn, payloads, cache))
        except BaseException as exc:  # worker exceptions ride the future
            future.set_exception(exc)
        return future

    def close(self):
        pass


class CountingPool(LocalTransport):
    """The process pool, counting its submits."""

    def __init__(self, workers):
        super().__init__(workers)
        self.submits = 0

    def submit(self, worker_fn, payloads, cache):
        self.submits += 1
        return super().submit(worker_fn, payloads, cache)


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
        # The evaluator's worker count alone sets the partition.
        evaluator = ParallelEvaluator(_square, workers=workers,
                                      transport=RecordingTransport())
        payloads = list(range(6))
        assert (evaluator._task_groups(payloads)
                == split_chunks(payloads, workers))


class TestGroupingDeterminism:
    """Every partition of a generation returns the inline results."""

    PAYLOADS = [7, 3, 9, 1, 5, 8, 2, 6, 4, 0, 11, 10]

    @pytest.mark.parametrize("slots", (1, 2, 3, 5, 12))
    def test_every_group_size(self, slots):
        # From one group of all twelve payloads to one group per payload;
        # one worker is the inline path, which dispatches nothing.
        transport = RecordingTransport()
        evaluator = ParallelEvaluator(_square, workers=slots,
                                      transport=transport)
        grouped = evaluator.evaluate(self.PAYLOADS)
        assert transport.groups == (
            [] if slots == 1 else split_chunks(self.PAYLOADS, slots))
        inline = ParallelEvaluator(_square, workers=1)
        assert grouped == inline.evaluate(self.PAYLOADS)
        assert grouped == [p * p for p in self.PAYLOADS]


class TestGroupWorkers:
    """A group worker gets each task group in one call, inline or
    dispatched; any other worker gets one call per payload."""

    def setup_method(self):
        _squares.calls.clear()

    def test_per_payload_worker_is_called_per_payload(self):
        assert run_group(_square, [1, 2, 3], None) == [1, 4, 9]

    def test_inline_generation_is_one_call(self):
        with ParallelEvaluator(_squares, workers=1) as evaluator:
            assert evaluator.evaluate([1, 2, 3, 4]) == [1, 4, 9, 16]
        assert _squares.calls == [[1, 2, 3, 4]]

    def test_wrong_result_count_is_an_error(self):
        with pytest.raises(SearchError, match="2 results for 3 payloads"):
            run_group(_short, [1, 2, 3], None)

    @pytest.mark.parametrize("slots", (1, 3, 7))
    def test_each_dispatched_group_is_one_call(self, slots):
        transport = RecordingTransport()
        evaluator = ParallelEvaluator(_squares, workers=slots,
                                      transport=transport)
        payloads = list(range(7))
        assert evaluator.evaluate(payloads) == [p * p for p in payloads]
        # One worker runs the generation inline, as one group too.
        assert _squares.calls == split_chunks(payloads, slots)
        assert transport.groups == ([] if slots == 1 else _squares.calls)

    def test_tuned_baseline_groups_track_workers(self):
        """Regression: the tuned baseline pre-chunked its networks
        itself. The evaluator alone partitions them now, one task group
        per worker slot."""
        networks = mobile_benchmark_set()
        budget = MappingSearchBudget(3, 2)
        transport = RecordingTransport()
        fanned = tuned_baseline_costs("eyeriss", networks, CostModel(),
                                      budget, seed=0, workers=3,
                                      transport=transport)
        assert len(transport.groups) == 3
        assert [[task.networks[0].name for task in group]
                for group in transport.groups] == [
                    [network.name] for network in networks]
        assert fanned == tuned_baseline_costs(
            "eyeriss", networks, CostModel(), budget, seed=0, workers=1)


class TestHeldPayloads:
    """A companion's payloads are served by the coordinator; only the
    rest is dispatched, and results keep submission order."""

    PAYLOADS = [7, 3, 9, 1, 5, 4]

    def test_held_payloads_never_reach_the_transport(self):
        cache = EvaluationCache()
        for payload in (3, 9, 4):
            cache.get_or_compute(payload, lambda: payload * payload)
        transport = RecordingTransport()
        evaluator = ParallelEvaluator(_squares_served_here, workers=2,
                                      cache=cache, transport=transport)
        assert evaluator.evaluate(self.PAYLOADS) == [
            p * p for p in self.PAYLOADS]
        assert transport.groups == [[7, 1], [5]]
        stats = evaluator.cache_stats
        assert (stats.hits, stats.misses) == (3, 3)

    def test_a_fully_held_batch_asks_no_transport(self):
        cache = EvaluationCache()
        for payload in self.PAYLOADS:
            cache.get_or_compute(payload, lambda: payload * payload)
        transport = RecordingTransport()
        transport.available = None  # must not be called
        evaluator = ParallelEvaluator(_squares_served_here, workers=2,
                                      cache=cache, transport=transport)
        assert evaluator.evaluate(self.PAYLOADS) == [
            p * p for p in self.PAYLOADS]
        assert transport.groups == []

    def test_no_cache_that_could_hold_anything_no_probe(self):
        transport = RecordingTransport()
        evaluator = ParallelEvaluator(_squares_served_here, workers=2,
                                      transport=transport)
        assert evaluator.evaluate(self.PAYLOADS) == [
            p * p for p in self.PAYLOADS]
        assert transport.groups == split_chunks(self.PAYLOADS, 2)
        assert evaluator.cache is None

    def test_warm_tuned_baseline_submits_nothing(self, tmp_path):
        """Regression: tuning had no companion, so a warm rerun over a
        cache directory dispatched every network again. Now each fully
        held network is served here: the rerun submits nothing."""
        networks = mobile_benchmark_set()
        budget = MappingSearchBudget(3, 2)
        cache_dir = str(tmp_path / "cache")
        with CountingPool(2) as pool:
            cold = tuned_baseline_costs("eyeriss", networks, CostModel(),
                                        budget, seed=0, workers=2,
                                        cache_dir=cache_dir, transport=pool)
            assert pool.submits == 2
            warm = tuned_baseline_costs("eyeriss", networks, CostModel(),
                                        budget, seed=0, workers=2,
                                        cache_dir=cache_dir, transport=pool)
            assert pool.submits == 2  # the rerun submitted nothing
        assert warm == cold
        assert cold == tuned_baseline_costs(
            "eyeriss", networks, CostModel(), budget, seed=0, workers=1)

    def test_warm_nas_generation_submits_nothing(self, tmp_path):
        """NAS subnets are candidates of the searches' group worker, so
        a warm rerun over a cache directory is served here as well."""
        kwargs = dict(accuracy_floor=73.0,
                      budget=NASBudget(population=4, iterations=2),
                      mapping_budget=MappingSearchBudget(4, 2), seed=3,
                      workers=2, cache_dir=str(tmp_path / "cache"))
        accel = baseline_preset("nvdla_256")
        with CountingPool(2) as pool:
            cold = search_architecture(accel, CostModel(), transport=pool,
                                       **kwargs)
            assert pool.submits == 2 * 2
            warm = search_architecture(accel, CostModel(), transport=pool,
                                       **kwargs)
            assert pool.submits == 2 * 2  # the rerun submitted nothing
        assert warm == cold


_TINY_NETWORK = Network(name="tiny", layers=(
    ConvLayer(name="a", k=16, c=8, y=14, x=14, r=3, s=3),
    ConvLayer(name="b", k=32, c=16, y=7, x=7, r=1, s=1),
))


def _count_probes(monkeypatch):
    """The caches probed in this process, one entry per probe."""
    probed = []
    probe = EvaluationCache.probe

    def counting_probe(self):
        probed.append(self)
        return probe(self)

    monkeypatch.setattr(EvaluationCache, "probe", counting_probe)
    return probed


class TestProbeCost:
    """What serving held payloads costs the coordinator: no probe while
    its cache holds nothing, one per generation once it holds
    something, and one more per payload only when it holds part of
    the generation."""

    def test_cold_search_probes_nothing(self, tmp_path, monkeypatch):
        """Regression: the coordinator's store is read once per run, so
        on a cold cache directory every generation's probe was refused
        after rendering and checking every digest."""
        probed = _count_probes(monkeypatch)
        budget = NAASBudget(
            accel_population=4, accel_iterations=3,
            mapping=MappingSearchBudget(population=4, iterations=2))
        with CountingPool(2) as pool:
            result = search_accelerator(
                [_TINY_NETWORK], baseline_constraint("nvdla_256"),
                CostModel(), budget=budget, seed=41, workers=2,
                cache_dir=str(tmp_path / "cache"), transport=pool)
            assert pool.submits == 2 * budget.accel_iterations
        assert len(result.history) == budget.accel_iterations
        assert probed == []

    def test_partly_held_generation_probes_each_payload_once(
            self, monkeypatch):
        tasks = [CandidateTask(
            accel=baseline_preset("eyeriss"), networks=(_TINY_NETWORK,),
            cost_model=CostModel(),
            mapping_budget=MappingSearchBudget(population=4, iterations=2),
            entropy=entropy, mapping_style=EncodingStyle.IMPORTANCE,
            reward_fn=geomean_edp) for entropy in (11, 12, 13, 14, 15)]
        held = [tasks[1], tasks[3]]
        cache = EvaluationCache()
        with ParallelEvaluator(evaluate_candidates, cache=cache) as fill:
            fill.evaluate(held)
        probed = _count_probes(monkeypatch)
        transport = RecordingTransport()
        with ParallelEvaluator(evaluate_candidates, workers=2, cache=cache,
                               transport=transport) as evaluator:
            results = evaluator.evaluate(tasks)
        assert len(probed) == 1 + len(tasks)
        assert [task for group in transport.groups for task in group] == [
            task for task in tasks if task not in held]
        assert results == evaluate_candidates(tasks, None)
