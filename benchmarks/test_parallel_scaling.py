"""Bench: the parallel evaluation engine vs. the serial search path.

``test_parallel_scaling`` runs the same NAAS hardware search with
``workers=1`` and ``workers=2`` and verifies the determinism contract
(bit-identical best reward and config) while recording both
wall-clocks. On multi-core machines the parallel path approaches
generation-level linear speedup; constrained CI boxes (this suite
tolerates a single core) only get the correctness check plus a
bounded-overhead assertion, since there is no parallel hardware for the
fan-out to exploit.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.accelerator.presets import baseline_constraint
from repro.cost.model import CostModel
from repro.search.accelerator_search import NAASBudget, search_accelerator
from repro.search.diskcache import CacheHandle
from repro.search.mapping_search import MappingSearchBudget
from repro.search.parallel import resolve_workers
from repro.search.transport import LocalTransport
from repro.tensors.layer import ConvLayer
from repro.tensors.network import Network

RESULTS_DIR = Path(__file__).parent / "results"

#: Mid-size budget: enough mapping-search work per candidate for the
#: fan-out to amortize dispatch overhead (the vectorized cost batch
#: makes each generation one numpy pass, so the per-candidate task is
#: real compute, not interpreter overhead), small enough for CI.
BUDGET = NAASBudget(accel_population=8, accel_iterations=3,
                    mapping=MappingSearchBudget(population=24, iterations=5))

NETWORK = Network(name="bench", layers=(
    ConvLayer(name="stem", k=32, c=16, y=28, x=28, r=3, s=3),
    ConvLayer(name="mid", k=64, c=32, y=14, x=14, r=3, s=3),
    ConvLayer(name="head", k=128, c=64, y=7, x=7, r=1, s=1),
))


def _noop(payload, cache):
    return payload


def _warmed_transport(workers: int) -> LocalTransport:
    """A LocalTransport whose worker processes already exist.

    Excluding process spawn, a fixed cost, makes the serial/parallel
    comparison measure the execution layer, not fork latency.
    """
    transport = LocalTransport(workers)
    assert transport.available()
    warm_up = CacheHandle("warm-up")
    for future in [transport.submit(_noop, [index], warm_up)
                   for index in range(workers)]:
        future.result(timeout=60.0)
    return transport


def _run(workers: int, transport=None):
    start = time.perf_counter()
    result = search_accelerator(
        [NETWORK], baseline_constraint("nvdla_256"), CostModel(),
        budget=BUDGET, seed=0, workers=workers, transport=transport)
    return result, time.perf_counter() - start


def test_parallel_scaling(benchmark):
    # Best-of-2 on both sides: a single measurement at this ~1 s scale
    # is at the mercy of whatever else the CI box is doing.
    serial, serial_time = _run(workers=1)
    serial_time = min(serial_time, _run(workers=1)[1])

    transport = _warmed_transport(2)
    result_box = {}

    def target():
        result_box["outcome"] = _run(workers=2, transport=transport)
        return result_box["outcome"]

    try:
        benchmark.pedantic(target, rounds=2, iterations=1)
    finally:
        transport.close()
    parallel, _last_time = result_box["outcome"]
    parallel_time = benchmark.stats.stats.min

    # Determinism contract: the worker count must never change results
    # (the two-worker side splits each generation into two chunks, so
    # which process scores a candidate must not matter either).
    assert parallel.best_reward == serial.best_reward
    assert parallel.best_config == serial.best_config
    assert parallel.history == serial.history

    speedup = serial_time / parallel_time if parallel_time else float("inf")
    # The CPUs this process may run on (its affinity set), not the
    # host's count, which overcounts on a restricted host.
    cores = resolve_workers(0)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "parallel_scaling.txt").write_text(
        f"serial (workers=1) : {serial_time:8.3f} s\n"
        f"parallel (workers=2): {parallel_time:8.3f} s\n"
        f"speedup             : {speedup:8.2f}x\n"
        f"best reward         : {serial.best_reward:.6e}\n"
        f"cpu cores           : {cores}\n"
        f"notes               : batched schedule, pre-warmed pool, "
        f"one chunk per worker"
        f"{'' if cores >= 2 else '; single-core box, overhead bound only'}"
        f"\n")
    print(f"\nserial {serial_time:.3f}s  parallel {parallel_time:.3f}s  "
          f"speedup {speedup:.2f}x on {cores} core(s)")

    if cores >= 2:
        # The tentpole bar: with the vectorized cost batch carrying the
        # per-candidate compute and one dispatch per worker a
        # generation, two workers must actually beat the serial path.
        assert speedup >= 1.5
    else:
        # One core: two compute-bound workers cannot beat serial, so the
        # bar becomes "dispatch is nearly free" — at most 25% over
        # serial, measurement noise included (the seed ran at 0.58x
        # speedup, i.e. 72% overhead; chunked dispatch and the warmed
        # pool remove it — quiet boxes measure ~1.0x).
        assert parallel_time < serial_time * 1.25
