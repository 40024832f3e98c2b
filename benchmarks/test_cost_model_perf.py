"""Microbenchmarks of the analytical cost model itself.

The evaluator sits in the innermost loop of a three-level search, so its
throughput bounds every experiment. These benchmarks use pytest-benchmark
conventionally (many rounds) since each call is microseconds-scale, plus
one manually-timed batch-vs-scalar comparison at the lane counts the
lockstep mapping search really costs per call: every mobilenet_v2 shape
times the shipped mapping populations, and every distinct shape of the
mobile benchmark set at the paper population.

Numbers land in ``benchmarks/results/cost_model_perf.txt`` and
``benchmarks/results/cost_batch_scaling.txt``.
"""

import math
import time
from pathlib import Path

from repro.accelerator.presets import baseline_preset
from repro.cost.batch import LaneLayers, LaneMappings
from repro.cost.model import CostModel
from repro.mapping.builders import dataflow_preserving_mapping
from repro.models import build_model, mobile_benchmark_set
from repro.tensors.network import shape_key
from repro.utils.rng import ensure_rng

RESULTS_DIR = Path(__file__).parent / "results"

#: Rows accumulated by the pytest-benchmark tests in this module; the
#: final (non-benchmark) test writes them out so one file carries the
#: whole cost-layer picture, batch row included.
_ROWS = {}


def _record(name, seconds_per_call):
    _ROWS[name] = seconds_per_call


def test_single_layer_evaluation(benchmark):
    model = CostModel()
    accel = baseline_preset("eyeriss")
    layer = build_model("mobilenet_v2").layers[5]
    mapping = dataflow_preserving_mapping(layer, accel)

    cost = benchmark(model.evaluate, layer, accel, mapping)
    assert cost.valid
    _record("scalar evaluate (1 layer)", benchmark.stats.stats.mean)


def test_network_evaluation(benchmark):
    model = CostModel()
    accel = baseline_preset("nvdla_256")
    network = build_model("squeezenet")

    def evaluate():
        return model.evaluate_network(
            network, accel,
            lambda l: dataflow_preserving_mapping(l, accel))

    cost = benchmark(evaluate)
    assert cost.valid
    _record("evaluate_network (squeezenet)", benchmark.stats.stats.mean)


def test_mapping_decode(benchmark):
    from repro.encoding.mapping_enc import MappingEncoder

    accel = baseline_preset("eyeriss")
    layer = build_model("mobilenet_v2").layers[5]
    encoder = MappingEncoder(layer, accel)
    vector = ensure_rng(0).random(encoder.num_params)

    mapping = benchmark(encoder.decode, vector)
    assert mapping.legal_for(layer)
    _record("mapping decode", benchmark.stats.stats.mean)


def _decode_generation(layers, accel, population, seed=0):
    """``population`` decoded mappings per layer, lanes grouped by layer
    the way one lockstep generation stacks them."""
    from repro.encoding.mapping_enc import MappingEncoder

    rng = ensure_rng(seed)
    index, mappings = [], []
    for which, layer in enumerate(layers):
        encoder = MappingEncoder(layer, accel)
        for _ in range(population):
            index.append(which)
            mappings.append(encoder.decode(rng.random(encoder.num_params)))
    return index, mappings


def _best_of(rounds, fn):
    elapsed = math.inf
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        elapsed = min(elapsed, time.perf_counter() - start)
    return result, elapsed


def test_batch_vs_scalar_scaling():
    """The batch kernel ≡ the scalar loop, and it earns its keep.

    Each batch is what one lockstep generation costs in one call: all
    31 mobilenet_v2 shapes at one shipped mapping population (quick 6,
    full 10, paper 20: 186/310/620 lanes, a NAAS candidate's search),
    and the 74 distinct shapes of the whole mobile set at the paper
    population (1,480 lanes, a tuned baseline's search). Writes
    ``cost_batch_scaling.txt`` with the per-size speedup; the 186-lane
    row also feeds the combined ``cost_model_perf.txt``. The assertion
    bar is deliberately modest (>= 1.5x at the quick profile's 186
    lanes) — measured speedups sit well above it, but CI boxes vary.
    """
    model = CostModel()
    accel = baseline_preset("eyeriss")
    mobilenet = [layer for layer, _ in
                 build_model("mobilenet_v2").unique_shapes()]
    mobile_set = list({shape_key(layer): layer
                       for network in mobile_benchmark_set()
                       for layer, _ in network.unique_shapes()}.values())

    lines = [
        "batch-vs-scalar cost evaluation (one lockstep generation, "
        "eyeriss preset)",
        f"{'lanes':>6}  {'scalar':>10}  {'batch':>10}  {'speedup':>8}  "
        "shapes",
    ]
    speedups = {}
    for layers, population, label in (
            (mobilenet, 6, "mobilenet_v2"),
            (mobilenet, 10, "mobilenet_v2"),
            (mobilenet, 20, "mobilenet_v2"),
            (mobile_set, 20, "mobile set")):
        index, mappings = _decode_generation(layers, accel, population)
        lanes = LaneLayers(layers, index)
        lane_mappings = LaneMappings.from_mappings(mappings)
        size = len(mappings)
        scalar, scalar_time = _best_of(3, lambda: [
            model.evaluate(layers[which], accel, m)
            for which, m in zip(index, mappings)])
        batch, batch_time = _best_of(3, lambda: model.evaluate_lanes(
            lanes, accel, lane_mappings))
        # The kernel's contract: the scalar loop's floats, lane by lane.
        assert batch.cycles.tolist() == [c.cycles for c in scalar]
        assert batch.energy_nj.tolist() == [c.energy_nj for c in scalar]
        speedup = scalar_time / batch_time if batch_time else float("inf")
        speedups[size] = speedup
        lines.append(f"{size:>6}  {scalar_time:>9.4f}s  "
                     f"{batch_time:>9.4f}s  {speedup:>7.2f}x  "
                     f"{len(layers)} {label} x {population}")
        if size == 186:
            _record("scalar loop (B=186)", scalar_time)
            _record("evaluate_lanes (B=186)", batch_time)

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "cost_batch_scaling.txt").write_text(
        "\n".join(lines) + "\n")
    print("\n" + "\n".join(lines))

    assert speedups[186] >= 1.5


def test_write_results_file():
    """Runs last in the module: flush every recorded row to disk."""
    assert _ROWS, "benchmark tests must run before the results writer"
    width = max(len(name) for name in _ROWS)
    lines = ["cost-model microbenchmarks (seconds per call, mean)"]
    for name, seconds in _ROWS.items():
        lines.append(f"{name:<{width}} : {seconds:.6e} s")
    if "scalar loop (B=186)" in _ROWS and "evaluate_lanes (B=186)" in _ROWS:
        ratio = (_ROWS["scalar loop (B=186)"]
                 / _ROWS["evaluate_lanes (B=186)"])
        lines.append(f"{'batch-vs-scalar speedup (B=186)':<{width}} : "
                     f"{ratio:.2f}x")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "cost_model_perf.txt").write_text("\n".join(lines) + "\n")
