"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``models``
    List the benchmark model zoo with layer/MAC statistics.
``presets``
    List the baseline accelerator presets and their resources.
``evaluate``
    Evaluate a model on a preset with the native compiler heuristic.
``search``
    Run the NAAS hardware+mapping search for a model within a preset's
    resource budget and report gains over the preset.
``experiment``
    Run one of the paper's experiments (fig4..table4) and print its
    table and claim checklist.
``cache``
    Maintain a persistent evaluation-cache directory: ``cache stats``
    reports shard/record/byte counts, ``cache compact`` rewrites live
    records into one fresh shard (dropping duplicates and corrupt
    tails), ``cache prune --older-than DAYS`` drops shards nothing has
    appended to for that long.
``lint``
    Run the static invariant checkers over the tree (``repro lint
    [paths]``, default ``src tests``): unbounded-wait, determinism,
    resource-ownership, cache-key completeness, and quote/line-length
    format conformance. Exit 1 on findings.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.accelerator.presets import (
    BASELINE_PRESETS,
    baseline_constraint,
    baseline_preset,
)
from repro.cost.model import CostModel
from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments.config import get_profile
from repro.mapping.builders import dataflow_preserving_mapping
from repro.models import MODEL_BUILDERS, build_model
from repro.search.accelerator_search import search_accelerator
from repro.search.diskcache import (
    compact_directory,
    directory_stats,
    prune_directory,
)
from repro.utils.serialization import to_jsonable
from repro.utils.tables import render_table


def _bounded_int(flag: str, minimum: int, hint: str = ""):
    """argparse type factory: an integer with a validated lower bound."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {flag} value {text!r}: expected an integer")
        if value < minimum:
            suffix = f"; {hint}" if hint else ""
            raise argparse.ArgumentTypeError(
                f"{flag} must be >= {minimum} (got {value}){suffix}")
        return value
    return parse


#: ``--workers``: non-negative int, 0 = one process per core.
_workers_count = _bounded_int("--workers", 0,
                              hint="use 0 to run on every core")


def _positive_float(flag: str):
    """argparse type factory: a strictly positive float."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {flag} value {text!r}: expected a number")
        if value <= 0:
            raise argparse.ArgumentTypeError(
                f"{flag} must be > 0 (got {value:g})")
        return value
    return parse


_eval_timeout_seconds = _positive_float("--eval-timeout")
_older_than_days = _positive_float("--older-than")


def _add_execution_args(parser: argparse.ArgumentParser) -> None:
    """The execution-model flags shared by ``search`` and ``experiment``.

    Every combination of them returns bit-identical search results;
    they only trade wall-clock and cache traffic (see
    :mod:`repro.search.parallel`).
    """
    parser.add_argument("--workers", type=_workers_count, default=1,
                        help="parallel evaluation processes; 0 means "
                             "one per CPU core (results are identical "
                             "for any worker count)")
    parser.add_argument("--cache-dir", default=None,
                        help="persistent evaluation-cache directory, "
                             "shared across runs and concurrent "
                             "processes; a repeated run with the same "
                             "seed reuses every mapping-search result "
                             "and returns bit-identical designs")
    parser.add_argument("--eval-timeout", type=_eval_timeout_seconds,
                        default=None, metavar="SECONDS",
                        help="per dispatched evaluation: if nothing "
                             "completes within this many seconds the "
                             "stuck work is salvaged and re-evaluated "
                             "inline, so a hung worker cannot stall "
                             "the search (default: wait indefinitely)")


def _cmd_models(_args: argparse.Namespace) -> int:
    rows = []
    for name in sorted(MODEL_BUILDERS):
        net = build_model(name)
        rows.append((name, len(net), len(net.unique_shapes()),
                     net.total_macs / 1e9,
                     net.total_weight_elements / 1e6))
    print(render_table(
        ["model", "layers", "unique shapes", "GMACs", "Mparams"], rows))
    return 0


def _cmd_presets(_args: argparse.Namespace) -> int:
    rows = []
    for name in sorted(BASELINE_PRESETS):
        preset = baseline_preset(name)
        rows.append((name,
                     "x".join(str(d) for d in preset.array_dims),
                     "-".join(d.name for d in preset.parallel_dims),
                     preset.num_pes,
                     preset.l1_bytes,
                     preset.l2_bytes // 1024,
                     preset.dram_bandwidth,
                     preset.onchip_bytes // 1024))
    print(render_table(
        ["preset", "array", "dataflow", "#PEs", "L1 (B)", "L2 (KB)",
         "BW (B/cyc)", "on-chip (KB)"], rows))
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    cost_model = CostModel()
    preset = baseline_preset(args.preset)
    network = build_model(args.model, batch=args.batch)
    cost = cost_model.evaluate_network(
        network, preset,
        lambda layer: dataflow_preserving_mapping(layer, preset))
    if not cost.valid:
        bad = [(c.layer_name, c.reasons) for c in cost.layer_costs
               if not c.valid]
        print(f"INVALID: {bad[:3]}", file=sys.stderr)
        return 1
    print(f"{args.model} on {preset.describe()}")
    print(f"  cycles      = {cost.total_cycles:.4e}")
    print(f"  energy      = {cost.total_energy_nj:.4e} nJ")
    print(f"  EDP         = {cost.edp:.4e} cycles*nJ")
    print(f"  utilization = {cost.mean_utilization:.1%}")
    if args.per_layer:
        rows = [(c.layer_name, c.cycles, c.energy_nj,
                 f"{c.utilization:.1%}", c.latency.bottleneck)
                for c in cost.layer_costs]
        print(render_table(
            ["layer", "cycles", "energy (nJ)", "util", "bottleneck"], rows))
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    profile = get_profile(args.profile)
    cost_model = CostModel()
    preset = baseline_preset(args.preset)
    network = build_model(args.model)
    baseline = cost_model.evaluate_network(
        network, preset,
        lambda layer: dataflow_preserving_mapping(layer, preset))

    result = search_accelerator(
        [network], baseline_constraint(args.preset), cost_model,
        budget=profile.naas, seed=args.seed, seed_configs=[preset],
        workers=args.workers, cache_dir=args.cache_dir,
        eval_timeout=args.eval_timeout)
    if not result.found:
        print("search found no valid design", file=sys.stderr)
        return 1

    found = result.network_costs[network.name]
    print(f"baseline : {preset.describe()}")
    print(f"searched : {result.best_config.describe()}")
    if args.cache_dir and result.cache_stats is not None:
        stats = result.cache_stats
        print(f"cache    : {stats.hit_rate:.1%} hits "
              f"({stats.hits} hits / {stats.misses} misses, "
              f"{stats.disk_hits} from disk)")
    speedup = baseline.total_cycles / found.total_cycles
    print(f"speedup        = {speedup:.2f}x")
    print(f"energy saving  = "
          f"{baseline.total_energy_nj / found.total_energy_nj:.2f}x")
    print(f"EDP reduction  = {baseline.edp / found.edp:.2f}x")
    if args.output:
        payload = {
            "config": to_jsonable(result.best_config),
            "edp": result.best_reward,
            "baseline_edp": baseline.edp,
            "mappings": {name: to_jsonable(m)
                         for name, m in result.best_mappings.items()},
        }
        with open(args.output, "w") as f:
            json.dump(payload, f, indent=2)
        print(f"wrote {args.output}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    result = run_experiment(
        args.name, profile=args.profile, seed=args.seed,
        workers=args.workers, cache_dir=args.cache_dir,
        eval_timeout=args.eval_timeout)
    print(result.render())
    return 0 if result.all_claims_hold else 1


def _cmd_cache(args: argparse.Namespace) -> int:
    directory = Path(args.cache_dir)
    if not directory.is_dir():
        print(f"no cache directory at {directory}", file=sys.stderr)
        return 1
    if args.action == "stats":
        stats = directory_stats(directory)
        print(f"cache dir          : {directory}")
        print(f"shards             : {stats.shards}")
        print(f"records            : {stats.records}")
        print(f"total bytes        : {stats.total_bytes}")
        print(f"stale records      : {stats.stale_records}")
        print(f"corrupt-tail skips : {stats.corrupt_tails}")
        return 0
    if args.action == "compact":
        stats = compact_directory(directory)
        print(f"cache dir          : {directory}")
        print(f"shards             : {stats.shards_before} -> "
              f"{stats.shards_after}")
        print(f"records kept       : {stats.records_kept}")
        print(f"duplicates dropped : {stats.duplicates_dropped}")
        print(f"stale dropped      : {stats.stale_dropped}")
        print(f"bytes              : {stats.bytes_before} -> "
              f"{stats.bytes_after}")
        return 0
    if args.action == "prune":
        stats = prune_directory(directory, args.older_than)
        print(f"cache dir          : {directory}")
        print(f"shards removed     : {stats.shards_removed} "
              f"({stats.shards_kept} kept)")
        print(f"records removed    : {stats.records_removed}")
        print(f"bytes removed      : {stats.bytes_removed}")
        return 0
    raise AssertionError(args.action)  # pragma: no cover - argparse enforces


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import main as lint_main

    return lint_main(args.paths)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NAAS (DAC 2021) reproduction command-line interface")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list the benchmark model zoo")
    sub.add_parser("presets", help="list baseline accelerator presets")

    evaluate = sub.add_parser("evaluate",
                              help="evaluate a model on a preset")
    evaluate.add_argument("model", choices=sorted(MODEL_BUILDERS))
    evaluate.add_argument("preset", choices=sorted(BASELINE_PRESETS))
    evaluate.add_argument("--batch", type=int, default=1)
    evaluate.add_argument("--per-layer", action="store_true")

    search = sub.add_parser("search", help="run the NAAS search")
    search.add_argument("model", choices=sorted(MODEL_BUILDERS))
    search.add_argument("preset", choices=sorted(BASELINE_PRESETS))
    search.add_argument("--profile", default="",
                        help="budget profile (quick/full/paper)")
    search.add_argument("--seed", type=int, default=0)
    _add_execution_args(search)
    search.add_argument("--output", help="write best design JSON here")

    experiment = sub.add_parser("experiment",
                                help="run one paper experiment")
    experiment.add_argument("name", choices=sorted(EXPERIMENTS))
    experiment.add_argument("--profile", default="")
    experiment.add_argument("--seed", type=int, default=0)
    _add_execution_args(experiment)

    cache = sub.add_parser("cache",
                           help="inspect or maintain a persistent "
                                "evaluation cache")
    cache.add_argument("action", choices=["stats", "compact", "prune"],
                       help="'stats': shard/record/byte counts and "
                            "corrupt-tail skips; 'compact': rewrite "
                            "live records into one fresh shard, "
                            "dropping duplicates and corrupt tails; "
                            "'prune': drop shards not appended to for "
                            "--older-than days")
    cache.add_argument("--cache-dir", required=True,
                       help="the cache directory to operate on")
    cache.add_argument("--older-than", type=_older_than_days, default=None,
                       metavar="DAYS",
                       help="prune: drop shards whose last append is "
                            "older than this many days (required for "
                            "'prune', rejected otherwise)")

    lint = sub.add_parser(
        "lint",
        help="run the static invariant checkers (unbounded-wait, "
             "determinism, resource-ownership, cache-key, format)")
    lint.add_argument("paths", nargs="*", default=["src", "tests"],
                      help="files or directories to lint "
                           "(default: src tests)")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "cache":
        if args.action == "prune" and args.older_than is None:
            parser.error("cache prune requires --older-than DAYS")
        if args.action != "prune" and args.older_than is not None:
            parser.error(
                f"--older-than only applies to 'prune', not {args.action!r}")
    handlers = {
        "models": _cmd_models,
        "presets": _cmd_presets,
        "evaluate": _cmd_evaluate,
        "search": _cmd_search,
        "experiment": _cmd_experiment,
        "cache": _cmd_cache,
        "lint": _cmd_lint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
