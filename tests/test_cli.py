"""Tests for the command-line interface."""

import argparse
import json

import pytest

from repro.cli import _add_execution_args, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evaluate", "alexnet", "eyeriss"])

    def test_rejects_unknown_preset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evaluate", "vgg16", "tpu9"])

    def test_rejects_negative_workers(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["search", "squeezenet", "shidiannao", "--workers", "-2"])
        assert "--workers must be >= 0" in capsys.readouterr().err

    def test_workers_help_documents_all_cores(self):
        args = build_parser().parse_args(
            ["search", "squeezenet", "shidiannao", "--workers", "0"])
        assert args.workers == 0  # 0 = all cores, accepted
        scratch = argparse.ArgumentParser(prog="scratch")
        _add_execution_args(scratch)
        help_text = " ".join(scratch.format_help().split())
        assert "0 means one per CPU core" in help_text
        assert "--schedule" not in help_text
        assert "--transport" not in help_text

    @pytest.mark.parametrize("flags", [
        ["--schedule", "async"],
        ["--schedule", "steady"],
        ["--schedule", "batched"],
        ["--shards", "2"],
        ["--transport", "local"],
        ["--transport", "tcp"],
        ["--workers-addr", "127.0.0.1:7070"],
    ])
    @pytest.mark.parametrize("command", [
        ["search", "squeezenet", "shidiannao"],
        ["experiment", "fig4"],
    ])
    def test_removed_execution_flags_rejected(self, command, flags):
        """There is one evaluation schedule, no logical shards and one
        transport: any ``--schedule``, ``--shards``, ``--transport`` and
        ``--workers-addr`` die in argparse, before any search runs, on
        every entry point."""
        with pytest.raises(SystemExit) as excinfo:
            main(command + flags)
        assert excinfo.value.code == 2  # argparse usage error

    @pytest.mark.parametrize("command", [
        ["search", "squeezenet", "shidiannao"],
        ["experiment", "fig4"],
    ])
    def test_workers_validation_covers_all_commands(self, command, capsys):
        # 0 = one process per core: accepted everywhere
        args = build_parser().parse_args(command + ["--workers", "0"])
        assert args.workers == 0
        # negatives: rejected at the argparse layer everywhere
        with pytest.raises(SystemExit):
            build_parser().parse_args(command + ["--workers", "-1"])
        assert "--workers must be >= 0" in capsys.readouterr().err


class TestCommands:
    def test_models_lists_zoo(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "vgg16" in out and "GMACs" in out

    def test_presets_lists_baselines(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "eyeriss" in out and "dataflow" in out

    def test_evaluate(self, capsys):
        assert main(["evaluate", "squeezenet", "nvdla_256"]) == 0
        out = capsys.readouterr().out
        assert "EDP" in out and "utilization" in out

    def test_evaluate_per_layer(self, capsys):
        assert main(["evaluate", "squeezenet", "nvdla_256",
                     "--per-layer"]) == 0
        out = capsys.readouterr().out
        assert "bottleneck" in out

    def test_search_writes_output(self, capsys, tmp_path):
        out_file = tmp_path / "design.json"
        code = main(["search", "squeezenet", "shidiannao",
                     "--seed", "0", "--output", str(out_file)])
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert "config" in payload and "edp" in payload
        assert payload["config"]["array_dims"]
        out = capsys.readouterr().out
        assert "EDP reduction" in out

    def test_search_cache_dir_reports_hits_on_second_run(self, capsys,
                                                         tmp_path):
        cache_dir = str(tmp_path / "cache")
        args = ["search", "squeezenet", "shidiannao", "--seed", "0",
                "--cache-dir", cache_dir]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "cache    : 100.0% hits" in second
        # identical designs and gains, cold or warm
        strip = lambda out: [line for line in out.splitlines()  # noqa: E731
                             if not line.startswith("cache")]
        assert strip(first) == strip(second)

    def test_search_two_workers_match_serial(self, capsys):
        base = ["search", "squeezenet", "shidiannao", "--seed", "0"]
        assert main(base) == 0
        serial = capsys.readouterr().out
        assert main(base + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_cache_stats_reports_store_contents(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(["search", "squeezenet", "shidiannao", "--seed", "0",
                     "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        fields = {}
        for line in out.splitlines():
            key, _, value = line.partition(":")
            fields[key.strip()] = value.strip()
        assert int(fields["shards"]) >= 1
        assert int(fields["records"]) > 0
        assert int(fields["total bytes"]) > 0
        assert fields["corrupt-tail skips"] == "0"
        # Every record is a row of the current format.
        assert fields["stale records"] == "0"

    def test_cache_stats_counts_corrupt_tails(self, capsys, tmp_path,
                                              shape_best):
        from repro.search.diskcache import DiskCacheStore, content_digest

        store = DiskCacheStore(tmp_path)
        store.put(content_digest("a"), shape_best(1))
        store.put(content_digest("b"), shape_best(2))
        store.close()
        shard = next(tmp_path.glob("shard-*.bin"))
        with open(shard, "ab") as handle:
            handle.write(b"torn-record")  # crashed-writer tail
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "records            : 2" in out
        assert "corrupt-tail skips : 1" in out

    def test_cache_stats_missing_directory_fails(self, capsys, tmp_path):
        assert main(["cache", "stats", "--cache-dir",
                     str(tmp_path / "absent")]) == 1
        assert "no cache directory" in capsys.readouterr().err

    def test_cache_compact_folds_shards_and_drops_tails(self, capsys,
                                                        tmp_path, shape_best):
        from repro.search.diskcache import DiskCacheStore, content_digest

        store = DiskCacheStore(tmp_path)
        store.put(content_digest("a"), shape_best(1))
        store.put(content_digest("b"), shape_best(2))
        store.close()
        shard = next(tmp_path.glob("shard-*.bin"))
        with open(shard, "ab") as handle:
            handle.write(b"torn-record")
        assert main(["cache", "compact", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "records kept       : 2" in out
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        stats_out = capsys.readouterr().out
        assert "shards             : 1" in stats_out
        assert "records            : 2" in stats_out
        assert "corrupt-tail skips : 0" in stats_out
        # Compaction preserved the payloads byte-for-byte.
        compacted = DiskCacheStore(tmp_path)
        try:
            assert compacted.get(content_digest("a")) == (
                True, shape_best(1))
            assert compacted.get(content_digest("b")) == (
                True, shape_best(2))
        finally:
            compacted.close()

    def test_cache_prune_drops_stale_shards_only(self, capsys, tmp_path,
                                                 shape_best):
        import os

        from repro.search.diskcache import DiskCacheStore, content_digest

        store = DiskCacheStore(tmp_path)
        store.put(content_digest("old"), shape_best(1))
        store.close()
        stale = next(tmp_path.glob("shard-*.bin"))
        week_ago = __import__("time").time() - 7 * 86400
        os.utime(stale, (week_ago, week_ago))
        fresh_dir_store = DiskCacheStore(tmp_path)
        fresh_dir_store._write_path = None  # force a new shard name
        import repro.search.diskcache as diskcache_module
        diskcache_module._process_shard = None  # re-roll the shard token
        fresh_dir_store.put(content_digest("new"), shape_best(2))
        fresh_dir_store.close()
        assert main(["cache", "prune", "--cache-dir", str(tmp_path),
                     "--older-than", "3"]) == 0
        out = capsys.readouterr().out
        assert "shards removed     : 1 (1 kept)" in out
        assert "records removed    : 1" in out
        survivor = DiskCacheStore(tmp_path)
        try:
            assert survivor.get(content_digest("new")) == (True, shape_best(2))
            assert survivor.get(content_digest("old")) == (False, None)
        finally:
            survivor.close()

    def test_cache_prune_requires_older_than(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            main(["cache", "prune", "--cache-dir", str(tmp_path)])
        assert "--older-than" in capsys.readouterr().err

    def test_cache_stats_rejects_older_than(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            main(["cache", "stats", "--cache-dir", str(tmp_path),
                  "--older-than", "3"])
        assert "only applies to 'prune'" in capsys.readouterr().err


class TestTransportFlags:
    def test_unknown_transport_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["search", "squeezenet", "shidiannao",
                 "--transport", "carrier-pigeon"])

    def test_eval_timeout_must_be_positive(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["search", "squeezenet", "shidiannao",
                 "--eval-timeout", "0"])
        assert "--eval-timeout must be > 0" in capsys.readouterr().err

    def test_worker_command_rejected(self, capsys):
        """There is no remote worker to serve: ``repro worker`` is not
        a command."""
        with pytest.raises(SystemExit) as excinfo:
            main(["worker", "--connect", "127.0.0.1:7070"])
        assert excinfo.value.code == 2  # argparse usage error
        assert "invalid choice: 'worker'" in capsys.readouterr().err
