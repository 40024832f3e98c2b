"""Tests for the persistent cross-run evaluation cache tier."""

import dataclasses
import os
import pickle
import random
import select
import subprocess
import sys
from pathlib import Path

import pytest

from repro.accelerator.presets import baseline_preset
from repro.cost.config import CostParams
from repro.cost.model import CostModel
from repro.cost.report import LayerCost
from repro.encoding.spaces import EncodingStyle
from repro.mapping.mapping import Mapping
from repro.search.accelerator_search import (
    NAASBudget,
    evaluate_accelerator,
    search_accelerator,
)
from repro.search.cache import EvaluationCache
import repro.search.diskcache as diskcache_module
from repro.search.diskcache import (
    _HEADER,
    DiskCacheStore,
    _parse_file,
    build_cache,
    compact_directory,
    content_digest,
    directory_stats,
    prune_directory,
)
from repro.search.mapping_search import MappingSearchBudget, search_mapping
from repro.tensors.network import Network, shape_key
from repro.utils.rng import derive_seed, seed_entropy

TINY = NAASBudget(accel_population=4, accel_iterations=2,
                  mapping=MappingSearchBudget(population=4, iterations=2))


def _new_shard_process_identity():
    """Force the next DiskCacheStore write into a fresh shard file, as
    if it came from another process sharing the directory."""
    import repro.search.diskcache as diskcache_module

    diskcache_module._process_shard = None


class TestCompactDirectory:
    def test_folds_shards_preserving_values(self, tmp_path):
        first = DiskCacheStore(tmp_path)
        first.put(content_digest("a"), {"value": 1})
        first.close()
        _new_shard_process_identity()
        second = DiskCacheStore(tmp_path)
        second.put(content_digest("b"), [2, 3])
        second.close()
        assert len(list(tmp_path.glob("shard-*.bin"))) == 2

        stats = compact_directory(tmp_path)
        assert stats.shards_before == 2
        assert stats.shards_after == 1
        assert stats.records_kept == 2
        assert stats.bytes_after <= stats.bytes_before
        assert len(list(tmp_path.glob("shard-*.bin"))) == 1
        compacted = DiskCacheStore(tmp_path)
        assert compacted.get(content_digest("a")) == (True, {"value": 1})
        assert compacted.get(content_digest("b")) == (True, [2, 3])

    def test_drops_duplicate_digests_first_write_wins(self, tmp_path):
        digest = content_digest("shared")
        first = DiskCacheStore(tmp_path)
        first.put(digest, "first")
        first.close()
        _new_shard_process_identity()
        second = DiskCacheStore(tmp_path)
        # Bypass the in-index dedup by writing via a store that has not
        # scanned the first shard's record yet.
        second._index.pop(digest, None)
        second.put(digest, "second")
        second.close()

        stats = compact_directory(tmp_path)
        assert stats.records_kept == 1
        assert stats.duplicates_dropped == 1
        # Shards are compacted in sorted order; either value is a valid
        # first-write, but exactly one survives and reads cleanly.
        found, value = DiskCacheStore(tmp_path).get(digest)
        assert found and value in ("first", "second")

    def test_drops_corrupt_tail(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        store.put(content_digest("a"), 1)
        store.close()
        shard = next(tmp_path.glob("shard-*.bin"))
        with open(shard, "ab") as handle:
            handle.write(b"half-written garbage")
        stats = compact_directory(tmp_path)
        assert stats.records_kept == 1
        assert stats.bytes_after < stats.bytes_before
        from repro.search.diskcache import directory_stats

        after = directory_stats(tmp_path)
        assert after.corrupt_tails == 0
        assert after.records == 1

    def test_empty_directory(self, tmp_path):
        stats = compact_directory(tmp_path)
        assert stats.records_kept == 0
        assert stats.shards_after == 0
        assert list(tmp_path.glob("shard-*.bin")) == []


class TestPruneDirectory:
    def test_prunes_by_shard_mtime(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        store.put(content_digest("stale"), 1)
        store.close()
        shard = next(tmp_path.glob("shard-*.bin"))
        old = __import__("time").time() - 10 * 86400
        os.utime(shard, (old, old))
        stats = prune_directory(tmp_path, older_than_days=5)
        assert stats.shards_removed == 1
        assert stats.records_removed == 1
        assert stats.bytes_removed > 0
        assert list(tmp_path.glob("shard-*.bin")) == []

    def test_keeps_recent_shards(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        store.put(content_digest("fresh"), 1)
        store.close()
        stats = prune_directory(tmp_path, older_than_days=5)
        assert stats.shards_removed == 0
        assert stats.shards_kept == 1
        assert DiskCacheStore(tmp_path).get(content_digest("fresh")) == \
            (True, 1)

    def test_negative_days_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            prune_directory(tmp_path, older_than_days=-1)


class TestContentDigest:
    def test_stable_for_equal_parts(self):
        assert content_digest(1, ("a", 2)) == content_digest(1, ("a", 2))

    def test_sensitive_to_each_part(self):
        base = content_digest(1, "key", MappingSearchBudget(4, 2))
        assert content_digest(2, "key", MappingSearchBudget(4, 2)) != base
        assert content_digest(1, "other", MappingSearchBudget(4, 2)) != base
        assert content_digest(1, "key", MappingSearchBudget(8, 2)) != base

    def test_cost_params_participate(self):
        assert content_digest(CostParams()) != \
            content_digest(CostParams(dram_pj_per_byte=1.0))


class TestDiskCacheStore:
    def test_round_trip(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        digest = content_digest("k")
        store.put(digest, {"value": 42})
        assert store.get(digest) == (True, {"value": 42})
        assert digest in store

    def test_miss(self, tmp_path):
        assert DiskCacheStore(tmp_path).get("missing") == (False, None)

    def test_persists_across_reopen(self, tmp_path):
        digest = content_digest("k")
        DiskCacheStore(tmp_path).put(digest, [1, 2, 3])
        reopened = DiskCacheStore(tmp_path)
        assert reopened.get(digest) == (True, [1, 2, 3])
        assert len(reopened) == 1

    def test_first_write_wins(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        digest = content_digest("k")
        store.put(digest, "first")
        store.put(digest, "second")
        assert store.get(digest) == (True, "first")
        assert DiskCacheStore(tmp_path).get(digest) == (True, "first")

    def test_concurrent_stores_do_not_lose_entries(self, tmp_path):
        """Two handles on one directory writing interleaved (same-process
        handles share a locked shard; distinct processes get distinct
        shards); nobody's entries are lost."""
        a, b = DiskCacheStore(tmp_path), DiskCacheStore(tmp_path)
        for i in range(10):
            (a if i % 2 else b).put(content_digest(i), i)
        merged = DiskCacheStore(tmp_path)
        assert len(merged) == 10
        for i in range(10):
            assert merged.get(content_digest(i)) == (True, i)

    def test_refresh_picks_up_other_writers(self, tmp_path):
        reader = DiskCacheStore(tmp_path)
        writer = DiskCacheStore(tmp_path)
        digest = content_digest("late")
        writer.put(digest, "late-value")
        assert reader.get(digest) == (False, None)
        reader.refresh()
        assert reader.get(digest) == (True, "late-value")

    def test_truncated_tail_is_skipped_not_fatal(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        good, bad = content_digest("good"), content_digest("bad")
        store.put(good, "ok")
        store.put(bad, "will be torn")
        shard = next(tmp_path.glob("shard-*.bin"))
        data = shard.read_bytes()
        shard.write_bytes(data[:-3])  # tear the last record's payload
        reopened = DiskCacheStore(tmp_path)
        assert reopened.get(good) == (True, "ok")
        assert reopened.get(bad) == (False, None)

    def test_corrupt_garbage_file_is_skipped_not_fatal(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        good = content_digest("good")
        store.put(good, "ok")
        (tmp_path / "shard-9999-dead.bin").write_bytes(b"not a record" * 10)
        reopened = DiskCacheStore(tmp_path)
        assert reopened.get(good) == (True, "ok")
        assert len(reopened) == 1

    def test_corrupt_checksum_stops_that_shard_only(self, tmp_path):
        """A crc-corrupt shard (here: another process's) is dropped
        without affecting clean shards."""
        store = DiskCacheStore(tmp_path)
        digest = content_digest("flip")
        store.put(digest, "payload")
        store.close()
        shard = next(tmp_path.glob("shard-*.bin"))
        data = bytearray(shard.read_bytes())
        data[-1] ^= 0xFF  # flip a payload byte -> crc mismatch
        # move the damaged shard under another process's name
        shard.rename(tmp_path / "shard-99999-beef.bin")
        (tmp_path / "shard-99999-beef.bin").write_bytes(bytes(data))
        clean = DiskCacheStore(tmp_path)  # this process's (new) shard
        good = content_digest("good")
        clean.put(good, "ok")
        reopened = DiskCacheStore(tmp_path)
        assert reopened.get(digest) == (False, None)
        assert reopened.get(good) == (True, "ok")

    def test_store_handles_append_to_this_process_shard(self, tmp_path):
        """Store handles in one process share a single shard file, so a
        worker opening a store per run doesn't litter the directory;
        entries from every handle survive."""
        store = DiskCacheStore(tmp_path)
        store.put(content_digest("parent"), 1)
        clone = DiskCacheStore(tmp_path)
        clone.put(content_digest("child"), 2)
        assert len(list(tmp_path.glob("shard-*.bin"))) == 1
        merged = DiskCacheStore(tmp_path)
        assert len(merged) == 2
        assert merged.get(content_digest("parent")) == (True, 1)
        assert merged.get(content_digest("child")) == (True, 2)

    def test_corrupt_shard_scanned_once_then_skipped(self, tmp_path, caplog):
        """A confirmed-corrupt shard is marked dead: one warning, no
        rescan (and no repeated warning) on later refreshes."""
        import logging
        store = DiskCacheStore(tmp_path)
        store.put(content_digest("k"), "v")
        store.close()
        shard = next(tmp_path.glob("shard-*.bin"))
        data = bytearray(shard.read_bytes())
        data[0] ^= 0xFF  # clobber the magic
        shard.write_bytes(bytes(data))
        with caplog.at_level(logging.WARNING):
            reader = DiskCacheStore(tmp_path)
            reader.refresh()
            reader.refresh()
        warnings = [r for r in caplog.records
                    if "corrupt record" in r.getMessage()]
        assert len(warnings) == 1
        assert len(reader) == 0


class TestRecordCompression:
    """NAC2 (zlib) records: written when smaller, NAC1 stays readable."""

    def test_compressible_payload_written_as_nac2(self, tmp_path):
        from repro.search.diskcache import _MAGIC_ZLIB, directory_stats

        store = DiskCacheStore(tmp_path)
        digest = content_digest("big")
        value = {"rows": ["repeated-filler"] * 500}
        store.put(digest, value)
        store.close()
        shard = next(tmp_path.glob("shard-*.bin"))
        assert shard.read_bytes()[:4] == _MAGIC_ZLIB
        assert DiskCacheStore(tmp_path).get(digest) == (True, value)
        stats = directory_stats(tmp_path)
        assert stats.compressed_records == 1
        assert 0 < stats.compressed_bytes < len(pickle.dumps(value))

    def test_incompressible_payload_stays_raw(self, tmp_path):
        from repro.search.diskcache import _MAGIC_RAW, directory_stats

        store = DiskCacheStore(tmp_path)
        digest = content_digest("noise")
        value = os.urandom(4096)  # zlib cannot shrink random bytes
        store.put(digest, value)
        store.close()
        shard = next(tmp_path.glob("shard-*.bin"))
        assert shard.read_bytes()[:4] == _MAGIC_RAW
        assert DiskCacheStore(tmp_path).get(digest) == (True, value)
        stats = directory_stats(tmp_path)
        assert stats.compressed_records == 0
        assert stats.compressed_bytes == 0

    def test_legacy_nac1_records_still_readable(self, tmp_path):
        """A shard written by the pre-compression format (raw pickle
        behind NAC1) must read back byte-for-byte."""
        import zlib

        from repro.search.diskcache import _HEADER, _MAGIC_RAW

        digest = content_digest("legacy")
        payload = pickle.dumps({"legacy": True},
                               protocol=pickle.HIGHEST_PROTOCOL)
        record = _HEADER.pack(_MAGIC_RAW, digest.encode("ascii"),
                              len(payload), zlib.crc32(payload)) + payload
        (tmp_path / "shard-11111-feed.bin").write_bytes(record)
        store = DiskCacheStore(tmp_path)
        assert store.get(digest) == (True, {"legacy": True})

    def test_compact_preserves_per_record_magic(self, tmp_path):
        from repro.search.diskcache import directory_stats

        store = DiskCacheStore(tmp_path)
        squeezable = content_digest("squeezable")
        noise = content_digest("noise")
        store.put(squeezable, ["compress-me"] * 500)
        store.put(noise, os.urandom(4096))
        store.close()
        before = directory_stats(tmp_path)
        assert before.compressed_records == 1
        compact_directory(tmp_path)
        after = directory_stats(tmp_path)
        assert after.records == 2
        assert after.compressed_records == 1
        reopened = DiskCacheStore(tmp_path)
        assert reopened.get(squeezable) == (True, ["compress-me"] * 500)
        assert reopened.get(noise)[0] is True

    def test_corrupt_compressed_payload_degrades_to_miss(self, tmp_path):
        """A record whose zlib stream is damaged after the crc was
        computed reads as a miss, not an exception."""
        store = DiskCacheStore(tmp_path)
        digest = content_digest("damaged")
        store.put(digest, ["compress-me"] * 500)
        store.close()
        shard = next(tmp_path.glob("shard-*.bin"))
        data = bytearray(shard.read_bytes())
        data[-1] ^= 0xFF  # damage the zlib tail
        shard.write_bytes(bytes(data))
        reader = DiskCacheStore.__new__(DiskCacheStore)
        reader.directory = tmp_path
        # Bypass the crc scan (which would already drop the record) to
        # exercise get()'s decompress guard directly.
        reader._index = dict(store._index)
        reader._scanned = {}
        reader._dead = set()
        reader._readers = {}
        reader._write_path = None
        reader._write_handle = None
        assert reader.get(digest) == (False, None)


class TestTieredEvaluationCache:
    def test_plain_cache_ignores_disk_key(self):
        cache = EvaluationCache()
        assert cache.get_or_compute("k", lambda: 1, disk_key="d") == 1
        assert cache.persistent is False

    def test_miss_computes_and_persists(self, tmp_path):
        cache = build_cache(tmp_path)
        assert cache.persistent is True
        assert cache.get_or_compute("k", lambda: 41, disk_key="d" * 32) == 41
        assert cache.misses == 1
        # a fresh tiered cache over the same directory hits disk
        fresh = build_cache(tmp_path)
        assert fresh.get_or_compute("k", lambda: -1, disk_key="d" * 32) == 41
        assert fresh.disk_hits == 1
        assert fresh.hits == 1

    def test_many_reads_disk_hits_and_persists_misses(self, tmp_path):
        build_cache(tmp_path).get_or_compute("k", lambda: 41,
                                             disk_key="d" * 32)
        cache = build_cache(tmp_path)
        batches = []

        def compute(keys):
            batches.append(list(keys))
            return [0 for _ in keys]

        values = cache.get_or_compute_many(
            ["k", "j"], compute, disk_keys=["d" * 32, "e" * 32])
        assert values == [41, 0]
        assert batches == [["j"]]
        assert (cache.hits, cache.disk_hits, cache.misses) == (1, 1, 1)
        assert build_cache(tmp_path).get_or_compute(
            "j", lambda: -1, disk_key="e" * 32) == 0

    def test_l1_hit_does_not_touch_disk(self, tmp_path):
        cache = build_cache(tmp_path)
        cache.get_or_compute("k", lambda: 1, disk_key="d" * 32)
        cache.get_or_compute("k", lambda: -1, disk_key="d" * 32)
        assert cache.hits == 1
        assert cache.disk_hits == 0

    def test_no_disk_key_stays_in_memory(self, tmp_path):
        cache = build_cache(tmp_path)
        cache.get_or_compute("k", lambda: 1)
        assert len(cache.store) == 0

    def test_disk_hit_is_not_promoted_into_l1(self, tmp_path):
        """A warm rerun reads each entry from disk as often as it is
        looked up and never grows the serving process's L1."""
        build_cache(tmp_path).get_or_compute("k", lambda: 7,
                                             disk_key="d" * 32)
        warm = build_cache(tmp_path)
        for _ in range(2):
            assert warm.get_or_compute("k", lambda: -1,
                                       disk_key="d" * 32) == 7
        assert len(warm) == 0
        assert (warm.hits, warm.disk_hits, warm.misses) == (2, 2, 0)

    def test_build_cache_without_dir_is_plain(self):
        assert type(build_cache(None)) is EvaluationCache


@pytest.fixture
def tiny_network(small_layer, pointwise_layer):
    return Network(name="tiny", layers=(small_layer, pointwise_layer))


class TestEvaluateAcceleratorDiskTier:
    def test_warm_run_matches_cold(self, tiny_network, cost_model, tmp_path):
        preset = baseline_preset("nvdla_256")
        budget = MappingSearchBudget(4, 2)
        cold, cold_costs, _ = evaluate_accelerator(
            preset, [tiny_network], cost_model, budget, seed=7)
        evaluate_accelerator(preset, [tiny_network], cost_model, budget,
                             seed=7, cache=build_cache(tmp_path))
        warm_cache = build_cache(tmp_path)
        warm, warm_costs, _ = evaluate_accelerator(
            preset, [tiny_network], cost_model, budget, seed=7,
            cache=warm_cache)
        assert warm == cold
        assert warm_costs[tiny_network.name].edp == \
            cold_costs[tiny_network.name].edp
        assert warm_cache.disk_hits == len(tiny_network.unique_shapes())
        assert warm_cache.misses == 0

    def test_different_budget_never_hits_stale_entries(
            self, tiny_network, cost_model, tmp_path):
        """The in-memory key omits the budget; the disk digest must not,
        or a re-parameterized run would silently reuse results computed
        under another budget."""
        preset = baseline_preset("nvdla_256")
        evaluate_accelerator(preset, [tiny_network], cost_model,
                             MappingSearchBudget(4, 2), seed=7,
                             cache=build_cache(tmp_path))
        other_budget = MappingSearchBudget(population=6, iterations=3)
        fresh, _, _ = evaluate_accelerator(
            preset, [tiny_network], cost_model, other_budget, seed=7)
        warm_cache = build_cache(tmp_path)
        warm, _, _ = evaluate_accelerator(
            preset, [tiny_network], cost_model, other_budget, seed=7,
            cache=warm_cache)
        assert warm_cache.disk_hits == 0
        assert warm == fresh

    def test_different_seed_never_hits_stale_entries(
            self, tiny_network, cost_model, tmp_path):
        preset = baseline_preset("nvdla_256")
        budget = MappingSearchBudget(4, 2)
        evaluate_accelerator(preset, [tiny_network], cost_model, budget,
                             seed=7, cache=build_cache(tmp_path))
        fresh, _, _ = evaluate_accelerator(
            preset, [tiny_network], cost_model, budget, seed=8)
        warm_cache = build_cache(tmp_path)
        warm, _, _ = evaluate_accelerator(
            preset, [tiny_network], cost_model, budget, seed=8,
            cache=warm_cache)
        assert warm_cache.disk_hits == 0
        assert warm == fresh


class TestSearchAcceleratorDiskTier:
    def test_repeat_run_hits_and_matches_cold(self, tiny_network, cost_model,
                                              small_constraint, tmp_path):
        """The acceptance bar: a repeated --cache-dir run reports >90%
        cache hits and bit-identical results to the cold run."""
        kwargs = dict(budget=TINY, seed=11)
        cold = search_accelerator([tiny_network], small_constraint,
                                  cost_model, **kwargs)
        first = search_accelerator([tiny_network], small_constraint,
                                   cost_model, cache_dir=tmp_path, **kwargs)
        second = search_accelerator([tiny_network], small_constraint,
                                    cost_model, cache_dir=tmp_path, **kwargs)
        assert first.best_reward == cold.best_reward
        assert second.best_reward == cold.best_reward
        assert second.best_config == cold.best_config
        assert second.history == cold.history
        assert second.cache_stats.hit_rate > 0.9
        assert second.cache_stats.disk_hits > 0
        assert second.cache_stats.misses == 0

    def test_warm_parallel_matches_cold_parallel(self, tiny_network,
                                                 cost_model, small_constraint,
                                                 tmp_path):
        kwargs = dict(budget=TINY, seed=11)
        cold = search_accelerator([tiny_network], small_constraint,
                                  cost_model, workers=2, **kwargs)
        search_accelerator([tiny_network], small_constraint, cost_model,
                           cache_dir=tmp_path, workers=2, **kwargs)
        warm = search_accelerator([tiny_network], small_constraint,
                                  cost_model, cache_dir=tmp_path, workers=2,
                                  **kwargs)
        assert warm.best_reward == cold.best_reward
        assert warm.best_config == cold.best_config
        assert warm.history == cold.history

    def test_cross_process_reuse(self, tmp_path):
        """Two sequential interpreter invocations share the store: the
        second reports >90% hits and an identical best design."""
        script = (
            "import sys\n"
            "from repro.accelerator.presets import baseline_constraint, "
            "baseline_preset\n"
            "from repro.cost.model import CostModel\n"
            "from repro.search.accelerator_search import NAASBudget, "
            "search_accelerator\n"
            "from repro.search.mapping_search import MappingSearchBudget\n"
            "from repro.tensors.layer import ConvLayer\n"
            "from repro.tensors.network import Network\n"
            "net = Network(name='n', layers=(ConvLayer(name='c1', k=32, "
            "c=16, y=14, x=14, r=3, s=3),))\n"
            "result = search_accelerator([net], "
            "baseline_constraint('nvdla_256'), CostModel(), "
            "budget=NAASBudget(accel_population=4, accel_iterations=2, "
            "mapping=MappingSearchBudget(4, 2)), seed=5, "
            "cache_dir=sys.argv[1])\n"
            "print(f'reward={result.best_reward!r}')\n"
            "print(f'config={result.best_config!r}')\n"
            "print(f'hit_rate={result.cache_stats.hit_rate!r}')\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

        def invoke():
            proc = subprocess.run(
                [sys.executable, "-c", script, str(tmp_path)],
                capture_output=True, text=True, env=env, timeout=300)
            assert proc.returncode == 0, proc.stderr
            return dict(line.split("=", 1)
                        for line in proc.stdout.strip().splitlines())

        first, second = invoke(), invoke()
        assert second["reward"] == first["reward"]
        assert second["config"] == first["config"]
        assert eval(second["hit_rate"]) > 0.9  # noqa: S307 - our own repr
        assert eval(first["hit_rate"]) == 0.0


def _write_records(store, count, size):
    """``count`` records, the ``i``-th holding ``size + 17 * i`` seeded
    random bytes; returns their digests in write order."""
    digests = []
    for i in range(count):
        digest = content_digest("record", i)
        # Random bytes do not compress, so the record is stored raw
        # (NAC1) at the size written.
        store.put(digest, random.Random(i).randbytes(size + 17 * i))
        digests.append(digest)
    return digests


class TestBlockParser:
    """The shard walk reads bounded blocks; records straddling a block
    boundary parse exactly as with one block for the whole shard."""

    def test_straddling_records_parse_like_one_block(self, tmp_path,
                                                     monkeypatch):
        store = DiskCacheStore(tmp_path)
        digests = _write_records(store, 12, 150)
        store.close()
        shard = next(tmp_path.glob("shard-*.bin"))
        whole = _parse_file(shard)
        # 97 is smaller than a header plus payload: every record
        # straddles a block edge.
        for block in (97, 400):
            monkeypatch.setattr(diskcache_module, "_BLOCK_BYTES", block)
            assert _parse_file(shard) == whole
        records, end, status = whole
        assert [record[0] for record in records] == digests
        assert (end, status) == (shard.stat().st_size, "end")

    @pytest.mark.parametrize("damage", ["torn", "corrupt"])
    def test_stats_and_store_agree_on_damaged_shards(self, tmp_path,
                                                     monkeypatch, damage):
        monkeypatch.setattr(diskcache_module, "_BLOCK_BYTES", 97)
        store = DiskCacheStore(tmp_path)
        digests = _write_records(store, 8, 120)
        store.close()
        shard = next(tmp_path.glob("shard-*.bin"))
        data = bytearray(shard.read_bytes())
        # Damage the sixth record, which straddles a 97-byte block edge.
        start = _parse_file(shard)[0][5][1] - _HEADER.size
        if damage == "torn":
            del data[start + _HEADER.size + 50:]
        else:
            data[start + _HEADER.size + 50] ^= 0xFF
            _new_shard_process_identity()
        shard.write_bytes(bytes(data))
        records, end, status = _parse_file(shard)
        assert (len(records), end, status) == (5, start, damage)
        stats = directory_stats(tmp_path)
        assert (stats.records, stats.corrupt_tails) == (5, 1)
        reader = DiskCacheStore(tmp_path)
        assert len(reader) == 5
        assert all(reader.get(digest)[0] for digest in digests[:5])
        assert reader.get(digests[5]) == (False, None)


class TestHeldReaders:
    """get() reads through one held descriptor per shard."""

    @staticmethod
    def _fds_into(directory):
        root = str(Path(directory).resolve())
        held = []
        for entry in os.listdir("/proc/self/fd"):
            try:
                target = os.readlink(f"/proc/self/fd/{entry}")
            except OSError:
                continue
            if target.startswith(root):
                held.append(target)
        return held

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc/self/fd")
    def test_close_releases_shard_descriptors(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        digest = content_digest("k")
        store.put(digest, "v")
        for _ in range(3):
            assert store.get(digest) == (True, "v")
        # One write handle and one reader on the one shard.
        assert len(self._fds_into(tmp_path)) == 2
        store.close()
        assert self._fds_into(tmp_path) == []
        assert store.get(digest) == (True, "v")  # reopens on demand
        store.close()

    def test_two_stores_on_one_directory(self, tmp_path):
        first, second = DiskCacheStore(tmp_path), DiskCacheStore(tmp_path)
        first.put(content_digest("a"), "from-first")
        _new_shard_process_identity()
        second.put(content_digest("b"), "from-second")
        first.refresh()
        second.refresh()
        for store in (first, second):
            assert store.get(content_digest("a")) == (True, "from-first")
            assert store.get(content_digest("b")) == (True, "from-second")
        first.close()
        # Closing one store leaves the other's descriptors working.
        assert second.get(content_digest("a")) == (True, "from-first")
        second.close()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_reads_through_inherited_store(self, tmp_path):
        writer = DiskCacheStore(tmp_path)
        values = {content_digest(i): [i] * (i + 1) for i in range(20)}
        for digest, value in values.items():
            writer.put(digest, value)
        writer.close()
        store = DiskCacheStore(tmp_path)
        order = list(values)
        assert store.get(order[-1]) == (True, values[order[-1]])
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child: read in reverse through the same fd
            try:
                os.close(read_end)
                seen = [store.get(digest) for digest in reversed(order)]
                os.write(write_end, pickle.dumps(seen))
            finally:
                os._exit(0)
        os.close(write_end)
        parent_seen = [store.get(digest) for digest in order]
        ready, _, _ = select.select([read_end], [], [], 60)
        assert ready, "the forked child did not answer within 60 s"
        with os.fdopen(read_end, "rb") as pipe:
            child_seen = pickle.loads(pipe.read())
        assert os.waitpid(pid, 0)[1] == 0
        assert parent_seen == [(True, values[d]) for d in order]
        assert child_seen == [(True, values[d]) for d in reversed(order)]
        store.close()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc/self/fd")
    def test_search_closes_the_cache_it_builds(self, tiny_network,
                                               cost_model, small_constraint,
                                               tmp_path):
        for _ in range(2):  # a cold fill, then a warm rerun that reads
            result = search_accelerator(
                [tiny_network], small_constraint, cost_model, budget=TINY,
                seed=11, cache_dir=tmp_path, workers=1)
            assert self._fds_into(tmp_path) == []
        assert result.cache_stats.disk_hits > 0

    def test_passed_in_cache_stays_open(self, cost_model, tmp_path):
        from repro.nas.search import NASBudget, search_architecture

        cache = build_cache(tmp_path)
        search_architecture(
            baseline_preset("nvdla_256"), cost_model, 0.70,
            budget=NASBudget(population=2, iterations=1),
            mapping_budget=MappingSearchBudget(2, 1), seed=3, cache=cache)
        assert cache.store._write_handle is not None
        cache.close()
        assert cache.store._write_handle is None


class _KeysSeen(Exception):
    pass


class _KeyRecorder(EvaluationCache):
    """A persistent-looking cache that records the disk keys of the
    first batched lookup and stops the evaluation there."""

    persistent = True

    def get_or_compute_many(self, keys, compute, disk_keys=None):
        raise _KeysSeen(list(disk_keys))


def _disk_keys(accel, layer, cost_model, budget, seed=7,
               style=EncodingStyle.IMPORTANCE):
    network = Network(name="one", layers=(layer,))
    with pytest.raises(_KeysSeen) as seen:
        evaluate_accelerator(accel, [network], cost_model, budget, seed=seed,
                             mapping_style=style, cache=_KeyRecorder())
    [key] = seen.value.args[0]
    return key


class TestDiskKey:
    """The per-lookup disk key: ``content_digest(entropy, key, shared)``
    with the budget, cost parameters and cache format digested once."""

    def test_changes_with_each_part(self, small_layer, pointwise_layer):
        accel = baseline_preset("nvdla_256")
        budget = MappingSearchBudget(4, 2)
        base = _disk_keys(accel, small_layer, CostModel(), budget)
        assert _disk_keys(accel, small_layer, CostModel(), budget) == base
        variants = {
            "entropy": _disk_keys(accel, small_layer, CostModel(), budget,
                                  seed=8),
            "accelerator": _disk_keys(baseline_preset("eyeriss"),
                                      small_layer, CostModel(), budget),
            "shape": _disk_keys(accel, pointwise_layer, CostModel(), budget),
            "style": _disk_keys(accel, small_layer, CostModel(), budget,
                                style=EncodingStyle.INDEX),
            "budget": _disk_keys(accel, small_layer, CostModel(),
                                 MappingSearchBudget(4, 3)),
        }
        for field in dataclasses.fields(CostParams):
            value = getattr(CostParams(), field.name)
            params = dataclasses.replace(CostParams(),
                                         **{field.name: value * 2 + 1})
            variants[field.name] = _disk_keys(accel, small_layer,
                                              CostModel(params), budget)
        assert len(variants) > 5
        assert base not in variants.values()
        assert len(set(variants.values())) == len(variants)

    def test_layer_names_stay_out_of_the_key(self, small_layer):
        """Layers of one shape share a record, whatever their names."""
        accel = baseline_preset("nvdla_256")
        budget = MappingSearchBudget(4, 2)
        renamed = dataclasses.replace(small_layer, name="renamed")
        assert _disk_keys(accel, renamed, CostModel(), budget) == \
            _disk_keys(accel, small_layer, CostModel(), budget)

    def test_records_of_the_old_layout_are_never_served(
            self, tiny_network, cost_model, tmp_path):
        """A directory written before the slim records holds whole
        ``MappingSearchResult`` values under the old key; they miss and
        are recomputed."""
        accel = baseline_preset("nvdla_256")
        budget = MappingSearchBudget(4, 2)
        entropy = seed_entropy(7)
        store = DiskCacheStore(tmp_path)
        for layer, _count in tiny_network.unique_shapes():
            key = (accel, shape_key(layer), EncodingStyle.IMPORTANCE)
            old = search_mapping(layer, accel, cost_model, budget,
                                 seed=derive_seed(entropy, key))
            store.put(content_digest(entropy, key, budget,
                                     cost_model.params), old)
        store.close()
        cold = evaluate_accelerator(accel, [tiny_network], cost_model,
                                    budget, seed=7)
        with build_cache(tmp_path) as cache:
            warm = evaluate_accelerator(accel, [tiny_network], cost_model,
                                        budget, seed=7, cache=cache)
            shapes = len(tiny_network.unique_shapes())
            assert (cache.disk_hits, cache.misses) == (0, shapes)
        assert warm[0] == cold[0]
        assert warm[1][tiny_network.name] == cold[1][tiny_network.name]
        # The recomputed values are stored under the new keys.
        with build_cache(tmp_path) as cache:
            evaluate_accelerator(accel, [tiny_network], cost_model, budget,
                                 seed=7, cache=cache)
            assert cache.disk_hits == shapes

    def test_a_record_holds_the_best_mapping_and_cost(
            self, tiny_network, cost_model, tmp_path):
        accel = baseline_preset("nvdla_256")
        budget = MappingSearchBudget(4, 2)
        with build_cache(tmp_path) as cache:
            _, costs, mappings = evaluate_accelerator(
                accel, [tiny_network], cost_model, budget, seed=7,
                cache=cache)
        store = DiskCacheStore(tmp_path)
        values = [store.get(digest)[1] for digest in store._index]
        store.close()
        assert len(values) == len(tiny_network.unique_shapes())
        assert {(type(m), type(c)) for m, c in values} == \
            {(Mapping, LayerCost)}
        assert sorted(c.edp for _, c in values) == sorted(
            c.edp for c in costs[tiny_network.name].layer_costs)
        assert {m for m, _ in values} == set(mappings.values())
