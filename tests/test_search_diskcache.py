"""Tests for the persistent cross-run evaluation cache tier."""

import dataclasses
import os
import pickle
import select
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

from repro.accelerator.presets import BASELINE_PRESETS, baseline_preset
from repro.cost.config import CostParams
from repro.cost.energy import EnergyReport
from repro.cost.latency import LatencyReport
from repro.cost.model import CostModel
from repro.cost.report import LayerCost
from repro.cost.traffic import TrafficReport
from repro.encoding.spaces import EncodingStyle
from repro.mapping.mapping import Mapping
from repro.models import build_model
from repro.search.accelerator_search import (
    CACHE_FORMAT,
    NAASBudget,
    _rendered_disk_keys,
    evaluate_accelerator,
    search_accelerator,
)
from repro.search.cache import EvaluationCache, NotHeld
import repro.search.diskcache as diskcache_module
from repro.search.diskcache import (
    _HEADER,
    DiskCacheStore,
    _parse_shard,
    build_cache,
    compact_directory,
    content_digest,
    directory_stats,
    prune_directory,
)
from repro.search import records
from repro.search.mapping_search import (
    MappingSearchBudget,
    search_mapping,
    search_mappings,
)
from repro.search.records import decode_row, encode_row
from repro.search.result import CacheStats
from repro.tensors.network import Network, shape_key
from repro.utils.rng import derive_seed, seed_entropy

TINY = NAASBudget(accel_population=4, accel_iterations=2,
                  mapping=MappingSearchBudget(population=4, iterations=2))


def _parse_file(shard):
    """:func:`_parse_shard` over a whole shard file."""
    with open(shard, "rb") as handle:
        return _parse_shard(handle.fileno())


def _new_shard_process_identity():
    """Force the next DiskCacheStore write into a fresh shard file, as
    if it came from another process sharing the directory."""
    import repro.search.diskcache as diskcache_module

    diskcache_module._process_shard = None


@pytest.fixture
def open_store(tmp_path):
    """``open_store()`` opens a DiskCacheStore on ``tmp_path`` that is
    closed when the test ends."""
    stores = []

    def open_():
        stores.append(DiskCacheStore(tmp_path))
        return stores[-1]

    yield open_
    for store in stores:
        store.close()


class TestCompactDirectory:
    def test_folds_shards_preserving_values(self, open_store, tmp_path,
                                            shape_best):
        first = open_store()
        first.put(content_digest("a"), shape_best(1))
        first.close()
        _new_shard_process_identity()
        second = open_store()
        second.put(content_digest("b"), None)
        second.close()
        assert len(list(tmp_path.glob("shard-*.bin"))) == 2

        stats = compact_directory(tmp_path)
        assert stats.shards_before == 2
        assert stats.shards_after == 1
        assert stats.records_kept == 2
        assert stats.bytes_after <= stats.bytes_before
        assert len(list(tmp_path.glob("shard-*.bin"))) == 1
        compacted = open_store()
        assert compacted.get(content_digest("a")) == (True, shape_best(1))
        assert compacted.get(content_digest("b")) == (True, None)

    def test_drops_duplicate_digests_first_write_wins(self, open_store,
                                                      tmp_path, shape_best):
        digest = content_digest("shared")
        first = open_store()
        first.put(digest, shape_best(1))
        first.close()
        _new_shard_process_identity()
        second = open_store()
        # Bypass the in-index dedup by writing via a store that has not
        # scanned the first shard's record yet.
        second._index.pop(digest, None)
        second.put(digest, shape_best(2))
        second.close()

        stats = compact_directory(tmp_path)
        assert stats.records_kept == 1
        assert stats.duplicates_dropped == 1
        # Shards are compacted in sorted order; either value is a valid
        # first-write, but exactly one survives and reads cleanly.
        found, value = open_store().get(digest)
        assert found and value in (shape_best(1), shape_best(2))

    def test_drops_corrupt_tail(self, open_store, tmp_path, shape_best):
        store = open_store()
        store.put(content_digest("a"), shape_best(1))
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
    def test_prunes_by_shard_mtime(self, open_store, tmp_path, shape_best):
        store = open_store()
        store.put(content_digest("stale"), shape_best(1))
        store.close()
        shard = next(tmp_path.glob("shard-*.bin"))
        old = __import__("time").time() - 10 * 86400
        os.utime(shard, (old, old))
        stats = prune_directory(tmp_path, older_than_days=5)
        assert stats.shards_removed == 1
        assert stats.records_removed == 1
        assert stats.bytes_removed > 0
        assert list(tmp_path.glob("shard-*.bin")) == []

    def test_keeps_recent_shards(self, open_store, tmp_path, shape_best):
        store = open_store()
        store.put(content_digest("fresh"), shape_best(1))
        store.close()
        stats = prune_directory(tmp_path, older_than_days=5)
        assert stats.shards_removed == 0
        assert stats.shards_kept == 1
        assert open_store().get(content_digest("fresh")) == \
            (True, shape_best(1))

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

    @pytest.mark.parametrize("style", list(EncodingStyle))
    def test_rendered_disk_keys_are_content_digests(self, style):
        """The disk keys an evaluation renders once per accelerator and
        shape equal ``content_digest`` over each whole lookup."""
        shapes = [shape_key(layer) for layer, _ in
                  build_model("mobilenet_v2").unique_shapes()]
        lookups = [(accel, entropy)
                   for accel in BASELINE_PRESETS.values()
                   for entropy in (0, 1, seed_entropy(2021), 2 ** 127 + 5)]
        shared = content_digest(CACHE_FORMAT, MappingSearchBudget(),
                                CostParams())
        rendered = _rendered_disk_keys(
            [accel for accel, _ in lookups],
            [entropy for _, entropy in lookups], shapes, style, shared)
        assert rendered == [
            [content_digest(entropy, (accel, skey, style), shared)
             for skey in shapes]
            for accel, entropy in lookups]


class TestDiskCacheStore:
    def test_round_trip(self, open_store, tmp_path, shape_best):
        store = open_store()
        digest, none = content_digest("k"), content_digest("none")
        store.put(digest, shape_best(42))
        store.put(none, None)
        assert store.get(digest) == (True, shape_best(42))
        assert store.get(none) == (True, None)
        assert digest in store

    def test_miss(self, open_store, tmp_path):
        assert open_store().get("missing") == (False, None)

    def test_persists_across_reopen(self, open_store, tmp_path, shape_best):
        digest = content_digest("k")
        open_store().put(digest, shape_best(3))
        reopened = open_store()
        assert reopened.get(digest) == (True, shape_best(3))
        assert len(reopened) == 1

    def test_first_write_wins(self, open_store, tmp_path, shape_best):
        store = open_store()
        digest = content_digest("k")
        store.put(digest, shape_best(1))
        store.put(digest, shape_best(2))
        assert store.get(digest) == (True, shape_best(1))
        assert open_store().get(digest) == (True, shape_best(1))

    def test_concurrent_stores_do_not_lose_entries(self, open_store, tmp_path,
                                                   shape_best):
        """Two handles on one directory writing interleaved (same-process
        handles share a locked shard; distinct processes get distinct
        shards); nobody's entries are lost."""
        a, b = open_store(), open_store()
        for i in range(10):
            (a if i % 2 else b).put(content_digest(i), shape_best(i))
        merged = open_store()
        assert len(merged) == 10
        for i in range(10):
            assert merged.get(content_digest(i)) == (True, shape_best(i))

    def test_refresh_picks_up_other_writers(self, open_store, tmp_path,
                                            shape_best):
        reader = open_store()
        writer = open_store()
        digest = content_digest("late")
        writer.put(digest, shape_best(7))
        assert reader.get(digest) == (False, None)
        reader.refresh()
        assert reader.get(digest) == (True, shape_best(7))

    def test_truncated_tail_is_skipped_not_fatal(self, open_store, tmp_path,
                                                 shape_best):
        store = open_store()
        good, bad = content_digest("good"), content_digest("bad")
        store.put(good, shape_best(1))
        store.put(bad, shape_best(2))
        shard = next(tmp_path.glob("shard-*.bin"))
        data = shard.read_bytes()
        shard.write_bytes(data[:-3])  # tear the last record's payload
        reopened = open_store()
        assert reopened.get(good) == (True, shape_best(1))
        assert reopened.get(bad) == (False, None)

    def test_corrupt_garbage_file_is_skipped_not_fatal(self, open_store,
                                                       tmp_path, shape_best):
        store = open_store()
        good = content_digest("good")
        store.put(good, shape_best(1))
        (tmp_path / "shard-9999-dead.bin").write_bytes(b"not a record" * 10)
        reopened = open_store()
        assert reopened.get(good) == (True, shape_best(1))
        assert len(reopened) == 1

    def test_corrupt_checksum_stops_that_shard_only(self, open_store,
                                                    tmp_path, shape_best):
        """A crc-corrupt shard (here: another process's) is dropped
        without affecting clean shards."""
        store = open_store()
        digest = content_digest("flip")
        store.put(digest, shape_best(1))
        store.close()
        shard = next(tmp_path.glob("shard-*.bin"))
        data = bytearray(shard.read_bytes())
        data[-1] ^= 0xFF  # flip a payload byte -> crc mismatch
        # move the damaged shard under another process's name
        shard.rename(tmp_path / "shard-99999-beef.bin")
        (tmp_path / "shard-99999-beef.bin").write_bytes(bytes(data))
        clean = open_store()  # this process's (new) shard
        good = content_digest("good")
        clean.put(good, shape_best(2))
        reopened = open_store()
        assert reopened.get(digest) == (False, None)
        assert reopened.get(good) == (True, shape_best(2))

    def test_store_handles_append_to_this_process_shard(self, open_store,
                                                        tmp_path, shape_best):
        """Store handles in one process share a single shard file, so a
        worker opening a store per run doesn't litter the directory;
        entries from every handle survive."""
        store = open_store()
        store.put(content_digest("parent"), shape_best(1))
        clone = open_store()
        clone.put(content_digest("child"), shape_best(2))
        assert len(list(tmp_path.glob("shard-*.bin"))) == 1
        merged = open_store()
        assert len(merged) == 2
        assert merged.get(content_digest("parent")) == (True, shape_best(1))
        assert merged.get(content_digest("child")) == (True, shape_best(2))

    @pytest.mark.parametrize("damage", ["order", "tile", "short"])
    def test_damaged_row_degrades_to_miss(self, open_store, tmp_path,
                                          shape_best, damage):
        """A record whose frame and crc are sound but whose row fails
        decode's checks reads as a miss, never an exception."""
        digest, good = content_digest("damaged"), content_digest("good")
        (tmp_path / "shard-11111-feed.bin").write_bytes(
            _framed(digest, _damaged(encode_row(shape_best(1)), damage))
            + _framed(good, encode_row(shape_best(2))))
        store = open_store()
        assert digest in store
        assert store.get(digest) == (False, None)
        assert store.get(good) == (True, shape_best(2))

    def test_corrupt_shard_scanned_once_then_skipped(self, open_store,
                                                     tmp_path, caplog,
                                                     shape_best):
        """A confirmed-corrupt shard is marked dead: one warning, no
        rescan (and no repeated warning) on later refreshes."""
        import logging
        store = open_store()
        store.put(content_digest("k"), shape_best(1))
        store.close()
        shard = next(tmp_path.glob("shard-*.bin"))
        data = bytearray(shard.read_bytes())
        data[0] ^= 0xFF  # clobber the magic
        shard.write_bytes(bytes(data))
        with caplog.at_level(logging.WARNING):
            reader = open_store()
            reader.refresh()
            reader.refresh()
        warnings = [r for r in caplog.records
                    if "corrupt record" in r.getMessage()]
        assert len(warnings) == 1
        assert len(reader) == 0


def _legacy_record(digest, value, magic):
    """A record as the pickle formats framed it: the pickled value
    behind ``NAC1`` (raw) or ``NAC2`` (zlib-compressed)."""
    payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    if magic == b"NAC2":
        payload = zlib.compress(payload)
    return _HEADER.pack(magic, digest.encode("ascii"), len(payload),
                        zlib.crc32(payload)) + payload


def _framed(digest, row):
    """A row record around ``row`` with a matching length and crc."""
    return _HEADER.pack(b"NAC3", digest.encode("ascii"), len(row),
                        zlib.crc32(row)) + row


def _leaves(value):
    """Every leaf of a nested tuple, floats as their IEEE-754 bytes."""
    for item in value:
        if isinstance(item, tuple):
            yield from _leaves(item)
        elif type(item) is float:
            yield struct.pack("<d", item)
        else:
            yield type(item), item


def _bits(value):
    if value is None:
        return None
    mapping, cost = value
    return list(_leaves(dataclasses.astuple(mapping)
                        + dataclasses.astuple(cost)))


#: Where a row keeps its array order and its first tile (records.py).
_ARRAY_ORDER = slice(1, 7)
_FIRST_TILE = slice(13, 17)


def _damaged(row, damage):
    data = bytearray(row)
    if damage == "order":  # K twice, S never: not a permutation
        data[_ARRAY_ORDER] = bytes([1, 1, 2, 3, 4, 5])
    elif damage == "tile":
        data[_FIRST_TILE] = bytes(4)
    else:  # "short"
        del data[len(data) // 2:]
    return bytes(data)


class TestShapeBestRows:
    """A record's row gives back exactly the value written."""

    @pytest.mark.parametrize("style", list(EncodingStyle))
    @pytest.mark.parametrize("preset", sorted(BASELINE_PRESETS))
    def test_round_trip_on_search_results(self, preset, style, cost_model,
                                          small_layer, pointwise_layer,
                                          depthwise_layer, strided_layer):
        layers = [small_layer, pointwise_layer, depthwise_layer,
                  strided_layer]
        results = search_mappings(
            layers, baseline_preset(preset), cost_model,
            budget=MappingSearchBudget(4, 2), seeds=range(len(layers)),
            style=style)
        values = [(result.best_mapping, result.best_cost) if result.found
                  else None for result in results] + [None]
        assert any(value is not None for value in values)
        for value in values:
            back = decode_row(encode_row(value))
            assert back == value
            assert _bits(back) == _bits(value)

    def test_row_covers_every_report_field(self):
        """A field added to a report must be added to the row (and
        CACHE_FORMAT bumped), or it would decode as its default."""
        def names(cls, skip=()):
            return tuple(field.name for field in dataclasses.fields(cls)
                         if field.name not in skip)

        assert ("layer_name",) + records._COST_FIELDS == names(
            LayerCost, ("valid", "reasons", "traffic", "latency", "energy"))
        assert records._TRAFFIC_FIELDS == names(TrafficReport,
                                                ("feasible", "reasons"))
        assert records._LATENCY_FIELDS == names(LatencyReport)
        assert records._ENERGY_FIELDS == names(EnergyReport)
        assert names(Mapping) == ("array_order", "pe_order", "tiles")

    def test_encode_raises_on_what_a_row_cannot_hold(self, shape_best):
        mapping, cost = shape_best(1)
        unrepresentable = [
            LayerCost.invalid("test_conv", ("no mapping fits",)),
            dataclasses.replace(cost, reasons=("a reason",)),
            dataclasses.replace(cost, traffic=None),
            dataclasses.replace(cost, cycles=int(cost.cycles)),
            dataclasses.replace(cost, macs=float(cost.macs)),
        ]
        for bad in unrepresentable:
            with pytest.raises(ValueError):
                encode_row((mapping, bad))

    @pytest.mark.parametrize("damage", ["order", "tile", "short"])
    def test_damaged_row_raises_value_error(self, shape_best, damage):
        with pytest.raises(ValueError):
            decode_row(_damaged(encode_row(shape_best(1)), damage))


class TestStaleRecords:
    """Records of the pickle formats (``NAC1``/``NAC2``) are framed by
    their length and crc, so scans walk past them as stale: counted,
    never indexed or decoded, and dropped by compact."""

    def test_legacy_records_are_stale_not_served(self, open_store, tmp_path,
                                                 caplog, shape_best):
        import logging

        old_raw, old_zlib, row = (content_digest(name)
                                  for name in ("raw", "zlib", "row"))
        shard = tmp_path / "shard-11111-feed.bin"
        shard.write_bytes(_legacy_record(old_raw, shape_best(1), b"NAC1")
                          + _legacy_record(old_zlib, shape_best(2), b"NAC2")
                          + _framed(row, encode_row(shape_best(3))))
        records, end, status = _parse_file(shard)
        assert [(digest, stale) for digest, _, _, stale in records] == [
            (old_raw, True), (old_zlib, True), (row, False)]
        assert (end, status) == (shard.stat().st_size, "end")
        with caplog.at_level(logging.WARNING):
            store = open_store()
            assert store.get(old_raw) == (False, None)
            assert store.get(old_zlib) == (False, None)
            assert store.get(row) == (True, shape_best(3))
        assert caplog.records == []
        assert len(store) == 1 and old_raw not in store
        stats = directory_stats(tmp_path)
        assert (stats.records, stats.stale_records, stats.corrupt_tails) == \
            (1, 2, 0)

    def test_compact_drops_stale_records(self, open_store, tmp_path,
                                         shape_best):
        (tmp_path / "shard-11111-feed.bin").write_bytes(
            _legacy_record(content_digest("old"), shape_best(1), b"NAC2"))
        store = open_store()
        store.put(content_digest("new"), shape_best(2))
        store.close()
        stats = compact_directory(tmp_path)
        assert (stats.records_kept, stats.stale_dropped,
                stats.duplicates_dropped) == (1, 1, 0)
        after = directory_stats(tmp_path)
        assert (after.shards, after.records, after.stale_records) == (1, 1, 0)
        assert open_store().get(content_digest("new")) == (True, shape_best(2))


class TestTieredEvaluationCache:
    def test_plain_cache_ignores_disk_key(self):
        cache = EvaluationCache()
        assert cache.get_or_compute("k", lambda: 1, disk_key="d") == 1
        assert cache.persistent is False

    def test_miss_computes_and_persists(self, tmp_path, shape_best):
        with build_cache(tmp_path) as cache:
            assert cache.persistent is True
            assert cache.get_or_compute(
                "k", lambda: shape_best(41), disk_key="d" * 32) == \
                shape_best(41)
            assert cache.misses == 1
        # a fresh tiered cache over the same directory hits disk
        with build_cache(tmp_path) as fresh:
            assert fresh.get_or_compute(
                "k", lambda: shape_best(-1), disk_key="d" * 32) == \
                shape_best(41)
            assert fresh.disk_hits == 1
            assert fresh.hits == 1

    def test_many_reads_disk_hits_and_persists_misses(self, tmp_path,
                                                      shape_best):
        with build_cache(tmp_path) as cold:
            cold.get_or_compute("k", lambda: shape_best(41),
                                disk_key="d" * 32)
        batches = []

        def compute(keys):
            batches.append(list(keys))
            return [shape_best(0) for _ in keys]

        with build_cache(tmp_path) as cache:
            values = cache.get_or_compute_many(
                ["k", "j"], compute, disk_keys=["d" * 32, "e" * 32])
            assert (cache.hits, cache.disk_hits, cache.misses) == (1, 1, 1)
        assert values == [shape_best(41), shape_best(0)]
        assert batches == [["j"]]
        with build_cache(tmp_path) as warm:
            assert warm.get_or_compute(
                "j", lambda: shape_best(-1), disk_key="e" * 32) == \
                shape_best(0)

    def test_l1_hit_does_not_touch_disk(self, tmp_path, shape_best):
        with build_cache(tmp_path) as cache:
            cache.get_or_compute("k", lambda: shape_best(1),
                                 disk_key="d" * 32)
            cache.get_or_compute("k", lambda: shape_best(-1),
                                 disk_key="d" * 32)
        assert cache.hits == 1
        assert cache.disk_hits == 0

    def test_no_disk_key_stays_in_memory(self, tmp_path, shape_best):
        with build_cache(tmp_path) as cache:
            cache.get_or_compute("k", lambda: shape_best(1))
            assert len(cache.store) == 0

    def test_disk_hit_is_not_promoted_into_l1(self, tmp_path, shape_best):
        """A warm rerun reads each entry from disk as often as it is
        looked up and never grows the serving process's L1."""
        with build_cache(tmp_path) as cold:
            cold.get_or_compute("k", lambda: shape_best(7),
                                disk_key="d" * 32)
        with build_cache(tmp_path) as warm:
            for _ in range(2):
                assert warm.get_or_compute("k", lambda: shape_best(-1),
                                           disk_key="d" * 32) == \
                    shape_best(7)
        assert len(warm) == 0
        assert (warm.hits, warm.disk_hits, warm.misses) == (2, 2, 0)

    def test_build_cache_without_dir_is_plain(self):
        assert type(build_cache(None)) is EvaluationCache


def _must_not_compute(*_args):
    raise AssertionError("a probe computed")


class TestTieredProbe:
    """A probe of a tiered cache serves its L1 and disk hits, refuses
    every other lookup untouched, and counts like plain lookups."""

    DIGESTS = {"k": "d" * 32, "j": "e" * 32}

    def _fill(self, tmp_path, shape_best, keys):
        with build_cache(tmp_path) as cold:
            for n, key in enumerate(keys):
                cold.get_or_compute(key, lambda n=n: shape_best(n),
                                    disk_key=self.DIGESTS[key])

    def test_refused_probe_reads_computes_and_puts_nothing(
            self, tmp_path, monkeypatch, shape_best):
        self._fill(tmp_path, shape_best, ["k"])
        shards = sorted(tmp_path.glob("shard-*.bin"))
        puts = []
        monkeypatch.setattr(DiskCacheStore, "put",
                            lambda self, *args: puts.append(args))
        with build_cache(tmp_path) as cache:
            cache.get_or_compute("memory", lambda: shape_best(9))
            before = (cache.stats(), list(cache._store.items()),
                      len(cache.store))
            probe = cache.probe()
            with pytest.raises(NotHeld) as refusal:
                probe.get_or_compute_many(
                    ["k", "j"], _must_not_compute,
                    disk_keys=[self.DIGESTS["k"], self.DIGESTS["j"]])
            assert refusal.value.partly
            with pytest.raises(NotHeld):
                probe.get_or_compute("j", _must_not_compute,
                                     disk_key=self.DIGESTS["j"])
            assert (cache.stats(), list(cache._store.items()),
                    len(cache.store)) == before
            assert probe.stats() == CacheStats(hits=0, misses=0, disk_hits=0)
        assert puts == []
        assert sorted(tmp_path.glob("shard-*.bin")) == shards

    def test_successful_probe_counts_like_plain_lookups(self, tmp_path,
                                                        shape_best):
        self._fill(tmp_path, shape_best, ["k", "j"])
        keys = ["k", "j", "k"]
        digests = [self.DIGESTS[key] for key in keys]
        with build_cache(tmp_path) as plain, build_cache(tmp_path) as cache:
            expected = plain.get_or_compute_many(keys, _must_not_compute,
                                                 disk_keys=digests)
            probe = cache.probe()
            assert probe.get_or_compute_many(
                keys, _must_not_compute, disk_keys=digests) == expected
            assert probe.stats() == plain.stats()
            assert (probe.hits, probe.disk_hits, probe.misses) == (3, 3, 0)
            assert cache.stats() == CacheStats(hits=0, misses=0, disk_hits=0)
            assert len(cache) == 0  # disk hits stay out of the shared L1

    def test_a_record_that_vanishes_after_the_check_is_computed(
            self, tmp_path, monkeypatch, shape_best):
        self._fill(tmp_path, shape_best, ["k"])
        with build_cache(tmp_path) as cache:
            monkeypatch.setattr(cache.store, "get",
                                lambda digest: (False, None))
            probe = cache.probe()
            assert probe.get_or_compute("k", lambda: shape_best(5),
                                        disk_key=self.DIGESTS["k"]) == \
                shape_best(5)
            assert (probe.hits, probe.misses) == (0, 1)


@pytest.fixture
def tiny_network(small_layer, pointwise_layer):
    return Network(name="tiny", layers=(small_layer, pointwise_layer))


class TestEvaluateAcceleratorDiskTier:
    def test_warm_run_matches_cold(self, tiny_network, cost_model, tmp_path):
        preset = baseline_preset("nvdla_256")
        budget = MappingSearchBudget(4, 2)
        cold, cold_costs, _ = evaluate_accelerator(
            preset, [tiny_network], cost_model, budget, seed=7)
        with build_cache(tmp_path) as cold_cache:
            evaluate_accelerator(preset, [tiny_network], cost_model, budget,
                                 seed=7, cache=cold_cache)
        with build_cache(tmp_path) as warm_cache:
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
        with build_cache(tmp_path) as cold_cache:
            evaluate_accelerator(preset, [tiny_network], cost_model,
                                 MappingSearchBudget(4, 2), seed=7,
                                 cache=cold_cache)
        other_budget = MappingSearchBudget(population=6, iterations=3)
        fresh, _, _ = evaluate_accelerator(
            preset, [tiny_network], cost_model, other_budget, seed=7)
        with build_cache(tmp_path) as warm_cache:
            warm, _, _ = evaluate_accelerator(
                preset, [tiny_network], cost_model, other_budget, seed=7,
                cache=warm_cache)
        assert warm_cache.disk_hits == 0
        assert warm == fresh

    def test_different_seed_never_hits_stale_entries(
            self, tiny_network, cost_model, tmp_path):
        preset = baseline_preset("nvdla_256")
        budget = MappingSearchBudget(4, 2)
        with build_cache(tmp_path) as cold_cache:
            evaluate_accelerator(preset, [tiny_network], cost_model, budget,
                                 seed=7, cache=cold_cache)
        fresh, _, _ = evaluate_accelerator(
            preset, [tiny_network], cost_model, budget, seed=8)
        with build_cache(tmp_path) as warm_cache:
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


def _write_records(store, count, shape_best):
    """``count`` records, the ``i``-th row ``17 * i`` bytes longer than
    the first (by its layer name); returns their digests in write
    order."""
    digests = []
    for i in range(count):
        digest = content_digest("record", i)
        store.put(digest, shape_best(i, name="n" * (17 * i + 1)))
        digests.append(digest)
    return digests


class TestBlockParser:
    """The shard walk reads bounded blocks; records straddling a block
    boundary parse exactly as with one block for the whole shard."""

    def test_straddling_records_parse_like_one_block(self, open_store,
                                                     tmp_path, monkeypatch,
                                                     shape_best):
        store = open_store()
        digests = _write_records(store, 12, shape_best)
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
    def test_stats_and_store_agree_on_damaged_shards(self, open_store,
                                                     tmp_path, monkeypatch,
                                                     damage, shape_best):
        monkeypatch.setattr(diskcache_module, "_BLOCK_BYTES", 97)
        store = open_store()
        digests = _write_records(store, 8, shape_best)
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
        reader = open_store()
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
    def test_close_releases_shard_descriptors(self, open_store, tmp_path,
                                              shape_best):
        store = open_store()
        digest = content_digest("k")
        store.put(digest, shape_best(1))
        for _ in range(3):
            assert store.get(digest) == (True, shape_best(1))
        # One write handle and one reader on the one shard.
        assert len(self._fds_into(tmp_path)) == 2
        store.close()
        assert self._fds_into(tmp_path) == []
        assert store.get(digest) == (True, shape_best(1))  # reopens
        store.close()

    def test_two_stores_on_one_directory(self, open_store, tmp_path,
                                         shape_best):
        first, second = open_store(), open_store()
        first.put(content_digest("a"), shape_best(1))
        _new_shard_process_identity()
        second.put(content_digest("b"), shape_best(2))
        first.refresh()
        second.refresh()
        for store in (first, second):
            assert store.get(content_digest("a")) == (True, shape_best(1))
            assert store.get(content_digest("b")) == (True, shape_best(2))
        first.close()
        # Closing one store leaves the other's descriptors working.
        assert second.get(content_digest("a")) == (True, shape_best(1))
        second.close()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_reads_through_inherited_store(self, open_store,
                                                        tmp_path, shape_best):
        writer = open_store()
        values = {content_digest(i): shape_best(i) for i in range(20)}
        for digest, value in values.items():
            writer.put(digest, value)
        writer.close()
        store = open_store()
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
            self, tiny_network, cost_model, tmp_path, caplog):
        """A directory the pickle format wrote (hand-framed ``NAC1``
        records of each shape's pickled best, under this and the
        previous format's keys) opens without a warning or a
        corrupt-tail skip, serves nothing and refills like a cold run."""
        import logging

        accel = baseline_preset("nvdla_256")
        budget = MappingSearchBudget(4, 2)
        entropy = seed_entropy(7)
        legacy = b""
        for layer, _count in tiny_network.unique_shapes():
            key = (accel, shape_key(layer), EncodingStyle.IMPORTANCE)
            old = search_mapping(layer, accel, cost_model, budget,
                                 seed=derive_seed(entropy, key))
            for cache_format in ("shape-best/2", CACHE_FORMAT):
                shared = content_digest(cache_format, budget,
                                        cost_model.params)
                legacy += _legacy_record(
                    content_digest(entropy, key, shared),
                    (old.best_mapping, old.best_cost), b"NAC1")
        (tmp_path / "shard-11111-feed.bin").write_bytes(legacy)
        shapes = len(tiny_network.unique_shapes())
        stats = directory_stats(tmp_path)
        assert (stats.records, stats.stale_records, stats.corrupt_tails) == \
            (0, 2 * shapes, 0)
        cold = evaluate_accelerator(accel, [tiny_network], cost_model,
                                    budget, seed=7)
        with caplog.at_level(logging.WARNING):
            with build_cache(tmp_path) as cache:
                warm = evaluate_accelerator(accel, [tiny_network],
                                            cost_model, budget, seed=7,
                                            cache=cache)
                assert (cache.disk_hits, cache.misses) == (0, shapes)
        assert caplog.records == []
        assert warm[0] == cold[0]
        assert warm[1][tiny_network.name] == cold[1][tiny_network.name]
        # The recomputed values are stored under the new keys.
        with build_cache(tmp_path) as cache:
            evaluate_accelerator(accel, [tiny_network], cost_model, budget,
                                 seed=7, cache=cache)
            assert cache.disk_hits == shapes

    def test_a_record_holds_the_best_mapping_and_cost(
            self, open_store, tiny_network, cost_model, tmp_path):
        accel = baseline_preset("nvdla_256")
        budget = MappingSearchBudget(4, 2)
        with build_cache(tmp_path) as cache:
            _, costs, mappings = evaluate_accelerator(
                accel, [tiny_network], cost_model, budget, seed=7,
                cache=cache)
        store = open_store()
        values = [store.get(digest)[1] for digest in store._index]
        store.close()
        assert len(values) == len(tiny_network.unique_shapes())
        assert {(type(m), type(c)) for m, c in values} == \
            {(Mapping, LayerCost)}
        assert sorted(c.edp for _, c in values) == sorted(
            c.edp for c in costs[tiny_network.name].layer_costs)
        assert {m for m, _ in values} == set(mappings.values())
