"""Tests for the evaluation cache and search objectives."""

import math

import pytest

from repro.cost.report import LayerCost, NetworkCost
from repro.search.cache import EvaluationCache, NotHeld
from repro.search.objectives import geomean_edp, total_energy, total_latency
from repro.search.result import CacheStats


class TestCache:
    def test_computes_once(self):
        cache = EvaluationCache()
        calls = []
        for _ in range(3):
            cache.get_or_compute("k", lambda: calls.append(1) or 42)
        assert len(calls) == 1
        assert cache.hits == 2
        assert cache.misses == 1
        assert cache.hit_rate == pytest.approx(2 / 3)

    def test_many_computes_misses_in_one_call(self):
        cache = EvaluationCache()
        cache.get_or_compute("a", lambda: "A")
        batches = []

        def compute(keys):
            batches.append(list(keys))
            return [key.upper() for key in keys]

        values = cache.get_or_compute_many(["b", "a", "c", "b"], compute)
        assert values == ["B", "A", "C", "B"]
        assert batches == [["b", "c"]]
        # Counted like four one-by-one lookups: the repeat of b hits.
        assert (cache.hits, cache.misses) == (2, 3)
        assert cache.get_or_compute_many(["c"], compute) == ["C"]
        assert batches == [["b", "c"]]

    def test_many_recomputes_an_entry_evicted_before_its_lookup(self):
        cache = EvaluationCache(max_entries=1)
        cache.get_or_compute("a", lambda: 1)
        calls = []

        def compute(keys):
            calls.append(list(keys))
            return [len(key) for key in keys]

        # Storing "bb" evicts "a", which the batch had counted as held.
        assert cache.get_or_compute_many(["bb", "a"], compute) == [2, 1]
        assert calls == [["bb"], ["a"]]

    def test_eviction_bound(self):
        cache = EvaluationCache(max_entries=2)
        for i in range(5):
            cache.get_or_compute(i, lambda i=i: i)
        assert len(cache) == 2

    def test_lru_order(self):
        cache = EvaluationCache(max_entries=2)
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("b", lambda: 2)
        cache.get_or_compute("a", lambda: 1)  # refresh a
        cache.get_or_compute("c", lambda: 3)  # evicts b
        cache.get_or_compute("b", lambda: 99)
        assert cache.get_or_compute("b", lambda: 0) == 99

    def test_clear(self):
        cache = EvaluationCache()
        cache.get_or_compute("x", lambda: 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 0

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            EvaluationCache(max_entries=0)

    def test_hit_rate_empty_is_zero(self):
        assert EvaluationCache().hit_rate == 0.0

    def test_lru_eviction_keeps_most_recent(self):
        cache = EvaluationCache(max_entries=3)
        for key in ("a", "b", "c"):
            cache.get_or_compute(key, lambda key=key: key.upper())
        cache.get_or_compute("a", lambda: "A")   # refresh a; b is now LRU
        cache.get_or_compute("d", lambda: "D")   # evicts b
        calls = []
        cache.get_or_compute("b", lambda: calls.append(1) or "B2")
        assert calls  # b was recomputed after eviction
        # a, c, d survived up to the "d" insertion; c was evicted by b
        assert cache.get_or_compute("a", lambda: "other") == "A"

    def test_stats_and_add_counts(self):
        cache = EvaluationCache()
        cache.get_or_compute("k", lambda: 1)
        cache.get_or_compute("k", lambda: 1)
        assert cache.stats() == CacheStats(hits=1, misses=1, disk_hits=0)
        # what an evaluator adds up: its own lookups and a worker's
        total = cache.stats() + CacheStats(hits=2, misses=3, disk_hits=1)
        assert total == CacheStats(hits=3, misses=4, disk_hits=1)
        assert total - cache.stats() == CacheStats(2, 3, 1)


def _filled_cache():
    """A cache holding ``a`` and ``b``, each looked up once."""
    cache = EvaluationCache()
    for key in "ab":
        cache.get_or_compute(key, lambda key=key: key.upper())
    return cache


def _must_not_compute(*_args):
    raise AssertionError("a probe computed")


def _upper_all(keys):
    return [key.upper() for key in keys]


class TestProbe:
    """A probe serves only what its cache holds: a refusal leaves no
    trace, and a success counts exactly like plain lookups."""

    @pytest.mark.parametrize("lookup, partly", [
        (lambda probe: probe.get_or_compute("c", _must_not_compute),
         False),
        (lambda probe: probe.get_or_compute_many(["c", "a"],
                                                 _must_not_compute),
         True),
        (lambda probe: probe.get_or_compute_many(["c", "c"],
                                                 _must_not_compute),
         False),
    ], ids=["one", "many_partly_held", "many_none_held"])
    def test_refused_probe_leaves_no_trace(self, lookup, partly):
        cache = _filled_cache()
        before = (cache.stats(), list(cache._store.items()))
        probe = cache.probe()
        with pytest.raises(NotHeld) as refusal:
            lookup(probe)
        assert refusal.value.partly is partly
        assert (cache.stats(), list(cache._store.items())) == before
        assert probe.stats() == CacheStats(hits=0, misses=0, disk_hits=0)

    def test_refusal_after_a_hit_is_partly_held(self):
        probe = _filled_cache().probe()
        assert probe.get_or_compute("a", _must_not_compute) == "A"
        with pytest.raises(NotHeld) as refusal:
            probe.get_or_compute("c", _must_not_compute)
        assert refusal.value.partly

    def test_successful_probe_counts_like_plain_lookups(self):
        keys = ["b", "a", "b"]
        plain, probed = _filled_cache(), _filled_cache()
        before = plain.stats()
        expected = plain.get_or_compute_many(keys, _upper_all)
        probe = probed.probe()
        assert probe.get_or_compute_many(keys, _must_not_compute) == expected
        assert probe.get_or_compute("a", _must_not_compute) == \
            plain.get_or_compute("a", _upper_all)
        assert probe.stats() == plain.stats() - before
        # The probe shares the entries, LRU order included, not the
        # counters.
        assert list(probed._store.items()) == list(plain._store.items())
        assert probed.stats() == before


def _network_cost(name, cycles, energy):
    layer = LayerCost(layer_name="l", valid=True, cycles=cycles,
                      energy_nj=energy, utilization=0.5, macs=100)
    return NetworkCost(network_name=name, layer_costs=(layer,))


class TestObjectives:
    def test_geomean_edp(self):
        a = _network_cost("a", 10, 10)    # edp 100
        b = _network_cost("b", 100, 100)  # edp 10000
        assert geomean_edp([a, b]) == pytest.approx(1000.0)

    def test_invalid_network_is_inf(self):
        bad = NetworkCost(network_name="bad",
                          layer_costs=(LayerCost.invalid("l", ("x",)),))
        good = _network_cost("good", 10, 10)
        assert geomean_edp([good, bad]) == math.inf

    def test_empty_is_inf(self):
        assert geomean_edp([]) == math.inf

    def test_totals(self):
        a = _network_cost("a", 10, 3)
        b = _network_cost("b", 20, 4)
        assert total_latency([a, b]) == 30
        assert total_energy([a, b]) == 7
