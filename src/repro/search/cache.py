"""Memoization for expensive inner-loop evaluations.

The outer evolution loop frequently revisits similar accelerator
candidates, and multiple networks share layer shapes. Keys are plain
hashables (frozen dataclasses / shape tuples), so a dict suffices; the
class adds hit statistics and a size bound.

:mod:`repro.search.diskcache` layers a persistent cross-run tier under
this class; ``get_or_compute`` therefore accepts (and here ignores) the
``disk_key`` content digest that tier is keyed by, so producers can pass
it unconditionally. ``get_or_compute_many`` is the batched form: one
``compute`` call over every miss of a batch of keys, which is how the
lockstep mapping search fills a candidate's shapes.

A cache never crosses a process boundary. The coordinator of a run,
each pool worker process and each ``repro worker`` loop keeps its own
for the length of the run (see :func:`repro.search.transport.run_chunk`),
and whoever builds a cache closes it (it is a context manager);
workers send back only the counts a task group added, which
:meth:`EvaluationCache.add_counts` sums into the coordinator's cache.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence

from repro.search.result import CacheStats


class EvaluationCache:
    """Bounded LRU memo-table with hit/miss counters."""

    #: Whether this cache has a disk tier worth deriving ``disk_key``
    #: digests for (overridden by TieredEvaluationCache).
    persistent = False

    def __init__(self, max_entries: int = 100_000) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._store: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        #: Hits served by a disk tier (always 0 without one); they are
        #: included in ``hits``.
        self.disk_hits = 0

    def get_or_compute(self, key: Hashable, compute: Callable[[], Any],
                       disk_key: Optional[str] = None) -> Any:
        """Return the cached value for ``key`` or compute and store it.

        ``disk_key`` identifies the entry in a persistent tier; the
        in-memory cache has none, so it is accepted for interface
        compatibility and ignored.
        """
        del disk_key
        if key in self._store:
            self.hits += 1
            self._store.move_to_end(key)
            return self._store[key]
        self.misses += 1
        value = compute()
        self._store[key] = value
        if len(self._store) > self.max_entries:
            self._store.popitem(last=False)
        return value

    def get_or_compute_many(self, keys: Sequence[Hashable],
                            compute: Callable[[List[Hashable]], List[Any]],
                            disk_keys: Optional[Sequence[Optional[str]]]
                            = None) -> List[Any]:
        """Batched :meth:`get_or_compute`: one ``compute`` over the misses.

        ``compute`` receives the distinct keys that would miss, in
        first-occurrence order, and returns their values in that order.
        Every key is then looked up through :meth:`get_or_compute`, so
        hit/miss counters (a repeated key counts a hit) and storage are
        exactly those of looking the keys up one by one.
        """
        disk_keys = ([None] * len(keys) if disk_keys is None
                     else list(disk_keys))
        # Insertion-ordered: the distinct misses in first-occurrence order.
        missing: Dict[Hashable, None] = {}
        for key, disk_key in zip(keys, disk_keys):
            if key not in missing and not self._holds(key, disk_key):
                missing[key] = None
        computed = (dict(zip(missing, compute(list(missing))))
                    if missing else {})

        def value_for(key: Hashable) -> Callable[[], Any]:
            # A peeked entry can vanish before its lookup (LRU eviction,
            # an unreadable disk record); compute it alone then.
            return lambda: (computed.pop(key) if key in computed
                            else compute([key])[0])

        return [self.get_or_compute(key, value_for(key), disk_key=disk_key)
                for key, disk_key in zip(keys, disk_keys)]

    def _holds(self, key: Hashable, disk_key: Optional[str]) -> bool:
        """Whether a lookup would hit, without counting or reading it."""
        del disk_key
        return key in self._store

    def stats(self) -> CacheStats:
        """This cache's lookup counters as a :class:`CacheStats`."""
        return CacheStats(hits=self.hits, misses=self.misses,
                          disk_hits=self.disk_hits)

    def add_counts(self, stats: CacheStats) -> None:
        """Count lookups another process's cache made for this run.

        Pool and TCP workers keep their own caches and return only what
        a task group added; summing the lookup counts here makes this
        cache's counters the run's totals, whichever process did the
        lookups. The entries themselves stay where they were computed.
        """
        self.hits += stats.hits
        self.misses += stats.misses
        self.disk_hits += stats.disk_hits

    def close(self) -> None:
        """Release what the cache holds open (nothing, in memory)."""

    def __enter__(self) -> "EvaluationCache":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self._store)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        self._store.clear()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
