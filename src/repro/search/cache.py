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

A cache never crosses a process boundary. The coordinator of a run
and each pool worker process keep their own for the length of the
run (see :func:`repro.search.transport.run_chunk`), and whoever
builds a cache closes it (it is a context manager). The coordinator's
is built and closed by its
:class:`~repro.search.parallel.ParallelEvaluator`, unless the caller
hands one in and keeps it. Before a generation is dispatched, the
evaluator runs the group worker against a
:meth:`~EvaluationCache.probe` of that cache, so a warm generation
never leaves the coordinator. Workers send back only the counts a task
group added, which the evaluator sums into its ``cache_stats``, with
the coordinator's own lookups and those of its successful probes; a
cache's own counters count only the lookups made through it.
"""

from __future__ import annotations

import copy
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence

from repro.search.result import CacheStats


class NotHeld(Exception):
    """A probe's lookup would miss (see :meth:`EvaluationCache.probe`);
    ``partly``: the probe had found some key held before it refused."""

    def __init__(self, partly: bool) -> None:
        super().__init__("a probed lookup is not held")
        self.partly = partly


class EvaluationCache:
    """Bounded LRU memo-table with hit/miss counters."""

    #: Whether this cache has a disk tier worth deriving ``disk_key``
    #: digests for (overridden by TieredEvaluationCache).
    persistent = False
    #: Whether this is a :meth:`probe`, which refuses to compute.
    _probing = False

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

    def probe(self) -> "EvaluationCache":
        """A view that serves only what this cache holds.

        It shares this cache's entries and disk tier, starts its
        counters at 0, and raises :class:`NotHeld` wherever a lookup
        would miss, before anything is counted or computed. A record
        that vanishes between that check and its read is still
        computed. The view owns nothing and is never closed.
        """
        view = copy.copy(self)
        view.hits = view.misses = view.disk_hits = 0
        view._probing = True
        return view

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
        if self._probing:
            raise NotHeld(self.hits > 0)
        self.misses += 1
        value = compute()
        self._insert(key, value)
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
        if self._probing:
            # A probe goes on only when every key is held.
            held = list(map(self._holds, keys, disk_keys))
            if not all(held):
                raise NotHeld(self.hits > 0 or any(held))
        else:
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

    def holds_any(self) -> bool:
        """Whether any lookup could hit: this cache has an entry."""
        return bool(self._store)

    def _insert(self, key: Hashable, value: Any) -> None:
        """Store a computed value, evicting the least recently used."""
        self._store[key] = value
        if len(self._store) > self.max_entries:
            self._store.popitem(last=False)

    def stats(self) -> CacheStats:
        """This cache's lookup counters as a :class:`CacheStats`."""
        return CacheStats(hits=self.hits, misses=self.misses,
                          disk_hits=self.disk_hits)

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
