"""Persistent cross-run disk tier for evaluation results.

The inner mapping search dominates NAAS wall-clock, and its results are
pure functions of their inputs: every per-shape mapping search inside
:func:`repro.search.accelerator_search.evaluate_accelerator` is seeded
with ``derive_seed(entropy, key)``, so what a (run-entropy, accelerator,
layer-shape, encoding-style, budget, cost-params) tuple evaluates to
never depends on cache state, evaluation order, or worker scheduling.
That makes the results safe to persist and share across runs,
experiments, and machines — this module provides the storage.

Cache-key contract
------------------
The in-memory L1 keeps the per-run key ``(entropy, (accel, shape_key,
mapping_style))``: within one run the budget and cost parameters are
fixed, but the entropy is not (the hardware search draws one per
candidate), so it stays in the key. The disk tier is shared *across*
runs, where none of those are fixed, so its keys are
:func:`content_digest` hashes over the full evaluation identity, in
two steps::

    shared = blake2b(CACHE_FORMAT, MappingSearchBudget, CostParams)
    digest = blake2b(entropy, (accel, shape_key, style), shared)

``shared`` is digested once per
:func:`~repro.search.accelerator_search.evaluate_accelerators` call,
and each candidate's accelerator and entropy and each shape key are
rendered once per call too, so a lookup only joins rendered text
(:func:`text_digest`) into exactly what :func:`content_digest` would
hash. Hashing ``repr``
(like :func:`repro.utils.rng.derive_seed`) keeps the digest stable
across processes and machines, unlike ``hash()`` under hash
randomization. Including the budget and cost-model parameters means a
run with a different :class:`MappingSearchBudget` or tuned
:class:`CostParams` can never hit a stale entry computed under another
configuration; including the run entropy means a cache hit returns
bit-for-bit what that run would have computed cold. The price is that
only runs sharing a seed share disk entries — exactly the repeated /
resumed / re-parameterized runs the tier exists for.

``CACHE_FORMAT`` (in :mod:`repro.search.records`) names the value
layout, so records of another layout are unreachable rather than
misread: a directory written before a format change misses once, and
``repro cache prune`` clears its old shards once nothing appends to
them. A record holds what the accelerator reward reads of one shape's
mapping search, a :data:`~repro.search.records.ShapeBest` (the best
``Mapping`` and its ``LayerCost``, or ``None`` when no mapping fits) as
one fixed-width row; the search's per-iteration history is not stored.

Storage layout
--------------
A cache directory holds append-only shard files, one per writing
process (``shard-<pid>-<token>.bin``), so concurrent runs never contend
on a file. Each record is ``magic | digest | length | crc32 | payload``
where the magic ``NAC3`` marks a payload that is one row of
:mod:`repro.search.records`. Records of the previous formats (``NAC1``
raw and ``NAC2`` zlib-compressed pickles) are still framed by their
length and crc, so a scan walks past them as *stale*: they are counted,
never indexed or decoded, and ``repro cache compact`` drops them.
Readers scan every shard at open (and on
:meth:`DiskCacheStore.refresh`), a bounded block at a time, and stop a
shard at the first incomplete or corrupt record — a torn tail from a
crashed or still-writing process costs the entries behind it until the
writer completes them, never an exception. A store reads its hits
through one held read-only descriptor per shard with ``os.pread``
until :meth:`DiskCacheStore.close`, and a row that fails
:func:`~repro.search.records.decode_row`'s checks reads as a miss.
Appends take an ``flock`` exclusive lock where available as
belt-and-braces.

:class:`TieredEvaluationCache` layers the existing in-memory LRU
(:class:`repro.search.cache.EvaluationCache`) as L1 over a
:class:`DiskCacheStore` L2 behind the same ``get_or_compute`` surface.
No store or cache is ever pickled: a task group carries the cache
directory, each worker process opens its own store on it with
:func:`build_cache`, reads through to the entries every process has
written, and appends what it computes to its own shard. The
coordinator opens one too, once per run: it serves the candidates
whose records are all on disk before anything is dispatched.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import struct
import time
import zlib
from pathlib import Path
from typing import (Any, BinaryIO, Callable, Dict, Hashable, Iterator, List,
                    Optional, Tuple, Union)

from repro.search.cache import EvaluationCache, NotHeld
from repro.search.records import ShapeBest, decode_row, encode_row
from repro.utils.logging import get_logger

logger = get_logger(__name__)

try:  # POSIX only; shards are per-process so the lock is belt-and-braces
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

_MAGIC = b"NAC3"  # payload is one records.py row
#: Magics of earlier payload encodings (raw and zlib-compressed
#: pickles): framed like a row record, never decoded.
_STALE_MAGICS = (b"NAC1", b"NAC2")
_DIGEST_BYTES = 32  # blake2b(digest_size=16) hex-encoded
#: magic | digest (hex ascii) | payload length | payload crc32
_HEADER = struct.Struct(f"<4s{_DIGEST_BYTES}sQI")

#: (pid, token) naming this process's shard file. One shard per writing
#: process, however many store instances it opens: a pool worker that
#: serves several runs keeps appending to one file instead of littering
#: the directory with per-run files. The random token guards against
#: pid collisions between hosts sharing a cache directory; the pid
#: check re-rolls it after fork.
_process_shard: Optional[Tuple[int, str]] = None


def _shard_name() -> str:
    global _process_shard
    pid = os.getpid()
    if _process_shard is None or _process_shard[0] != pid:
        # repro: allow(determinism) -- names a shard file only; the
        # entropy never reaches cache keys or search results.
        _process_shard = (pid, os.urandom(4).hex())
    return f"shard-{pid}-{_process_shard[1]}.bin"


#: Bytes one shard-walk read covers; a longer record is read whole.
_BLOCK_BYTES = 1 << 20

#: A clean record: (digest, payload offset, payload length, stale).
_Record = Tuple[str, int, int, bool]


def _read_block(fd: int, offset: int, size: int, need: int = 0) -> memoryview:
    """Up to ``max(_BLOCK_BYTES, need)`` bytes at ``offset``, not past
    ``size``."""
    return memoryview(os.pread(fd, min(max(_BLOCK_BYTES, need),
                                       size - offset), offset))


def _parse_shard(fd: int, offset: int = 0) -> Tuple[List[_Record], int, str]:
    """The clean records of a shard from ``offset`` on.

    What :func:`_walk_shards` parses each shard with. It reads the
    shard in bounded blocks with ``os.pread`` (which moves no shared
    file offset) and checks each record's crc on a ``memoryview`` slice
    of its block, up to the size the shard had when the walk began.
    Returns ``(records, end, status)``: each clean record as
    ``(digest, payload offset, payload length, stale)``, the offset
    just past the last of them, and why the walk stopped:

    - ``"end"`` — exactly at the end of the shard;
    - ``"torn"`` — a truncated header or payload (a writer may still be
      appending; safe to retry after it finishes);
    - ``"corrupt"`` — bad magic or checksum; record boundaries past
      this point cannot be resynchronized.
    """
    size = os.fstat(fd).st_size
    records: List[_Record] = []
    block = memoryview(b"")
    base = offset  # shard offset of block[0]
    while offset < size:
        start = offset - base
        if start + _HEADER.size > len(block):
            block, base, start = _read_block(fd, offset, size), offset, 0
            if _HEADER.size > len(block):
                return records, offset, "torn"
        magic, digest_raw, length, crc = _HEADER.unpack_from(block, start)
        stale = magic in _STALE_MAGICS
        if magic != _MAGIC and not stale:
            return records, offset, "corrupt"
        stop = start + _HEADER.size + length
        if stop > len(block):
            block = _read_block(fd, offset, size, _HEADER.size + length)
            base, start, stop = offset, 0, _HEADER.size + length
            if stop > len(block):
                return records, offset, "torn"
        if zlib.crc32(block[start + _HEADER.size:stop]) != crc:
            return records, offset, "corrupt"
        # Digests are 32 hex chars; struct pads shorter (test-only) keys
        # with NULs, stripped here.
        digest = digest_raw.rstrip(b"\x00").decode("ascii", errors="replace")
        records.append((digest, offset + _HEADER.size, length, stale))
        offset += _HEADER.size + length
    return records, offset, "end"


#: A shard's :func:`_parse_shard` result, ``None`` or an ``OSError``.
_Walk = Union[None, OSError, Tuple[List[_Record], int, str]]


def _walk_shards(directory: Path,
                 start: Callable[[str, os.stat_result], Optional[int]]
                 = lambda path, stat: 0,
                 ) -> Iterator[Tuple[Path, os.stat_result, int, _Walk]]:
    """Walk a cache directory's shards in name order, each once.

    The one shard walk of the store's scans, :func:`directory_stats`,
    :func:`compact_directory` and :func:`prune_directory`, so what the
    store indexes and what the stats report can never diverge. Yields
    ``(shard, stat, fd, walk)`` for each shard that can still be
    stat'ed: ``walk`` is :func:`_parse_shard` from the offset ``start(
    path, stat)`` returns, through ``fd``, open until the walk moves
    on; ``None`` (``fd`` -1) when ``start`` returns ``None``; or the
    ``OSError`` of an unreadable shard, which each caller handles its
    own way.
    """
    for shard in sorted(directory.glob("shard-*.bin")):
        try:
            stat = shard.stat()
        except OSError:
            continue
        offset = start(str(shard), stat)
        if offset is None:
            yield shard, stat, -1, None
            continue
        walk: _Walk = None
        try:
            with open(shard, "rb") as handle:
                walk = _parse_shard(handle.fileno(), offset)
                yield shard, stat, handle.fileno(), walk
        except OSError as exc:
            if walk is None:
                yield shard, stat, -1, exc


#: What :func:`content_digest` joins the ``repr`` of its parts with.
DIGEST_SEPARATOR = "\x1f"


def content_digest(*parts: Any) -> str:
    """Stable content digest over ``repr`` of each part.

    The disk-tier analogue of :func:`repro.utils.rng.derive_seed`:
    deterministic across processes, machines, and interpreter restarts
    for the frozen-dataclass/tuple/enum values the search layers use.
    """
    return text_digest(DIGEST_SEPARATOR.join(repr(part) for part in parts))


def text_digest(text: str) -> str:
    """The digest of an already rendered :func:`content_digest` text.

    ``content_digest(*parts)`` is
    ``text_digest(DIGEST_SEPARATOR.join(map(repr, parts)))``; a caller
    digesting many keys that share parts can render each shared part
    once and join the rest itself.
    """
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


class DiskCacheStore:
    """Append-only, crash-tolerant key/value store under one directory.

    Every writing process appends to its own uniquely named shard file,
    so concurrent runs sharing a directory cannot lose each other's
    entries; readers see a shard's records up to its first incomplete
    one and pick the rest up on the next :meth:`refresh`. Values are
    :data:`~repro.search.records.ShapeBest` rows; keys are
    :func:`content_digest` strings. First write wins: a digest already
    present is never rewritten.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        #: digest -> (shard path, payload offset, payload length)
        self._index: Dict[str, Tuple[str, int, int]] = {}
        #: shard path -> bytes consumed by clean records
        self._scanned: Dict[str, int] = {}
        #: shards with a confirmed-corrupt record: scanned once, then
        #: skipped (their tail cannot be resynchronized anyway).
        self._dead: set = set()
        #: shard path -> unbuffered read-only file, opened by the first
        #: get() that reads the shard and held until close()
        self._readers: Dict[str, BinaryIO] = {}
        self._write_path: Optional[Path] = None
        self._write_handle = None
        self.refresh()

    # ----- reading -----------------------------------------------------

    def refresh(self) -> None:
        """Scan shards for records appended since the last scan.

        Picks up entries written by other processes sharing the
        directory. Torn or corrupt tails stop the scan of that shard
        (and are retried next refresh, in case a concurrent writer
        simply had not finished the record yet).
        """
        for shard, _stat, _fd, walk in _walk_shards(self.directory,
                                                    self._scan_from):
            if walk is None:
                continue
            if isinstance(walk, OSError):
                logger.warning("unreadable cache shard %s (%s); skipped",
                               shard, walk)
                continue
            records, end, status = walk
            path = str(shard)
            for digest, payload_offset, length, stale in records:
                if not stale:
                    self._index.setdefault(digest,
                                           (path, payload_offset, length))
            # A torn tail is retried once its writer finishes.
            self._scanned[path] = end
            if status == "corrupt":
                # Record boundaries cannot be resynchronized; mark the
                # shard dead so refresh() stops rescanning (and
                # re-warning about) it.
                self._dead.add(path)
                logger.warning("corrupt record in %s at offset %d; "
                               "entries behind it are unreachable",
                               shard, end)

    def _scan_from(self, path: str, stat: os.stat_result) -> Optional[int]:
        """Where :meth:`refresh` walks a shard from: past its records
        already scanned, or not at all (``None``) when the shard is dead
        or has grown by nothing."""
        offset = self._scanned.get(path, 0)
        if path in self._dead or stat.st_size <= offset:
            return None
        return offset

    def get(self, digest: str) -> Tuple[bool, ShapeBest]:
        """``(found, value)`` for a digest; misses are ``(False, None)``.

        Reads through this store's one descriptor per shard with
        ``os.pread``, which shares no file offset, so a store a forked
        child inherits reads correctly too. A record that can no longer
        be read (deleted shard, a row that fails
        :func:`~repro.search.records.decode_row`'s checks) degrades to
        a miss — the caller recomputes.
        """
        entry = self._index.get(digest)
        if entry is None:
            return False, None
        path, offset, length = entry
        try:
            reader = self._readers.get(path)
            if reader is None:
                # repro: owner(DiskCacheStore.close)
                reader = self._readers[path] = open(path, "rb", buffering=0)
            payload = os.pread(reader.fileno(), length, offset)
            if len(payload) < length:
                return False, None
            return True, decode_row(payload)
        except (OSError, ValueError) as exc:
            logger.warning("unreadable cache entry %s (%s); recomputing",
                           digest, exc)
            return False, None

    # ----- writing -----------------------------------------------------

    def put(self, digest: str, value: ShapeBest) -> None:
        """Append one record to this process's shard (first write wins).

        Raises ``ValueError`` (from
        :func:`~repro.search.records.encode_row`) on a value that a row
        cannot hold exactly.
        """
        if digest in self._index:
            return
        payload = encode_row(value)
        record = _HEADER.pack(_MAGIC, digest.encode("ascii"), len(payload),
                              zlib.crc32(payload)) + payload
        handle = self._ensure_write_handle()
        if fcntl is not None:
            fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            # Other handles on this process's shard may have appended;
            # seek to the true end before recording the offset.
            handle.seek(0, os.SEEK_END)
            offset = handle.tell()
            handle.write(record)
            handle.flush()
        finally:
            if fcntl is not None:
                fcntl.flock(handle, fcntl.LOCK_UN)
        # _scanned is left to refresh(): another handle on this shard
        # (same process) may have interleaved records before ours, and
        # the scanner must not skip them.
        path = str(self._write_path)
        self._index[digest] = (path, offset + _HEADER.size, len(payload))

    def _ensure_write_handle(self):
        if self._write_handle is None:
            self._write_path = self.directory / _shard_name()
            self._write_handle = open(self._write_path, "ab")
        return self._write_handle

    # ----- plumbing ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, digest: str) -> bool:
        return digest in self._index

    def close(self) -> None:
        """Release the shard descriptors; a later get() or put() opens
        what it needs again."""
        readers, self._readers = self._readers, {}
        for reader in readers.values():
            reader.close()
        if self._write_handle is not None:
            try:
                self._write_handle.close()
            finally:
                self._write_handle = None


class TieredEvaluationCache(EvaluationCache):
    """In-memory LRU (L1) over a :class:`DiskCacheStore` (L2).

    Drop-in for :class:`repro.search.cache.EvaluationCache` wherever the
    caller supplies ``disk_key`` digests (see :func:`content_digest`)
    for :data:`~repro.search.records.ShapeBest` values: an L1 miss falls
    through to disk, and fresh computations go to both tiers. A disk
    hit is returned as read and not copied into L1, so a warm rerun
    does not grow the memory of the process serving it. L2 hits count
    as ``hits`` (and separately as ``disk_hits``), so hit-rate
    reporting covers both tiers.
    """

    persistent = True

    def __init__(self, store: DiskCacheStore,
                 max_entries: int = 100_000) -> None:
        super().__init__(max_entries=max_entries)
        self.store = store

    def get_or_compute(self, key: Hashable, compute: Callable[[], Any],
                       disk_key: Optional[str] = None) -> Any:
        if key in self._store:
            self.hits += 1
            self._store.move_to_end(key)
            return self._store[key]
        if disk_key is not None:
            found, value = self.store.get(disk_key)
            if found:
                self.hits += 1
                self.disk_hits += 1
                return value
        if self._probing and not self._holds(key, disk_key):
            raise NotHeld(self.hits > 0)
        self.misses += 1
        value = compute()
        self._insert(key, value)
        if disk_key is not None:
            self.store.put(disk_key, value)
        return value

    def _holds(self, key: Hashable, disk_key: Optional[str]) -> bool:
        # The digest first: it hashes cheaper than the L1 key.
        return (disk_key is not None and disk_key in self.store
                or key in self._store)

    def close(self) -> None:
        self.store.close()


@dataclasses.dataclass(frozen=True)
class DiskCacheDirStats:
    """What ``repro cache stats`` reports about a cache directory.

    ``corrupt_tails`` counts shards whose scan stopped before the end
    of the file — a torn record from a crashed (or still-running)
    writer, or an actually corrupt record. The entries behind such a
    tail are the ones :class:`DiskCacheStore` skips at read time.

    ``records`` counts the row records a store indexes;
    ``stale_records`` the records of earlier formats (pickles behind
    ``NAC1``/``NAC2``), which no store reads and ``repro cache
    compact`` drops.
    """

    shards: int
    records: int
    total_bytes: int
    corrupt_tails: int
    stale_records: int


def directory_stats(directory: Union[str, Path]) -> DiskCacheDirStats:
    """Scan a cache directory without building a store (cheap, read-only).

    Walks every shard's records exactly the way the store's reader
    does — magic, length, crc — so the record count matches what a
    store opened on the directory would index, and the corrupt-tail
    count matches what it would skip.
    """
    shards = records = total_bytes = corrupt_tails = stale_records = 0
    for _shard, stat, _fd, walk in _walk_shards(Path(directory)):
        shards += 1
        total_bytes += stat.st_size
        if isinstance(walk, OSError):
            corrupt_tails += 1
            continue
        clean, _end, status = walk
        if status != "end":  # torn or corrupt tail
            corrupt_tails += 1
        stale = sum(record[3] for record in clean)
        records += len(clean) - stale
        stale_records += stale
    return DiskCacheDirStats(shards=shards, records=records,
                             total_bytes=total_bytes,
                             corrupt_tails=corrupt_tails,
                             stale_records=stale_records)


@dataclasses.dataclass(frozen=True)
class CompactStats:
    """What ``repro cache compact`` did to a cache directory."""

    shards_before: int
    shards_after: int
    records_kept: int
    duplicates_dropped: int
    stale_dropped: int
    bytes_before: int
    bytes_after: int


def compact_directory(directory: Union[str, Path]) -> CompactStats:
    """Rewrite a cache directory's live records into one fresh shard.

    Walks every shard with the store's own record reader, keeps the
    first record per digest (the store's first-write-wins rule), and
    drops duplicate digests plus everything a reader could not reach
    anyway — stale records of earlier formats, torn tails from crashed
    writers and the unreachable bytes behind a corrupt record. The
    survivors are written to a single new shard via a temp file +
    atomic rename, and only then are the old shards unlinked, so a
    crash mid-compact never loses a live record.

    Offline maintenance: run it while no process is appending to the
    directory — records appended to an old shard after its scan are
    dropped with it.
    """
    path = Path(directory)
    old_shards: List[Path] = []
    bytes_before = 0
    records_kept = duplicates = stale_dropped = 0
    seen: set = set()
    # A fresh token (not _shard_name()) so the output can never collide
    # with a shard this same process already has open for appends.
    # repro: allow(determinism) -- names the compacted shard file only;
    # record contents and cache keys are unaffected.
    target = path / f"shard-{os.getpid()}-{os.urandom(4).hex()}.bin"
    temp = path / f".compact-{os.getpid()}.tmp"
    try:
        with open(temp, "wb") as out:
            for shard, stat, fd, walk in _walk_shards(path):
                old_shards.append(shard)
                bytes_before += stat.st_size
                try:
                    if isinstance(walk, OSError):
                        raise walk
                    for digest, offset, length, stale in walk[0]:
                        if stale:
                            stale_dropped += 1
                            continue
                        if digest in seen:
                            duplicates += 1
                            continue
                        out.write(os.pread(fd, _HEADER.size + length,
                                           offset - _HEADER.size))
                        seen.add(digest)
                        records_kept += 1
                except OSError as exc:
                    logger.warning("skipping unreadable shard %s (%s)",
                                   shard, exc)
            out.flush()
            os.fsync(out.fileno())
        if records_kept:
            os.replace(temp, target)
        else:
            os.unlink(temp)
    except BaseException:
        try:
            os.unlink(temp)
        except OSError:
            pass
        raise
    for shard in old_shards:
        if shard == target:
            continue
        try:
            os.unlink(shard)
        except OSError as exc:
            logger.warning("could not remove compacted shard %s (%s)",
                           shard, exc)
    bytes_after = target.stat().st_size if records_kept else 0
    return CompactStats(
        shards_before=len(old_shards),
        shards_after=1 if records_kept else 0,
        records_kept=records_kept,
        duplicates_dropped=duplicates,
        stale_dropped=stale_dropped,
        bytes_before=bytes_before,
        bytes_after=bytes_after)


@dataclasses.dataclass(frozen=True)
class PruneStats:
    """What ``repro cache prune`` removed from a cache directory."""

    shards_removed: int
    shards_kept: int
    records_removed: int
    bytes_removed: int


def prune_directory(directory: Union[str, Path],
                    older_than_days: float) -> PruneStats:
    """Drop shard files not appended to for ``older_than_days`` days.

    Records carry no timestamps (the format is append-only and
    fixed), so staleness is judged per shard by file mtime — an
    append refreshes it, so a shard only ages out once *nothing* has
    written to it for the window. Run :func:`compact_directory` first
    to fold long-lived entries into a fresh (young) shard if they
    should survive the prune.
    """
    if older_than_days < 0:
        raise ValueError(
            f"older_than_days must be >= 0, got {older_than_days}")
    # repro: allow(determinism) -- an age cutoff for cache hygiene;
    # pruning only forgets results, it never changes one.
    cutoff = time.time() - older_than_days * 86400.0
    removed = kept = records_removed = bytes_removed = 0
    for shard, stat, _fd, walk in _walk_shards(
            Path(directory),
            lambda _path, stat: None if stat.st_mtime >= cutoff else 0):
        if walk is None:
            kept += 1
            continue
        shard_records = 0 if isinstance(walk, OSError) else len(walk[0])
        try:
            os.unlink(shard)
        except OSError as exc:
            logger.warning("could not prune shard %s (%s)", shard, exc)
            kept += 1
            continue
        removed += 1
        records_removed += shard_records
        bytes_removed += stat.st_size
    return PruneStats(shards_removed=removed, shards_kept=kept,
                      records_removed=records_removed,
                      bytes_removed=bytes_removed)


def build_cache(cache_dir: Union[str, Path, None] = None,
                max_entries: int = 100_000) -> EvaluationCache:
    """The cache a search run should use: tiered when ``cache_dir`` is
    set, the plain in-memory LRU otherwise."""
    if cache_dir is None:
        return EvaluationCache(max_entries=max_entries)
    return TieredEvaluationCache(DiskCacheStore(cache_dir),
                                 max_entries=max_entries)


@dataclasses.dataclass(frozen=True)
class CacheHandle:
    """What a task group carries in place of a cache: its run's token
    (one per evaluator) and cache directory (``None``: in memory)."""

    token: str
    directory: Optional[str] = None


class RunCache:
    """The one evaluation cache a worker keeps for the run it serves.

    :meth:`get` builds it with :func:`build_cache` for a run's first
    task group and returns it for the run's later groups, so lookups
    repeated across a run's groups hit in the worker; a group of
    another run (a new token) replaces it.
    """

    def __init__(self) -> None:
        self.token: Optional[str] = None
        self.cache: Optional[EvaluationCache] = None

    def get(self, handle: CacheHandle) -> EvaluationCache:
        if self.cache is None or handle.token != self.token:
            self.close()
            self.token = handle.token
            self.cache = build_cache(handle.directory)
        elif isinstance(self.cache, TieredEvaluationCache):
            # Read what the run's other workers have appended since.
            self.cache.store.refresh()
        return self.cache

    def close(self) -> None:
        if self.cache is not None:
            self.cache.close()
        self.token = self.cache = None
