"""Packed sweep store: segment files, offset index, in-memory hit tier.

The storage tier behind every runner's ``cache=``, built for batch
traffic.  Only kinds that read back faster than they recompute reach
disk (:data:`_PERSISTED_KINDS`: cycle traces); analytic metrics and
fidelity samples live in the memory tier alone:

- **Append-only segments.**  ``put_many`` appends its whole batch to
  one new immutable segment file (``seg-<unique>.seg``).  Records are
  self-describing (raw 32-byte key + payload length + pickled payload),
  so segments double as a recovery log.
- **Compact offset index, one atomic publish per batch.**  A single
  ``index.bin`` file maps every key to ``(segment, offset, length)``:
  a magic line, a JSON manifest naming the segment files, then fixed
  48-byte binary rows.  A batch of writes becomes *one* temp-file +
  ``os.replace`` publish, not one per entry.  Writers serialize the
  read-merge-publish step through an advisory ``flock`` so concurrent
  processes can share a store directory without losing entries
  (``tests/eval/test_store.py``); readers never lock — ``os.replace``
  gives them a consistent snapshot, and a stale in-memory index is
  refreshed (one ``stat``) whenever a lookup misses.
- **mmap reads.**  Payloads are sliced out of memory-mapped segments —
  no per-hit ``open``/``read`` syscalls on a warm store.
- **Bounded in-memory LRU hit tier.**  Deserialized payloads are kept
  in an :class:`~collections.OrderedDict` capped at ``memory_entries``,
  so a repeated sweep never touches disk twice; ``memory_entries=0``
  disables the tier for pure disk measurements.  Every ``put_many``
  fills it, and for the memory-only kinds it is the whole store: their
  batches are never pickled, written or indexed, and their probes never
  read the index, so the tier serves repeats for as long as the store
  object lives.  Metrics and fidelity samples an older store wrote to
  disk are ignored.

Keys: the persisted kind takes 64-hex-digit SHA-256 keys
(:func:`~repro.eval.parallel.job_keys`), whose raw 32 bytes address
the index.  Fidelity samples keep their SHA-256 keys
(:func:`~repro.eval.parallel.fidelity_job_keys`) in the memory tier;
the metrics kind takes the hashable value keys of
:func:`~repro.eval.parallel.metrics_keys`, which no process outside
the one holding the store ever has to reproduce.

Segment names are opaque to readers: the index manifest names every
segment and an index rebuild scans every ``seg-*.seg`` file, so stores
written with other segment names (``seg-<shard>-<unique>.seg``) read
the same way (``tests/eval/test_store_fixture.py``).

The layout is deliberately batch-oriented: each publish rewrites the
(compact, 48-bytes-per-entry) index and appends one segment file, so
one sweep's worth of entries per ``put_many`` is the intended traffic
shape.  A workload of many tiny single-entry publishes pays an index
rewrite each time and accretes small segments, which the store never
compacts.

The store is key-addressed and payload-kind aware but job-agnostic:
:mod:`repro.eval.parallel` produces the keys, and its runners drive
``get_many`` / ``put_many`` exactly once per call.  Those two calls are
its whole read/write interface.
"""

from __future__ import annotations

import json
import mmap
import os
import pickle
import struct
import tempfile
import threading
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import Hashable, Iterable, Sequence

try:  # pragma: no cover - always available on the supported platforms
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from repro.arch.breakdown import DesignMetrics
from repro.errors import CacheError, ParameterError
from repro.eval.parallel import (
    CACHE_SCHEMA_VERSION,
    CYCLES_KIND,
    FIDELITY_KIND,
    METRICS_KIND,
    CycleStats,
    FidelityStats,
)
from repro.reliability import failpoints
from repro.reliability.policy import RetryPolicy

#: Payload class expected under each cache kind.
_KIND_PAYLOADS: dict[str, type] = {
    METRICS_KIND: DesignMetrics,
    CYCLES_KIND: CycleStats,
    FIDELITY_KIND: FidelityStats,
}

#: Kinds written to the disk tier: only those a warm read beats
#: recomputing by the 5x ``bench_cache_plane.py`` gates.  A cycle trace
#: reads back ~140x faster than compiling its schedule.  An analytic
#: ``DesignMetrics`` is closed-form arithmetic that recomputes faster
#: than a disk read decodes it (the 9,888-job grid on a 2-vCPU host:
#: 178 ms to recompute, 369 ms through a reopened store).  Fidelity
#: samples, drawn once per distinct probe array, read back only
#: 1.2-1.8x faster than they recompute on the same host (1,440
#: samples; 4.2x on the gate's 144-sample quick grid).  So metrics and
#: fidelity samples live in the memory tier only.
_PERSISTED_KINDS = frozenset({CYCLES_KIND})

#: What ``pickle.loads`` of a truncated/corrupt/shape-skewed entry can
#: raise.  Deliberately narrower than ``Exception`` so programming
#: errors (NameError, ParameterError, ...) surface instead of being
#: silently counted as cache misses.
_DECODE_ERRORS = (
    pickle.UnpicklingError,
    EOFError,
    AttributeError,
    ImportError,
    IndexError,
    KeyError,
    ValueError,
    TypeError,
    UnicodeDecodeError,
    MemoryError,
)

_INDEX_MAGIC = b"REDPACK1\n"
#: Index row: raw key (32), segment id (u32), offset (u64), length (u32).
_ROW = struct.Struct("<32sIQI")
#: Segment record header: raw key (32), payload length (u32).
_RECORD = struct.Struct("<32sI")

_INDEX_NAME = "index.bin"
_LOCK_NAME = ".lock"


def _key_bytes(key: str) -> bytes:
    """The raw 32 bytes behind a 64-hex-digit job key."""
    if len(key) != 64:
        raise CacheError(f"store keys are 64 hex digits, got {key!r}")
    try:
        return bytes.fromhex(key)
    except ValueError as exc:
        raise CacheError(f"store keys are 64 hex digits, got {key!r}") from exc


class PackedSweepStore:
    """Batched sweep result store: on-disk segments for the kinds worth
    persisting, an in-memory hit tier for every kind.

    The persisted kind (cycles) takes 64-hex SHA-256 keys.  The
    memory-only kinds never read the disk, so entries of theirs an
    older store wrote there are ignored: fidelity samples keep their
    SHA-256 keys, metrics take value keys
    (:func:`~repro.eval.parallel.metrics_keys`).

    Args:
        directory: store root; created if missing.
        memory_entries: LRU hit-tier capacity in entries (``0``
            disables the tier).
        retry_policy: how transient ``OSError`` during the index
            publish retries (defaults to the reliability plane's
            default policy).  When retries exhaust — or the store
            directory is unwritable at open — the store enters a
            counted read-only *degraded mode*: lookups keep serving
            (disk and memory tiers), new results still populate the
            memory tier, but nothing is written to disk
            (:attr:`degraded` / :attr:`degraded_puts`); ``refresh()``
            re-probes writability and leaves degraded mode when the
            directory recovers.

    Statistics (``hits = memory_hits + disk_hits``, plus ``misses``,
    ``stores`` and ``corrupt``) are plain attributes.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        memory_entries: int = 65536,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        if memory_entries < 0:
            raise ParameterError(
                f"memory_entries must be >= 0, got {memory_entries}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.memory_entries = memory_entries
        self.retry_policy = retry_policy or RetryPolicy()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0
        self.memory_hits = 0
        self.disk_hits = 0
        self.quarantined = 0
        self.rebuilt_entries = 0
        self.degraded_puts = 0
        self.degraded = not os.access(self.directory, os.W_OK)
        self._lock = threading.Lock()
        self._segments: list[str] = []
        self._index: dict[bytes, tuple[int, int, int]] = {}
        self._index_stamp: tuple[int, int] | None = None
        self._mmaps: dict[str, mmap.mmap] = {}
        self._memory: OrderedDict[Hashable, object] = OrderedDict()
        #: Keys whose payload decoded as corrupt, mapped to the index
        #: location observed bad: dropped from the live index
        #: immediately and scrubbed from the on-disk index at the next
        #: publish — but only while the disk index still points at the
        #: same location, so another process's fresh rewrite of the key
        #: is never deleted.
        self._dead: dict[bytes, tuple[int, int, int]] = {}
        with self._lock:
            self._reload_index_locked()

    # ------------------------------------------------------------------
    # Batch protocol (what run_design_jobs / run_cycle_jobs speak)
    # ------------------------------------------------------------------
    def get_many(self, keys: Sequence[Hashable], kind: str = METRICS_KIND) -> list:
        """Stored payloads per key, in key order (``None`` per miss).

        Payloads come back exactly as stored; relabelling is the
        caller's concern.  Lookups hit the LRU tier first, then, for a
        persisted kind only, the offset index + mmap'd segments; disk
        hits populate the tier so the next sweep stays in memory.  A
        corrupt or shape-skewed payload counts in :attr:`corrupt`,
        drops out of the live index (so the slot is rewritten) and
        reads as a miss.
        """
        expected = _KIND_PAYLOADS[kind]
        persisted = kind in _PERSISTED_KINDS
        results: list = [None] * len(keys)
        # Phase 1 (tier lock): memory probes, index lookups, raw mmap
        # slices.  In-batch duplicate keys share one pending slot so the
        # payload is read and decoded once.
        pending: dict[
            str, tuple[bytes | None, bytes, tuple[int, int, int], list[int]]
        ] = {}
        with self._lock:
            memory = self._memory
            memory_get = memory.get
            move_to_end = memory.move_to_end
            served = 0
            missed = 0
            reloaded = False
            for position, key in enumerate(keys):
                value = memory_get(key)
                # The kind check mirrors the disk path: a kind-mismatched
                # caller must not get a hit just because the tier is warm.
                if value is not None and isinstance(value, expected):
                    move_to_end(key)
                    served += 1
                    results[position] = value
                    continue
                if not persisted:
                    missed += 1
                    continue
                slot = pending.get(key)
                if slot is not None:
                    slot[3].append(position)
                    continue
                raw = _key_bytes(key)
                location = self._index.get(raw)
                if location is None and not reloaded:
                    # Another process may have published since we last
                    # read the index — refresh at most once per call.
                    reloaded = True
                    if self._maybe_reload_index_locked():
                        location = self._index.get(raw)
                if location is None:
                    missed += 1
                    continue
                pending[key] = (
                    self._read_locked(location), raw, location, [position]
                )
            self.hits += served
            self.memory_hits += served
            self.misses += missed
            if not pending:
                return results
        # Phase 2 (no lock): deserialize — the expensive part — without
        # serializing other threads' probes.  mmap slices are copies, so
        # they stay valid outside the lock.
        decoded: list[tuple[str, object, list[int]]] = []
        corrupt: list[tuple[bytes, tuple[int, int, int]]] = []
        unreadable = 0
        for key, (payload, raw, location, positions) in pending.items():
            if payload is None:
                # The segment could not be opened/sliced (transient I/O,
                # fd pressure, racing cleanup).  That is a plain miss —
                # the on-disk bytes may be perfectly valid, so the entry
                # must NOT be scrubbed as corrupt.
                unreadable += len(positions)
                continue
            payload = failpoints.corrupted("store.get_many", payload, raw)
            try:
                value = pickle.loads(payload)
            except _DECODE_ERRORS:
                value = None
            if value is None or not isinstance(value, expected):
                self._quarantine(raw, payload)
                corrupt.append((raw, location))
                continue
            decoded.append((key, value, positions))
        # Phase 3 (tier lock): publish into the memory tier + counters.
        with self._lock:
            self.misses += unreadable
            for key, value, positions in decoded:
                self.hits += len(positions)
                self.disk_hits += len(positions)
                for position in positions:
                    results[position] = value
                self._memory_insert_locked(key, value)
            for raw, location in corrupt:
                self._discard_corrupt_locked(raw, location)
        return results

    def put_many(
        self, entries: Iterable[tuple[Hashable, object]], kind: str = METRICS_KIND
    ) -> int:
        """Store ``(key, payload)`` pairs as one batch.

        Every payload enters the memory tier.  A persisted kind
        (cycles) also becomes exactly one new segment file and one
        atomic index publish, serialized against concurrent writers by
        the store's advisory file lock.  Analytic metrics and fidelity
        samples stay in memory: nothing is pickled or written for them
        (:data:`_PERSISTED_KINDS`).  Returns the number of entries
        written to disk.
        """
        expected = _KIND_PAYLOADS[kind]
        if kind not in _PERSISTED_KINDS:
            with self._lock:
                for key, value in entries:
                    if not isinstance(value, expected):
                        raise TypeError(
                            f"cache kind {kind!r} stores {expected.__name__}, "
                            f"got {type(value).__name__}"
                        )
                    self._memory_insert_locked(key, value)
            return 0
        serialized: list[tuple[bytes, bytes]] = []
        cached: list[tuple[str, object]] = []
        for key, value in entries:
            if not isinstance(value, expected):
                raise TypeError(
                    f"cache kind {kind!r} stores {expected.__name__}, "
                    f"got {type(value).__name__}"
                )
            serialized.append(
                (_key_bytes(key), pickle.dumps(value, pickle.HIGHEST_PROTOCOL))
            )
            cached.append((key, value))
        if not serialized:
            return 0
        published = False
        if not self.degraded:
            published = self._publish(serialized)
        with self._lock:
            # Degraded or not, the batch still serves hits from the
            # memory tier for the rest of this process's lifetime.
            for key, value in cached:
                self._memory_insert_locked(key, value)
        if not published:
            self.degraded_puts += len(cached)
            return 0
        self.stores += len(cached)
        return len(cached)

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of keys reachable through the live index."""
        with self._lock:
            return len(self._index)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            if key in self._memory:
                return True
            # Only a persisted kind's 64-hex key can name an index row.
            return isinstance(key, str) and _key_bytes(key) in self._index

    def memory_size(self) -> int:
        """Entries currently held by the LRU hit tier."""
        with self._lock:
            return len(self._memory)

    def stats(self) -> dict[str, int]:
        """Counter snapshot for benchmark/CI reporting."""
        return {
            "hits": self.hits,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
            "quarantined": self.quarantined,
            "rebuilt_entries": self.rebuilt_entries,
            "degraded": int(self.degraded),
            "degraded_puts": self.degraded_puts,
            "indexed_entries": len(self),
            "memory_entries_used": self.memory_size(),
            "segments": len(self._segments),
        }

    def refresh(self) -> None:
        """Re-read the on-disk index (picks up other writers' batches).

        Also re-probes directory writability: a store that fell into
        degraded mode leaves it here once the directory is writable
        again (the next ``put_many`` publishes normally).
        """
        with self._lock:
            self._maybe_reload_index_locked()
        self.degraded = not os.access(self.directory, os.W_OK)

    def close(self) -> None:
        """Release mmap'd segments and the memory tier (idempotent)."""
        with self._lock:
            for mapped in self._mmaps.values():
                try:
                    mapped.close()
                except (OSError, ValueError):  # pragma: no cover - defensive
                    pass
            self._mmaps.clear()
            self._memory.clear()

    def __enter__(self) -> "PackedSweepStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Index + segment machinery
    # ------------------------------------------------------------------
    @property
    def _index_path(self) -> Path:
        return self.directory / _INDEX_NAME

    @contextmanager
    def _writer_lock(self):
        """Advisory cross-process lock for read-merge-publish cycles."""
        handle = open(self.directory / _LOCK_NAME, "ab")
        try:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            yield
        finally:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            handle.close()

    def _read_index_file(
        self,
    ) -> tuple[list[str], dict[bytes, tuple[int, int, int]], tuple[int, int] | None]:
        """``(segments, entries, stamp)`` from disk.

        Empty when the index was written under a different schema
        version (keys embed the schema, so stale entries could never
        match anyway).  A *corrupt* index — bad magic, unparsable
        manifest — or one missing while segment files exist is
        recovered by :meth:`_rebuild_index_from_segments`: records are
        self-describing, so the segments double as the recovery log.
        Truncated trailing rows are simply dropped (every complete row
        is still served).
        """
        path = self._index_path
        try:
            with open(path, "rb") as handle:
                # fstat the open fd: os.replace swaps the inode, so
                # stat-ing by path after reading could pair stale bytes
                # with a newer file's stamp and freeze the staleness
                # check.  The fd pins one inode — bytes and stamp are
                # guaranteed to describe the same index generation.
                stat = os.fstat(handle.fileno())
                data = handle.read()
        except OSError:
            segments, entries = self._rebuild_index_from_segments()
            return segments, entries, None
        stamp = (stat.st_mtime_ns, stat.st_size)
        try:
            if not data.startswith(_INDEX_MAGIC):
                segments, entries = self._rebuild_index_from_segments()
                return segments, entries, stamp
            header_end = data.index(b"\n", len(_INDEX_MAGIC))
            manifest = json.loads(data[len(_INDEX_MAGIC):header_end])
            if manifest.get("schema") != CACHE_SCHEMA_VERSION:
                # Deliberate invalidation, not corruption: do not
                # resurrect old-schema entries from the segments.
                return [], {}, stamp
            segments = [str(name) for name in manifest["segments"]]
            rows = data[header_end + 1 :]
            usable = len(rows) - len(rows) % _ROW.size
            entries = {
                key: (segment, offset, length)
                for key, segment, offset, length in _ROW.iter_unpack(rows[:usable])
            }
        except (ValueError, KeyError, TypeError, struct.error):
            segments, entries = self._rebuild_index_from_segments()
            return segments, entries, stamp
        return segments, entries, stamp

    def _rebuild_index_from_segments(
        self,
    ) -> tuple[list[str], dict[bytes, tuple[int, int, int]]]:
        """Recover the index by scanning the self-describing segments.

        Each record carries its own ``(raw key, payload length)``
        header, so a lost or corrupt ``index.bin`` costs nothing but
        this scan.  Segments are replayed oldest-first (mtime, then
        name) so a key rewritten in a later batch wins, mirroring the
        merge order of normal publishes; a truncated trailing record is
        dropped.  Returns ``([], {})`` for a store with no segments —
        i.e. a genuinely fresh directory rebuilds to empty.
        """
        stamped: list[tuple[int, str]] = []
        for path in self.directory.glob("seg-*.seg"):
            try:
                stat = path.stat()
            except OSError:
                continue
            stamped.append((stat.st_mtime_ns, path.name))
        stamped.sort()
        segments = [name for _, name in stamped]
        entries: dict[bytes, tuple[int, int, int]] = {}
        for segment_id, name in enumerate(segments):
            try:
                data = (self.directory / name).read_bytes()
            except OSError:
                continue
            offset = 0
            while offset + _RECORD.size <= len(data):
                raw, length = _RECORD.unpack_from(data, offset)
                offset += _RECORD.size
                if offset + length > len(data):
                    break
                entries[raw] = (segment_id, offset, length)
                offset += length
        self.rebuilt_entries = len(entries)
        return segments, entries

    def _reload_index_locked(self) -> None:
        self._segments, self._index, self._index_stamp = self._read_index_file()

    def _maybe_reload_index_locked(self) -> bool:
        """Refresh the in-memory index if the file changed on disk."""
        try:
            stat = self._index_path.stat()
            stamp = (stat.st_mtime_ns, stat.st_size)
        except OSError:
            stamp = None
        if stamp == self._index_stamp:
            return False
        self._reload_index_locked()
        return True

    def _publish(self, serialized: list[tuple[bytes, bytes]]) -> bool:
        """Append a batch to new segments and publish the merged index.

        Transient ``OSError`` (real or injected — the
        ``store.put_many`` / ``store.index.publish`` failpoints fire
        inside the retried section) retries per :attr:`retry_policy`
        with deterministic backoff; segments written by a failed
        attempt are never referenced by any index, so a retry can only
        orphan bytes, never corrupt state.  When retries exhaust the
        store enters degraded mode and returns ``False`` — the caller
        counts the skipped batch; the merged-index invariants are
        untouched.
        """
        policy = self.retry_policy
        fail_token = serialized[0][0] if serialized else b""
        for attempt in range(1, policy.max_attempts + 1):
            try:
                failpoints.inject("store.put_many", fail_token, attempt)
                self._publish_once(serialized, fail_token, attempt)
                return True
            except OSError:
                if attempt >= policy.max_attempts:
                    self.degraded = True
                    return False
                policy.sleeper(policy.delay_for(attempt))
        return False  # pragma: no cover - loop always returns

    def _publish_once(
        self,
        serialized: list[tuple[bytes, bytes]],
        fail_token: bytes = b"",
        attempt: int = 1,
    ) -> None:
        """One read-merge-publish cycle under the writer lock.

        The on-disk index is re-read (another process may have
        published since), the batch is appended as one segment, and the
        merged index replaces ``index.bin`` atomically.
        """
        with self._lock:
            dead = dict(self._dead)
        with self._writer_lock():
            segments, entries, _ = self._read_index_file()
            # Scrub entries this store observed as corrupt — re-merging
            # the on-disk index must not resurrect them.  Only the exact
            # location seen bad is scrubbed (segment ids are append-only
            # stable): if another process has since republished the key
            # at a new location, that fresh entry survives.  A key both
            # dead and rewritten in this batch is overwritten below.
            for raw, location in dead.items():
                if entries.get(raw) == location:
                    del entries[raw]
            name, locations = self._write_segment(serialized)
            segments.append(name)
            segment_id = len(segments) - 1
            for raw, offset, length in locations:
                entries[raw] = (segment_id, offset, length)
            failpoints.inject("store.index.publish", fail_token, attempt)
            self._write_index(segments, entries)
            try:
                stat = self._index_path.stat()
                stamp = (stat.st_mtime_ns, stat.st_size)
            except OSError:  # pragma: no cover - we just wrote it
                stamp = None
        with self._lock:
            self._segments = segments
            self._index = entries
            self._index_stamp = stamp
            # The scrub is durable now; rewritten keys are live again.
            for raw in dead:
                self._dead.pop(raw, None)

    def _write_segment(
        self, records: list[tuple[bytes, bytes]]
    ) -> tuple[str, list[tuple[bytes, int, int]]]:
        """One immutable segment holding a batch's records."""
        fd, tmp = tempfile.mkstemp(dir=self.directory, prefix="seg-", suffix=".part")
        locations: list[tuple[bytes, int, int]] = []
        try:
            with os.fdopen(fd, "wb") as handle:
                offset = 0
                for raw, payload in records:
                    handle.write(_RECORD.pack(raw, len(payload)))
                    offset += _RECORD.size
                    handle.write(payload)
                    locations.append((raw, offset, len(payload)))
                    offset += len(payload)
            final = tmp[: -len(".part")] + ".seg"
            os.replace(tmp, final)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return os.path.basename(final), locations

    def _write_index(
        self, segments: list[str], entries: dict[bytes, tuple[int, int, int]]
    ) -> None:
        manifest = json.dumps(
            {"schema": CACHE_SCHEMA_VERSION, "segments": segments},
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
        blob = bytearray(_INDEX_MAGIC)
        blob += manifest
        blob += b"\n"
        pack = _ROW.pack
        for raw, (segment, offset, length) in entries.items():
            blob += pack(raw, segment, offset, length)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".idx.tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, self._index_path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _read_locked(self, location: tuple[int, int, int]) -> bytes | None:
        segment_id, offset, length = location
        if segment_id >= len(self._segments):
            return None
        name = self._segments[segment_id]
        mapped = self._mmaps.get(name)
        if mapped is None:
            try:
                with open(self.directory / name, "rb") as handle:
                    mapped = mmap.mmap(
                        handle.fileno(), 0, access=mmap.ACCESS_READ
                    )
            except (OSError, ValueError):
                return None
            self._mmaps[name] = mapped
        payload = mapped[offset : offset + length]
        if len(payload) != length:
            return None
        return payload

    def _quarantine(self, raw: bytes, payload: bytes) -> None:
        """Preserve a corrupt payload under ``quarantine/<key>.bin``.

        Corrupt entries leave the lookup namespace (the live index drops
        them, the next publish scrubs them) but their bytes are kept for
        post-mortems instead of being destroyed.  Best-effort and
        read-only-safe: quarantine I/O failures never break a lookup,
        and nothing is written in degraded mode.
        """
        self.quarantined += 1
        if self.degraded:
            return
        quarantine = self.directory / "quarantine"
        try:
            quarantine.mkdir(exist_ok=True)
            (quarantine / f"{raw.hex()}.bin").write_bytes(payload)
        except OSError:
            pass

    def _discard_corrupt_locked(
        self, raw: bytes, location: tuple[int, int, int]
    ) -> None:
        """Count a bad payload and drop it from the live index so the
        next publish rewrites the slot (segments are append-only — the
        dead record is simply never referenced again).  The observed
        location is remembered in :attr:`_dead` so the next publish
        scrubs it from the on-disk index instead of re-merging it back
        in (and only it — a concurrent rewrite at a new location is
        left alone)."""
        self.corrupt += 1
        self.misses += 1
        self._index.pop(raw, None)
        self._dead[raw] = location

    def _memory_insert_locked(self, key: Hashable, value: object) -> None:
        if self.memory_entries == 0:
            return
        memory = self._memory
        memory[key] = value
        memory.move_to_end(key)
        while len(memory) > self.memory_entries:
            memory.popitem(last=False)
