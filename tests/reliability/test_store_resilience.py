"""PackedSweepStore index recovery, degraded mode, and quarantine.

Satellite coverage for the store half of the resilience plane:
self-describing segments make ``index.bin`` disposable (missing,
truncated or corrupt indexes rebuild by scanning segments), publish
failures degrade to a counted read-only mode instead of corrupting
state, and corrupt payloads move to ``quarantine/`` rather than being
destroyed.  Every scenario runs on RED cycle traces, the kind the
store writes to disk (analytic metrics and fidelity samples stay in its
memory tier).
"""

import pytest

import repro.eval.store as store_module
from repro.arch.tech import default_tech
from repro.deconv.shapes import DeconvSpec
from repro.eval.parallel import CYCLES_KIND, DesignJob, job_keys
from repro.eval.store import _INDEX_MAGIC, _ROW, PackedSweepStore
from repro.reliability.failpoints import configured_failpoints
from repro.reliability.policy import RetryPolicy, no_sleep

TECH = default_tech()
KIND = CYCLES_KIND
JOBS = tuple(
    DesignJob("RED", spec, TECH, layer_name=f"L{index}")
    for index, spec in enumerate((
        DeconvSpec(4, 4, 3, 4, 4, 2, stride=2, padding=1),
        DeconvSpec(5, 5, 2, 4, 4, 3, stride=2, padding=1),
        DeconvSpec(3, 3, 4, 6, 6, 2, stride=3, padding=1),
    ))
)

NO_SLEEP = RetryPolicy(max_attempts=3, sleeper=no_sleep)


@pytest.fixture(autouse=True)
def _disarmed():
    """Pin a disarmed registry for every test in this module.

    These scenarios arm their own failpoints explicitly; the ambient
    ``RED_FAILPOINTS`` matrix ``make chaos`` exports must not leak into
    the fixture stores they build between armed blocks.
    """
    with configured_failpoints(None):
        yield


def populated(tmp_path):
    """A store holding one cycle trace per job, plus the key list."""
    from repro.eval.parallel import run_cycle_jobs

    store = PackedSweepStore(tmp_path)
    with configured_failpoints(None):
        run_cycle_jobs(list(JOBS), cache=store)
    keys = job_keys(JOBS, KIND)
    return store, keys


def reference_payloads(tmp_path, keys):
    fresh = PackedSweepStore(tmp_path, memory_entries=0)
    return fresh.get_many(keys, KIND)


class TestIndexRecovery:
    def test_missing_index_rebuilds_from_segments(self, tmp_path):
        _, keys = populated(tmp_path)
        expected = reference_payloads(tmp_path, keys)
        (tmp_path / "index.bin").unlink()
        with configured_failpoints(None):
            recovered = PackedSweepStore(tmp_path, memory_entries=0)
            assert recovered.get_many(keys, KIND) == expected
        assert recovered.rebuilt_entries == len(keys)
        assert recovered.stats()["rebuilt_entries"] == len(keys)

    def test_magic_mismatch_rebuilds_from_segments(self, tmp_path):
        _, keys = populated(tmp_path)
        expected = reference_payloads(tmp_path, keys)
        (tmp_path / "index.bin").write_bytes(b"NOTANIDX\ngarbage")
        with configured_failpoints(None):
            recovered = PackedSweepStore(tmp_path, memory_entries=0)
            assert recovered.get_many(keys, KIND) == expected
        assert recovered.rebuilt_entries == len(keys)

    def test_corrupt_manifest_rebuilds_from_segments(self, tmp_path):
        _, keys = populated(tmp_path)
        expected = reference_payloads(tmp_path, keys)
        (tmp_path / "index.bin").write_bytes(_INDEX_MAGIC + b"{not json\n")
        with configured_failpoints(None):
            recovered = PackedSweepStore(tmp_path, memory_entries=0)
            assert recovered.get_many(keys, KIND) == expected

    def test_truncated_rows_serve_complete_entries(self, tmp_path):
        _, keys = populated(tmp_path)
        index = tmp_path / "index.bin"
        data = index.read_bytes()
        # Chop half a row off the end: every complete row still serves.
        index.write_bytes(data[: len(data) - _ROW.size // 2])
        with configured_failpoints(None):
            recovered = PackedSweepStore(tmp_path, memory_entries=0)
            values = recovered.get_many(keys, KIND)
        assert sum(value is not None for value in values) == len(keys) - 1
        # No rebuild happened — truncation is tolerated row-wise.
        assert recovered.rebuilt_entries == 0

    def test_rebuild_drops_a_truncated_trailing_record(self, tmp_path):
        _, keys = populated(tmp_path)
        expected = reference_payloads(tmp_path, keys)
        (tmp_path / "index.bin").unlink()
        (segment,) = tmp_path.glob("seg-*.seg")
        data = segment.read_bytes()
        segment.write_bytes(data[:-3])  # a crash mid-write of the last payload
        with configured_failpoints(None):
            recovered = PackedSweepStore(tmp_path, memory_entries=0)
            values = recovered.get_many(keys, KIND)
        assert recovered.rebuilt_entries == len(keys) - 1
        served = [value for value in values if value is not None]
        assert len(served) == len(keys) - 1
        assert all(value in expected for value in served)

    def test_rebuild_persists_at_next_publish(self, tmp_path):
        store, keys = populated(tmp_path)
        expected = reference_payloads(tmp_path, keys)
        (tmp_path / "index.bin").unlink()
        with configured_failpoints(None):
            recovered = PackedSweepStore(tmp_path, memory_entries=0)
            assert recovered.get_many(keys, KIND) == expected
            # The rebuilt index lives in memory until the next publish
            # rewrites index.bin; publish one fresh entry and reopen.
            extra_job = DesignJob(
                "RED",
                DeconvSpec(3, 3, 2, 6, 6, 3, stride=3, padding=2,
                           output_padding=1),
                TECH,
            )
            recovered.put_many([(job_keys([extra_job], KIND)[0], expected[0])], KIND)
            reopened = PackedSweepStore(tmp_path, memory_entries=0)
            assert reopened.get_many(keys, KIND) == expected
        assert (tmp_path / "index.bin").exists()
        assert reopened.rebuilt_entries == 0

    def test_segment_skew_reads_as_miss(self, tmp_path):
        # The index references a segment that has since vanished: the
        # lookup is a plain miss (the bytes might be fine elsewhere),
        # never a crash and never a corrupt-scrub.
        _, keys = populated(tmp_path)
        for segment in tmp_path.glob("seg-*.seg"):
            segment.unlink()
        with configured_failpoints(None):
            skewed = PackedSweepStore(tmp_path, memory_entries=0)
            values = skewed.get_many(keys, KIND)
        assert values == [None] * len(keys)
        assert skewed.corrupt == 0
        assert skewed.misses == len(keys)


    def test_index_row_past_the_manifest_reads_as_miss(self, tmp_path):
        store, keys = populated(tmp_path)
        store._write_index(
            list(store._segments),
            {bytes.fromhex(key): (len(store._segments), 0, 16) for key in keys},
        )
        with configured_failpoints(None):
            skewed = PackedSweepStore(tmp_path, memory_entries=0)
            assert skewed.get_many(keys, KIND) == [None] * len(keys)
        assert (skewed.misses, skewed.corrupt, skewed.rebuilt_entries) == (len(keys), 0, 0)

    def test_segment_shorter_than_its_rows_reads_as_miss(self, tmp_path):
        # The index is intact, so nothing rebuilds; the rows point past
        # the end of a segment truncated after the publish.
        _, keys = populated(tmp_path)
        (segment,) = tmp_path.glob("seg-*.seg")
        segment.write_bytes(segment.read_bytes()[:_ROW.size])
        with configured_failpoints(None):
            short = PackedSweepStore(tmp_path, memory_entries=0)
            assert short.get_many(keys, KIND) == [None] * len(keys)
        assert (short.misses, short.rebuilt_entries) == (len(keys), 0)

    def test_rebuild_skips_an_unreadable_segment(self, tmp_path):
        _, keys = populated(tmp_path)
        expected = reference_payloads(tmp_path, keys)
        (tmp_path / "seg-unreadable.seg").mkdir()
        (tmp_path / "index.bin").unlink()
        with configured_failpoints(None):
            recovered = PackedSweepStore(tmp_path, memory_entries=0)
            assert recovered.get_many(keys, KIND) == expected
        assert recovered.rebuilt_entries == len(keys)


class TestFailedWritesLeaveNoTemporaries:
    @staticmethod
    def _failing_replace(monkeypatch, suffix):
        replace = store_module.os.replace

        def failing(source, target):
            if str(source).endswith(suffix):
                raise OSError(f"injected rename failure for {source}")
            return replace(source, target)

        monkeypatch.setattr(store_module.os, "replace", failing)

    def _entries(self, tmp_path):
        _, keys = populated(tmp_path / "reference")
        return keys, list(zip(keys, reference_payloads(tmp_path / "reference", keys)))

    def test_failed_segment_write_removes_its_part_file(self, tmp_path, monkeypatch):
        keys, entries = self._entries(tmp_path)
        store = PackedSweepStore(tmp_path / "store", retry_policy=NO_SLEEP)
        self._failing_replace(monkeypatch, ".part")
        assert store.put_many(entries, KIND) == 0
        assert store.degraded
        names = sorted(p.name for p in (tmp_path / "store").iterdir())
        assert names == [".lock"]  # the writer lock; no segment, no .part

    def test_failed_index_write_removes_its_temporary(self, tmp_path, monkeypatch):
        keys, entries = self._entries(tmp_path)
        store = PackedSweepStore(tmp_path / "store", retry_policy=NO_SLEEP)
        self._failing_replace(monkeypatch, ".idx.tmp")
        assert store.put_many(entries, KIND) == 0
        assert store.degraded
        names = sorted(p.name for p in (tmp_path / "store").iterdir())
        assert names[0] == ".lock"
        assert names[1:] and all(name.endswith(".seg") for name in names[1:])
        monkeypatch.undo()
        # The orphaned segments still hold every entry: a reopen rebuilds.
        with configured_failpoints(None):
            reopened = PackedSweepStore(tmp_path / "store", memory_entries=0)
            assert reopened.get_many(keys, KIND) == [value for _, value in entries]


class TestDegradedMode:
    def test_publish_exhaustion_degrades_and_memory_tier_serves(
        self, tmp_path
    ):
        store = PackedSweepStore(tmp_path, retry_policy=NO_SLEEP)
        _, keys = populated(tmp_path / "reference")
        payloads = reference_payloads(tmp_path / "reference", keys)
        entries = list(zip(keys, payloads))
        with configured_failpoints("store.put_many:io_error@1.0"):
            assert store.put_many(entries, KIND) == 0
        assert store.degraded
        assert store.degraded_puts == len(entries)
        assert store.stats()["degraded"] == 1
        # The memory tier still serves this process...
        assert store.get_many(keys, KIND) == payloads
        assert store.memory_hits == len(keys)
        # ...but nothing reached disk.
        with configured_failpoints(None):
            reopened = PackedSweepStore(tmp_path)
            assert reopened.get_many(keys, KIND) == [None] * len(keys)

    def test_refresh_leaves_degraded_mode(self, tmp_path):
        store = PackedSweepStore(tmp_path, retry_policy=NO_SLEEP)
        _, keys = populated(tmp_path / "reference")
        payloads = reference_payloads(tmp_path / "reference", keys)
        entries = list(zip(keys, payloads))
        with configured_failpoints("store.put_many:io_error@1.0"):
            store.put_many(entries, KIND)
        assert store.degraded
        with configured_failpoints(None):
            store.refresh()
            assert not store.degraded
            assert store.put_many(entries, KIND) == len(entries)
            assert PackedSweepStore(tmp_path, memory_entries=0).get_many(
                keys, KIND
            ) == payloads

    def test_publish_retry_eventually_succeeds(self, tmp_path):
        # rate 0.5 with five attempts: the (key, attempt)-keyed draws
        # pass within the budget for this seed, and the batch lands.
        store = PackedSweepStore(
            tmp_path, retry_policy=RetryPolicy(max_attempts=5, sleeper=no_sleep)
        )
        _, keys = populated(tmp_path / "reference")
        payloads = reference_payloads(tmp_path / "reference", keys)
        entries = list(zip(keys, payloads))
        with configured_failpoints("store.put_many:io_error@0.5", seed=1):
            written = store.put_many(entries, KIND)
        assert written == len(entries)
        assert not store.degraded
        with configured_failpoints(None):
            assert PackedSweepStore(tmp_path, memory_entries=0).get_many(
                keys, KIND
            ) == payloads

    def test_degraded_backoff_is_deterministic(self, tmp_path):
        slept = []
        policy = RetryPolicy(
            max_attempts=3, base_delay_s=0.25, sleeper=slept.append
        )
        store = PackedSweepStore(tmp_path, retry_policy=policy)
        _, keys = populated(tmp_path / "reference")
        payloads = reference_payloads(tmp_path / "reference", keys)
        with configured_failpoints("store.put_many:io_error@1.0"):
            store.put_many(list(zip(keys, payloads)), KIND)
        assert slept == [0.25, 0.5]


class TestQuarantine:
    def test_packed_store_quarantines_corrupt_payloads(self, tmp_path):
        _, keys = populated(tmp_path)
        with configured_failpoints("store.get_many:corrupt@1.0"):
            store = PackedSweepStore(tmp_path, memory_entries=0)
            values = store.get_many(keys, KIND)
        assert values == [None] * len(keys)
        assert store.corrupt == len(keys)
        assert store.quarantined == len(keys)
        names = {path.name for path in (tmp_path / "quarantine").glob("*.bin")}
        assert names == {f"{key}.bin" for key in keys}

    def test_scrub_then_rewrite_recovers(self, tmp_path):
        store, keys = populated(tmp_path)
        payloads = reference_payloads(tmp_path, keys)
        with configured_failpoints("store.get_many:corrupt@1.0"):
            scrubbed = PackedSweepStore(tmp_path, memory_entries=0)
            assert scrubbed.get_many(keys, KIND) == [None] * len(keys)
        # The slots were scrubbed from the live index; rewriting them
        # publishes fresh entries that read back clean.
        with configured_failpoints(None):
            scrubbed.put_many(list(zip(keys, payloads)), KIND)
            assert scrubbed.get_many(keys, KIND) == payloads
            reopened = PackedSweepStore(tmp_path, memory_entries=0)
            assert reopened.get_many(keys, KIND) == payloads

    def test_degraded_store_skips_quarantine_writes(self, tmp_path):
        _, keys = populated(tmp_path)
        with configured_failpoints(
            "store.get_many:corrupt@1.0;store.put_many:io_error@1.0"
        ):
            store = PackedSweepStore(tmp_path, memory_entries=0,
                                     retry_policy=NO_SLEEP)
            store.put_many([], KIND)  # no-op; degraded only flips on real puts
            store.degraded = True
            store.get_many(keys, KIND)
        assert store.quarantined == len(keys)
        assert not (tmp_path / "quarantine").exists()


    def test_blocked_quarantine_never_breaks_a_lookup(self, tmp_path):
        _, keys = populated(tmp_path)
        (tmp_path / "quarantine").write_bytes(b"not a directory")
        with configured_failpoints("store.get_many:corrupt@1.0"):
            store = PackedSweepStore(tmp_path, memory_entries=0)
            assert store.get_many(keys, KIND) == [None] * len(keys)
        assert store.quarantined == len(keys)
        assert (tmp_path / "quarantine").read_bytes() == b"not a directory"


class TestOpenProbe:
    def test_fresh_directory_opens_writable(self, tmp_path):
        store = PackedSweepStore(tmp_path / "new")
        assert not store.degraded
        assert store.rebuilt_entries == 0

    def test_unknown_schema_reads_empty_without_rebuild(self, tmp_path):
        # A schema bump is deliberate invalidation: the index reports
        # empty and the segments are NOT resurrected.
        _, keys = populated(tmp_path)
        index = tmp_path / "index.bin"
        data = index.read_bytes()
        index.write_bytes(data.replace(b'"schema":', b'"schema":9', 1))
        with configured_failpoints(None):
            store = PackedSweepStore(tmp_path, memory_entries=0)
            assert store.get_many(keys, KIND) == [None] * len(keys)
        assert store.rebuilt_entries == 0
        assert len(store) == 0


def test_quarantine_files_do_not_break_reopen(tmp_path):
    _, keys = populated(tmp_path)
    with configured_failpoints("store.get_many:corrupt@1.0"):
        PackedSweepStore(tmp_path, memory_entries=0).get_many(keys, KIND)
    with configured_failpoints(None):
        reopened = PackedSweepStore(tmp_path, memory_entries=0)
        values = reopened.get_many(keys, KIND)
    # The scrub was process-local (no publish happened), so the entries
    # are still on disk and read back clean in a fresh store.
    assert all(value is not None for value in values)
