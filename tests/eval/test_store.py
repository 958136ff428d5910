"""The batched cache plane: packed store, batched keying, hit tier.

Covers the ISSUE-5 contracts:

- ``job_keys(jobs)`` is bit-for-bit equal to the scalar
  ``[job_key(j) for j in jobs]`` across designs, folds, techs and kinds
  (hypothesis property), and the metrics value keys
  (``metrics_keys``) group jobs exactly as ``job_keys`` does.
- ``PackedSweepStore`` round-trips payloads, survives concurrent
  ``put_many`` writers sharing one directory, appends one segment per
  ``put_many``, leaves files of other layouts alone, and bounds its
  in-memory LRU hit tier.
- ``run_design_jobs`` / ``run_cycle_jobs`` issue *zero* per-job cache
  calls — one batched probe plus one batched publish per run
  (call-count instrumentation).
"""

import dataclasses
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch.tech import default_tech
from repro.deconv.shapes import DeconvSpec
from repro.errors import CacheError, ParameterError
from repro.eval.parallel import (
    CYCLES_KIND,
    FIDELITY_KIND,
    METRICS_KIND,
    CycleStats,
    DesignJob,
    FidelityJob,
    FidelityStats,
    fidelity_job_keys,
    job_key,
    job_keys,
    metrics_keys,
    run_cycle_jobs,
    run_design_jobs,
    run_fidelity_jobs,
)
from repro.eval.store import PackedSweepStore

SPEC = DeconvSpec(4, 4, 3, 4, 4, 2, stride=2, padding=1)
TECH = default_tech()
TECH_B = TECH.with_overrides(mux_share=4)


def make_job(**overrides) -> DesignJob:
    base = dict(design="RED", spec=SPEC, tech=TECH, fold=1, layer_name="L")
    base.update(overrides)
    return DesignJob(**base)


def stats_payload(token: int, layer: str = "L") -> CycleStats:
    """A cheap-to-build payload for store-level tests."""
    return CycleStats(
        design="RED", layer=layer, fold=1, cycles=token,
        counters=(("output_pixels", token),),
    )


def fidelity_payload(token: int, layer: str = "L") -> FidelityStats:
    return FidelityStats(
        design="RED", layer=layer, seed=token, time_s=1.0,
        rms_error=0.1 * token, mean_abs_error=0.0, max_abs_error=0.0,
        stuck_fraction=0.0,
    )


def synthetic_key(token: int) -> str:
    """A deterministic, well-formed 64-hex store key."""
    import hashlib

    return hashlib.sha256(f"synthetic-{token}".encode()).hexdigest()


# ----------------------------------------------------------------------
# Batched keying
# ----------------------------------------------------------------------
class TaggedSpec(DeconvSpec):
    """A spec subclass: keyed apart from a plain spec with equal fields."""


@st.composite
def job_lists(draw):
    """Diverse job lists: designs x folds x specs x techs x labels."""
    specs = [
        SPEC,
        DeconvSpec(3, 5, 2, 4, 4, 3, stride=2, padding=1),
        DeconvSpec(4, 4, 2, 8, 8, 2, stride=4, padding=2),
    ]
    count = draw(st.integers(min_value=0, max_value=12))
    jobs = []
    for index in range(count):
        design = draw(
            st.sampled_from(("RED", "zero-padding", "padding-free", "zp", "pf"))
        )
        fold = draw(st.sampled_from((None, "auto", 1, 2, 2.0)))
        spec = draw(st.sampled_from(specs))
        tech = draw(st.sampled_from((TECH, TECH_B)))
        jobs.append(
            DesignJob(design, spec, tech, fold=fold, layer_name=f"job{index}")
        )
    return jobs


class TestJobKeysBatched:
    @given(job_lists(), st.sampled_from((METRICS_KIND, CYCLES_KIND)))
    @settings(
        max_examples=30, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_matches_scalar_job_key(self, jobs, kind):
        assert job_keys(jobs, kind) == [job_key(job, kind) for job in jobs]

    def test_empty_list(self):
        assert job_keys([]) == []

    def test_value_equal_tech_instances_share_segments(self):
        # Distinct-but-equal tech objects must produce the same keys the
        # identity-memoized fast path does.
        clone = dataclasses.replace(TECH)
        assert clone is not TECH
        jobs = [make_job(tech=TECH), make_job(tech=clone)]
        keys = job_keys(jobs)
        assert keys[0] == keys[1] == job_key(jobs[0])

    def test_spec_subclass_keys_like_the_scalar_walk(self):
        # A DeconvSpec subclass skips the columnar fast path; its key
        # still equals job_key's and names the subclass.
        plain = make_job()
        tagged = make_job(spec=TaggedSpec(**dataclasses.asdict(plain.spec)))
        keys = job_keys([plain, tagged])
        assert keys == [job_key(plain), job_key(tagged)]
        assert keys[0] != keys[1]

    def test_fold_type_distinguished_like_scalar(self):
        # 2 vs 2.0 repr differently; the batched memo must not merge them.
        a, b = make_job(fold=2), make_job(fold=2.0)
        assert job_keys([a, b]) == [job_key(a), job_key(b)]
        assert job_key(a) != job_key(b)


def groups(keys) -> list[int]:
    """Each key's first position: equal lists mean equal partitions."""
    first: dict = {}
    return [first.setdefault(key, index) for index, key in enumerate(keys)]


@st.composite
def value_key_job_lists(draw):
    """Job lists whose specs and techs include value-equal twins."""
    specs = [
        SPEC,
        dataclasses.replace(SPEC),  # equal value, distinct object
        TaggedSpec(**dataclasses.asdict(SPEC)),
        DeconvSpec(4, 4, 2, 8, 8, 2, stride=4, padding=2),
    ]
    techs = [TECH, dataclasses.replace(TECH), TECH_B]
    count = draw(st.integers(min_value=0, max_value=16))
    return [
        DesignJob(
            draw(st.sampled_from(("RED", "red", "zero-padding", "zp", "pf"))),
            draw(st.sampled_from(specs)),
            draw(st.sampled_from(techs)),
            fold=draw(st.sampled_from((None, "auto", 2, 2.0))),
            layer_name=f"job{index}",
        )
        for index in range(count)
    ]


class TestMetricsValueKeys:
    @given(value_key_job_lists())
    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_groups_jobs_exactly_like_job_keys(self, jobs):
        keys = metrics_keys(jobs)
        assert groups(keys) == groups(job_keys(jobs, METRICS_KIND))
        # Keys are values, not per-call tokens: a job keyed alone in
        # another call meets its batched key in the memory tier.
        assert keys == [metrics_keys([job])[0] for job in jobs]

    def test_every_part_is_a_builtin_or_the_subclass_spec(self):
        plain, tagged = metrics_keys(
            [make_job(), make_job(spec=TaggedSpec(**dataclasses.asdict(SPEC)))]
        )
        head, spec_part, tech = plain
        assert head == ("RED", int, 1)
        assert spec_part == tuple(dataclasses.astuple(SPEC))
        assert type(tech) is str
        assert type(tagged[1]) is TaggedSpec and tagged != plain

    def test_technologies_that_print_apart_key_apart_across_calls(self):
        # 0, 0.0, -0.0 and False compare equal (so do the technologies),
        # but their reprs differ and so do the rows they evaluate to.
        techs = [TECH.with_overrides(t_mux=value) for value in (0, 0.0, -0.0, False)]
        jobs = [make_job(tech=tech) for tech in techs]
        assert len(set(metrics_keys(jobs))) == len(techs)
        assert job_keys(jobs, METRICS_KIND) == [job_key(job, METRICS_KIND) for job in jobs]
        # Value-equal technologies share one segment object across calls.
        (_, _, first), = metrics_keys([make_job(tech=TECH.with_overrides())])
        (_, _, second), = metrics_keys([make_job()])
        assert first is second
        # One batch evaluates each as if it were alone, int rows and all.
        for route in (True, False):
            together = run_design_jobs(jobs, vectorized=route)
            alone = [run_design_jobs([job], vectorized=route)[0] for job in jobs]
            assert [pickle.dumps(row, 5) for row in together] == [
                pickle.dumps(row, 5) for row in alone
            ]
            assert [type(row.latency.mux) for row in together] == [int, float, float, int]


class TestFidelityKind:
    def test_put_many_get_many_round_trip(self, tmp_path):
        # Fidelity samples live in the memory tier only: the store that
        # took them serves them back, nothing reaches disk, and a
        # reopened store misses them.
        store = PackedSweepStore(tmp_path)
        entries = [(synthetic_key(i), fidelity_payload(i)) for i in range(5)]
        keys = [k for k, _ in entries]
        assert store.put_many(entries, kind=FIDELITY_KIND) == 0
        assert store.get_many(keys, kind=FIDELITY_KIND) == [
            payload for _, payload in entries
        ]
        assert not any(tmp_path.iterdir())  # no segment, no index
        fresh = PackedSweepStore(tmp_path)
        assert fresh.get_many(keys, kind=FIDELITY_KIND) == [None] * len(keys)
        assert (fresh.misses, fresh.corrupt) == (len(keys), 0)

    def test_wrong_payload_type_rejected(self, tmp_path):
        store = PackedSweepStore(tmp_path)
        with pytest.raises(TypeError):
            store.put_many(
                [(synthetic_key(0), stats_payload(0))], kind=FIDELITY_KIND
            )
        with pytest.raises(TypeError):
            store.put_many(
                [(synthetic_key(0), fidelity_payload(0))], kind=CYCLES_KIND
            )

    @given(job_lists())
    @settings(
        max_examples=20, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_fidelity_keys_never_collide_with_other_kinds(self, jobs):
        fidelity = [
            FidelityJob(
                design=job.design, spec=job.spec, tech=job.tech,
                layer_name=job.layer_name,
            )
            for job in jobs
        ]
        other = set(job_keys(jobs, METRICS_KIND)) | set(job_keys(jobs, CYCLES_KIND))
        assert not other & set(fidelity_job_keys(fidelity))


# ----------------------------------------------------------------------
# Packed store fundamentals
# ----------------------------------------------------------------------
class TestPackedStoreRoundTrip:
    def test_put_many_get_many(self, tmp_path):
        store = PackedSweepStore(tmp_path)
        entries = [(synthetic_key(i), stats_payload(i)) for i in range(5)]
        assert store.put_many(entries, kind=CYCLES_KIND) == 5
        values = store.get_many([k for k, _ in entries], kind=CYCLES_KIND)
        assert [v.cycles for v in values] == list(range(5))
        assert store.stores == 5 and store.hits == 5

    def test_fresh_open_reads_from_disk(self, tmp_path):
        first = PackedSweepStore(tmp_path)
        first.put_many([(synthetic_key(1), stats_payload(7))], kind=CYCLES_KIND)
        second = PackedSweepStore(tmp_path)
        value = second.get_many([synthetic_key(1)], kind=CYCLES_KIND)[0]
        assert value.cycles == 7
        assert second.disk_hits == 1 and second.memory_hits == 0

    def test_context_manager_closes_the_store(self, tmp_path):
        key = synthetic_key(2)
        with PackedSweepStore(tmp_path) as store:
            store.put_many([(key, stats_payload(2))], kind=CYCLES_KIND)
            assert store.memory_size() == 1
        assert store.memory_size() == 0
        reopened = PackedSweepStore(tmp_path)
        assert reopened.get_many([key], kind=CYCLES_KIND)[0].cycles == 2

    def test_miss_counts(self, tmp_path):
        store = PackedSweepStore(tmp_path)
        assert store.get_many([synthetic_key(9)], kind=CYCLES_KIND) == [None]
        assert store.misses == 1 and store.hits == 0

    def test_overwrite_wins(self, tmp_path):
        store = PackedSweepStore(tmp_path)
        key = synthetic_key(3)
        store.put_many([(key, stats_payload(1))], kind=CYCLES_KIND)
        store.put_many([(key, stats_payload(2))], kind=CYCLES_KIND)
        assert store.get_many([key], kind=CYCLES_KIND)[0].cycles == 2
        fresh = PackedSweepStore(tmp_path)
        assert fresh.get_many([key], kind=CYCLES_KIND)[0].cycles == 2

    def test_wrong_payload_type_rejected(self, tmp_path):
        store = PackedSweepStore(tmp_path)
        with pytest.raises(TypeError):
            store.put_many([(synthetic_key(0), stats_payload(0))])  # metrics kind

    def test_malformed_key_rejected(self, tmp_path):
        store = PackedSweepStore(tmp_path)
        with pytest.raises(CacheError):
            store.put_many([("short", stats_payload(0))], kind=CYCLES_KIND)
        with pytest.raises(CacheError):
            store.get_many(["z" * 64], kind=CYCLES_KIND)

    def test_bad_parameters_rejected(self, tmp_path):
        with pytest.raises(ParameterError):
            PackedSweepStore(tmp_path, memory_entries=-1)

    def test_cross_process_publish_visible_after_miss(self, tmp_path):
        # A reader refreshes its index (one stat) when a lookup misses,
        # so another store object's publish becomes visible without
        # reopening.
        reader = PackedSweepStore(tmp_path)
        writer = PackedSweepStore(tmp_path)
        key = synthetic_key(11)
        writer.put_many([(key, stats_payload(11))], kind=CYCLES_KIND)
        assert reader.get_many([key], kind=CYCLES_KIND)[0].cycles == 11


class TestCorruptHandling:
    def test_corrupt_segment_record_counts_and_recovers(self, tmp_path):
        store = PackedSweepStore(tmp_path)
        key = synthetic_key(5)
        store.put_many([(key, stats_payload(5))], kind=CYCLES_KIND)
        store.close()
        for segment in tmp_path.glob("*.seg"):
            segment.write_bytes(b"\x00" * segment.stat().st_size)
        fresh = PackedSweepStore(tmp_path)
        assert fresh.get_many([key], kind=CYCLES_KIND) == [None]
        assert fresh.corrupt == 1
        # The slot is rewritable: a new publish supersedes the dead record.
        fresh.put_many([(key, stats_payload(6))], kind=CYCLES_KIND)
        assert fresh.get_many([key], kind=CYCLES_KIND)[0].cycles == 6

    def test_discarded_corrupt_entry_scrubbed_at_next_publish(self, tmp_path):
        # A publish of *other* keys must not resurrect an entry the
        # store already observed as corrupt (the read-merge-publish
        # cycle re-reads the on-disk index, which still lists it).
        store = PackedSweepStore(tmp_path)
        bad, other = synthetic_key(1), synthetic_key(2)
        store.put_many([(bad, stats_payload(1))], kind=CYCLES_KIND)
        store.close()
        for segment in tmp_path.glob("*.seg"):
            segment.write_bytes(b"\x00" * segment.stat().st_size)
        fresh = PackedSweepStore(tmp_path)
        assert fresh.get_many([bad], kind=CYCLES_KIND) == [None]
        fresh.put_many([(other, stats_payload(2))], kind=CYCLES_KIND)
        reopened = PackedSweepStore(tmp_path)
        assert bad not in reopened
        assert reopened.get_many([bad], kind=CYCLES_KIND) == [None]
        assert reopened.corrupt == 0  # a clean miss now, not a re-decode

    def test_duplicate_keys_in_one_batch_decode_once(self, tmp_path):
        store = PackedSweepStore(tmp_path)
        key = synthetic_key(4)
        store.put_many([(key, stats_payload(4))], kind=CYCLES_KIND)
        fresh = PackedSweepStore(tmp_path)  # cold tier: all disk
        values = fresh.get_many([key, key, key], kind=CYCLES_KIND)
        assert [v.cycles for v in values] == [4, 4, 4]
        assert values[0] is values[1] is values[2]  # one decode, fanned out
        assert fresh.disk_hits == 3 and fresh.memory_size() == 1

    def test_shape_skewed_payload_counts_as_corrupt(self, tmp_path):
        # A record under a cycles key whose payload is another class
        # (put_many refuses to write one, so publish the bytes directly).
        store = PackedSweepStore(tmp_path)
        key = synthetic_key(6)
        skewed = pickle.dumps(fidelity_payload(6), pickle.HIGHEST_PROTOCOL)
        assert store._publish([(bytes.fromhex(key), skewed)])
        fresh = PackedSweepStore(tmp_path)  # LRU cold: forces the disk path
        assert fresh.get_many([key], kind=CYCLES_KIND) == [None]
        assert fresh.corrupt == 1
        # The payload's bytes are kept for post-mortems.
        quarantined = tmp_path / "quarantine" / f"{key}.bin"
        assert quarantined.read_bytes() == skewed


# ----------------------------------------------------------------------
# In-memory LRU hit tier
# ----------------------------------------------------------------------
class TestMemoryTier:
    def test_eviction_bound_holds(self, tmp_path):
        store = PackedSweepStore(tmp_path, memory_entries=4)
        entries = [
            (synthetic_key(i), stats_payload(i)) for i in range(10)
        ]
        store.put_many(entries, kind=CYCLES_KIND)
        assert store.memory_size() <= 4
        # Evicted entries are still served (from disk) and re-admitted.
        values = store.get_many([k for k, _ in entries], kind=CYCLES_KIND)
        assert [v.cycles for v in values] == list(range(10))
        assert store.memory_size() <= 4
        assert store.disk_hits >= 6

    def test_repeated_sweep_never_touches_disk_twice(self, tmp_path):
        store = PackedSweepStore(tmp_path)
        keys = [synthetic_key(i) for i in range(8)]
        store.put_many(
            [(k, stats_payload(i)) for i, k in enumerate(keys)],
            kind=CYCLES_KIND,
        )
        store.get_many(keys, kind=CYCLES_KIND)
        store.get_many(keys, kind=CYCLES_KIND)
        assert store.disk_hits == 0  # put_many pre-populated the tier
        assert store.memory_hits == 16

    def test_lru_recency_order(self, tmp_path):
        store = PackedSweepStore(tmp_path, memory_entries=2)
        a, b, c = (synthetic_key(i) for i in range(3))
        store.put_many(
            [(a, stats_payload(0)), (b, stats_payload(1))], kind=CYCLES_KIND
        )
        store.get_many([a], kind=CYCLES_KIND)  # refresh a
        store.put_many([(c, stats_payload(2))], kind=CYCLES_KIND)  # evicts b
        store.get_many([a, b, c], kind=CYCLES_KIND)
        assert store.disk_hits == 1  # only b went to disk

    def test_disabled_tier(self, tmp_path):
        store = PackedSweepStore(tmp_path, memory_entries=0)
        key = synthetic_key(0)
        store.put_many([(key, stats_payload(0))], kind=CYCLES_KIND)
        store.get_many([key], kind=CYCLES_KIND)
        store.get_many([key], kind=CYCLES_KIND)
        assert store.memory_size() == 0
        assert store.disk_hits == 2


# ----------------------------------------------------------------------
# Concurrent writers
# ----------------------------------------------------------------------
def _concurrent_writer(args) -> int:
    """One worker process appending its own batches to a shared store."""
    directory, worker, batches, per_batch = args
    store = PackedSweepStore(directory)
    for batch in range(batches):
        entries = [
            (
                synthetic_key(worker * 10_000 + batch * 100 + item),
                stats_payload(worker * 10_000 + batch * 100 + item),
            )
            for item in range(per_batch)
        ]
        store.put_many(entries, kind=CYCLES_KIND)
    return batches * per_batch


class TestConcurrentWriters:
    def test_put_many_from_multiple_processes_loses_nothing(self, tmp_path):
        workers, batches, per_batch = 4, 3, 5
        with ProcessPoolExecutor(max_workers=workers) as pool:
            written = list(
                pool.map(
                    _concurrent_writer,
                    [
                        (str(tmp_path), worker, batches, per_batch)
                        for worker in range(workers)
                    ],
                )
            )
        assert sum(written) == workers * batches * per_batch
        store = PackedSweepStore(tmp_path)
        expected = [
            worker * 10_000 + batch * 100 + item
            for worker in range(workers)
            for batch in range(batches)
            for item in range(per_batch)
        ]
        values = store.get_many(
            [synthetic_key(token) for token in expected], kind=CYCLES_KIND
        )
        assert [v.cycles for v in values] == expected
        assert store.misses == 0


# ----------------------------------------------------------------------
# One on-disk layout
# ----------------------------------------------------------------------
class TestOneLayout:
    def test_one_put_many_appends_one_segment(self, tmp_path):
        store = PackedSweepStore(tmp_path)
        store.put_many([(synthetic_key(0), stats_payload(0))], kind=CYCLES_KIND)
        before = set(tmp_path.glob("seg-*.seg"))
        entries = [(synthetic_key(i), stats_payload(i)) for i in range(1, 65)]
        assert len({key[:2] for key, _ in entries}) > 16  # many first bytes
        assert store.put_many(entries, kind=CYCLES_KIND) == len(entries)
        assert len(set(tmp_path.glob("seg-*.seg")) - before) == 1
        fresh = PackedSweepStore(tmp_path)
        assert fresh.get_many([k for k, _ in entries], kind=CYCLES_KIND) == [
            value for _, value in entries
        ]

    def test_pickle_files_are_neither_read_nor_rewritten(self, tmp_path):
        # ``<key>.pkl`` files holding valid payloads under their real
        # keys open like any other files: the store never reads them.
        jobs = [
            make_job(design=design, layer_name=design)
            for design in ("RED", "zero-padding", "padding-free")
        ]
        keys = job_keys(jobs)
        for key, metrics in zip(keys, run_design_jobs(jobs)):
            (tmp_path / f"{key}.pkl").write_bytes(
                pickle.dumps(metrics, pickle.HIGHEST_PROTOCOL)
            )
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        store = PackedSweepStore(tmp_path)
        assert len(store) == 0
        assert store.get_many(keys) == [None] * len(keys)
        assert store.misses == len(keys)
        store.close()
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before
        assert not (tmp_path / "index.bin").exists()
        assert not list(tmp_path.glob("seg-*.seg"))


# ----------------------------------------------------------------------
# Runner discipline: batch probe + batch publish only
# ----------------------------------------------------------------------
class CountingStore(PackedSweepStore):
    """Instruments the store API the runners are allowed to touch."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.get_many_calls = 0
        self.put_many_calls = 0

    def get_many(self, keys, kind=METRICS_KIND):
        self.get_many_calls += 1
        return super().get_many(keys, kind)

    def put_many(self, entries, kind=METRICS_KIND):
        self.put_many_calls += 1
        return super().put_many(entries, kind)


class TestRunnerBatchDiscipline:
    @pytest.mark.parametrize("with_store", (False, True), ids=("no-store", "store"))
    @pytest.mark.parametrize(
        "runner",
        (run_design_jobs, run_cycle_jobs, run_fidelity_jobs),
        ids=("design", "cycle", "fidelity"),
    )
    def test_empty_job_list_touches_no_store(self, tmp_path, runner, with_store):
        store = CountingStore(tmp_path) if with_store else None
        assert runner([], cache=store) == []
        if store is not None:
            assert (store.get_many_calls, store.put_many_calls) == (0, 0)
            assert len(store) == 0

    def _grid(self):
        specs = (SPEC, DeconvSpec(3, 5, 2, 4, 4, 3, stride=2, padding=1))
        return [
            make_job(design=design, spec=spec, fold=None,
                     layer_name=f"{design}-{i}")
            for i, spec in enumerate(specs)
            for design in ("RED", "zero-padding", "padding-free")
        ]

    def test_run_design_jobs_zero_per_job_calls(self, tmp_path):
        store = CountingStore(tmp_path)
        jobs = self._grid()
        run_design_jobs(jobs, cache=store)  # cold: probe + publish
        assert (store.get_many_calls, store.put_many_calls) == (1, 1)
        run_design_jobs(jobs, cache=store)  # warm: probe only
        assert (store.get_many_calls, store.put_many_calls) == (2, 1)

    def test_run_cycle_jobs_zero_per_job_calls(self, tmp_path):
        store = CountingStore(tmp_path)
        jobs = self._grid()  # only RED is trace-capable
        run_cycle_jobs(jobs, cache=store)
        assert (store.get_many_calls, store.put_many_calls) == (1, 1)
        run_cycle_jobs(jobs, cache=store)
        assert (store.get_many_calls, store.put_many_calls) == (2, 1)

    def test_counting_store_passes_the_store_check(self, tmp_path):
        # The runners take a duck-typed store as given and never build
        # one, so the counters above really observe the runner's traffic.
        from repro.eval.parallel import _is_store

        assert _is_store(CountingStore(tmp_path))


# ----------------------------------------------------------------------
# Route equivalence through the runner
# ----------------------------------------------------------------------
class TestPackedStoreThroughRunner:
    def test_cold_warm_uncached_byte_identical(self, tmp_path):
        jobs = [
            make_job(design=design, fold=None, layer_name=f"{design}-{i}")
            for i in range(2)
            for design in ("RED", "zero-padding", "padding-free")
        ]
        store = PackedSweepStore(tmp_path)
        cold = run_design_jobs(jobs, cache=store)
        warm = run_design_jobs(jobs, cache=store)
        reopened = run_design_jobs(jobs, cache=PackedSweepStore(tmp_path))
        uncached = run_design_jobs(jobs)
        digest = lambda results: [pickle.dumps(m) for m in results]  # noqa: E731
        assert (
            digest(cold) == digest(warm) == digest(reopened) == digest(uncached)
        )

    def test_cycle_stats_roundtrip_through_packed_store(self, tmp_path):
        jobs = [make_job(layer_name="a"), make_job(layer_name="b")]
        store = PackedSweepStore(tmp_path)
        cold = run_cycle_jobs(jobs, cache=store)
        warm = run_cycle_jobs(jobs, cache=store)
        assert [pickle.dumps(c) for c in cold] == [pickle.dumps(c) for c in warm]
        assert [c.layer for c in warm] == ["a", "b"]
