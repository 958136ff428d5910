"""Hit/miss/invalidation coverage for the sweep store.

Store mechanics run on cycle stats, a kind the store writes to disk;
analytic metrics live in its memory tier only, and the runner tests
assert that policy.
"""

import dataclasses
import pickle

import pytest

from repro.api.schema import EvaluationRequest
from repro.api.service import RedService
from repro.arch.tech import TechnologyParams, default_tech
from repro.deconv.shapes import DeconvSpec
from repro.errors import ParameterError
from repro.eval.parallel import (
    CYCLES_KIND,
    DesignJob,
    FidelityJob,
    build_design_for_job,
    evaluate_design_job,
    job_key,
    metrics_keys,
    run_cycle_jobs,
    run_design_jobs,
    run_fidelity_jobs,
)
from repro.eval.store import PackedSweepStore

SPEC = DeconvSpec(4, 4, 3, 4, 4, 2, stride=2, padding=1)


def memory_bytes(store: PackedSweepStore, job: DesignJob) -> bytes:
    """The pickled payload a store's memory tier holds for ``job``."""
    with store._lock:
        return pickle.dumps(store._memory[metrics_keys([job])[0]], pickle.HIGHEST_PROTOCOL)


def make_job(**overrides) -> DesignJob:
    base = dict(
        design="RED", spec=SPEC, tech=default_tech(), fold=1, layer_name="L"
    )
    base.update(overrides)
    return DesignJob(**base)


#: A constraint-respecting perturbation for every TechnologyParams field.
def _perturb(field: dataclasses.Field):
    value = getattr(default_tech(), field.name)
    if isinstance(value, bool):
        return not value
    if field.name == "bits_weight":
        return value * 2  # stays a multiple of bits_per_cell
    if field.name == "bits_per_cell":
        return value * 2  # 8 % 4 == 0 still holds
    if isinstance(value, int):
        return value + 1
    return value * 1.5


class TestJobKey:
    def test_equal_jobs_share_a_key(self):
        assert job_key(make_job()) == job_key(make_job())

    def test_key_ignores_layer_label(self):
        assert job_key(make_job(layer_name="A")) == job_key(make_job(layer_name="B"))

    @pytest.mark.parametrize("design", ("zero-padding", "padding-free"))
    def test_design_in_key(self, design):
        assert job_key(make_job()) != job_key(make_job(design=design))

    @pytest.mark.parametrize("fold", (2, "auto", None))
    def test_fold_in_key(self, fold):
        assert job_key(make_job()) != job_key(make_job(fold=fold))

    def test_semantically_equal_folds_share_a_key(self):
        # RED: None is an alias of 'auto'.
        assert job_key(make_job(fold=None)) == job_key(make_job(fold="auto"))
        # Baseline designs ignore the field entirely.
        assert job_key(make_job(design="zero-padding", fold=4)) == job_key(
            make_job(design="zero-padding", fold=None)
        )

    @pytest.mark.parametrize(
        "field", [f.name for f in dataclasses.fields(DeconvSpec)]
    )
    def test_every_spec_field_busts_the_key(self, field):
        changed = dataclasses.replace(SPEC, **{field: getattr(SPEC, field) + 1})
        assert job_key(make_job()) != job_key(make_job(spec=changed))

    @pytest.mark.parametrize(
        "field", [f.name for f in dataclasses.fields(TechnologyParams)]
    )
    def test_every_tech_field_busts_the_key(self, field):
        tech_field = {f.name: f for f in dataclasses.fields(TechnologyParams)}[field]
        changed = default_tech().with_overrides(**{field: _perturb(tech_field)})
        assert job_key(make_job()) != job_key(make_job(tech=changed))


class TestCacheLifecycle:
    def test_miss_then_store_then_hit(self, tmp_path):
        cache = PackedSweepStore(tmp_path)
        job = make_job()
        key = job_key(job, CYCLES_KIND)
        assert cache.get_many([key], CYCLES_KIND) == [None]
        assert (cache.hits, cache.misses) == (0, 1)
        (stats,) = run_cycle_jobs([job])
        cache.put_many([(key, stats)], CYCLES_KIND)
        assert cache.stores == 1
        assert key in cache
        (cached,) = cache.get_many([key], CYCLES_KIND)
        assert cache.hits == 1
        assert cached == stats

    def test_tech_change_invalidates_previous_results(self, tmp_path):
        cache = PackedSweepStore(tmp_path)
        job = make_job()
        run_design_jobs([job], cache=cache)
        retuned = make_job(tech=default_tech().with_overrides(t_adc=1.0e-9))
        assert cache.get_many([job_key(retuned)]) == [None]
        fresh, = run_design_jobs([retuned], cache=cache)
        stale, = run_design_jobs([job], cache=cache)
        assert fresh.latency.total != stale.latency.total

    def test_metrics_only_run_writes_nothing_to_disk(self, tmp_path):
        cache = PackedSweepStore(tmp_path)
        jobs = [make_job(design=d, layer_name=d) for d in ("RED", "zero-padding")]
        run_design_jobs(jobs, cache=cache)
        assert not list(tmp_path.glob("seg-*.seg"))
        assert not (tmp_path / "index.bin").exists()
        assert (cache.stores, len(cache), cache.memory_size()) == (0, 0, 2)
        keys = [job_key(job) for job in jobs]
        assert PackedSweepStore(tmp_path).get_many(keys) == [None, None]
        value_keys = metrics_keys(jobs)
        assert all(key in cache for key in value_keys)
        assert not any(key in PackedSweepStore(tmp_path) for key in value_keys)

    def test_repeat_on_the_same_store_is_all_memory_hits(self, tmp_path, monkeypatch):
        import repro.eval.vectorized as vectorized_plane

        cache = PackedSweepStore(tmp_path)
        jobs = [make_job(design=d, layer_name=d) for d in ("RED", "zero-padding")]
        cold = run_design_jobs(jobs, cache=cache)
        evaluated = []
        batch = vectorized_plane.evaluate_design_jobs_batch

        def counting_batch(unique):
            evaluated.append(len(unique))
            return batch(unique)

        monkeypatch.setattr(vectorized_plane, "evaluate_design_jobs_batch", counting_batch)
        warm = run_design_jobs(jobs, cache=cache)
        assert evaluated == []
        assert warm == cold
        assert (cache.memory_hits, cache.disk_hits) == (len(jobs), 0)
        assert (cache.stores, len(cache)) == (0, 0)

    def test_directory_path_coercion_builds_packed_store(self, tmp_path):
        # Only RedService turns a path into a store, which it owns and
        # closes; a traced request persists the RED cycle trace there.
        request = EvaluationRequest(spec=SPEC, trace=True, layer_name="L")
        with RedService(cache=str(tmp_path)) as service:
            first = service.evaluate(request)
        with RedService(cache=tmp_path) as service:
            second = service.evaluate(request)
            disk_hits = service.cache.disk_hits
        # Per-element digests: a result-level pickle differs by
        # shared-object memoization even when every element matches.
        digest = lambda result: [  # noqa: E731
            pickle.dumps(value) for value in result.metrics + result.cycle_stats
        ]
        assert digest(first) == digest(second)
        assert disk_hits == 1  # the second service read the trace back
        # A path constructs the packed store, not the per-pickle layout.
        assert (tmp_path / "index.bin").exists()
        assert len(list(tmp_path.glob("*.seg"))) == 1  # the second call hit
        assert len(list(tmp_path.glob("*.pkl"))) == 0

    def test_duplicate_jobs_computed_once_with_labels_preserved(self, tmp_path):
        cache = PackedSweepStore(tmp_path)
        jobs = [make_job(layer_name="A"), make_job(layer_name="B")]
        results = run_design_jobs(jobs, cache=cache)
        assert cache.memory_size() == 1  # one evaluation served both jobs
        assert [m.layer for m in results] == ["A", "B"]
        assert results[0].latency == results[1].latency

    def test_mixed_hit_miss_preserves_job_order(self, tmp_path):
        cache = PackedSweepStore(tmp_path)
        jobs = [make_job(design=d, layer_name=d) for d in ("RED", "zero-padding")]
        run_design_jobs([jobs[0]], cache=cache)
        results = run_design_jobs(jobs, cache=cache)
        assert [m.design for m in results] == ["RED", "zero-padding"]
        assert [m.layer for m in results] == ["RED", "zero-padding"]


class TestCacheWithVectorizedRoute:
    """ISSUE-4: store semantics are route-independent.

    Hits relabel per requesting job, misses are computed once per unique
    key, and cold/warm results are byte-identical whether the vectorized
    plane or the scalar path produced them.
    """

    def _job_grid(self):
        specs = (SPEC, DeconvSpec(3, 5, 2, 4, 4, 3, stride=2, padding=1))
        return [
            make_job(design=design, spec=spec, fold=None, layer_name=f"{design}-{i}")
            for i, spec in enumerate(specs)
            for design in ("zero-padding", "padding-free", "RED")
        ]

    def test_cold_entries_byte_identical_across_routes(self, tmp_path):
        jobs = self._job_grid()
        vec_cache = PackedSweepStore(tmp_path / "vec")
        scalar_cache = PackedSweepStore(tmp_path / "scalar")
        run_design_jobs(jobs, cache=vec_cache, vectorized=True)
        run_design_jobs(jobs, cache=scalar_cache, vectorized=False)
        for job in jobs:
            vec_bytes = memory_bytes(vec_cache, job)
            scalar_bytes = memory_bytes(scalar_cache, job)
            assert vec_bytes == scalar_bytes

    def test_warm_reads_match_cold_results_regardless_of_writer(self, tmp_path):
        jobs = self._job_grid()
        cache = PackedSweepStore(tmp_path)
        cold = run_design_jobs(jobs, cache=cache, vectorized=True)
        warm_scalar = run_design_jobs(jobs, cache=cache, vectorized=False)
        warm_vec = run_design_jobs(jobs, cache=cache, vectorized=True)
        # Per-element digests: list-level pickles differ by shared-object
        # memoization even when every element is byte-identical.
        digest = lambda results: [pickle.dumps(m) for m in results]  # noqa: E731
        assert digest(cold) == digest(warm_scalar) == digest(warm_vec)
        # Every warm read was a pure memory hit: nothing was recomputed.
        assert cache.memory_size() == len(jobs)
        assert cache.memory_hits == 2 * len(jobs)

    def test_vectorized_misses_computed_once_per_unique_key(self, tmp_path):
        cache = PackedSweepStore(tmp_path)
        jobs = [make_job(layer_name=label) for label in ("A", "B", "C")]
        jobs += [make_job(design="zp", layer_name="D")]  # zero-padding alias
        results = run_design_jobs(jobs, cache=cache, vectorized=True)
        # Three RED jobs share one key; the aliased zero-padding job has
        # its own.  Misses are stored exactly once per unique key.
        assert cache.memory_size() == 2
        assert [m.layer for m in results] == ["A", "B", "C", "D"]
        assert results[0].latency == results[1].latency == results[2].latency

    def test_hits_relabel_per_requesting_job_on_batched_path(self, tmp_path):
        cache = PackedSweepStore(tmp_path)
        run_design_jobs([make_job(layer_name="seed")], cache=cache, vectorized=True)
        relabelled = run_design_jobs(
            [make_job(layer_name="hit-1"), make_job(layer_name="hit-2")],
            cache=cache,
            vectorized=True,
        )
        assert [m.layer for m in relabelled] == ["hit-1", "hit-2"]
        assert cache.hits == 2 and cache.memory_size() == 1

    def test_dedup_identical_without_cache_on_both_routes(self):
        jobs = [make_job(layer_name="X"), make_job(layer_name="Y")]
        for vectorized in (True, False):
            results = run_design_jobs(jobs, vectorized=vectorized)
            assert [m.layer for m in results] == ["X", "Y"]
            assert results[0].latency == results[1].latency


class TestRunnerValidation:
    @pytest.mark.parametrize(
        "runner, job",
        [
            (run_design_jobs, make_job()),
            (run_cycle_jobs, make_job()),
            (run_fidelity_jobs, FidelityJob("RED", SPEC, default_tech())),
        ],
        ids=["design", "cycle", "fidelity"],
    )
    def test_runner_rejects_a_path_and_writes_nothing(self, tmp_path, runner, job):
        # A store built per call would hold nothing afterwards and be
        # closed by nobody: the error points at RedService instead.
        directory = tmp_path / "store"
        for cache in (directory, str(directory)):
            with pytest.raises(ParameterError, match=r"RedService\(cache=path\)"):
                runner([job], cache=cache)
        assert list(tmp_path.iterdir()) == []

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ParameterError):
            run_design_jobs([make_job()], num_workers=0)

    def test_parallel_worker_count_points_at_the_serving_plane(self):
        # The second positional slot survives for old callers but only
        # accepts 1: process parallelism lives in `repro serve --shards`.
        with pytest.raises(ParameterError, match="repro serve --shards"):
            run_design_jobs([make_job()], 4)
        (metrics,) = run_design_jobs([make_job()], 1)
        assert metrics.layer == "L"

    def test_options_after_cache_are_keyword_only(self):
        with pytest.raises(TypeError):
            run_design_jobs([make_job()], 1, None, False)

    @pytest.mark.parametrize(
        "runner, job",
        [
            (run_cycle_jobs, make_job()),
            (run_fidelity_jobs, FidelityJob("RED", SPEC, default_tech())),
        ],
        ids=["cycle", "fidelity"],
    )
    def test_timeout_is_keyword_only(self, runner, job):
        with pytest.raises(TypeError):
            runner([job], None, 60.0)
        assert runner([job], None, timeout=60.0)[0] is not None

    def test_unknown_design_raises(self):
        with pytest.raises(KeyError):
            evaluate_design_job(make_job(design="systolic"))


class TestBuildDesignForJob:
    """The registry builds the design a job names, fold included."""

    @pytest.mark.parametrize(
        ("design", "fold", "cls_name", "built_fold"),
        [
            ("RED", 2, "REDDesign", 2),
            ("red", None, "REDDesign", None),
            ("zp", 4, "ZeroPaddingDesign", None),
            ("padding-free", None, "PaddingFreeDesign", None),
        ],
        ids=["red-explicit-fold", "red-alias-auto-fold", "zp-ignores-fold", "padding-free"],
    )
    def test_builds_the_named_design(self, design, fold, cls_name, built_fold):
        from repro.core.fold import choose_fold

        job = DesignJob(design, SPEC, default_tech(), fold=fold, layer_name="L")
        built = build_design_for_job(job)
        assert type(built).__name__ == cls_name
        assert built.spec == SPEC
        if cls_name == "REDDesign":
            assert built.fold == (built_fold or choose_fold(SPEC))
        assert built.evaluate("L") == evaluate_design_job(job)
