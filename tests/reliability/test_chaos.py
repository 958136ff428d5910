"""Chaos suite: injected faults must recover to byte-identical results.

The headline invariant of the resilience plane: a run under injected
compute faults, I/O errors and corrupt payloads either recovers to the
exact result of a fault-free run (retry, degrade, recompute) or
surfaces a typed error — it never silently returns different numbers.

Every test pins its fault schedule with ``configured_failpoints`` (the
draws are pure functions of ``(seed, site, tokens)``, so a failing
example reproduces exactly); the ambient test at the bottom runs under
whatever ``RED_FAILPOINTS`` environment configuration ``make chaos``
exports.
"""

import functools
import os
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.eval.vectorized as vectorized_plane
import repro.reram.batch as reram_batch
import repro.sim.compiler as schedule_compiler
from repro.api.schema import SweepRequest
from repro.api.service import RedService
from repro.arch.tech import default_tech
from repro.deconv.shapes import DeconvSpec
from repro.errors import EvaluationTimeoutError, InjectedFaultError
from repro.eval import parallel
from repro.eval.parallel import (
    DesignJob,
    FidelityJob,
    run_cycle_jobs,
    run_design_jobs,
    run_fidelity_jobs,
)
from repro.eval.store import PackedSweepStore
from repro.reliability.failpoints import ENV_VAR, configured_failpoints, parse_failpoints
from repro.reliability.policy import RetryPolicy, no_sleep

TECH = default_tech()
SPECS = (
    DeconvSpec(4, 4, 3, 4, 4, 2, stride=2, padding=1),
    DeconvSpec(3, 3, 2, 6, 6, 3, stride=3, padding=2, output_padding=1),
)
DESIGNS = ("RED", "zero-padding", "padding-free")
JOBS = tuple(
    DesignJob(design, spec, TECH, layer_name=f"{design}/{index}")
    for index, spec in enumerate(SPECS)
    for design in DESIGNS
)
RED_JOBS = tuple(job for job in JOBS if job.design == "RED")
#: Sixteen RED layers: enough cycle traces that an ambient store-fault
#: matrix reaches some of them on disk.
TRACE_JOBS = tuple(
    DesignJob("RED", DeconvSpec(size, size, channels, 4, 4, 2, stride=2, padding=1),
              TECH, layer_name=f"trace{size}x{channels}")
    for size in range(2, 10)
    for channels in (2, 3)
)

#: Generous attempts, no real sleeping — chaos tests retry a lot.
LENIENT = RetryPolicy(max_attempts=10, base_delay_s=0.0, sleeper=no_sleep)


@functools.lru_cache(maxsize=None)
def fault_free_metrics() -> tuple:
    """The reference result, computed once with every failpoint disarmed."""
    with configured_failpoints(None):
        return tuple(run_design_jobs(list(JOBS), vectorized=False))


@functools.lru_cache(maxsize=None)
def fault_free_cycles() -> tuple:
    with configured_failpoints(None):
        return tuple(run_cycle_jobs(list(RED_JOBS)))


def fidelity_jobs() -> list[FidelityJob]:
    return [
        FidelityJob(
            design="RED",
            spec=SPECS[0],
            tech=TECH,
            seed=seed,
            time_s=1.0,
            stuck_at_rate=0.01,
            max_rows=16,
            max_cols=16,
            layer_name=f"fid{seed}",
        )
        for seed in (0, 1, 2)
    ]


@functools.lru_cache(maxsize=None)
def fault_free_fidelity() -> tuple:
    with configured_failpoints(None):
        return tuple(run_fidelity_jobs(fidelity_jobs()))


def _digest(results) -> list[bytes]:
    """Per-element pickles (list-level pickling memoizes shared objects)."""
    return [pickle.dumps(value, pickle.HIGHEST_PROTOCOL) for value in results]


def flaky(fn, failures: int):
    """``fn`` raising :class:`InjectedFaultError` on its first ``failures`` calls."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(None)
        if len(calls) <= failures:
            raise InjectedFaultError("injected compute-step fault")
        return fn(*args, **kwargs)

    wrapper.calls = calls
    return wrapper


#: Each runner's compute step: (owner, attribute, run under a policy,
#: fault-free reference).  The runners resolve these at call time, so
#: patching the attribute puts the fault inside the retried step.
COMPUTE_STEPS = {
    "metrics-vectorized": (
        vectorized_plane,
        "evaluate_design_jobs_batch",
        lambda policy: run_design_jobs(list(JOBS), retry_policy=policy),
        fault_free_metrics,
    ),
    "metrics-scalar-inline": (
        parallel,
        "evaluate_design_job",
        lambda policy: run_design_jobs(
            list(JOBS), vectorized=False, retry_policy=policy
        ),
        fault_free_metrics,
    ),
    "cycles": (
        schedule_compiler,
        "compile_schedule",
        lambda policy: run_cycle_jobs(list(RED_JOBS), retry_policy=policy),
        fault_free_cycles,
    ),
    "fidelity": (
        reram_batch,
        "sample_fidelity_grid",
        lambda policy: run_fidelity_jobs(fidelity_jobs(), retry_policy=policy),
        fault_free_fidelity,
    ),
}


class TestPipelineRetry:
    """The one runner pipeline retries its compute step per policy."""

    @pytest.mark.parametrize("step", sorted(COMPUTE_STEPS))
    def test_transient_compute_fault_recovers_byte_identical(self, step, monkeypatch):
        owner, attribute, run, reference = COMPUTE_STEPS[step]
        expected = reference()
        wrapper = flaky(getattr(owner, attribute), failures=1)
        monkeypatch.setattr(owner, attribute, wrapper)
        with configured_failpoints(None):
            result = run(LENIENT)
        assert _digest(result) == _digest(expected)
        assert len(wrapper.calls) >= 2  # the fault fired and was retried

    @pytest.mark.parametrize("step", sorted(COMPUTE_STEPS))
    def test_persistent_compute_fault_surfaces_after_max_attempts(
        self, step, monkeypatch
    ):
        owner, attribute, run, _ = COMPUTE_STEPS[step]
        wrapper = flaky(getattr(owner, attribute), failures=10**9)
        monkeypatch.setattr(owner, attribute, wrapper)
        policy = RetryPolicy(max_attempts=3, sleeper=no_sleep)
        with configured_failpoints(None):
            with pytest.raises(InjectedFaultError):
                run(policy)
        assert len(wrapper.calls) == policy.max_attempts


class TestStoreChaos:
    """Store faults on the kind the store writes to disk, cycle traces
    (analytic metrics and fidelity samples stay in its memory tier,
    where no store fault can reach)."""

    def test_publish_faults_degrade_not_corrupt(self, tmp_path):
        # Publish I/O faults at rate 1.0 exhaust the store's retries and
        # flip it into degraded mode — the traces are unaffected and the
        # memory tier still serves the second pass.
        store = PackedSweepStore(
            tmp_path, retry_policy=RetryPolicy(max_attempts=2, sleeper=no_sleep)
        )
        with configured_failpoints("store.put_many:io_error@1.0"):
            first = run_cycle_jobs(list(RED_JOBS), cache=store)
            assert tuple(first) == fault_free_cycles()
            assert store.degraded
            assert store.degraded_puts == len(RED_JOBS)
            warm = run_cycle_jobs(list(RED_JOBS), cache=store)
        assert tuple(warm) == fault_free_cycles()
        assert store.memory_hits == len(RED_JOBS)

    def test_corrupt_reads_quarantine_and_recompute(self, tmp_path):
        store = PackedSweepStore(tmp_path)
        with configured_failpoints(None):
            run_cycle_jobs(list(RED_JOBS), cache=store)
        with configured_failpoints("store.get_many:corrupt@1.0"):
            fresh = PackedSweepStore(tmp_path)  # cold memory tier
            result = run_cycle_jobs(list(RED_JOBS), cache=fresh)
        assert tuple(result) == fault_free_cycles()
        assert fresh.corrupt == len(RED_JOBS)
        assert fresh.quarantined == len(RED_JOBS)
        assert sorted((tmp_path / "quarantine").glob("*.bin"))

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_mixed_fault_matrix_recovers(self, seed):
        # tempfile instead of the tmp_path fixture: hypothesis re-runs
        # the test body per example, and each example needs a fresh
        # store directory.
        import tempfile

        spec = "store.put_many:io_error@0.4;store.get_many:corrupt@0.4"
        with tempfile.TemporaryDirectory() as directory:
            with configured_failpoints(spec, seed=seed):
                store = PackedSweepStore(
                    directory,
                    retry_policy=RetryPolicy(max_attempts=4, sleeper=no_sleep),
                )
                cold = run_design_jobs(
                    list(JOBS),
                    cache=store,
                    vectorized=False,
                    retry_policy=LENIENT,
                )
                warm = run_design_jobs(
                    list(JOBS),
                    cache=store,
                    vectorized=False,
                    retry_policy=LENIENT,
                )
                cold_cycles = run_cycle_jobs(
                    list(RED_JOBS), cache=store, retry_policy=LENIENT
                )
                reopened = PackedSweepStore(
                    directory,
                    retry_policy=RetryPolicy(max_attempts=4, sleeper=no_sleep),
                )
                warm_cycles = run_cycle_jobs(
                    list(RED_JOBS), cache=reopened, retry_policy=LENIENT
                )
        assert tuple(cold) == fault_free_metrics()
        assert tuple(warm) == fault_free_metrics()
        assert tuple(cold_cycles) == fault_free_cycles()
        assert tuple(warm_cycles) == fault_free_cycles()


class TestRunnerCompanionsChaos:
    def test_cycle_jobs_survive_store_faults(self, tmp_path):
        store = PackedSweepStore(
            tmp_path, retry_policy=RetryPolicy(max_attempts=2, sleeper=no_sleep)
        )
        with configured_failpoints(
            "store.put_many:io_error@1.0;store.get_many:corrupt@1.0"
        ):
            result = run_cycle_jobs(list(RED_JOBS), cache=store)
        assert tuple(result) == fault_free_cycles()
        assert store.degraded

    def test_fidelity_jobs_survive_corrupt_reads(self, tmp_path):
        # Fidelity samples live in the memory tier only, so corrupt
        # reads never reach them: the store serves them from memory,
        # and a reopened store misses and recomputes them.
        store = PackedSweepStore(tmp_path)
        with configured_failpoints(None):
            run_fidelity_jobs(fidelity_jobs(), cache=store)
        with configured_failpoints("store.get_many:corrupt@1.0"):
            warm = run_fidelity_jobs(fidelity_jobs(), cache=store)
            fresh = PackedSweepStore(tmp_path)
            result = run_fidelity_jobs(fidelity_jobs(), cache=fresh)
        assert tuple(warm) == tuple(result) == fault_free_fidelity()
        assert store.memory_hits == len(fidelity_jobs())
        assert (fresh.misses, fresh.corrupt, fresh.quarantined) == (
            len(fidelity_jobs()), 0, 0,
        )
        assert not (tmp_path / "quarantine").exists()


class TestTimeouts:
    def test_inline_scalar_timeout(self):
        with configured_failpoints(None):
            with pytest.raises(EvaluationTimeoutError):
                run_design_jobs(list(JOBS), vectorized=False, timeout=1e-9)

    def test_vectorized_timeout(self):
        with configured_failpoints(None):
            with pytest.raises(EvaluationTimeoutError):
                run_design_jobs(list(JOBS), timeout=1e-9)

    def test_cycle_jobs_timeout(self):
        with configured_failpoints(None):
            with pytest.raises(EvaluationTimeoutError):
                run_cycle_jobs(list(RED_JOBS), timeout=1e-9)

    def test_fidelity_jobs_timeout(self):
        with configured_failpoints(None):
            with pytest.raises(EvaluationTimeoutError):
                run_fidelity_jobs(fidelity_jobs(), timeout=1e-9)


class TestServicePartialResults:
    def test_sweep_salvages_surviving_strides(self):
        # A design runner that fails transiently whenever its batch
        # holds a doomed stride: the batched sweep fails, and the
        # per-stride salvage pass keeps the survivors and reports the
        # rest in the partial-result envelope.
        doomed = {2, 8}

        def flaky_runner(jobs, **kwargs):
            hit = sorted(doomed & {job.spec.stride for job in jobs})
            if hit:
                raise InjectedFaultError(f"injected fault for strides {hit}")
            return run_design_jobs(jobs, **kwargs)

        request = SweepRequest(strides=(1, 2, 4, 8))
        with configured_failpoints(None):
            with RedService(design_runner=flaky_runner) as service:
                partial = service.sweep(request)
            with RedService() as service:
                clean = service.sweep(request)
        assert {info.source for info in partial.failures} == {
            "stride=2",
            "stride=8",
        }
        assert clean.failures == ()
        failed = {info.source for info in partial.failures}
        assert all(source.startswith("stride=") for source in failed)
        for info in partial.failures:
            assert info.error_type == "InjectedFaultError"
            assert info.retryable
        # Surviving strides are byte-identical to the fault-free sweep.
        clean_by_stride = {point.stride: point for point in clean.points}
        assert partial.points  # strides 1 and 4 survive
        for point in partial.points:
            assert point == clean_by_stride[point.stride]
            assert f"stride={point.stride}" not in failed
        # Round-trips with the failures attached.
        from repro.api.schema import SweepResult

        assert SweepResult.from_dict(partial.to_dict()) == partial


class TestAmbientEnvironment:
    def test_ambient_env_matrix_recovers(self, tmp_path):
        # Under `make chaos` this module imports with RED_FAILPOINTS
        # armed from the environment, so the cold runs publish and the
        # reopened runs read under the ambient store-fault matrix;
        # unarmed it is a plain determinism check.  Metrics stay in the
        # memory tier, so the cycle-trace leg is what store faults reach.
        store_policy = RetryPolicy(max_attempts=4, sleeper=no_sleep)
        with configured_failpoints(None):
            expected = tuple(run_cycle_jobs(list(TRACE_JOBS)))
        store = PackedSweepStore(tmp_path, retry_policy=store_policy)
        cold = run_design_jobs(
            list(JOBS), cache=store, vectorized=False, retry_policy=LENIENT
        )
        cold_traces = run_cycle_jobs(list(TRACE_JOBS), cache=store, retry_policy=LENIENT)
        store.close()
        reopened = PackedSweepStore(tmp_path, retry_policy=store_policy)
        warm = run_design_jobs(
            list(JOBS), cache=reopened, vectorized=False, retry_policy=LENIENT
        )
        warm_traces = run_cycle_jobs(
            list(TRACE_JOBS), cache=reopened, retry_policy=LENIENT
        )
        assert tuple(cold) == fault_free_metrics()
        assert tuple(warm) == fault_free_metrics()
        assert tuple(cold_traces) == expected
        assert tuple(warm_traces) == expected
        if any(
            point.site == "store.get_many" and point.mode == "corrupt"
            for point in parse_failpoints(os.environ.get(ENV_VAR, ""))
        ):
            assert reopened.quarantined > 0
