"""RedService facade: request handling, caching, tracing, concurrency."""

import pickle
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api.schema import (
    EvaluationRequest,
    EvaluationResult,
    FidelityRequest,
    FidelityResult,
    NetworkRequest,
    NetworkResult,
    SweepRequest,
    SweepResult,
    payload_from_dict,
)
from repro.api.service import RedService
from repro.arch.tech import default_tech
from repro.deconv.shapes import DeconvSpec
from repro.errors import (
    InjectedFaultError,
    ParameterError,
    SchemaError,
    UnknownDesignError,
)
from repro.eval.parallel import CYCLES_KIND, DesignJob, job_key
from repro.eval.store import PackedSweepStore
from repro.workloads.specs import TABLE_I_LAYERS

SPEC = DeconvSpec(4, 4, 3, 4, 4, 2, stride=2, padding=1)


@pytest.fixture
def service():
    with RedService() as svc:
        yield svc


class TestEvaluate:
    def test_layer_request_matches_direct_evaluation(self, service):
        from repro.eval.parallel import evaluate_design_job
        from repro.workloads.specs import get_layer

        result = service.evaluate(EvaluationRequest(layer="GAN_Deconv3"))
        assert result.designs == ("zero-padding", "padding-free", "RED")
        direct = evaluate_design_job(
            DesignJob("RED", get_layer("GAN_Deconv3").spec, default_tech(),
                      layer_name="GAN_Deconv3")
        )
        assert result.metrics_for("RED") == direct

    def test_spec_request(self, service):
        result = service.evaluate(EvaluationRequest(spec=SPEC, layer_name="mine"))
        assert result.layer == "mine"
        assert all(m.layer == "mine" for m in result.metrics)

    def test_aliases_resolve_to_canonical_names(self, service):
        result = service.evaluate(
            EvaluationRequest(spec=SPEC, designs=("red", "zp"))
        )
        assert result.designs == ("RED", "zero-padding")
        assert result.metrics[0].design == "RED"

    def test_tech_overrides_change_the_result(self, service):
        plain = service.evaluate(EvaluationRequest(spec=SPEC))
        tuned = service.evaluate(
            EvaluationRequest(spec=SPEC, tech_overrides={"t_adc": 5e-9})
        )
        assert (
            tuned.metrics_for("RED").latency.total
            > plain.metrics_for("RED").latency.total
        )

    def test_unknown_layer_is_a_schema_error(self, service):
        with pytest.raises(SchemaError):
            service.evaluate(EvaluationRequest(layer="GAN_Deconv99"))

    def test_unknown_design_error(self, service):
        with pytest.raises(UnknownDesignError):
            service.evaluate(EvaluationRequest(spec=SPEC, designs=("systolic",)))

    def test_wrong_request_type_rejected(self, service):
        with pytest.raises(SchemaError):
            service.evaluate(SweepRequest())


class TestTrace:
    def test_trace_off_by_default(self, service):
        assert service.evaluate(EvaluationRequest(spec=SPEC)).cycle_stats == ()

    @pytest.mark.parametrize("layer", [layer.name for layer in TABLE_I_LAYERS])
    def test_trace_returns_cycle_stats_for_capable_designs(self, service, layer):
        # Traced stats and analytic metrics resolve fold='auto' against
        # one sub-crossbar budget, so one answer reports one cycle count.
        result = service.evaluate(EvaluationRequest(layer=layer, trace=True))
        stats = dict(zip(result.designs, result.cycle_stats))
        assert stats["zero-padding"] is None
        assert stats["padding-free"] is None
        red = stats["RED"]
        assert red.cycles == result.metrics_for("RED").cycles
        assert red.fold >= 1
        assert dict(red.counters)["output_pixels"] > 0

    def test_the_fold_budget_is_not_an_option(self):
        from repro.eval.parallel import run_cycle_jobs

        with pytest.raises(TypeError):
            RedService(max_sub_crossbars=8)
        with pytest.raises(TypeError):
            run_cycle_jobs([DesignJob("RED", SPEC, default_tech())], None, 8)

    def test_trace_results_persist_in_the_sweep_cache(self, tmp_path):
        request = EvaluationRequest(spec=SPEC, trace=True, layer_name="L")
        cold = RedService(cache=tmp_path).evaluate(request)
        # A path constructs the packed store; a fresh open sees the
        # cycles entry the cold service published.
        store = PackedSweepStore(tmp_path)
        warm_service = RedService(cache=store)
        warm = warm_service.evaluate(request)
        assert warm == cold
        # The cycles entry came from disk; the three metrics never reach
        # the store (each service keeps them in its own memo), so they
        # make no probe.
        assert (store.disk_hits, store.misses) == (1, 0)
        assert len(store) == 1
        job = DesignJob("RED", SPEC, default_tech(), layer_name="L")
        key = job_key(job, kind=CYCLES_KIND)
        assert key in store
        stats = store.get_many([key], kind=CYCLES_KIND)[0]
        assert stats.cycles == cold.metrics_for("RED").cycles

    def test_reopened_service_reads_cycles_and_recomputes_metrics(
        self, tmp_path, monkeypatch
    ):
        import repro.eval.vectorized as vectorized_plane
        import repro.sim.compiler as schedule_compiler

        request = EvaluationRequest(spec=SPEC, trace=True, layer_name="L")
        with RedService(cache=tmp_path) as cold_service:
            cold = cold_service.evaluate(request)
        evaluated, compiled = [], []
        batch = vectorized_plane.evaluate_design_jobs_batch
        compile_schedule = schedule_compiler.compile_schedule

        def counting_batch(jobs):
            evaluated.append(len(jobs))
            return batch(jobs)

        def counting_compile(*args):
            compiled.append(args)
            return compile_schedule(*args)

        monkeypatch.setattr(vectorized_plane, "evaluate_design_jobs_batch", counting_batch)
        monkeypatch.setattr(schedule_compiler, "compile_schedule", counting_compile)
        with RedService(cache=tmp_path) as reopened:
            warm = reopened.evaluate(request)
            stats = reopened.cache.stats()
        assert warm == cold
        assert evaluated == [3]  # every metric recomputed, in one batch
        assert compiled == []  # the cycles entry was read from disk
        assert (stats["disk_hits"], stats["misses"]) == (1, 0)

    def test_cached_cycle_stats_relabelled(self, tmp_path):
        RedService(cache=tmp_path).evaluate(
            EvaluationRequest(spec=SPEC, trace=True, layer_name="first")
        )
        relabelled = RedService(cache=tmp_path).evaluate(
            EvaluationRequest(spec=SPEC, trace=True, layer_name="second")
        )
        assert relabelled.cycle_stats[-1].layer == "second"


class TestSweep:
    def test_matches_library_sweep(self, service):
        from repro.eval.sweeps import stride_speedup_sweep

        result = service.sweep(SweepRequest(strides=(1, 2, 4)))
        assert list(result.points) == stride_speedup_sweep(strides=(1, 2, 4))

    def test_exponent_requires_two_superunit_strides(self, service):
        assert service.sweep(SweepRequest(strides=(2,))).fitted_exponent is None
        fitted = service.sweep(SweepRequest(strides=(2, 4))).fitted_exponent
        assert fitted == pytest.approx(2.0, abs=0.5)


class TestNetwork:
    def test_summaries_match_network_evaluation(self):
        import numpy as np

        from repro.system.network_mapper import evaluate_network
        from repro.workloads.networks import build_network

        with RedService() as service:
            result = service.evaluate_network(NetworkRequest(network="SNGAN"))
        network = build_network("SNGAN", rng=np.random.default_rng(0))
        evaluation = evaluate_network(network, 1, 1)
        assert result.layers == tuple(m.name for m in evaluation.layers)
        for summary in result.summaries:
            assert summary.total_latency_s == pytest.approx(
                evaluation.total_latency(summary.design)
            )
            assert summary.speedup == pytest.approx(evaluation.speedup(summary.design))

    def test_layer_results_align_with_designs(self, service):
        result = service.evaluate_network(NetworkRequest(network="DCGAN", batch=4))
        assert result.batch == 4
        for layer_result in result.layer_results:
            assert layer_result.designs == result.designs
            assert tuple(m.design for m in layer_result.metrics) == result.designs

    def test_unknown_network_is_a_schema_error(self, service):
        with pytest.raises(SchemaError, match="StyleGAN-XL"):
            service.evaluate_network(NetworkRequest(network="StyleGAN-XL"))

    def test_design_subset_without_baseline_still_rolls_up(self, service):
        # The summaries normalize against the baseline even when the
        # request only asks for RED; the baseline is evaluated
        # internally but not reported.
        result = service.evaluate_network(
            NetworkRequest(network="SNGAN", designs=("RED",))
        )
        assert result.designs == ("RED",)
        assert [s.design for s in result.summaries] == ["RED"]
        full = service.evaluate_network(NetworkRequest(network="SNGAN"))
        assert result.summary_for("RED").speedup == pytest.approx(
            full.summary_for("RED").speedup
        )
        assert result.summary_for("RED").speedup > 1.0


class TestFidelity:
    REQUEST = FidelityRequest(
        spec=SPEC,
        seeds=(0, 1),
        times=(1.0, 3600.0),
        programming_sigma=0.08,
        read_noise_sigma=0.02,
        stuck_at_rate=0.01,
        layer_name="mine",
    )

    def test_matches_direct_sampling(self, service):
        from repro.reram.batch import fidelity_point, profile_for_design

        result = service.fidelity_sweep(self.REQUEST)
        assert result.layer == "mine"
        assert result.designs == ("zero-padding", "padding-free", "RED")
        assert len(result.points) == len(result.designs) * 2 * 2
        profile = profile_for_design("RED", SPEC)
        direct = fidelity_point(
            profile, 1, 3600.0,
            programming_sigma=0.08, read_noise_sigma=0.02, stuck_at_rate=0.01,
        )
        point = [
            p for p in result.points_for("RED") if p.seed == 1 and p.time_s == 3600.0
        ]
        assert len(point) == 1
        assert point[0].rms_error == direct.rms_error
        assert point[0].stuck_fraction == direct.stuck_fraction

    def test_energy_axis_matches_evaluation(self, service):
        result = service.fidelity_sweep(self.REQUEST)
        evaluated = service.evaluate(EvaluationRequest(spec=SPEC))
        energy = dict(zip(result.designs, result.energy_j))
        for design in result.designs:
            assert energy[design] == evaluated.metrics_for(design).energy.total

    def test_round_trips_through_the_wire(self, service):
        result = service.fidelity_sweep(self.REQUEST)
        assert payload_from_dict(result.to_dict()) == result
        assert payload_from_dict(self.REQUEST.to_dict()) == self.REQUEST

    def test_dispatch_routes_fidelity_requests(self, service):
        direct = service.fidelity_sweep(self.REQUEST)
        dispatched = service._handler_for(self.REQUEST)(self.REQUEST)
        assert isinstance(dispatched, FidelityResult)
        assert dispatched == direct

    def test_cached_and_uncached_results_identical(self, tmp_path):
        with RedService(cache=PackedSweepStore(tmp_path / "fid")) as cached:
            cold = cached.fidelity_sweep(self.REQUEST)
            warm = cached.fidelity_sweep(self.REQUEST)
        with RedService() as plain:
            uncached = plain.fidelity_sweep(self.REQUEST)
        assert pickle.dumps(cold) == pickle.dumps(warm) == pickle.dumps(uncached)

    def test_wrong_request_type_rejected(self, service):
        with pytest.raises(SchemaError):
            service.fidelity_sweep(EvaluationRequest(spec=SPEC))


class TestConcurrency:
    """Handlers may be called from many threads, as the server's executor does."""

    REQUESTS = (
        EvaluationRequest(spec=SPEC),
        SweepRequest(strides=(1, 2)),
        NetworkRequest(network="SNGAN"),
        EvaluationRequest(layer="FCN_Deconv1"),
    )

    def test_concurrent_handlers_keep_order_and_types(self):
        with RedService() as service, ThreadPoolExecutor(max_workers=3) as pool:
            futures = [
                pool.submit(service._handler_for(request), request)
                for request in self.REQUESTS
            ]
            results = [future.result(timeout=60) for future in futures]
        assert [type(r) for r in results] == [
            EvaluationResult, SweepResult, NetworkResult, EvaluationResult,
        ]
        with RedService() as sequential:
            assert results == [
                sequential._handler_for(request)(request) for request in self.REQUESTS
            ]

    def test_dispatch_rejects_non_requests(self, service):
        with pytest.raises(SchemaError):
            service._handler_for({"layer": "GAN_Deconv1"})

    def test_close_is_idempotent(self, tmp_path):
        service = RedService(cache=tmp_path)
        assert isinstance(service.evaluate(EvaluationRequest(spec=SPEC)), EvaluationResult)
        service.close()
        service.close()

    def test_concurrent_requests_share_one_cache(self, tmp_path):
        requests = [
            EvaluationRequest(spec=SPEC, layer_name=f"j{i}", trace=True) for i in range(6)
        ]
        with RedService(cache=tmp_path) as service, ThreadPoolExecutor(4) as pool:
            results = [
                future.result(timeout=60)
                for future in [pool.submit(service.evaluate, r) for r in requests]
            ]
        reference = [r.metrics_for("RED").latency.total for r in results]
        assert len(set(reference)) == 1
        with RedService(cache=tmp_path) as reopened:
            again = reopened.evaluate(requests[0])
            assert reopened.cache.disk_hits == 1
        assert again == results[0]


class TestValidation:
    @pytest.mark.parametrize("timeout", [0, -1.0])
    def test_non_positive_timeout_rejected(self, service, timeout):
        with pytest.raises(ParameterError, match="timeout must be > 0"):
            service.evaluate(EvaluationRequest(spec=SPEC), timeout=timeout)

    def test_sweep_rejects_other_requests(self, service):
        with pytest.raises(SchemaError, match="takes a SweepRequest"):
            service.sweep(EvaluationRequest(spec=SPEC))

    def test_evaluate_network_rejects_other_requests(self, service):
        with pytest.raises(SchemaError, match="takes a NetworkRequest"):
            service.evaluate_network(SweepRequest())


class TestSweepFailures:
    """A permanent error raises; only transient ones become partial results."""

    @staticmethod
    def _runner(fail):
        from repro.eval.parallel import run_design_jobs

        def runner(jobs, **kwargs):
            error = fail(jobs)
            if error is not None:
                raise error
            return run_design_jobs(jobs, **kwargs)

        return runner

    def test_permanent_error_in_the_batched_run_raises(self):
        runner = self._runner(lambda jobs: ParameterError("bad substrate"))
        with RedService(design_runner=runner) as service:
            with pytest.raises(ParameterError, match="bad substrate"):
                service.sweep(SweepRequest(strides=(1, 2)))

    def test_permanent_error_in_the_per_stride_pass_raises(self):
        # The batched run fails transiently, so the service retries stride
        # by stride; stride 2 then fails permanently and must not be
        # reported as a partial result.
        def fail(jobs):
            if len(jobs) > 2:
                return InjectedFaultError("transient")
            if jobs[0].spec.stride == 2:
                return ParameterError("stride 2 is broken")
            return None

        with RedService(design_runner=self._runner(fail)) as service:
            with pytest.raises(ParameterError, match="stride 2 is broken"):
                service.sweep(SweepRequest(strides=(1, 2)))


class TestStoreOwnership:
    @pytest.fixture
    def closed(self, monkeypatch):
        closed = []
        original = PackedSweepStore.close
        monkeypatch.setattr(
            PackedSweepStore, "close", lambda self: (closed.append(self), original(self))
        )
        return closed

    def test_store_built_from_a_path_is_closed_once(self, tmp_path, closed):
        from repro.workloads.networks import SNGANGenerator
        from repro.workloads.specs import get_layer

        service = RedService(cache=tmp_path)
        grid = service.grid(layers=(get_layer("GAN_Deconv3"),))
        evaluation = service.network_evaluation(SNGANGenerator(base_size=4), 1, 1)
        service.close()
        service.close()
        assert list(grid.metrics) == ["GAN_Deconv3"]
        assert set(evaluation.metrics) == {"zero-padding", "padding-free", "RED"}
        assert closed == [service.cache]
        assert service.cache.directory == tmp_path
        # Analytic metrics stay in the memory tier: nothing reached disk.
        assert list(tmp_path.iterdir()) == []

    def test_callers_store_is_not_closed(self, tmp_path, closed):
        store = PackedSweepStore(tmp_path)
        request = EvaluationRequest(spec=SPEC, trace=True, layer_name="L")
        with RedService(cache=store) as service:
            first = service.evaluate(request)
        assert closed == []
        with RedService(cache=store) as service:
            second = service.evaluate(request)
        # The store outlived the first service: the second one's traced
        # cycles come from the store's memory tier, not recompiled.
        assert second == first
        assert (store.memory_hits, store.misses) == (1, 1)
        store.close()


class TestScheduleCacheLifecycle:
    def test_untraced_service_keeps_other_callers_schedules(self):
        from repro.eval.harness import run_grid
        from repro.eval.parallel import run_cycle_jobs
        from repro.sim.compiler import clear_compiled_schedules, schedule_cache_info
        from repro.workloads.specs import TABLE_I_LAYERS, get_layer

        jobs = [
            DesignJob("RED", layer.spec, default_tech(), layer_name=layer.name)
            for layer in TABLE_I_LAYERS
        ]
        clear_compiled_schedules()
        run_cycle_jobs(jobs)
        compiled = schedule_cache_info().size
        assert compiled == len(jobs)
        # run_grid evaluates through a call-scoped service that traces
        # nothing; closing it must not evict the schedules compiled above.
        run_grid(layers=(get_layer("GAN_Deconv3"),))
        assert schedule_cache_info().size == compiled
        run_cycle_jobs(jobs)
        info = schedule_cache_info()
        assert (info.hits, info.misses) == (compiled, compiled)
        clear_compiled_schedules()

    def test_close_releases_compiled_schedules(self):
        from repro.sim.compiler import clear_compiled_schedules, schedule_cache_info

        clear_compiled_schedules()
        service = RedService()
        service.evaluate(EvaluationRequest(spec=SPEC, trace=True))
        assert schedule_cache_info().size >= 1
        service.close()
        assert schedule_cache_info().size == 0

    def test_traced_cycle_stats_match_any_execution(self):
        # CycleStats hold schedule-level observables only, so executing
        # the job with other operands, or in float32, measures the same
        # fold, cycles and counters the trace reads off the schedule.
        from repro.sim.batch import BatchEngine, BatchJob

        result = RedService().evaluate(EvaluationRequest(spec=SPEC, trace=True))
        (red,) = [stats for stats in result.cycle_stats if stats is not None]
        for dtype, seed in (("float64", 0), ("float32", 9)):
            executed = BatchEngine(dtype=dtype).run([BatchJob(SPEC, "auto", seed)])
            run = executed.results[0]
            assert (red.fold, red.cycles, red.counters) == (
                run.fold,
                run.cycles,
                tuple(sorted(run.counters.items())),
            )
        with pytest.raises(TypeError):
            RedService(cycle_dtype="float32")


class TestVectorizedRouting:
    def test_vectorized_flag_is_behavior_invisible(self):
        """ISSUE-4: the service's default vectorized route and the scalar
        oracle route must produce byte-identical results."""
        import pickle

        request = EvaluationRequest(spec=SPEC)
        default = RedService().evaluate(request)
        scalar = RedService(vectorized=False).evaluate(request)
        assert pickle.dumps(default.metrics, 5) == pickle.dumps(scalar.metrics, 5)

    def test_sweep_points_match_across_routes(self):
        fast = RedService().sweep_points(strides=(1, 2, 4))
        slow = RedService(vectorized=False).sweep_points(strides=(1, 2, 4))
        assert fast == slow
