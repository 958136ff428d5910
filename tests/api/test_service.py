"""RedService facade: request handling, caching, tracing, concurrency."""

import pickle

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
from repro.errors import SchemaError, ServiceClosedError, UnknownDesignError
from repro.eval.parallel import CYCLES_KIND, DesignJob, job_key
from repro.eval.store import PackedSweepStore

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

    def test_trace_returns_cycle_stats_for_capable_designs(self, service):
        result = service.evaluate(EvaluationRequest(spec=SPEC, trace=True))
        stats = dict(zip(result.designs, result.cycle_stats))
        assert stats["zero-padding"] is None
        assert stats["padding-free"] is None
        red = stats["RED"]
        assert red.cycles == result.metrics_for("RED").cycles
        assert red.fold >= 1
        assert dict(red.counters)["output_pixels"] > 0

    def test_trace_results_persist_in_the_sweep_cache(self, tmp_path):
        request = EvaluationRequest(spec=SPEC, trace=True, layer_name="L")
        cold = RedService(cache=tmp_path).evaluate(request)
        # A path constructs the packed store; a fresh open sees the
        # entries the cold service published.
        store = PackedSweepStore(tmp_path)
        warm_service = RedService(cache=store)
        warm = warm_service.evaluate(request)
        assert warm == cold
        # Every entry was served from the store: three metrics + one cycles.
        assert store.hits == 4
        assert store.misses == 0
        job = DesignJob("RED", SPEC, default_tech(), layer_name="L")
        key = job_key(job, kind=CYCLES_KIND)
        assert key in store
        stats = store.get_many([key], kind=CYCLES_KIND)[0]
        assert stats.cycles == cold.metrics_for("RED").cycles

    def test_legacy_sweep_cache_still_accepted(self, tmp_path):
        # A directory in the legacy one-pickle-per-entry layout warms a
        # service: the store migrates metrics and cycle entries on open.
        request = EvaluationRequest(spec=SPEC, trace=True, layer_name="L")
        cold = RedService().evaluate(request)
        jobs = [
            DesignJob(design, SPEC, default_tech(), layer_name="L")
            for design in cold.designs
        ]
        entries = [(job_key(job), m) for job, m in zip(jobs, cold.metrics)]
        entries.append((job_key(jobs[-1], kind=CYCLES_KIND), cold.cycle_stats[-1]))
        for key, value in entries:
            (tmp_path / f"{key}.pkl").write_bytes(
                pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
            )
        store = PackedSweepStore(tmp_path)
        assert store.migrated == 4
        warm = RedService(cache=store).evaluate(request)
        assert warm == cold
        assert store.hits == 4
        assert store.misses == 0

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
        for design in result.designs:
            assert result.energy_for(design) == (
                evaluated.metrics_for(design).energy.total
            )

    def test_round_trips_through_the_wire(self, service):
        result = service.fidelity_sweep(self.REQUEST)
        assert payload_from_dict(result.to_dict()) == result
        assert payload_from_dict(self.REQUEST.to_dict()) == self.REQUEST

    def test_submit_dispatches_fidelity_requests(self, service):
        direct = service.fidelity_sweep(self.REQUEST)
        [gathered] = service.gather([service.submit(self.REQUEST)])
        assert isinstance(gathered, FidelityResult)
        assert gathered == direct

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
    def test_submit_gather_preserves_order_and_types(self):
        with RedService(service_threads=3) as service:
            futures = [
                service.submit(EvaluationRequest(spec=SPEC)),
                service.submit(SweepRequest(strides=(1, 2))),
                service.submit(NetworkRequest(network="SNGAN")),
                service.submit(EvaluationRequest(layer="FCN_Deconv1")),
            ]
            results = service.gather(futures)
        assert [type(r) for r in results] == [
            EvaluationResult, SweepResult, NetworkResult, EvaluationResult,
        ]
        assert results[0] == RedService().evaluate(EvaluationRequest(spec=SPEC))

    def test_submit_rejects_non_requests(self, service):
        with pytest.raises(SchemaError):
            service.submit({"layer": "GAN_Deconv1"})

    def test_close_is_idempotent_and_retires_submit(self):
        service = RedService()
        future = service.submit(EvaluationRequest(spec=SPEC))
        assert isinstance(future.result(), EvaluationResult)
        service.close()
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit(EvaluationRequest(spec=SPEC))

    def test_concurrent_requests_share_one_cache(self, tmp_path):
        with RedService(cache=tmp_path, service_threads=4) as service:
            futures = [
                service.submit(EvaluationRequest(spec=SPEC, layer_name=f"j{i}"))
                for i in range(6)
            ]
            results = service.gather(futures)
        reference = [r.metrics_for("RED").latency.total for r in results]
        assert len(set(reference)) == 1


class TestScheduleCacheLifecycle:
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
