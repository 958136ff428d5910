"""Shard supervision: correct results, crash respawn, budget, degrade."""

import dataclasses
import pickle

import pytest

from repro.arch.tech import default_tech
from repro.deconv.shapes import DeconvSpec
from repro.errors import (
    EvaluationTimeoutError,
    ParameterError,
    ReproError,
    ShapeError,
    ShardUnavailableError,
)
from repro.eval.parallel import DesignJob, run_design_jobs
from repro.reliability import configured_failpoints
from repro.reliability.policy import no_sleep
from repro.serving.runner import ShardedRunner
from repro.serving.supervisor import (
    DEGRADED,
    RUNNING,
    ShardSupervisor,
    _rebuild_error,
)

TECH = default_tech()
SPEC = DeconvSpec(4, 4, 3, 4, 4, 2, stride=2, padding=1)
JOBS = tuple(
    DesignJob(design, SPEC, TECH, layer_name=design)
    for design in ("RED", "zero-padding", "padding-free")
)


def make_supervisor(**kwargs):
    kwargs.setdefault("num_shards", 1)
    kwargs.setdefault("sleeper", no_sleep)
    return ShardSupervisor(**kwargs)


class TestSupervisorCalls:
    def test_call_matches_in_process_results(self):
        with configured_failpoints(None):
            expected = run_design_jobs(list(JOBS))
            with make_supervisor() as sup:
                got = sup.call(0, JOBS)
        assert got == expected

    def test_unknown_shard_rejected(self):
        with make_supervisor() as sup:
            with pytest.raises(ParameterError, match="unknown shard"):
                sup.call(7, JOBS)

    def test_heartbeat_reports_running_shard(self):
        with configured_failpoints(None):
            with make_supervisor() as sup:
                status = sup.heartbeat(0)
        assert status["alive"]
        assert status["state"] == RUNNING
        assert status["stats"]["shard"] == 0

    def test_timeout_kills_and_respawns_the_shard(self):
        with configured_failpoints(None):
            with make_supervisor() as sup:
                with pytest.raises(EvaluationTimeoutError):
                    sup.call(0, JOBS, timeout=1e-4)
                # The unresponsive process was reclaimed, not waited on.
                assert sup.states()[0] == RUNNING
                assert sup.call(0, JOBS) == run_design_jobs(list(JOBS))


class TestShardedRunner:
    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_shard_count_is_irrelevant(self, num_shards):
        # Process parallelism lives in the serving plane: however the
        # ring partitions the list, the merge returns the in-process
        # results in request order, byte for byte.
        jobs = [
            DesignJob(
                design,
                DeconvSpec(3, 3, 2, max(2 * s, 2), max(2 * s, 2), 2,
                           stride=s, padding=s // 2),
                TECH,
                layer_name=f"s{s}-{design}",
            )
            for s in (1, 2, 4)
            for design in ("RED", "zero-padding", "padding-free")
        ]
        jobs.append(dataclasses.replace(jobs[0], layer_name="repeat"))
        with configured_failpoints(None):
            expected = run_design_jobs(jobs)
            with make_supervisor(num_shards=num_shards) as sup:
                runner = ShardedRunner(sup)
                try:
                    merged = runner(jobs)
                finally:
                    runner.close()
        digest = [pickle.dumps(m, pickle.HIGHEST_PROTOCOL) for m in merged]
        assert digest == [
            pickle.dumps(m, pickle.HIGHEST_PROTOCOL) for m in expected
        ]
        assert runner.degraded_calls == 0


class TestRespawnBudget:
    def test_crashes_consume_budget_then_degrade(self):
        with configured_failpoints("serving.shard_call:crash@1.0", seed=3):
            with make_supervisor(respawn_budget=1) as sup:
                with pytest.raises(ShardUnavailableError, match="died mid-call"):
                    sup.call(0, JOBS)
                assert sup.states()[0] == RUNNING  # one respawn spent
                with pytest.raises(ShardUnavailableError):
                    sup.call(0, JOBS)
                assert sup.states()[0] == DEGRADED
                # Degraded shards fail fast without touching a pipe.
                with pytest.raises(ShardUnavailableError, match="budget spent"):
                    sup.call(0, JOBS)
            # stop() keeps the degraded verdict for post-mortems.
            assert sup.states()[0] == DEGRADED

    def test_respawned_shard_serves_again_when_fault_clears(self):
        # Shard processes inherit the armed registry at fork time, so a
        # respawn that happens while the fault is still armed produces
        # another crashing child; the first respawn after the fault
        # clears forks a healthy one.
        with configured_failpoints(None):
            expected = run_design_jobs(list(JOBS))
        with configured_failpoints("serving.shard_call:crash@1.0", seed=3):
            sup = make_supervisor(respawn_budget=2).start()
        try:
            with configured_failpoints(None):
                with pytest.raises(ShardUnavailableError):
                    sup.call(0, JOBS)  # armed child dies -> respawn forks clean
                assert sup.states()[0] == RUNNING
                assert sup.call(0, JOBS) == expected
        finally:
            sup.stop()


class TestErrorRebuild:
    def test_taxonomy_type_survives_the_pipe(self):
        exc = _rebuild_error(
            {"error_type": "ShapeError", "message": "bad", "retryable": False}, 1
        )
        assert isinstance(exc, ShapeError)
        assert "shard-1" in str(exc)

    def test_unknown_retryable_degrades_to_shard_unavailable(self):
        exc = _rebuild_error(
            {"error_type": "Mystery", "message": "x", "retryable": True}, 0
        )
        assert isinstance(exc, ShardUnavailableError)

    def test_unknown_permanent_degrades_to_repro_error(self):
        exc = _rebuild_error(
            {"error_type": "Mystery", "message": "x", "retryable": False}, 0
        )
        assert type(exc) is ReproError

    def test_os_error_resolves_via_builtins(self):
        exc = _rebuild_error(
            {"error_type": "OSError", "message": "disk", "retryable": True}, 2
        )
        assert isinstance(exc, OSError)
