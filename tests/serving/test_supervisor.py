"""Shard supervision: correct results, crash respawn, budget, degrade."""

import dataclasses
import gc
import pickle
import threading
from concurrent.futures import ThreadPoolExecutor

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
from repro.reliability.failpoints import configured_failpoints
from repro.reliability.policy import no_sleep
from repro.serving.runner import ShardedRunner
from repro.serving.supervisor import (
    DEGRADED,
    RUNNING,
    STARTING,
    STOPPED,
    ShardSupervisor,
    _rebuild_error,
)
from tests.serving.conftest import kill_shard

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


def spy_on_calls(sup) -> list:
    """Record ``(shard_id, len(jobs))`` for every ``sup.call``."""
    routed = []
    call = sup.call

    def spy(shard_id, jobs, **kwargs):
        routed.append((shard_id, len(jobs)))
        return call(shard_id, jobs, **kwargs)

    sup.call = spy
    return routed


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


class TestHeartbeatAll:
    def test_a_dead_shard_reads_dead_once_then_respawns(self):
        with configured_failpoints(None):
            with make_supervisor(num_shards=2) as sup:
                kill_shard(sup, 1)
                first = sup.heartbeat_all()
                second = sup.heartbeat_all()
        assert [first[0]["alive"], first[1]["alive"]] == [True, False]
        assert first[1]["restarts"] == 1
        assert first[1]["state"] == RUNNING
        assert [beat["alive"] for beat in second.values()] == [True, True]
        assert second[1]["stats"]["shard"] == 1


class TestLifecycleEdges:
    @pytest.mark.parametrize(
        ("kwargs", "message"),
        [
            ({"num_shards": 0}, "num_shards"),
            ({"num_shards": -3}, "num_shards"),
            ({"respawn_budget": -1}, "respawn_budget"),
            ({"call_timeout_s": 0}, "call_timeout_s"),
            ({"call_timeout_s": -2.5}, "call_timeout_s"),
        ],
        ids=["no-shards", "negative-shards", "negative-budget", "zero-timeout",
             "negative-timeout"],
    )
    def test_bad_parameters_rejected(self, kwargs, message):
        with pytest.raises(ParameterError, match=message):
            ShardSupervisor(**kwargs)

    def test_unstarted_shard_refuses_calls_and_reports_dead(self):
        sup = make_supervisor()
        with pytest.raises(ShardUnavailableError, match="starting; retry shortly"):
            sup.call(0, JOBS)
        assert sup.heartbeat(0) == {
            "shard": 0, "state": STARTING, "restarts": 0, "alive": False,
        }

    def test_start_is_idempotent(self):
        with configured_failpoints(None):
            with make_supervisor() as sup:
                process = sup._shards[0].process
                assert sup.start() is sup
                assert sup._shards[0].process is process
                assert sup.call(0, JOBS) == run_design_jobs(list(JOBS))

    def test_stop_after_a_shard_died_reaps_cleanly(self):
        sup = make_supervisor().start()
        kill_shard(sup, 0)
        sup.stop()
        assert sup.states()[0] == STOPPED
        assert sup._shards[0].process is None

    def test_a_shard_forked_with_the_collector_off_runs_with_it_on(
        self, monkeypatch
    ):
        # A server thread inside a runner's collector pause may hold the
        # collector off when a shard forks; the shard must not keep it off.
        import repro.serving.shard as shard_module

        monkeypatch.setattr(
            shard_module, "run_design_jobs", lambda jobs, timeout=None: [gc.isenabled()]
        )
        enabled = gc.isenabled()
        gc.disable()
        try:
            with configured_failpoints(None):
                with make_supervisor() as sup:
                    assert sup.call(0, JOBS) == [True]
        finally:
            if enabled:
                gc.enable()


class TestShardedRunner:
    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_shard_count_is_irrelevant(self, num_shards):
        # Process parallelism lives in the serving plane: whichever
        # shard a call reaches, it returns the in-process results in
        # request order, byte for byte.
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
                merged = runner(jobs)
        digest = [pickle.dumps(m, pickle.HIGHEST_PROTOCOL) for m in merged]
        assert digest == [
            pickle.dumps(m, pickle.HIGHEST_PROTOCOL) for m in expected
        ]
        assert runner.degraded_calls == 0

    def test_each_call_goes_whole_to_the_next_shard(self):
        sizes = (3, 1, 2, 3)
        with configured_failpoints(None):
            expected = [run_design_jobs(list(JOBS[:n])) for n in sizes]
            with make_supervisor(num_shards=3) as sup:
                routed = spy_on_calls(sup)
                runner = ShardedRunner(sup)
                assert runner([]) == []
                got = [runner(JOBS[:n]) for n in sizes]
        assert got == expected
        # One shard call per non-empty runner call, rotating over shards.
        assert routed == [(0, 3), (1, 1), (2, 2), (0, 3)]

    def test_concurrent_calls_take_turns_over_every_shard(self):
        with configured_failpoints(None):
            expected = run_design_jobs(list(JOBS))
            with make_supervisor(num_shards=2) as sup:
                routed = spy_on_calls(sup)
                runner = ShardedRunner(sup)
                with ThreadPoolExecutor(max_workers=4) as pool:
                    got = list(pool.map(lambda _: runner(JOBS), range(8)))
        assert got == [expected] * 8
        # Every call drew its own turn: the shards split the calls evenly.
        assert sorted(routed) == [(0, 3)] * 4 + [(1, 3)] * 4
        assert runner.degraded_calls == 0

    def test_open_breaker_sends_its_turn_to_the_fallback(self):
        with configured_failpoints(None):
            expected = run_design_jobs(list(JOBS))
            with make_supervisor(num_shards=2) as sup:
                routed = spy_on_calls(sup)
                # A frozen clock keeps shard 0's breaker open.
                runner = ShardedRunner(sup, failure_threshold=1, clock=lambda: 0.0)
                runner.breakers[0].record_failure()
                got = [runner(JOBS), runner(JOBS)]
        assert got == [expected, expected]
        # Shard 0's turn ran in process; it was not moved to shard 1.
        assert routed == [(1, 3)]
        assert runner.degraded_calls == 1

    def test_open_breaker_without_fallback_is_shard_unavailable(self):
        with configured_failpoints(None):
            expected = run_design_jobs(list(JOBS))
            with make_supervisor(num_shards=2) as sup:
                routed = spy_on_calls(sup)
                runner = ShardedRunner(
                    sup, fallback=False, failure_threshold=1, clock=lambda: 0.0
                )
                runner.breakers[0].record_failure()
                with pytest.raises(
                    ShardUnavailableError, match="shard-0 circuit is open"
                ):
                    runner(JOBS)
                assert runner(JOBS) == expected
        assert routed == [(1, 3)]
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


class _RacingContext:
    """Fork context forcing the spawn interleaving that leaks pipe ends.

    Shard-0's ``start()`` (its pipe already open) waits until shard-1
    has forked, and shard-1's waits until shard-0 reached ``start()``:
    unserialised spawns always fork shard-1 while shard-0's child end
    is still open in the parent.  Both waits are bounded, so serialised
    spawns merely time out of them.
    """

    WAIT_S = 2.0

    def __init__(self, ctx):
        self._ctx = ctx
        self.shard0_starting = threading.Event()
        self.shard1_forked = threading.Event()

    def __getattr__(self, name):
        return getattr(self._ctx, name)

    def Process(self, **kwargs):
        process = self._ctx.Process(**kwargs)
        start = process.start

        def shard0_start():
            self.shard0_starting.set()
            self.shard1_forked.wait(self.WAIT_S)
            start()

        def shard1_start():
            self.shard0_starting.wait(self.WAIT_S)
            start()
            self.shard1_forked.set()

        process.start = shard0_start if kwargs["args"][1] == 0 else shard1_start
        return process


class TestSpawnRace:
    def test_concurrent_respawns_keep_crashes_visible(self):
        # A sibling forked mid-spawn would hold shard-0's child end, so
        # shard-0's death would read as silence (a timeout), not EOF.
        with configured_failpoints(None):
            with make_supervisor(num_shards=2, call_timeout_s=10.0) as sup:
                for shard_id in sup.shard_ids:
                    kill_shard(sup, shard_id)
                sup._ctx = _RacingContext(sup._ctx)
                # Each heartbeat finds its shard dead and respawns it.
                beats = [
                    threading.Thread(target=sup.heartbeat, args=(shard_id,))
                    for shard_id in sup.shard_ids
                ]
                for beat in beats:
                    beat.start()
                for beat in beats:
                    beat.join(timeout=30.0)
                    assert not beat.is_alive()
                assert sup.states() == {0: RUNNING, 1: RUNNING}
                kill_shard(sup, 0)
                with pytest.raises(ShardUnavailableError, match="died mid-call"):
                    sup.call(0, JOBS)


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

    @pytest.mark.parametrize(
        ("retryable", "expected"),
        [(True, ShardUnavailableError), (False, ReproError)],
        ids=["retryable", "permanent"],
    )
    def test_a_type_that_takes_no_message_degrades_by_retryability(
        self, monkeypatch, retryable, expected
    ):
        import repro.errors

        class NeedsTwoArguments(ReproError):
            def __init__(self, message, detail):
                super().__init__(message)

        monkeypatch.setattr(
            repro.errors, "NeedsTwoArguments", NeedsTwoArguments, raising=False
        )
        error = _rebuild_error(
            {"error_type": "NeedsTwoArguments", "message": "boom", "retryable": retryable},
            3,
        )
        assert type(error) is expected
        assert str(error) == "shard-3: boom"

    def test_os_error_resolves_via_builtins(self):
        exc = _rebuild_error(
            {"error_type": "OSError", "message": "disk", "retryable": True}, 2
        )
        assert isinstance(exc, OSError)
