"""The failpoint registry: parsing, arming, deterministic draws, hooks.

Every test arms its configuration through ``configured_failpoints`` so
nothing leaks into the next test — including the ambient
``RED_FAILPOINTS`` environment configuration ``make chaos`` runs the
suite under (the context manager restores whatever was armed before).
"""

import multiprocessing

import pytest

from repro.errors import (
    InjectedFaultError,
    ParameterError,
    ReproError,
    WorkerCrashError,
)
from repro.reliability import failpoints
from repro.reliability.failpoints import (
    Failpoint,
    configured_failpoints,
    format_failpoints,
    parse_failpoints,
)


def draws(site, count=64):
    """Which of ``count`` token values fire at ``site`` under the armed registry.

    A pure function of the armed points and seed, so it shows both.
    """
    return tuple(
        failpoints.check(site, f"job{i}", 1) is not None for i in range(count)
    )


class TestParsing:
    def test_spec_round_trip(self):
        points = parse_failpoints(
            "store.put_many:io_error@0.3;serving.shard_call:crash@0.1"
        )
        assert points == (
            Failpoint("store.put_many", "io_error", 0.3),
            Failpoint("serving.shard_call", "crash", 0.1),
        )
        assert parse_failpoints(format_failpoints(points)) == points

    def test_rate_defaults_to_one(self):
        (point,) = parse_failpoints("store.get_many:corrupt")
        assert point.rate == 1.0

    def test_empty_clauses_skipped(self):
        assert parse_failpoints(";;serving.shard_call:crash;;") == (
            Failpoint("serving.shard_call", "crash"),
        )
        assert parse_failpoints("") == ()

    @pytest.mark.parametrize(
        "spec",
        ["serving.merge", "site:badmode", "site:io_error@nope", "site:io_error@1.5"],
    )
    def test_malformed_specs_raise_parameter_error(self, spec):
        with pytest.raises(ParameterError):
            parse_failpoints(spec)

    @pytest.mark.parametrize("site", ["", "a:b", "a;b", "a b", "a@b"])
    def test_invalid_sites_rejected(self, site):
        with pytest.raises(ParameterError):
            Failpoint(site, "io_error")


class TestConfiguration:
    def test_configure_and_clear(self):
        with configured_failpoints("serving.merge:io_error@0.5", seed=3):
            outer = draws("serving.merge")
            assert any(outer) and not all(outer)
            assert not any(draws("store.put_many"))
            with configured_failpoints(None):
                assert not any(draws("serving.merge"))
            # The nested block restored the outer configuration, seed included.
            assert draws("serving.merge") == outer
        with configured_failpoints("serving.merge:io_error@0.5", seed=4):
            assert draws("serving.merge") != outer

    def test_configured_restores_on_error(self):
        with configured_failpoints("serving.merge:io_error@0.5", seed=9):
            before = draws("serving.merge")
            with pytest.raises(RuntimeError):
                with configured_failpoints("store.put_many:crash", seed=1):
                    raise RuntimeError("boom")
            assert draws("serving.merge") == before
            assert not any(draws("store.put_many"))

    def test_configure_from_env(self):
        with configured_failpoints(None):
            armed = failpoints.configure_from_env(
                {
                    failpoints.ENV_VAR: "store.get_many:corrupt@0.25",
                    failpoints.ENV_SEED_VAR: "17",
                }
            )
            assert armed
            from_env = draws("store.get_many")
            fired = [failpoints.check("store.get_many", f"job{i}", 1) for i in range(64)]
        assert Failpoint("store.get_many", "corrupt", 0.25) in fired
        with configured_failpoints("store.get_many:corrupt@0.25", seed=17):
            assert draws("store.get_many") == from_env

    def test_configure_from_env_absent_is_noop(self):
        with configured_failpoints("serving.shard_call:crash@0.5", seed=2):
            before = draws("serving.shard_call")
            assert not failpoints.configure_from_env({})
            assert draws("serving.shard_call") == before

    def test_bad_env_seed_raises(self):
        with configured_failpoints(None):
            with pytest.raises(ParameterError):
                failpoints.configure_from_env(
                    {
                        failpoints.ENV_VAR: "serving.shard_call:crash",
                        failpoints.ENV_SEED_VAR: "not-an-int",
                    }
                )

    def test_non_failpoint_entries_rejected(self):
        with configured_failpoints(None):
            with pytest.raises(ParameterError, match="expected Failpoint instances, got str"):
                failpoints.configure_failpoints(["serving.merge:io_error"])
            assert not any(draws("serving.merge"))

    def test_bad_seed_rejected(self):
        with pytest.raises(ParameterError):
            failpoints.configure_failpoints("serving.shard_call:crash", seed=-1)


class TestDeterminism:
    def test_draw_is_pure_function_of_values(self):
        with configured_failpoints("serving.merge:io_error@0.5", seed=11):
            first = [
                failpoints.check("serving.merge", f"job{i}", 1) is not None
                for i in range(64)
            ]
            second = [
                failpoints.check("serving.merge", f"job{i}", 1) is not None
                for i in range(64)
            ]
        assert first == second
        assert any(first) and not all(first)

    def test_draw_independent_of_call_order(self):
        with configured_failpoints("serving.merge:io_error@0.5", seed=11):
            forward = {
                i: failpoints.check("serving.merge", f"job{i}", 1) is not None
                for i in range(32)
            }
            backward = {
                i: failpoints.check("serving.merge", f"job{i}", 1) is not None
                for i in reversed(range(32))
            }
        assert forward == backward

    def test_attempt_token_redraws(self):
        with configured_failpoints("serving.merge:io_error@0.5", seed=11):
            by_attempt = [
                failpoints.check("serving.merge", "job", attempt) is not None
                for attempt in range(1, 33)
            ]
        assert any(by_attempt) and not all(by_attempt)

    def test_seed_changes_schedule(self):
        def schedule(seed):
            with configured_failpoints("serving.merge:io_error@0.5", seed=seed):
                return tuple(
                    failpoints.check("serving.merge", f"job{i}", 1) is not None
                    for i in range(64)
                )

        assert schedule(0) != schedule(1)

    def test_rate_bounds_short_circuit(self):
        with configured_failpoints("always:io_error@1.0;never:io_error@0.0"):
            assert all(
                failpoints.check("always", i) is not None for i in range(8)
            )
            assert all(failpoints.check("never", i) is None for i in range(8))

    def test_token_types(self):
        with configured_failpoints("site:io_error@0.5", seed=5):
            for token in (0, 3, "key", b"\x00\xff", True):
                # int/str/bytes/bool tokens all draw, deterministically.
                assert failpoints.check("site", token) is failpoints.check(
                    "site", token
                )
            with pytest.raises(ParameterError):
                failpoints.check("site", -1)
            with pytest.raises(ParameterError):
                failpoints.check("site", 1.5)


class TestModes:
    def test_io_error_raises_injected_fault(self):
        with configured_failpoints("site:io_error"):
            with pytest.raises(InjectedFaultError) as info:
                failpoints.inject("site", 0)
        # The retry plane treats injected faults as the OSError they
        # stand in for; the API boundary still sees a ReproError.
        assert isinstance(info.value, OSError)
        assert isinstance(info.value, ReproError)

    def test_crash_raises_outside_worker_processes(self):
        with configured_failpoints("site:crash"):
            with pytest.raises(WorkerCrashError):
                failpoints.inject("site", 0)

    def test_corrupt_ignored_by_inject(self):
        with configured_failpoints("site:corrupt"):
            failpoints.inject("site", 0)  # must not raise

    def test_corrupted_flips_payload_deterministically(self):
        payload = b"hello world"
        with configured_failpoints("site:corrupt"):
            mangled = failpoints.corrupted("site", payload, 0)
            assert mangled != payload
            assert len(mangled) == len(payload)
            assert mangled == failpoints.corrupted("site", payload, 0)
            assert failpoints.corrupted("site", b"", 0) == b"\xff"
        with configured_failpoints(None):
            assert failpoints.corrupted("site", payload, 0) == payload

    def test_corrupted_ignores_other_sites_and_modes(self):
        payload = b"hello world"
        with configured_failpoints("other:corrupt"):
            assert failpoints.corrupted("site", payload, 0) == payload
        with configured_failpoints("site:io_error"):
            assert failpoints.corrupted("site", payload, 0) == payload

    def test_unarmed_sites_never_fire(self):
        with configured_failpoints("other:io_error"):
            failpoints.inject("site", 0)
            assert failpoints.check("site", 0) is None


class TestHooks:
    def test_hooks_bypassed_rebinds_and_restores(self):
        with configured_failpoints("site:io_error"):
            with failpoints.hooks_bypassed():
                failpoints.inject("site", 0)  # no-op under bypass
                assert failpoints.check("site", 0) is None
                assert failpoints.corrupted("site", b"x", 0) == b"x"
            with pytest.raises(InjectedFaultError):
                failpoints.inject("site", 0)


def test_crash_in_a_marked_worker_exits_with_the_crash_status():
    def worker():
        failpoints.mark_worker_process()
        with configured_failpoints("site:crash"):
            failpoints.inject("site", 0)

    process = multiprocessing.get_context("fork").Process(target=worker)
    process.start()
    process.join(timeout=60)
    assert not process.is_alive()
    assert process.exitcode == failpoints.CRASH_EXIT_STATUS
