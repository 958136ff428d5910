"""Retry policies, the transient/permanent taxonomy, and deadlines."""

import pytest

from repro.errors import (
    DrainingError,
    EvaluationTimeoutError,
    InjectedFaultError,
    OverloadedError,
    ParameterError,
    ShapeError,
    ShardUnavailableError,
    WorkerCrashError,
)
from repro.reliability.policy import (
    NO_SLEEP_POLICY,
    Deadline,
    RetryPolicy,
    is_retryable,
    no_sleep,
)


class TestRetryable:
    @pytest.mark.parametrize(
        "exc",
        [
            OSError("disk"),
            InjectedFaultError("injected"),
            WorkerCrashError("crash"),
            ShardUnavailableError("shard"),
            OverloadedError("shed", retry_after_s=0.5),
        ],
    )
    def test_transient_failures_retry(self, exc):
        assert is_retryable(exc)

    @pytest.mark.parametrize(
        "exc",
        [
            # A timeout subclasses TimeoutError (itself an OSError since
            # Python 3.3) but the budget is final: never retried.
            EvaluationTimeoutError("budget"),
            ShapeError("bad shape"),
            ParameterError("bad param"),
            ValueError("bad"),
            KeyError("missing"),
            # A draining server is going away: retrying it cannot help.
            DrainingError("draining"),
        ],
    )
    def test_permanent_failures_surface(self, exc):
        assert not is_retryable(exc)


class TestRetryPolicy:
    def test_deterministic_exponential_backoff(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay_s=0.1, multiplier=2.0, max_delay_s=0.5
        )
        assert [policy.delay_for(attempt) for attempt in range(1, 5)] == [
            0.1, 0.2, 0.4, 0.5,
        ]
        assert policy.delay_for(10) == 0.5  # capped

    def test_validation(self):
        with pytest.raises(ParameterError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ParameterError):
            RetryPolicy(base_delay_s=-1)
        with pytest.raises(ParameterError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ParameterError):
            RetryPolicy(max_delay_s=-1)
        with pytest.raises(ParameterError):
            RetryPolicy().delay_for(0)

    def test_call_retries_transient_then_succeeds(self):
        slept = []
        policy = RetryPolicy(
            max_attempts=3, base_delay_s=0.5, sleeper=slept.append
        )
        attempts = []

        def flaky():
            attempts.append(len(attempts) + 1)
            if len(attempts) < 3:
                raise OSError("transient")
            return "done"

        assert policy.call(flaky) == "done"
        assert attempts == [1, 2, 3]
        assert slept == [0.5, 1.0]

    def test_call_exhaustion_reraises_original(self):
        policy = RetryPolicy(max_attempts=2, sleeper=no_sleep)
        with pytest.raises(InjectedFaultError):
            policy.call(lambda: (_ for _ in ()).throw(InjectedFaultError("x")))

    def test_call_permanent_failure_raises_immediately(self):
        policy = RetryPolicy(max_attempts=5, sleeper=no_sleep)
        calls = []

        def broken():
            calls.append(1)
            raise ShapeError("permanent")

        with pytest.raises(ShapeError):
            policy.call(broken)
        assert len(calls) == 1

    def test_no_sleep_policy_never_sleeps(self):
        assert NO_SLEEP_POLICY.sleeper is no_sleep
        assert no_sleep(123.0) is None


class TestDeadline:
    def test_no_budget_never_expires(self):
        deadline = Deadline(None)
        assert deadline.remaining() is None
        assert not deadline.expired()
        deadline.check("anything")  # must not raise

    def test_budget_counts_down_on_injected_clock(self):
        now = [100.0]
        deadline = Deadline(2.0, clock=lambda: now[0])
        assert deadline.remaining() == pytest.approx(2.0)
        now[0] = 101.5
        assert deadline.remaining() == pytest.approx(0.5)
        assert not deadline.expired()
        now[0] = 102.5
        assert deadline.expired()
        with pytest.raises(EvaluationTimeoutError, match="sweep batch"):
            deadline.check("sweep batch")

    def test_timeout_error_is_not_retryable(self):
        now = [0.0]
        deadline = Deadline(1.0, clock=lambda: now[0])
        now[0] = 5.0
        with pytest.raises(EvaluationTimeoutError) as info:
            deadline.check("work")
        assert not is_retryable(info.value)

    def test_invalid_budget_rejected(self):
        with pytest.raises(ParameterError):
            Deadline(0)
        with pytest.raises(ParameterError):
            Deadline(-1.0)
