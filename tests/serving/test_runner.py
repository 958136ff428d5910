"""ShardedRunner state that needs no shard process: attempt tokens, breakers."""

import threading

import pytest

from repro.errors import ParameterError
from repro.serving.runner import ShardedRunner


class _Supervisor:
    """Just the attribute the runner reads at construction."""

    shard_ids = (0, 1)


def test_one_breaker_per_shard_with_the_given_tuning():
    runner = ShardedRunner(_Supervisor(), failure_threshold=5, cooldown_s=2.0)
    assert sorted(runner.breakers) == [0, 1]
    assert runner.breakers[0] is not runner.breakers[1]
    for breaker in runner.breakers.values():
        assert (breaker.failure_threshold, breaker.cooldown_s) == (5, 2.0)
    assert runner.degraded_calls == 0


def test_attempt_token_is_per_thread():
    runner = ShardedRunner(_Supervisor())
    assert runner.attempt == 0
    runner.set_attempt(2)
    seen = []
    worker = threading.Thread(target=lambda: seen.append(runner.attempt))
    worker.start()
    worker.join()
    assert runner.attempt == 2
    assert seen == [0]


def test_negative_attempt_rejected():
    runner = ShardedRunner(_Supervisor())
    with pytest.raises(ParameterError, match="attempt must be >= 0, got -1"):
        runner.set_attempt(-1)
    assert runner.attempt == 0
