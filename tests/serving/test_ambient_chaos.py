"""The serving plane under the ambient ``make serve-chaos`` matrix.

Every other test in this suite pins its own failpoint context, so the
ambient environment never reaches them.  This one deliberately runs a
real server under whatever the environment armed — for ``make
serve-chaos`` that is crash faults at ``serving.shard_call`` (real
``os._exit(86)`` shard deaths) plus ``io_error`` at ``serving.accept``
and ``serving.merge`` — and holds the plane to its headline contract:
every request answered, every answer byte-identical to the fault-free
in-process run.  Disarmed, it is a plain end-to-end smoke test.
"""

import json
import os

from repro.api.schema import SweepRequest
from repro.api.service import RedService
from repro.reliability.failpoints import ENV_VAR, configured_failpoints
from repro.reliability.policy import RetryPolicy, no_sleep
from repro.serving.testing import ServerThread

REQUESTS = 12
LENIENT = RetryPolicy(max_attempts=12, base_delay_s=0.0, sleeper=no_sleep)


def _digest(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def test_every_request_answered_byte_identical_under_ambient_matrix():
    requests = [
        SweepRequest(strides=(1, 2, 4), channels=16 + i)
        for i in range(REQUESTS)
    ]
    with configured_failpoints(None):
        service = RedService()
        try:
            reference = [_digest(service.sweep(r)) for r in requests]
        finally:
            service.close()

    armed = os.environ.get(ENV_VAR, "")
    with ServerThread(num_shards=2, respawn_budget=8) as plane:
        with plane.client(timeout=120.0) as client:
            for request, expected in zip(requests, reference):
                result = client.call_with_retry(
                    request, retry_policy=LENIENT
                )
                assert _digest(result) == expected, (
                    f"recovery diverged under ambient matrix {armed!r}"
                )
    assert plane.exit_code == 0
