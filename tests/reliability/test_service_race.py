"""Submit/close races on :class:`RedService` under ambient faults.

The contract a serving front door leans on: a service being closed out
from under concurrent submitters never hangs and never leaks an
untyped exception.  Every in-flight future resolves — to a result or
to a taxonomy error that :class:`ErrorInfo` can carry — and every
submit that loses the race gets :class:`ServiceClosedError`.
"""

import threading
import time

import pytest

from repro.api.schema import ErrorInfo, SweepRequest, SweepResult
from repro.api.service import RedService
from repro.errors import ReproError, ServiceClosedError
from repro.reliability import configured_failpoints

SWEEP = SweepRequest(strides=(1, 2, 4))

#: Ambient fault schedule for the race: transient store failures that
#: the service's internal retries absorb or surface as taxonomy errors
#: — deterministic via the pinned seed.
AMBIENT = "store.put_many:io_error@0.3"


class TestSubmitCloseRace:
    def test_every_future_resolves_or_raises_typed(self):
        with configured_failpoints(AMBIENT, seed=5):
            service = RedService()
            start = threading.Barrier(5)
            outcomes = []
            lock = threading.Lock()

            def submitter(index: int) -> None:
                start.wait()
                try:
                    futures = [service.submit(SWEEP) for _ in range(3)]
                    results = [f.result(timeout=120.0) for f in futures]
                except (ServiceClosedError, ReproError, OSError) as exc:
                    with lock:
                        outcomes.append(exc)
                    return
                with lock:
                    outcomes.extend(results)

            threads = [
                threading.Thread(target=submitter, args=(i,)) for i in range(4)
            ]
            for t in threads:
                t.start()
            start.wait()  # all submitters racing now
            time.sleep(0.02)  # let some submissions land in flight
            service.close()
            for t in threads:
                t.join(timeout=180.0)
                assert not t.is_alive(), "submitter hung across close()"

        assert outcomes, "no submitter recorded an outcome"
        for outcome in outcomes:
            if isinstance(outcome, SweepResult):
                continue
            # Anything else must be a taxonomy citizen the wire can
            # represent: ErrorInfo round-trips it without guessing.
            info = ErrorInfo.from_exception(outcome, source="race")
            assert info.error_type == type(outcome).__name__

    def test_submit_after_close_is_permanent_and_typed(self):
        with configured_failpoints(AMBIENT, seed=6):
            service = RedService()
            service.close()
            with pytest.raises(ServiceClosedError) as caught:
                service.submit(SWEEP)
        info = ErrorInfo.from_exception(caught.value, source="race")
        assert info.retryable is False

    def test_inflight_work_completes_before_close_returns(self):
        # close(wait=True semantics): whatever was admitted before the
        # close finishes; the race never abandons a future mid-flight.
        with configured_failpoints(None):
            service = RedService()
            future = service.submit(SWEEP)
            service.close()
            result = future.result(timeout=0.0)  # already resolved
        assert isinstance(result, SweepResult)
