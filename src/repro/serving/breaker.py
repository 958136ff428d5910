"""Per-shard circuit breaker over the transient/permanent taxonomy.

The breaker protects the rest of the plane from a shard that keeps
failing: after ``failure_threshold`` *consecutive* transient failures
(only failures :func:`~repro.reliability.policy.is_retryable` classifies
as transient are recorded) the circuit opens and the runner stops
calling the shard — calls routed to it go to the degraded in-process
fallback.  After ``cooldown_s`` the circuit half-opens and exactly one
probe call is let through: success closes the circuit, failure re-opens
it for another cooldown.

The clock is injectable (``time.monotonic`` by default) so tests drive
open -> half-open -> closed transitions deterministically without
sleeping — the same pattern as
:class:`~repro.reliability.policy.Deadline`.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.errors import ParameterError

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Consecutive-transient-failure breaker with a half-open probe."""

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown_s: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ParameterError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if not cooldown_s > 0:
            raise ParameterError(f"cooldown_s must be > 0, got {cooldown_s!r}")
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_taken = False
        self.opened_total = 0
        self._lock = threading.Lock()

    @property
    def state(self) -> str:
        """``closed``/``open``/``half_open`` — cooldown expiry applied."""
        with self._lock:
            self._tick()
            return self._state

    def _tick(self) -> None:
        # Lock held.  OPEN ages into HALF_OPEN once the cooldown passes.
        if (
            self._state == OPEN
            and self._clock() - self._opened_at >= self.cooldown_s
        ):
            self._state = HALF_OPEN
            self._probe_taken = False

    def allow(self) -> bool:
        """May the caller contact the shard right now?

        CLOSED always allows.  OPEN refuses until the cooldown elapses.
        HALF_OPEN allows exactly one probe; concurrent callers behind
        the probe are refused until it resolves via
        :meth:`record_success` / :meth:`record_failure`.
        """
        with self._lock:
            self._tick()
            if self._state == CLOSED:
                return True
            if self._state == HALF_OPEN and not self._probe_taken:
                self._probe_taken = True
                return True
            return False

    def record_success(self) -> None:
        """A call came back healthy: close the circuit, reset the count."""
        with self._lock:
            self._state = CLOSED
            self._consecutive_failures = 0
            self._probe_taken = False

    def record_failure(self) -> None:
        """A *transient* call failure (feed only ``is_retryable`` ones).

        A failed half-open probe re-opens immediately; in CLOSED the
        circuit opens once the consecutive count reaches the threshold.
        """
        with self._lock:
            self._tick()
            self._consecutive_failures += 1
            if self._state == HALF_OPEN:
                self._open()
            elif (
                self._state == CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._open()

    def _open(self) -> None:
        # Lock held.
        self._state = OPEN
        self._opened_at = self._clock()
        self._probe_taken = False
        self.opened_total += 1
