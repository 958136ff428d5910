"""The sharded evaluation substrate behind the serving front door.

:class:`ShardedRunner` is a drop-in for
:func:`~repro.eval.parallel.run_design_jobs` — same job list, same
ordered-results contract — that sends each call's whole work list to
one supervised shard process:

1. the shard is picked round-robin, so concurrent requests spread over
   every shard while each request pays one pipe round trip and one
   batched evaluation;
2. the call consults that shard's circuit breaker first;
3. the shard's reply is returned as is (``serving.merge`` failpoint
   armed where the reply is handed back).

Shards hold no store (analytic metrics recompute faster than a store
reads them back), so no routing affinity is needed.

Robustness: a transient shard failure
(:func:`~repro.reliability.policy.is_retryable`) feeds the breaker and
reroutes the call to the degraded in-process fallback — the caller
still gets complete results, just slower.  With the fallback disabled
the transient surfaces as :class:`~repro.errors.ShardUnavailableError`,
which :meth:`RedService.sweep <repro.api.service.RedService.sweep>`
turns into a *partial* :class:`~repro.api.schema.SweepResult` whose
``failures`` name the strides whose call reached an unavailable shard.
Permanent errors always surface unchanged.
"""

from __future__ import annotations

import itertools
import threading

from repro.errors import ParameterError, ShardUnavailableError
from repro.eval.parallel import run_design_jobs
from repro.reliability import failpoints
from repro.reliability.policy import is_retryable
from repro.serving.breaker import CircuitBreaker

#: Failpoint site armed where the shard's reply is handed back.
MERGE_SITE = "serving.merge"


class ShardedRunner:
    """Route each ``run_design_jobs`` call to one supervised shard.

    Args:
        supervisor: a started
            :class:`~repro.serving.supervisor.ShardSupervisor`.
        fallback: reroute a transiently-failing call to an in-process
            :func:`run_design_jobs` call (the degraded tier; counted in
            :attr:`degraded_calls`).  ``False`` surfaces
            :class:`~repro.errors.ShardUnavailableError` instead so the
            service tier can build partial results.
        failure_threshold / cooldown_s / clock: per-shard
            :class:`~repro.serving.breaker.CircuitBreaker` tuning.
    """

    def __init__(
        self,
        supervisor,
        fallback: bool = True,
        failure_threshold: int = 3,
        cooldown_s: float = 1.0,
        clock=None,
    ) -> None:
        self.supervisor = supervisor
        self.fallback = fallback
        breaker_kwargs = {
            "failure_threshold": failure_threshold,
            "cooldown_s": cooldown_s,
        }
        if clock is not None:
            breaker_kwargs["clock"] = clock
        self.breakers = {
            shard_id: CircuitBreaker(**breaker_kwargs)
            for shard_id in supervisor.shard_ids
        }
        self.degraded_calls = 0
        self._turns = itertools.count()
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Attempt token: the wire layer stamps the client's X-Red-Attempt
    # here so retried requests draw fresh failpoint decisions while the
    # draw stays a pure function of (seed, site, tokens).
    # ------------------------------------------------------------------
    @property
    def attempt(self) -> int:
        return getattr(self._local, "attempt", 0)

    def set_attempt(self, attempt: int) -> None:
        if attempt < 0:
            raise ParameterError(f"attempt must be >= 0, got {attempt}")
        self._local.attempt = attempt

    # ------------------------------------------------------------------
    # The run_design_jobs-shaped entry point
    # ------------------------------------------------------------------
    def __call__(
        self,
        jobs,
        *,
        cache=None,
        vectorized: bool = True,
        timeout: float | None = None,
        retry_policy=None,
    ):
        """Evaluate every job, in order, on the next shard in turn.

        ``cache``/``vectorized``/``retry_policy`` are accepted for
        signature compatibility: the shards and the fallback run the
        default plane with no store (answers are route-independent).
        """
        jobs = list(jobs)
        if not jobs:
            return []
        attempt = self.attempt
        shard_ids = self.supervisor.shard_ids
        shard_id = shard_ids[next(self._turns) % len(shard_ids)]
        metrics = self._call_shard(shard_id, jobs, timeout, attempt)
        failpoints.inject(MERGE_SITE, len(jobs), attempt)
        return metrics

    def _call_shard(self, shard_id, jobs, timeout, attempt):
        """Breaker -> shard -> (maybe) degraded fallback."""
        breaker = self.breakers[shard_id]
        if not breaker.allow():
            if not self.fallback:
                raise ShardUnavailableError(
                    f"shard-{shard_id} circuit is {breaker.state}"
                )
            return self._degraded(jobs, timeout)
        try:
            metrics = self.supervisor.call(
                shard_id, jobs, timeout=timeout, attempt=attempt
            )
        except Exception as exc:
            if not is_retryable(exc):
                raise
            breaker.record_failure()
            if not self.fallback:
                # Re-raise here: a helper frame holding the exception in a
                # local would sit in its traceback, a cycle that keeps the
                # failed pipe write's buffers alive until a GC pass.
                raise
            return self._degraded(jobs, timeout)
        breaker.record_success()
        return metrics

    def _degraded(self, jobs, timeout):
        """In-process rescue of one call (counted in degraded_calls)."""
        self.degraded_calls += 1
        return run_design_jobs(jobs, timeout=timeout)
