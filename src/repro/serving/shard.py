"""Shard worker process: one supervised evaluator of whole job lists.

Each shard is a forked child running :func:`shard_worker_main`: a
blocking request/response loop over a :mod:`multiprocessing` pipe.
Shards evaluate analytic metrics only, which recompute faster than a
store could read them back, so a shard opens no store and the runner
can send any call to any shard.

Wire protocol (pickled tuples, sequence-numbered)::

    ("ping",        seq)                          -> ("pong", seq, stats)
    ("design_jobs", seq, jobs, timeout_s, attempt) -> ("ok", seq, metrics)
                                                  |  ("error", seq, info_dict)
    ("shutdown",)                                 -> (loop exits)

Failure contract: expected failures — anything in the
:class:`~repro.errors.ReproError` taxonomy plus ``OSError`` — travel
back as :class:`~repro.api.schema.ErrorInfo` dicts and the worker keeps
serving.  Anything else is a bug: the worker re-raises, the process
dies, and the supervisor's respawn policy takes over (crash-mode
failpoints at ``serving.shard_call`` exercise exactly that path with a
real ``os._exit``).
"""

from __future__ import annotations

import gc

# Loaded here, in the server, before the supervisor forks any shard: a
# forked child inherits the import lock of any module another server
# thread is importing at that moment, and would hang importing that
# module itself.  With the vectorized plane and the built-in designs
# (which the registry imports lazily) loaded first, a shard's design
# runner imports nothing after the fork.
import repro.core.red_design  # noqa: F401
import repro.designs.padding_free_design  # noqa: F401
import repro.designs.zero_padding_design  # noqa: F401
import repro.eval.vectorized  # noqa: F401
from repro.errors import ReproError
from repro.eval.parallel import run_design_jobs
from repro.reliability import failpoints
from repro.reliability.failpoints import mark_worker_process

#: Failpoint site armed around every shard-side batch evaluation.
SHARD_CALL_SITE = "serving.shard_call"


def shard_worker_main(conn, shard_index: int) -> None:
    """Blocking request loop of one shard process (fork target)."""
    # A parent thread may have held the runners' collector pause
    # (repro.eval.parallel) when this process forked; nothing here
    # would ever switch the inherited "off" back on.
    gc.enable()
    # ErrorInfo pulls the schema layer in; import here so the parent's
    # import graph decides nothing about the child.
    from repro.api.schema import ErrorInfo

    mark_worker_process()  # crash-mode failpoints hard-exit this process
    jobs_done = 0
    try:
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "shutdown":
                return
            seq = message[1]
            if kind == "ping":
                conn.send(("pong", seq, {"shard": shard_index, "jobs_done": jobs_done}))
                continue
            if kind != "design_jobs":
                conn.send(
                    (
                        "error",
                        seq,
                        ErrorInfo(
                            error_type="SchemaError",
                            message=f"unknown shard message kind {kind!r}",
                            source=f"shard-{shard_index}",
                        ).to_dict(),
                    )
                )
                continue
            _, seq, jobs, timeout_s, attempt = message
            try:
                # The deterministic chaos hook: io_error mode raises and
                # travels back as a retryable envelope; crash mode kills
                # this process for real and the supervisor respawns it.
                failpoints.inject(SHARD_CALL_SITE, shard_index, seq, attempt)
                metrics = run_design_jobs(list(jobs), timeout=timeout_s)
            except (ReproError, OSError) as exc:
                conn.send(
                    (
                        "error",
                        seq,
                        ErrorInfo.from_exception(
                            exc, source=f"shard-{shard_index}"
                        ).to_dict(),
                    )
                )
                continue
            jobs_done += len(metrics)
            conn.send(("ok", seq, metrics))
    except (EOFError, OSError, KeyboardInterrupt):
        # Parent went away (or is tearing us down): exit quietly.
        return
