"""ISSUE-10 acceptance benchmark: the sharded serving plane under load.

Five rows, one process:

1. **In-process, unique requests** — a vectorized
   :meth:`RedService.sweep` loop on one thread over requests no other
   row sends, so every one is evaluated.  This is the substrate rate
   the serving plane is graded against.
2. **In-process, repeats** (informational) — the same held service
   cycling the request pool the served warm tier uses, so its repeats
   are what a held service answers from what it already evaluated.
3. **Served, warm tier** (the gated row) — >= 1000 concurrent requests
   cycling that pool through a live
   :class:`~repro.serving.server.ServingServer` (real sockets, >= 2
   forked shard processes).  After one cold pass the working set lives
   in the front door's :class:`~repro.serving.respcache.ResponseCache`;
   the gate is jobs/s >= ``THROUGHPUT_FLOOR`` x the in-process unique
   rate, with p50/p99 latency recorded.
4. **Served, cold shard path** (informational) — every request unique,
   so each one crosses the admission gate, the shard runner and a
   shard pipe.  Reported so the overhead of the full vertical stays
   visible next to the warm rate.
5. **Served under chaos** (byte-exactness gate, not time-gated) —
   unique requests with shard crashes and wire faults armed.  Every
   request must come back answered, and every answer must be
   byte-identical to its fault-free in-process reference.

The last column compares like with like, ungated: served hits with
in-process repeats, and the served cold path with in-process unique
requests.

Measurements land in ``BENCH_serving.json`` (path override:
``RED_BENCH_SERVING_JSON``), uploaded as a CI artifact.
``RED_BENCH_QUICK=1`` selects the smoke configuration; the full run
pushes >= 1000 concurrent requests.
"""

from __future__ import annotations

import json
import os
import statistics
import threading
import time

from benchmarks.conftest import emit
from repro.api.schema import SweepRequest
from repro.api.service import RedService
from repro.reliability.failpoints import configured_failpoints
from repro.reliability.policy import RetryPolicy, no_sleep
from repro.serving.testing import ServerThread
from repro.utils.formatting import render_ascii_table

QUICK = os.environ.get("RED_BENCH_QUICK") == "1"

STRIDES = (1, 2, 4, 8)
#: Designs evaluated per request: one traced + one baseline per stride.
JOBS_PER_REQUEST = 2 * len(STRIDES)
#: Requests pushed through the warm tier (the ISSUE-10 floor is
#: >= 1000 concurrent requests in full mode).
REQUESTS = 120 if QUICK else 1000
#: Concurrent client threads (each owns one keep-alive connection).
CLIENTS = 8 if QUICK else 16
NUM_SHARDS = 2
#: Distinct payloads in the warm working set.
POOL = 8
#: Served warm-tier jobs/s must stay at or above this fraction of the
#: in-process rate on unique requests.
THROUGHPUT_FLOOR = 0.5
#: In-process loop length: unique requests, then as many pool repeats.
REFERENCE_LOOP = 40 if QUICK else 200
#: Cold-row traffic: every request unique, so each crosses a shard.
COLD_REQUESTS = 32 if QUICK else 128
#: Chaos traffic: unique requests, smaller because every crash costs a
#: shard respawn.
CHAOS_REQUESTS = 32 if QUICK else 128
#: First request index of the in-process unique loop: past the pool,
#: cold and chaos indices, so no other row sends its requests.
UNIQUE_BASE = POOL + COLD_REQUESTS + CHAOS_REQUESTS
CHAOS_SPEC = (
    "serving.shard_call:crash@0.1;"
    "serving.accept:io_error@0.05;"
    "serving.merge:io_error@0.05"
)
#: Generous attempts, no real sleeping — chaos rounds retry a lot.
LENIENT = RetryPolicy(max_attempts=10, base_delay_s=0.0, sleeper=no_sleep)

JSON_PATH = os.environ.get("RED_BENCH_SERVING_JSON", "BENCH_serving.json")


def _request(index: int) -> SweepRequest:
    """A distinct sweep per index (channels vary, shapes stay hot)."""
    return SweepRequest(strides=STRIDES, channels=32 + index)


def _digest(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def _references(requests):
    """Fault-free in-process digest per request (the byte oracle)."""
    service = RedService()
    try:
        return [_digest(service.sweep(request)) for request in requests]
    finally:
        service.close()


def _drive(plane, requests, expected, threads):
    """Fire one call per request concurrently; every answer is checked
    against its expected digest.  Returns ``(wall_s, latencies)``."""
    latencies: list[float] = []
    mismatches: list[int] = []
    lock = threading.Lock()
    counter = iter(range(len(requests)))
    start = threading.Barrier(threads + 1)

    def worker() -> None:
        start.wait()
        with plane.client(timeout=120.0) as client:
            while True:
                with lock:
                    index = next(counter, None)
                if index is None:
                    return
                t_0 = time.perf_counter()
                result = client.call_with_retry(
                    requests[index], retry_policy=LENIENT
                )
                elapsed = time.perf_counter() - t_0
                ok = _digest(result) == expected[index]
                with lock:
                    latencies.append(elapsed)
                    if not ok:
                        mismatches.append(index)

    pool = [threading.Thread(target=worker) for _ in range(threads)]
    for thread in pool:
        thread.start()
    start.wait()
    t_start = time.perf_counter()
    for thread in pool:
        thread.join()
    wall = time.perf_counter() - t_start
    assert not mismatches, (
        f"{len(mismatches)} served answers diverged from the in-process "
        f"reference (first at request {mismatches[0]})"
    )
    return wall, latencies


def test_serving_plane_throughput_and_chaos():
    pool_requests = [_request(i) for i in range(POOL)]

    with configured_failpoints(None):
        pool_digests = _references(pool_requests)

        # --- in-process: unique requests (the reference), then repeats -
        unique_requests = [_request(UNIQUE_BASE + i) for i in range(REFERENCE_LOOP)]
        service = RedService()
        try:
            for request in pool_requests:
                service.sweep(request)  # untimed warm-up
            t_start = time.perf_counter()
            for request in unique_requests:
                service.sweep(request)
            t_unique = time.perf_counter() - t_start
            t_start = time.perf_counter()
            for i in range(REFERENCE_LOOP):
                service.sweep(pool_requests[i % POOL])
            t_repeats = time.perf_counter() - t_start
        finally:
            service.close()
        inprocess_rate = REFERENCE_LOOP / t_unique
        repeat_rate = REFERENCE_LOOP / t_repeats

        # --- served: warm tier (gated), then cold shard path ----------
        warm_requests = [pool_requests[i % POOL] for i in range(REQUESTS)]
        warm_digests = [pool_digests[i % POOL] for i in range(REQUESTS)]
        cold_requests = [_request(POOL + i) for i in range(COLD_REQUESTS)]
        cold_digests = _references(cold_requests)
        with ServerThread(
            num_shards=NUM_SHARDS, max_inflight=8, max_queue=32
        ) as plane:
            with plane.client(timeout=120.0) as client:
                for request, digest in zip(pool_requests, pool_digests):
                    served = client.call_with_retry(
                        request, retry_policy=LENIENT
                    )
                    assert _digest(served) == digest
            t_warm, latencies = _drive(
                plane, warm_requests, warm_digests, CLIENTS
            )
            t_cold, cold_latencies = _drive(
                plane, cold_requests, cold_digests, CLIENTS
            )
        assert plane.exit_code == 0
        assert len(latencies) == REQUESTS, "a served request went unanswered"
        served_rate = REQUESTS / t_warm
        cold_rate = COLD_REQUESTS / t_cold
        quantiles = statistics.quantiles(latencies, n=100)
        p50, p99 = quantiles[49], quantiles[98]

        chaos_requests = [
            _request(POOL + COLD_REQUESTS + i) for i in range(CHAOS_REQUESTS)
        ]
        chaos_digests = _references(chaos_requests)

    # --- served under chaos -------------------------------------------
    with configured_failpoints(CHAOS_SPEC, seed=11):
        with ServerThread(num_shards=NUM_SHARDS, respawn_budget=16) as plane:
            t_chaos, chaos_latencies = _drive(
                plane, chaos_requests, chaos_digests, CLIENTS
            )
        assert plane.exit_code == 0
    assert len(chaos_latencies) == CHAOS_REQUESTS, (
        "a request under chaos went unanswered"
    )

    ratio = served_rate / inprocess_rate
    warm_like = served_rate / repeat_rate
    cold_like = cold_rate / inprocess_rate
    rows = [
        (
            "in-process, unique requests (1 thread)",
            f"{1e3 / inprocess_rate:.2f}",
            "-",
            f"{inprocess_rate * JOBS_PER_REQUEST:.0f}",
            "1.000x",
            "-",
        ),
        (
            f"in-process, repeats of the {POOL}-request pool",
            f"{1e3 / repeat_rate:.2f}",
            "-",
            f"{repeat_rate * JOBS_PER_REQUEST:.0f}",
            f"{repeat_rate / inprocess_rate:.3f}x",
            "-",
        ),
        (
            f"served warm tier, {CLIENTS} clients x {NUM_SHARDS} shards",
            f"{p50 * 1e3:.2f}",
            f"{p99 * 1e3:.2f}",
            f"{served_rate * JOBS_PER_REQUEST:.0f}",
            f"{ratio:.3f}x",
            f"{warm_like:.3f}x repeats",
        ),
        (
            f"served cold shard path ({COLD_REQUESTS} unique reqs)",
            f"{statistics.median(cold_latencies) * 1e3:.2f}",
            f"{max(cold_latencies) * 1e3:.2f}",
            f"{cold_rate * JOBS_PER_REQUEST:.0f}",
            f"{cold_like:.3f}x",
            f"{cold_like:.3f}x unique",
        ),
        (
            f"served under chaos ({CHAOS_REQUESTS} unique reqs)",
            f"{statistics.median(chaos_latencies) * 1e3:.2f}",
            f"{max(chaos_latencies) * 1e3:.2f}",
            f"{CHAOS_REQUESTS / t_chaos * JOBS_PER_REQUEST:.0f}",
            "byte-identical",
            "-",
        ),
    ]
    emit(
        render_ascii_table(
            (
                "serving route", "p50 (ms)", "p99 (ms)", "jobs/s",
                "vs in-process unique", "like for like",
            ),
            rows,
            title=(
                f"ISSUE-10 serving plane: {REQUESTS} requests, "
                f"floor {THROUGHPUT_FLOOR:.1f}x in-process unique "
                f"(quick={QUICK})"
            ),
        )
    )

    document = {
        "schema": 1,
        "quick": QUICK,
        "requests": REQUESTS,
        "clients": CLIENTS,
        "num_shards": NUM_SHARDS,
        "jobs_per_request": JOBS_PER_REQUEST,
        "inprocess_jobs_per_s": inprocess_rate * JOBS_PER_REQUEST,
        "inprocess_repeat_jobs_per_s": repeat_rate * JOBS_PER_REQUEST,
        "served_warm_jobs_per_s": served_rate * JOBS_PER_REQUEST,
        "served_cold_jobs_per_s": cold_rate * JOBS_PER_REQUEST,
        "throughput_ratio": ratio,
        "throughput_floor": THROUGHPUT_FLOOR,
        "like_for_like": {
            "warm_vs_inprocess_repeats": warm_like,
            "cold_vs_inprocess_unique": cold_like,
        },
        "latency_s": {
            "p50": p50,
            "p99": p99,
            "mean": statistics.fmean(latencies),
            "max": max(latencies),
        },
        "cold_latency_s": {
            "p50": statistics.median(cold_latencies),
            "max": max(cold_latencies),
        },
        "chaos": {
            "requests": CHAOS_REQUESTS,
            "spec": CHAOS_SPEC,
            "answered": len(chaos_latencies),
            "byte_identical": True,
            "duration_s": t_chaos,
        },
        "byte_identical": True,
    }
    with open(JSON_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")

    assert ratio >= THROUGHPUT_FLOOR, (
        f"served warm-tier throughput is {ratio:.3f}x the in-process rate "
        "on unique requests "
        f"(floor {THROUGHPUT_FLOOR:.1f}x)"
    )
