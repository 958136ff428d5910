"""ISSUE-8 acceptance benchmark: the resilience plane's overhead budget.

The failpoint hooks (:mod:`repro.reliability.failpoints`) sit on the
hottest substrate paths — every store publish and every store read
goes through ``check``/``inject``/``corrupted``.  The
contract that made that acceptable is that *disarmed* hooks are a
dictionary miss and nothing more.  This module gates that contract on
the fidelity grid the cache plane's disk tier uses
(``bench_cache_plane.build_fidelity_grid``; fidelity samples are a
kind the store writes to disk, analytic metrics are not), measured on
the route where the hooks actually fire per entry: warm **disk-tier**
reads (``memory_entries=0``), where ``corrupted()`` runs once per key
ahead of every ``pickle.loads`` (memory-tier hits bypass the hook by
construction, so timing them would gate nothing).

1. **Hooks bypassed** (``failpoints.hooks_bypassed()``): the hook
   call-sites rebound to no-ops — the closest measurable stand-in for
   a build with no resilience plane at all.
2. **Hooks disarmed** (the shipped default): hooks live, no failpoint
   configured.  Gate: at most **2%** slower than the bypassed baseline
   (``OVERHEAD_CEILING``), estimated as the *median of interleaved
   paired ratios* — individual samples on a shared CI box swing tens
   of percent, but the paired median is stable to a few tenths.  A
   contention epoch can still bias a whole round, so up to ``ROUNDS``
   rounds run and the first one within the ceiling passes (a genuine
   hook regression inflates every round).
3. **Chaos recovery** (informational, not time-gated): a slice of the
   fidelity grid, cold then reopened through a packed store under an
   armed ``store.put_many:io_error;store.get_many:corrupt`` matrix,
   must still produce *byte-identical* results — the headline
   invariant of ``tests/reliability/`` measured at benchmark scale.

Measurements land in ``BENCH_resilience.json`` (path override:
``RED_BENCH_RESILIENCE_JSON``), uploaded as a CI artifact.
``RED_BENCH_QUICK=1`` selects the smoke configuration.
"""

from __future__ import annotations

import json
import os
import pickle
import statistics
import time

from benchmarks.bench_cache_plane import build_fidelity_grid
from benchmarks.conftest import emit
from repro.eval.parallel import run_fidelity_jobs
from repro.eval.store import PackedSweepStore
from repro.reliability import failpoints
from repro.reliability.failpoints import configured_failpoints
from repro.reliability.policy import RetryPolicy, no_sleep
from repro.utils.formatting import render_ascii_table

QUICK = os.environ.get("RED_BENCH_QUICK") == "1"

#: Disarmed hooks may cost at most this fraction over the bypassed
#: baseline on the warm disk-tier route (the ISSUE-8 acceptance gate).
OVERHEAD_CEILING = 0.02
#: Interleaved (bypassed, disarmed) sample pairs per measurement round;
#: the gate reads the median ratio so a majority of pairs would have to
#: be skewed the same way for noise to flip the verdict.
PAIRS = 9
#: Measurement rounds: contention epochs on a shared box can bias one
#: whole round, so the gate accepts the first round within the ceiling
#: and only fails when every round exceeds it.
ROUNDS = 4
#: Warm sweeps per timed sample — sized so each timed leg runs long
#: enough (~200 ms+) that scheduler jitter cannot swamp a 2% signal.
LOOP = 100 if QUICK else 10
#: Chaos slice: the informational recovery row runs on a bounded
#: prefix of the grid.
CHAOS_JOBS = 60 if QUICK else 240
CHAOS_SPEC = "store.put_many:io_error@0.3;store.get_many:corrupt@0.3"

JSON_PATH = os.environ.get("RED_BENCH_RESILIENCE_JSON", "BENCH_resilience.json")


def _digest(results) -> list[bytes]:
    """Per-element pickles (list-level pickling memoizes shared objects)."""
    return [pickle.dumps(m, protocol=pickle.HIGHEST_PROTOCOL) for m in results]


def test_disarmed_hooks_within_overhead_budget(tmp_path):
    jobs = build_fidelity_grid()

    with configured_failpoints(None):
        populate = PackedSweepStore(tmp_path / "grid")
        baseline_results = run_fidelity_jobs(jobs, cache=populate)
        # Disk tier only: every read re-enters corrupted() + unpickle,
        # which is exactly the per-entry surface the hooks add to.
        disk = PackedSweepStore(tmp_path / "grid", memory_entries=0)

        def warm_sweep():
            for _ in range(LOOP):
                results = run_fidelity_jobs(jobs, cache=disk)
            return results

        warm_sweep()  # untimed: page cache, mmaps, compiled schedules
        with failpoints.hooks_bypassed():
            bypassed_results = warm_sweep()
        disarmed_results = warm_sweep()

        assert _digest(disarmed_results) == _digest(baseline_results), (
            "disarmed hooks changed the served samples"
        )
        assert _digest(bypassed_results) == _digest(baseline_results), (
            "bypassed hooks changed the served samples"
        )
        assert disk.misses == 0, "a warm disk-tier read recomputed"

        def timed_bypassed():
            with failpoints.hooks_bypassed():
                start = time.perf_counter()
                warm_sweep()
                return time.perf_counter() - start

        def timed_disarmed():
            start = time.perf_counter()
            warm_sweep()
            return time.perf_counter() - start

        def measure_round():
            """Median of interleaved paired ratios, alternating order.

            Alternating which route runs first cancels monotonic drift
            (thermal, frequency scaling) instead of always penalizing
            the second leg of a pair.
            """
            ratios = []
            bypassed_times = []
            disarmed_times = []
            for pair in range(PAIRS):
                if pair % 2 == 0:
                    t_bypassed = timed_bypassed()
                    t_disarmed = timed_disarmed()
                else:
                    t_disarmed = timed_disarmed()
                    t_bypassed = timed_bypassed()
                bypassed_times.append(t_bypassed)
                disarmed_times.append(t_disarmed)
                ratios.append(t_disarmed / t_bypassed)
            return statistics.median(ratios) - 1.0, bypassed_times, disarmed_times

        # A shared CI box sees multi-second contention epochs that can
        # bias an entire measurement round by +-10%, far above the 2%
        # signal.  A true hook regression inflates *every* round, so the
        # gate passes on the first clean round and only fails when all
        # rounds exceed the ceiling.
        round_overheads = []
        bypassed_samples = []
        disarmed_samples = []
        for _ in range(ROUNDS):
            overhead, bypassed_times, disarmed_times = measure_round()
            round_overheads.append(overhead)
            bypassed_samples.extend(bypassed_times)
            disarmed_samples.extend(disarmed_times)
            if overhead <= OVERHEAD_CEILING:
                break
        overhead = min(round_overheads)
        t_bypassed = min(bypassed_samples) / LOOP
        t_disarmed = min(disarmed_samples) / LOOP

        # --- informational chaos-recovery row -------------------------
        chaos_jobs = jobs[:CHAOS_JOBS]
        fault_free = run_fidelity_jobs(chaos_jobs)
        t_start = time.perf_counter()
        run_fidelity_jobs(chaos_jobs)
        t_clean = time.perf_counter() - t_start
        store_policy = RetryPolicy(max_attempts=4, sleeper=no_sleep)
        with configured_failpoints(CHAOS_SPEC, seed=0):
            t_start = time.perf_counter()
            cold_store = PackedSweepStore(tmp_path / "chaos", retry_policy=store_policy)
            chaos_cold = run_fidelity_jobs(chaos_jobs, cache=cold_store)
            cold_store.close()
            store = PackedSweepStore(tmp_path / "chaos", retry_policy=store_policy)
            chaos_results = run_fidelity_jobs(chaos_jobs, cache=store)
            t_chaos = time.perf_counter() - t_start
        assert _digest(chaos_cold) == _digest(fault_free), (
            "cold chaos run diverged from the fault-free results"
        )
        assert _digest(chaos_results) == _digest(fault_free), (
            "chaos run diverged from the fault-free results"
        )

    rows = [
        (
            "hooks bypassed (no-op rebind)",
            f"{t_bypassed * 1e3:.1f}",
            f"{len(jobs) / t_bypassed:.0f}",
            "1.000x",
        ),
        (
            "hooks disarmed (shipped default)",
            f"{t_disarmed * 1e3:.1f}",
            f"{len(jobs) / t_disarmed:.0f}",
            f"{1.0 + overhead:.3f}x (paired median)",
        ),
        (
            f"chaos matrix, {len(chaos_jobs)} fidelity jobs, cold + reopened",
            f"{t_chaos * 1e3:.1f}",
            f"{2 * len(chaos_jobs) / t_chaos:.0f}",
            f"{t_chaos / t_clean:.3f}x vs one clean pass",
        ),
    ]
    emit(
        render_ascii_table(
            ("resilience route", "wall-clock (ms)", "jobs/s", "ratio"),
            rows,
            title=(
                f"Resilience plane: {len(jobs)} fidelity jobs warm disk tier, "
                f"overhead {overhead * 100:+.2f}% "
                f"(ceiling {OVERHEAD_CEILING * 100:.0f}%, quick={QUICK})"
            ),
        )
    )

    document = {
        "schema": 2,
        "quick": QUICK,
        "kind": "fidelity",
        "jobs": len(jobs),
        "pairs": PAIRS,
        "loop": LOOP,
        "rounds": len(round_overheads),
        "bypassed_s": t_bypassed,
        "disarmed_s": t_disarmed,
        "overhead_fraction": overhead,
        "overhead_ceiling": OVERHEAD_CEILING,
        "round_overheads": round_overheads,
        "jobs_per_s": {
            "bypassed": len(jobs) / t_bypassed,
            "disarmed": len(jobs) / t_disarmed,
        },
        "chaos": {
            "jobs": len(chaos_jobs),
            "spec": CHAOS_SPEC,
            "recovery_s": t_chaos,
            "clean_s": t_clean,
            "byte_identical": True,
            "store": store.stats(),
        },
        "byte_identical": True,
    }
    with open(JSON_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")

    assert overhead <= OVERHEAD_CEILING, (
        f"disarmed failpoint hooks cost {overhead * 100:.2f}% over the "
        f"bypassed baseline (ceiling {OVERHEAD_CEILING * 100:.0f}%)"
    )
