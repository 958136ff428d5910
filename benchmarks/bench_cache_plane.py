"""ISSUE-5 acceptance benchmark: the batched cache plane.

PR 4 made the *cold* vectorized analytic plane fast enough
(``BENCH_sweep.json``) that the warm path — serving already-computed
results — became the bottleneck.  This module gates both tiers of the
:class:`~repro.eval.store.PackedSweepStore`:

1. **Memory tier** on the ~10k-job stride-sweep grid
   (``bench_sweep_vectorized.build_grid``): cold through the vectorized
   plane (`run_design_jobs`, no cache) against a warm store
   (batched :func:`~repro.eval.parallel.metrics_keys` value keys + one
   ``get_many`` against the in-memory LRU hit tier).  Gate: the warm
   path must be **>= 3x** the cold jobs/s, with byte-identical results.
2. **Disk tier**, per kind the store writes to disk (analytic metrics
   stay in the memory tier, because they recompute faster than a disk
   read decodes them): a warm read through a reopened store with the
   memory tier disabled (``memory_entries=0``) against recomputing the
   same results with no store.
   - *fidelity*: a grid of Monte-Carlo samples
     (:func:`build_fidelity_grid`), recomputed by the batched sampler;
   - *cycles*: the six Table-I RED layers, recomputed after
     :func:`~repro.sim.compiler.clear_compiled_schedules` (a warm
     schedule LRU makes the recompute cheaper than any store read, so
     the gate times what a new process pays).

   Gate: each warm disk read is **>= 5x** faster than its recompute
   (``DISK_READ_FLOOR``), with disk reads byte-identical to the cold
   results.

Measurements land in ``BENCH_cache.json`` (path override:
``RED_BENCH_CACHE_JSON``), uploaded as a CI artifact.
``RED_BENCH_QUICK=1`` selects the smoke configuration (smaller grids,
lower memory-tier floor).
"""

from __future__ import annotations

import json
import os
import pickle
import statistics
import time

from benchmarks.bench_sweep_vectorized import build_grid
from benchmarks.conftest import emit
from repro.api.registry import available_designs
from repro.arch.tech import default_tech
from repro.eval.parallel import (
    DesignJob,
    FidelityJob,
    run_cycle_jobs,
    run_design_jobs,
    run_fidelity_jobs,
)
from repro.eval.store import PackedSweepStore
from repro.sim.compiler import clear_compiled_schedules
from repro.utils.formatting import render_ascii_table
from repro.workloads.specs import TABLE_I_LAYERS

QUICK = os.environ.get("RED_BENCH_QUICK") == "1"

COLD_FLOOR = 1.2 if QUICK else 3.0
DISK_READ_FLOOR = 5.0
REPEATS = 3

#: Fidelity grid axes: Table-I layers x designs x seeds x retention times.
FIDELITY_LAYERS = 2 if QUICK else len(TABLE_I_LAYERS)
FIDELITY_SEEDS = 8 if QUICK else 16
FIDELITY_TIMES = (1.0, 3600.0, 86400.0) if QUICK else (1.0, 3600.0, 86400.0, 2.6e6, 3.2e7)

JSON_PATH = os.environ.get("RED_BENCH_CACHE_JSON", "BENCH_cache.json")


def build_fidelity_grid() -> list[FidelityJob]:
    """Monte-Carlo samples of every design over the first Table-I layers."""
    tech = default_tech()
    return [
        FidelityJob(design, layer.spec, tech, seed=seed, time_s=time_s,
                    layer_name=layer.name)
        for layer in TABLE_I_LAYERS[:FIDELITY_LAYERS]
        for design in available_designs()
        for seed in range(FIDELITY_SEEDS)
        for time_s in FIDELITY_TIMES
    ]


def _median_time(fn, repeats: int = REPEATS, setup=None) -> float:
    samples = []
    for _ in range(repeats):
        if setup is not None:
            setup()
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _digest(results) -> list[bytes]:
    """Per-element pickles (list-level pickling memoizes shared objects)."""
    return [pickle.dumps(m, protocol=pickle.HIGHEST_PROTOCOL) for m in results]


def _disk_tier(directory, run, jobs, setup=None) -> dict:
    """Recompute vs warm disk read of one persisted kind.

    ``run(jobs, cache=...)`` is the kind's runner; ``setup`` runs before
    each timed recompute.  Asserts the disk reads byte-identical to the
    cold results.
    """
    cold = run(jobs)
    t_recompute = _median_time(lambda: run(jobs), setup=setup)
    with PackedSweepStore(directory) as populate:
        run(jobs, cache=populate)
    disk = PackedSweepStore(directory, memory_entries=0)
    disk_results = run(jobs, cache=disk)
    t_read = _median_time(lambda: run(jobs, cache=disk))
    assert disk.misses == 0, "a warm disk-tier read recomputed"
    assert _digest(disk_results) == _digest(cold), (
        f"disk tier diverged from the cold results ({directory.name})"
    )
    stats = disk.stats()
    disk.close()
    return {
        "jobs": len(jobs),
        "recompute_s": t_recompute,
        "read_s": t_read,
        "read_speedup": t_recompute / t_read,
        "store": stats,
    }


def test_cache_plane_speedup(tmp_path):
    jobs = build_grid()

    # --- memory tier: cold vectorized vs warm store --------------------
    cold_results = run_design_jobs(jobs)
    t_cold = _median_time(lambda: run_design_jobs(jobs))
    store = PackedSweepStore(tmp_path / "packed")
    run_design_jobs(jobs, cache=store)  # populate the LRU tier
    warm_results = run_design_jobs(jobs, cache=store)
    assert store.misses == len(jobs)  # only the populate run missed
    t_warm = _median_time(lambda: run_design_jobs(jobs, cache=store))
    assert _digest(cold_results) == _digest(warm_results), (
        "packed warm path diverged from the cold vectorized results"
    )
    speedup_cold = t_cold / t_warm

    # --- disk tier: every persisted kind, read vs recompute ------------
    red_layers = [
        DesignJob("RED", layer.spec, default_tech(), layer_name=layer.name)
        for layer in TABLE_I_LAYERS
    ]
    disk_tier = {
        "fidelity": _disk_tier(
            tmp_path / "fidelity", run_fidelity_jobs, build_fidelity_grid()
        ),
        "cycles": _disk_tier(
            tmp_path / "cycles", run_cycle_jobs, red_layers,
            setup=clear_compiled_schedules,
        ),
    }

    rows = [
        (
            f"metrics, cold vectorized ({len(jobs)} jobs)",
            f"{t_cold * 1e3:.1f}",
            f"{len(jobs) / t_cold:.0f}",
            "1.00x",
        ),
        (
            "metrics, packed warm memory tier (LRU)",
            f"{t_warm * 1e3:.1f}",
            f"{len(jobs) / t_warm:.0f}",
            f"{speedup_cold:.2f}x",
        ),
    ]
    for kind, row in disk_tier.items():
        rows.append((
            f"{kind}, recompute ({row['jobs']} jobs)",
            f"{row['recompute_s'] * 1e3:.2f}",
            f"{row['jobs'] / row['recompute_s']:.0f}",
            "1.00x",
        ))
        rows.append((
            f"{kind}, warm disk tier (mmap)",
            f"{row['read_s'] * 1e3:.2f}",
            f"{row['jobs'] / row['read_s']:.0f}",
            f"{row['read_speedup']:.2f}x",
        ))
    emit(
        render_ascii_table(
            ("cache route", "wall-clock (ms)", "jobs/s", "vs cold"),
            rows,
            title=f"Cache plane, both tiers (quick={QUICK})",
        )
    )

    document = {
        "schema": 2,
        "quick": QUICK,
        "jobs": len(jobs),
        "unique_entries": store.memory_size(),
        "cold_vectorized_s": t_cold,
        "packed_warm_memory_s": t_warm,
        "jobs_per_s": {
            "cold_vectorized": len(jobs) / t_cold,
            "packed_warm_memory": len(jobs) / t_warm,
        },
        "speedup_vs_cold": speedup_cold,
        "disk_tier": disk_tier,
        "byte_identical": True,
        "store": store.stats(),
        "floors": {"cold": COLD_FLOOR, "disk_read": DISK_READ_FLOOR},
    }
    with open(JSON_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")

    assert speedup_cold >= COLD_FLOOR, (
        f"packed warm path only {speedup_cold:.2f}x the cold vectorized "
        f"route (floor {COLD_FLOOR}x); cold={t_cold:.3f}s warm={t_warm:.3f}s"
    )
    for kind, row in disk_tier.items():
        assert row["read_speedup"] >= DISK_READ_FLOOR, (
            f"a warm {kind} disk read is only {row['read_speedup']:.2f}x its "
            f"recompute (floor {DISK_READ_FLOOR}x): persisting {kind} no longer pays"
        )
