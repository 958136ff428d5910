"""ISSUE-5 acceptance benchmark: the batched cache plane.

PR 4 made the *cold* vectorized analytic plane fast enough
(``BENCH_sweep.json``) that the warm path — serving already-computed
results — became the bottleneck: the legacy per-pickle path paid one
SHA-256 repr-walk, one ``open``/``read`` pair, one ``pickle.loads``
and one ``dataclasses.replace`` *per job*.  This module gates the
rebuilt tier on the same ~10k-job stride-sweep grid
(``bench_sweep_vectorized.build_grid``):

1. **Cold vectorized** (`run_design_jobs`, no cache): the PR-4
   baseline the warm path must beat.
2. **Legacy per-pickle warm**: the faithful pre-ISSUE-5 hot loop —
   per-job :func:`~repro.eval.parallel.job_key`, per-job
   ``read_bytes`` + ``pickle.loads`` on a directory of
   ``<job key>.pkl`` files, unconditional relabel — inlined here
   because that layout survives only as a migration source.
3. **Packed warm** (`run_design_jobs` over a warm
   :class:`~repro.eval.store.PackedSweepStore`): batched
   :func:`~repro.eval.parallel.job_keys` + one ``get_many`` against
   the in-memory LRU hit tier.  Also measured with the tier disabled
   (``memory_entries=0``) to report the mmap/offset-index disk tier on
   its own.
4. **Migrated**: the packed store opened over the legacy
   directory-of-pickles, served through the same batched path.

Gates: packed warm must be **>= 3x** the cold vectorized jobs/s and
**>= 10x** the legacy per-pickle warm path, with cold/warm/migrated
results *byte-identical* (per-element pickle bytes).  Measurements
land in ``BENCH_cache.json`` (path override: ``RED_BENCH_CACHE_JSON``),
uploaded as a CI artifact.  ``RED_BENCH_QUICK=1`` selects the smoke
configuration (smaller grid, lower floors).
"""

from __future__ import annotations

import json
import os
import pickle
import statistics
import time

from benchmarks.bench_sweep_vectorized import build_grid
from benchmarks.conftest import emit
from repro.eval.parallel import job_key, job_keys, run_design_jobs
from repro.eval.store import PackedSweepStore
from repro.utils.formatting import render_ascii_table

QUICK = os.environ.get("RED_BENCH_QUICK") == "1"

COLD_FLOOR = 1.2 if QUICK else 3.0
LEGACY_FLOOR = 3.0 if QUICK else 10.0
REPEATS = 3

JSON_PATH = os.environ.get("RED_BENCH_CACHE_JSON", "BENCH_cache.json")


def _median_time(fn, repeats: int = REPEATS) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _write_legacy(directory, entries) -> None:
    """Write ``(key, payload)`` pairs in the legacy one-pickle-per-key layout."""
    directory.mkdir(parents=True, exist_ok=True)
    for key, value in entries:
        (directory / f"{key}.pkl").write_bytes(
            pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
        )


def _legacy_warm_sweep(jobs, directory):
    """The pre-ISSUE-5 warm hot loop, verbatim.

    One scalar ``job_key`` (SHA-256 over the full repr-walk), one
    ``read_bytes``, one ``pickle.loads`` and one unconditional
    ``dataclasses.replace`` relabel *per job* — exactly what
    ``run_design_jobs`` used to do per cache hit.
    """
    from dataclasses import replace

    results = []
    for job in jobs:
        value = pickle.loads((directory / f"{job_key(job)}.pkl").read_bytes())
        results.append(replace(value, layer=job.layer_name))
    return results


def _digest(results) -> list[bytes]:
    """Per-element pickles (list-level pickling memoizes shared objects)."""
    return [pickle.dumps(m, protocol=pickle.HIGHEST_PROTOCOL) for m in results]


def test_cache_plane_speedup(tmp_path):
    jobs = build_grid()

    # --- route 1: cold vectorized (the PR-4 plane, no cache) ----------
    cold_results = run_design_jobs(jobs)
    t_cold = _median_time(lambda: run_design_jobs(jobs))

    # --- route 2: legacy per-pickle warm ------------------------------
    # Populate the directory-of-pickles: one file per unique key, holding
    # the result of the key's first job (what the legacy writer stored).
    legacy = tmp_path / "legacy"
    first_by_key = {}
    for key, metrics in zip(job_keys(jobs), cold_results):
        first_by_key.setdefault(key, metrics)
    _write_legacy(legacy, first_by_key.items())
    legacy_results = _legacy_warm_sweep(jobs, legacy)
    t_legacy = _median_time(lambda: _legacy_warm_sweep(jobs, legacy))

    # --- route 3: packed warm (memory tier + disk tier) ---------------
    store = PackedSweepStore(tmp_path / "packed")
    run_design_jobs(jobs, cache=store)  # populate segments + LRU tier
    warm_results = run_design_jobs(jobs, cache=store)
    assert store.misses == len(jobs)  # only the populate run missed
    t_warm = _median_time(lambda: run_design_jobs(jobs, cache=store))

    disk_store = PackedSweepStore(tmp_path / "packed", memory_entries=0)
    t_disk = _median_time(lambda: run_design_jobs(jobs, cache=disk_store))

    # --- route 4: migrated legacy directory through the packed store --
    migration_start = time.perf_counter()
    migrated_store = PackedSweepStore(tmp_path / "legacy")
    t_migration = time.perf_counter() - migration_start
    assert migrated_store.migrated == len({job_key(job) for job in jobs})
    migrated_results = run_design_jobs(jobs, cache=migrated_store)
    assert migrated_store.misses == 0

    # Correctness gate: every route serves byte-identical metrics.
    digest_cold = _digest(cold_results)
    assert digest_cold == _digest(warm_results), (
        "packed warm path diverged from the cold vectorized results"
    )
    assert digest_cold == _digest(migrated_results), (
        "migrated legacy entries diverged from the cold vectorized results"
    )
    assert digest_cold == _digest(legacy_results), (
        "legacy per-pickle warm path diverged from the cold results"
    )

    speedup_cold = t_cold / t_warm
    speedup_legacy = t_legacy / t_warm
    rows = [
        (
            "cold vectorized (no cache)",
            f"{t_cold * 1e3:.1f}",
            f"{len(jobs) / t_cold:.0f}",
            "1.00x",
        ),
        (
            "legacy per-pickle warm",
            f"{t_legacy * 1e3:.1f}",
            f"{len(jobs) / t_legacy:.0f}",
            f"{t_cold / t_legacy:.2f}x",
        ),
        (
            "packed warm, disk tier (mmap)",
            f"{t_disk * 1e3:.1f}",
            f"{len(jobs) / t_disk:.0f}",
            f"{t_cold / t_disk:.2f}x",
        ),
        (
            "packed warm, memory tier (LRU)",
            f"{t_warm * 1e3:.1f}",
            f"{len(jobs) / t_warm:.0f}",
            f"{speedup_cold:.2f}x",
        ),
    ]
    emit(
        render_ascii_table(
            ("cache route", "wall-clock (ms)", "jobs/s", "vs cold"),
            rows,
            title=(
                f"ISSUE-5 cache plane: {len(jobs)} jobs, "
                f"{len(store)} unique entries (quick={QUICK})"
            ),
        )
    )

    document = {
        "schema": 1,
        "quick": QUICK,
        "jobs": len(jobs),
        "unique_entries": len(store),
        "cold_vectorized_s": t_cold,
        "legacy_warm_s": t_legacy,
        "packed_warm_memory_s": t_warm,
        "packed_warm_disk_s": t_disk,
        "legacy_migration_s": t_migration,
        "jobs_per_s": {
            "cold_vectorized": len(jobs) / t_cold,
            "legacy_warm": len(jobs) / t_legacy,
            "packed_warm_memory": len(jobs) / t_warm,
            "packed_warm_disk": len(jobs) / t_disk,
        },
        "speedup_vs_cold": speedup_cold,
        "speedup_vs_legacy": speedup_legacy,
        "byte_identical": True,
        "store": migrated_store.stats() | {"warm_stats": store.stats()},
        "floors": {"cold": COLD_FLOOR, "legacy": LEGACY_FLOOR},
    }
    with open(JSON_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")

    assert speedup_cold >= COLD_FLOOR, (
        f"packed warm path only {speedup_cold:.2f}x the cold vectorized "
        f"route (floor {COLD_FLOOR}x); cold={t_cold:.3f}s warm={t_warm:.3f}s"
    )
    assert speedup_legacy >= LEGACY_FLOOR, (
        f"packed warm path only {speedup_legacy:.2f}x the legacy "
        f"per-pickle warm path (floor {LEGACY_FLOOR}x); "
        f"legacy={t_legacy:.3f}s warm={t_warm:.3f}s"
    )
