"""Append one row to the committed performance ledger.

Usage, from the repository root (``make ledger``)::

    python3 benchmarks/ledger.py

Runs the three repo-benchmark workloads (``perfbench/run.py --seed 1
--seconds 20 --trace 0``), then ``make bench-smoke``, and appends one
JSON line to ``benchmarks/history/quick.jsonl``:

* ``commit`` (``git rev-parse HEAD``) and ``dirty`` (tracked files
  differ from it);
* ``nproc``, ``python`` and ``numpy``: the host and toolchain;
* ``perfbench``: each workload's result line (its last line of output);
* ``gates``: the gated numbers of every ``BENCH_*.json`` bench-smoke
  writes, with their floors or ceilings.

Rows measured on different hosts do not compare; within one host, the
ledger is the per-commit trajectory.  A run whose answers fail a check,
or whose bench-smoke fails, appends nothing.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
LEDGER = ROOT / "benchmarks" / "history" / "quick.jsonl"
WORKLOADS = ("interactive", "served", "bulk")
PERFBENCH_ARGS = ("--seed", "1", "--seconds", "20", "--trace", "0")

#: Per bench-smoke output file, the dotted keys of its gated numbers.
GATES = {
    "BENCH_cycle_engine.json": (
        "compile.speedup", "compile.floor",
        "fused.speedup", "fused.floor", "fused.float32_speedup",
        "fused.bit_identical_float64",
    ),
    "BENCH_sweep.json": (
        "speedup_vs_scalar", "floors.scalar", "jobs_per_s_vectorized", "bit_identical",
    ),
    "BENCH_cache.json": (
        "speedup_vs_cold", "floors.cold",
        "jobs_per_s.cold_vectorized", "jobs_per_s.packed_warm_memory",
        "disk_tier.fidelity.read_speedup", "disk_tier.cycles.read_speedup",
        "floors.disk_read", "byte_identical",
    ),
    "BENCH_device.json": (
        "speedup_vs_scalar", "floors.batched", "samples_per_s.batched", "bit_identical",
    ),
    "BENCH_resilience.json": (
        "overhead_fraction", "overhead_ceiling", "byte_identical", "chaos.byte_identical",
    ),
    "BENCH_serving.json": (
        "throughput_ratio", "throughput_floor", "served_cold_jobs_per_s",
        "served_warm_jobs_per_s", "inprocess_jobs_per_s", "byte_identical",
    ),
}


def _git(*args: str) -> str:
    return subprocess.run(
        ("git", *args), cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def _perfbench(workload: str) -> dict:
    """One workload's result line; exits when its answers fail a check."""
    run = subprocess.run(
        (sys.executable, "perfbench/run.py", "--workload", workload, *PERFBENCH_ARGS),
        cwd=ROOT, check=True, capture_output=True, text=True,
    )
    result = json.loads(run.stdout.splitlines()[-1])
    if result["correct"] is not True or result["failed"]:
        sys.exit(f"ledger: {workload} is not correct with 0 failed; no row written")
    return result


def _dotted(data: dict, key: str):
    for part in key.split("."):
        data = data[part]
    return data


def _gates() -> dict:
    """Run bench-smoke on fresh output files and read their gated numbers."""
    for name in GATES:
        (ROOT / name).unlink(missing_ok=True)
    subprocess.run(("make", "bench-smoke"), cwd=ROOT, check=True)
    gates = {}
    for name, keys in GATES.items():
        data = json.loads((ROOT / name).read_text(encoding="utf-8"))
        gates[name] = {key: _dotted(data, key) for key in keys}
    return gates


def main() -> None:
    row = {
        "commit": _git("rev-parse", "HEAD"),
        "dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "perfbench": {workload: _perfbench(workload) for workload in WORKLOADS},
        "gates": _gates(),
    }
    LEDGER.parent.mkdir(parents=True, exist_ok=True)
    with LEDGER.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(row, sort_keys=True) + "\n")
    print(f"ledger: appended {row['commit'][:12]} to {LEDGER.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
