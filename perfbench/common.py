"""Plumbing shared by every workload: paths, statistics, /proc, run record."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Root of the checkout the benchmark runs in (the parent of this package).
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Scratch space for stores, span files and run results (gitignored).
WORK = ROOT / ".perfbench-work"

#: Fresh processes timed per run for ``setup_s``; the median is reported.
SETUP_PROBES = 9


def child_env() -> dict:
    """Environment for processes the benchmark starts from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    return env


def fresh_dir(name: str) -> Path:
    """An empty directory under :data:`WORK` (any previous one is removed)."""
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values) -> float:
    return statistics.median(values) if values else float("nan")


def tail_percentile(count: int) -> float | None:
    """The highest of p99.9/p99/p95/p90 with >= 10 samples beyond it."""
    for q in (99.9, 99.0, 95.0, 90.0):
        if count * (100.0 - q) / 100.0 >= 10:
            return q
    return None


class Report:
    """Metrics of one run: value, unit and sample count, in print order."""

    def __init__(self) -> None:
        self.metrics: dict[str, tuple[float, str, int]] = {}
        self.attempted = 0
        self.failed = 0
        #: check name -> [times passed, times failed, latest detail]
        self.checks: dict[str, list] = {}

    def add(self, name: str, value: float, unit: str, samples: int = 1) -> None:
        self.metrics[name] = (float(value), unit, int(samples))

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        entry = self.checks.setdefault(name, [0, 0, ""])
        entry[0 if ok else 1] += 1
        if detail and (not ok or not entry[1]):
            entry[2] = detail

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not any(failed for _, failed, _ in self.checks.values())

    def print_table(self, title: str) -> None:
        print(f"== {title}")
        for name, (value, unit, samples) in self.metrics.items():
            print(f"  {name:40s} {value:14.6g} {unit:10s} n={samples}")
        for name, (passed, failed, detail) in self.checks.items():
            verdict = f"FAILED {failed} of {passed + failed}" if failed else f"ok x{passed}"
            print(f"  check {name:40s} {verdict:14s} {detail}")
        fraction = self.failed / self.attempted if self.attempted else 0.0
        print(
            f"  failed_fraction {fraction:.6g} "
            f"({self.failed} failed of {self.attempted} attempted)"
        )

    def result_line(self, manifest, positive: bool) -> str:
        """The final JSON line: every ``(name, unit)`` of ``manifest``.

        Raises ``ValueError`` when a metric was not measured, was measured
        in another unit, is not finite, or (with ``positive``) is not
        above 0: a run that cannot report its manifest prints no result.
        """
        metrics = {}
        for name, unit in manifest:
            if name not in self.metrics:
                raise ValueError(f"metric {name} was not measured")
            value, measured_unit, _ = self.metrics[name]
            if measured_unit != unit:
                raise ValueError(f"metric {name} is in {measured_unit}, the manifest says {unit}")
            if not math.isfinite(value) or (positive and value <= 0.0):
                raise ValueError(f"metric {name} = {value}")
            metrics[name] = {"value": value, "unit": unit}
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": max(1, self.attempted),
                "failed": self.failed,
                "metrics": metrics,
            }
        )


# ----------------------------------------------------------------------
# /proc readers (Linux)
# ----------------------------------------------------------------------
def peak_rss_mb(pid="self") -> float:
    """Peak resident set (``VmHWM``) of one process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def cpu_seconds(pid="self") -> float:
    """User + system CPU time of one process, in seconds."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def child_pids(pid: int) -> list[int]:
    """Direct children of ``pid`` (all threads)."""
    children: list[int] = []
    for task in Path(f"/proc/{pid}/task").iterdir():
        text = (task / "children").read_text(encoding="ascii")
        children.extend(int(token) for token in text.split())
    return sorted(set(children))


def pid_alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state != "Z"


# ----------------------------------------------------------------------
# Set-up probes
# ----------------------------------------------------------------------
def probe_setup(workload: str, count: int = SETUP_PROBES) -> list[float]:
    """Seconds from process start to a constructed service, per fresh process.

    Each probe is a new interpreter (``perfbench.probe``) that imports
    the program and builds what ``workload`` builds before its first
    timed operation, then reports ready on stdout.
    """
    times = []
    for index in range(count):
        store = fresh_dir(f"probe-{index}")
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.probe", workload, str(store)],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if code != 0 or line != "ready":
            raise RuntimeError(f"set-up probe for {workload} failed: {line!r}")
        times.append(elapsed)
        shutil.rmtree(store, ignore_errors=True)
    return times


# ----------------------------------------------------------------------
# Run record
# ----------------------------------------------------------------------
def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree (read, not run)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="ascii").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="ascii").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="ascii").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _src_digest() -> str:
    """SHA-256 over the program sources, identifying the code measured."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_record(workload: str, seed: int, seconds: int, trace: bool, topology: dict) -> dict:
    """What a number needs beside it to be compared with another one."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": _git_commit(),
        "src_sha256": _src_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "topology": topology,
    }
