"""The three workloads: what each measures, checks and prints.

Why each exists (the layer it puts in front):

* ``interactive`` -- in-process ``RedService()`` and one caller sending
  small requests.  Per-call fixed cost (registry lookups, grouping, one
  ``perf_batch`` hook and one ``evaluate_perf_batch`` per group,
  ``polyfit``) dominates; the store and serving layers do nothing.
* ``served`` -- the same stream over HTTP to ``repro serve``.  It adds
  the codec, admission, the response cache, the per-job ring scatter and
  the shard pipes; repeats from a recent window give the cache real hits.
* ``bulk`` -- large in-process batches through a ``PackedSweepStore``
  (cold, reopened, memory tier) and the paper pass (traced Table-I
  layers, fidelity frontiers, four networks).  Arithmetic, keying and
  store I/O dominate; a per-call-overhead fix must leave it flat.

Every workload reports the same end-to-end metrics over its own unit of
work, an operation: one request for ``interactive`` and ``served``, one
bulk round (the grid cold, from disk, from memory, then the paper pass)
for ``bulk``.  The result line carries the ones ``BENCHMARK.json``
gates; the others, and the metrics only some workloads have (tail
latency, the grid tiers, the paper pass), are printed above it.

A traced run (``--trace 1``) runs the workload untraced for half its
time, then traced with the same seed and topology for the other half;
the per-layer metrics come from the traced pass and the difference
between the two passes is printed as the tracing overhead.
"""

from __future__ import annotations

import json
import shutil
from collections import Counter
from time import perf_counter

from perfbench import inproc, layers, served
from perfbench.checks import paper_checks
from perfbench.common import (
    SETUP_PROBES,
    WORK,
    Report,
    fresh_dir,
    median,
    peak_rss_mb,
    percentile,
    probe_setup,
    tail_percentile,
)
from perfbench.stream import Tally
from perfbench.tracing import Tracer
from repro.api.service import RedService

TOPOLOGY = {
    "interactive": {"process": "in-process RedService()", "callers": 1, "store": None},
    "served": served.TOPOLOGY,
    "bulk": {"process": "in-process", "callers": 1, "store": "fresh PackedSweepStore per round"},
}


def _op_metrics(report: Report, op_times_s, wall_s: float, cpu_s: float) -> None:
    """The end-to-end metrics every workload shares, over its operations."""
    count = len(op_times_s)
    report.add("ops_per_s", count / wall_s, "ops/s", count)
    report.add("latency_p50_ms", percentile(op_times_s, 50) * 1e3, "ms", count)
    report.add("cpu_ms_per_op", cpu_s / count * 1e3, "ms", count)


def _request_metrics(report: Report, latencies_s, wall_s: float, cpu_s: float) -> None:
    """:func:`_op_metrics` of a request stream, plus its tail latency."""
    _op_metrics(report, latencies_s, wall_s, cpu_s)
    report.add("latency_p99_ms", percentile(latencies_s, 99) * 1e3, "ms", len(latencies_s))


def _percentiles(label: str, values_s: list[float]) -> str:
    if not values_s:
        return f"  {label:44s} n=0"
    tail = tail_percentile(len(values_s))
    text = f"  {label:44s} p50 {percentile(values_s, 50) * 1e3:8.3f} ms"
    if tail is not None:
        text += f"  p{tail:g} {percentile(values_s, tail) * 1e3:8.3f} ms"
    return text + f"  n={len(values_s)}"


def _per_layer(report: Report, workload: str, roots, operations: int, counters: dict) -> None:
    """Per-layer metrics over the spans under ``roots`` (warm-up excluded)."""
    values = layers.layer_metrics(layers.under(roots), operations, counters)
    for name, unit, reached_by in layers.PER_LAYER:
        if workload in reached_by:
            report.add(name, values[name], unit, operations)


def _overhead(plain_ops: int, plain_s: float, traced_ops: int, traced_s: float) -> str:
    plain, traced = plain_ops / plain_s, traced_ops / traced_s
    return (f"tracing overhead: ops_per_s {plain:.6g} untraced, {traced:.6g} traced "
            f"({traced / plain - 1.0:+.1%})")


# ----------------------------------------------------------------------
# interactive
# ----------------------------------------------------------------------
def _check_interactive(report: Report, run: dict) -> None:
    report.attempted += len(run["latencies"])
    report.failed += sum(run["errors"].values()) + run["repeat_mismatches"]
    report.check("no request errors", not run["errors"], str(dict(run["errors"])))
    report.check("repeats byte-identical", run["repeat_mismatches"] == 0,
                 f"{run['repeat_mismatches']} mismatches")
    wrong = inproc.oracle_mismatches(run["oracle"])
    report.failed += wrong
    report.check("scalar oracle sample", wrong == 0,
                 f"{len(run['oracle'])} answers, {wrong} differ")


def interactive(seed: int, seconds: int, trace: bool, report: Report) -> list[str]:
    lines = []
    if not trace:
        setups = probe_setup("interactive")
        report.add("setup_s", median(setups), "s", len(setups))
    run = inproc.interactive_pass(seed, seconds / 2 if trace else seconds)
    if not trace:
        _request_metrics(report, run["latencies"], run["wall_s"], run["cpu_s"])
        report.add("peak_rss_mb", peak_rss_mb(), "MB", 1)
    lines += run["tally"].lines()
    _check_interactive(report, run)
    if trace:
        tracer = Tracer("inproc").install()
        traced = inproc.interactive_pass(seed, seconds / 2, tracer)
        tracer.uninstall()
        _check_interactive(report, traced)
        spans = layers.load([tracer.record()])
        counters = {
            "schedule_cache": tracer.header["schedule_cache"],
            "host_cpu_util": traced["cpu_s"] / traced["wall_s"],
        }
        roots = [s for s in spans if s.name == "request"]
        _per_layer(report, "interactive", roots, len(traced["latencies"]), counters)
        lines += traced["tally"].lines(with_time=True)
        lines += layers.breakdown(roots, len(roots))
        lines.append(_overhead(len(run["latencies"]), run["wall_s"],
                               len(traced["latencies"]), traced["wall_s"]))
        _dump(tracer.record())
    return lines


# ----------------------------------------------------------------------
# served
# ----------------------------------------------------------------------
def _check_served(report: Report, run: dict, reference: dict) -> list[str]:
    """Every answer against the in-process one; hit and miss latencies."""
    records = run["records"]
    report.attempted += len(records)
    report.failed += sum(run["errors"].values())
    report.check("no request errors", not run["errors"], str(dict(run["errors"])))
    mismatched = 0
    for item, _, result, _ in records:
        if result is not None:
            mismatched += inproc.canonical(result) != reference[item.body_crc][0]
    report.failed += mismatched
    report.check("served == in-process (canonical JSON)", mismatched == 0,
                 f"{len(records)} answers, {mismatched} differ")
    report.check("SIGTERM drain exits 0, no shard left",
                 run["drain_exit"] == 0 and not run["shards_left"],
                 f"exit {run['drain_exit']}, left {run['shards_left']}")
    predicted = sum(1 for record in records if record[3])
    hits = [latency for _, latency, _, hit in records if hit]
    misses = [(item, latency) for item, latency, _, hit in records if not hit]
    inproc_misses = [reference[item.body_crc][1] for item, _ in misses]
    miss_p50 = percentile([latency for _, latency in misses], 50)
    return [
        f"response-cache hits: {predicted} labelled client-side, "
        f"{run['respcache_hits']} counted by the server",
        "served latency by response-cache outcome (hits compare with nothing in-process):",
        _percentiles("served, cache hits", hits),
        _percentiles("served, cache misses", [latency for _, latency in misses]),
        _percentiles("in-process RedService(), the same misses", inproc_misses),
        f"  served miss p50 / in-process p50 = "
        f"{miss_p50 / percentile(inproc_misses, 50):.2f}x" if misses else "",
    ]


def _cpu_per_request(run: dict) -> str:
    count = len(run["records"]) or 1
    return (
        f"CPU per request: client {run['client_cpu_s'] / count * 1e3:.3f} ms, "
        f"server {run['server_cpu_s'] / count * 1e3:.3f} ms, "
        f"shards {run['shard_cpu_s'] / count * 1e3:.3f} ms"
    )


def _tally(run: dict) -> Tally:
    tally = Tally()
    for item, latency, _, _ in run["records"]:
        tally.add(item, latency)
    return tally


def _reference(runs) -> dict:
    """In-process answer and evaluation time per distinct request body."""
    reference = {}
    with RedService() as service:
        for run in runs:
            for item, _, _, _ in run["records"]:
                if item.body_crc not in reference:
                    start = perf_counter()
                    answer = inproc.call(service, item)
                    elapsed = perf_counter() - start
                    reference[item.body_crc] = (inproc.canonical(answer), elapsed)
    return reference


def _served_oracle(report: Report, runs) -> None:
    sample = []
    for item, _, result, _ in sorted(runs[0]["records"], key=lambda r: r[0].index):
        if result is not None and item.repeat_of is None and item.kind in ("sweep", "evaluate"):
            sample.append((item.kind, item.request, inproc.canonical(result)))
        if len(sample) == inproc.ORACLE_SAMPLE:
            break
    wrong = inproc.oracle_mismatches(sample)
    report.failed += wrong
    report.check("scalar oracle sample", wrong == 0, f"{len(sample)} answers, {wrong} differ")


def served_workload(seed: int, seconds: int, trace: bool, report: Report) -> list[str]:
    lines = []
    setups = []
    if not trace:
        setups, problems = served.probe_setup(SETUP_PROBES - 1)
        report.check("set-up probes drain cleanly", not problems, "; ".join(problems))
    run = served.served_pass(seed, seconds / 2 if trace else seconds)
    runs = [run]
    if not trace:
        setups.append(run["setup_s"])
        report.add("setup_s", median(setups), "s", len(setups))
        # The program's CPU is the server's and its shards'; the
        # generator's ServingClient time is printed separately below.
        _request_metrics(report, [r[1] for r in run["records"]], run["wall_s"],
                         run["server_cpu_s"] + run["shard_cpu_s"])
        report.add("peak_rss_mb", run["peak_rss_mb"], "MB", 1 + served.TOPOLOGY["shards"])
    lines += _tally(run).lines()
    lines.append(_cpu_per_request(run))
    if trace:
        trace_dir = fresh_dir("served-spans")
        tracer = Tracer("client").install()
        traced = served.served_pass(seed, seconds / 2, trace_dir=trace_dir, tracer=tracer)
        tracer.uninstall()
        runs.append(traced)
        records = [tracer.record()] + [
            json.loads(path.read_text(encoding="utf-8"))
            for path in sorted(trace_dir.glob("spans-*.json"))
        ]
        spans = layers.load(records)
        wall = traced["wall_s"]
        server_record = next(r for r in records if r["role"] == "server")
        counters = {
            "respcache_hits": traced["respcache_hits"],
            "respcache_misses": traced["respcache_misses"],
            "shed": traced["shed"],
            "degraded_calls": traced["degraded_calls"],
            "server_cpu_util": traced["server_cpu_s"] / wall,
            "shard_cpu_util": traced["shard_cpu_s"] / wall,
            "host_cpu_util": (traced["client_cpu_s"] + traced["server_cpu_s"]
                              + traced["shard_cpu_s"]) / wall,
            "schedule_cache": server_record["schedule_cache"],
        }
        roots = [s for s in spans if s.name == "request"]
        _per_layer(report, "served", roots, len(traced["records"]), counters)
        lines += _tally(traced).lines(with_time=True)
        lines += layers.breakdown(roots, len(roots))
        unlinked = sum(1 for s in spans if s.parent is None and s.role != "client")
        lines.append(f"server/shard spans outside timed requests (warm-up): {unlinked}")
        lines.append(_overhead(len(run["records"]), run["wall_s"],
                               len(traced["records"]), traced["wall_s"]))
        shutil.rmtree(trace_dir, ignore_errors=True)
        _dump({"processes": records})
    reference = _reference(runs)
    for one in runs:
        lines += _check_served(report, one, reference)
    _served_oracle(report, runs)
    return lines


# ----------------------------------------------------------------------
# bulk
# ----------------------------------------------------------------------
def _bulk_rounds(grid, seed: int, seconds: float, report: Report, tracer=None) -> tuple:
    """Timed rounds until ``seconds`` of round time (untraced: after a warm-up)."""
    rounds, store, written, cpu, wall = [], Counter(), 0, 0.0, 0.0
    if tracer is None:
        warm = inproc.bulk_round(grid, seed, 0)
        _check_bulk_round(report, warm, grid, oracle=True)
    while wall < seconds:
        result = inproc.bulk_round(grid, seed, len(rounds) + 1, tracer)
        rounds.append(result)
        store.update(result["store"])
        written += result["bytes_written"]
        cpu += result["cpu_s"]
        wall += _round_s(result)
        _check_bulk_round(report, result, grid)
        for key in ("cold", "paper"):
            result.pop(key)
    return rounds, {"store": store, "bytes_written": written, "rounds": len(rounds),
                    "cpu_s": cpu, "wall_s": wall, "host_cpu_util": cpu / wall}


def _round_s(result: dict) -> float:
    return result["cold_s"] + sum(result["disk_s"]) + sum(result["memory_s"]) + result["paper_s"]


def _check_bulk_round(report: Report, result: dict, grid, oracle: bool = False) -> None:
    calls = 1 + len(result["disk_s"]) + len(result["memory_s"])
    calls += sum(len(v) for v in result["paper"].values())
    report.attempted += calls
    report.failed += not result["grid_identical"]
    report.check("grid cold == disk == memory", result["grid_identical"])
    if oracle:
        wrong = inproc.grid_oracle_mismatches(grid, result["cold"])
        report.failed += wrong
        report.check("grid scalar oracle sample", wrong == 0, f"{wrong} differ")
    points = inproc.PAPER_FIDELITY_SEEDS * len(inproc.PAPER_FIDELITY_TIMES)
    lines, failed = paper_checks(result["paper"], points)
    report.failed += failed
    report.check("paper pass vs published results", failed == 0, f"{failed} failed")
    result["paper_lines"] = lines


def bulk(seed: int, seconds: int, trace: bool, report: Report) -> list[str]:
    if not trace:
        setups = probe_setup("bulk")
        report.add("setup_s", median(setups), "s", len(setups))
    grid = inproc.build_grid(seed)
    rounds, plain = _bulk_rounds(grid, seed, seconds / 2 if trace else seconds, report)
    lines = [f"bulk: grid of {len(grid)} jobs, {len(rounds)} timed rounds after one warm-up",
             "paper pass (first timed round):", *rounds[0]["paper_lines"]]
    if not trace:
        _op_metrics(report, [_round_s(r) for r in rounds], plain["wall_s"], plain["cpu_s"])
        report.add("peak_rss_mb", peak_rss_mb(), "MB", 1)
        cold = [r["cold_s"] for r in rounds]
        report.add("grid_cold_jobs_per_s", len(grid) / median(cold), "jobs/s", len(cold))
        for name, key in (
            ("grid_warm_disk_jobs_per_s", "disk_s"),
            ("grid_warm_memory_jobs_per_s", "memory_s"),
        ):
            samples = [t for r in rounds for t in r[key]]
            report.add(name, len(grid) / median(samples), "jobs/s", len(samples))
        report.add("paper_s", median([r["paper_s"] for r in rounds]), "s", len(rounds))
        return lines
    tracer = Tracer("inproc").install()
    traced, traced_counters = _bulk_rounds(grid, seed, seconds / 2, report, tracer)
    tracer.uninstall()
    spans = layers.load([tracer.record()])
    roots = [s for s in spans if s.name.startswith("bulk.")]
    traced_counters["schedule_cache"] = tracer.header["schedule_cache"]
    _per_layer(report, "bulk", roots, len(traced), traced_counters)
    lines += layers.breakdown(roots, len(traced))
    lines.append(_overhead(len(rounds), plain["wall_s"], len(traced), traced_counters["wall_s"]))
    _dump(tracer.record())
    return lines


def _dump(record) -> None:
    """Keep the last traced run's spans for inspection (gitignored)."""
    WORK.mkdir(exist_ok=True)
    (WORK / "last-spans.json").write_text(json.dumps(record), encoding="utf-8")


RUNNERS = {"interactive": interactive, "served": served_workload, "bulk": bulk}
