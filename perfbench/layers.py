"""From spans to per-layer metrics and an additive time breakdown.

Every ``*_ms``/``*_us`` layer metric is a mean per call of that
boundary, of the span's self time (its duration minus the part its
children cover) unless noted; counts and ratios come from span sizes
and from the program's public counters.  An operation is one request
(``interactive``, ``served``) or one bulk round (``bulk``).
"""

from __future__ import annotations

from collections import defaultdict

ALL = ("interactive", "served", "bulk")
SERVED = ("served",)
BULK = ("bulk",)

#: The traced run's metrics, in print order: (name, unit, workloads that
#: reach the layer).  A traced run prints those its workload reaches; the
#: result line carries the ``per_layer`` metrics of ``BENCHMARK.json``,
#: which every workload reaches and measures above 0.
PER_LAYER = (
    ("serving.http_ms", "ms", SERVED),
    ("serving.scatter_ms", "ms", SERVED),
    ("serving.shard_call_ms", "ms", SERVED),
    ("serving.shard_hop_ms", "ms", SERVED),
    ("serving.shard_calls_per_request", "calls/req", SERVED),
    ("serving.jobs_per_shard_call", "jobs/call", SERVED),
    ("serving.respcache_hit_ratio", "ratio", SERVED),
    ("serving.shed", "count", SERVED),
    ("serving.client_retries", "count", SERVED),
    ("serving.degraded_calls", "count", SERVED),
    ("serving.server_cpu_util", "ratio", SERVED),
    ("serving.shard_cpu_util", "ratio", SERVED),
    ("api.schema.decode_us", "us", SERVED),
    ("api.schema.encode_us", "us", SERVED),
    ("api.schema.client_decode_us", "us", SERVED),
    ("api.service.self_us", "us", ALL),
    ("eval.sweeps.fit_us", "us", ("interactive", "served")),
    ("eval.parallel.self_us", "us", ALL),
    ("eval.parallel.calls_per_op", "calls/op", ALL),
    ("eval.parallel.jobs_per_call", "jobs/call", ALL),
    ("eval.parallel.unique_ratio", "ratio", ALL),
    ("eval.parallel.job_keys_ms", "ms", ALL),
    ("eval.store.get_many_ms", "ms", BULK),
    ("eval.store.put_many_ms", "ms", BULK),
    ("eval.store.hit_ratio", "ratio", BULK),
    ("eval.store.memory_hits", "count", BULK),
    ("eval.store.disk_hits", "count", BULK),
    ("eval.store.misses", "count", BULK),
    ("eval.store.bytes_written", "bytes", BULK),
    ("eval.store.faults", "count", BULK),
    ("eval.vectorized.batch_us", "us", ALL),
    ("eval.vectorized.groups_per_call", "groups/call", ALL),
    ("arch.metrics_batch.evaluate_us", "us", ALL),
    ("arch.metrics_batch.rows_per_call", "rows/call", ALL),
    ("designs.perf_batch_us", "us", ALL),
    ("sim.cycle_jobs_ms", "ms", ALL),
    ("sim.batch_engine_ms", "ms", ALL),
    ("sim.compile_ms", "ms", ALL),
    ("sim.schedule_cache_hit_ratio", "ratio", ALL),
    ("sim.fused_groups", "groups/call", ALL),
    ("reram.batch.sample_ms", "ms", ALL),
    ("reram.batch.profile_ms", "ms", ALL),
    ("reram.batch.points_per_s", "points/s", ALL),
    ("workloads.build_network_ms", "ms", ALL),
    ("system.network_eval_ms", "ms", ALL),
    ("host.cpu_util", "ratio", ALL),
)


class Span:
    __slots__ = ("key", "parent", "name", "start", "end", "rid", "size", "tag", "role",
                 "shard", "children")

    def __init__(self, key, parent, name, start, end, rid, size, tag, role, shard):
        self.key, self.parent, self.name = key, parent, name
        self.start, self.end, self.rid, self.size, self.tag = start, end, rid, size, tag
        self.role, self.shard = role, shard
        self.children: list[Span] = []

    @property
    def duration(self) -> float:
        return self.end - self.start

    def self_time(self) -> float:
        return self.duration - _covered(
            [(max(c.start, self.start), min(c.end, self.end)) for c in self.children]
        )


def _covered(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def load(records) -> list[Span]:
    """Spans of every process, with the cross-thread and cross-process links."""
    spans: dict = {}
    for record in records:
        pid, role, shard = record["pid"], record["role"], record.get("shard")
        for sid, parent, name, start, end, rid, size, tag in record["spans"]:
            spans[(pid, sid)] = Span(
                (pid, sid), None if parent is None else (pid, parent),
                name, start, end, rid, size, tag, role, shard,
            )
    by_body = defaultdict(list)
    by_shard = defaultdict(list)
    for span in spans.values():
        if span.name == "serving.client":
            by_body[span.rid].append(span)
        elif span.name == "serving.shard_call":
            by_shard[span.tag].append(span)
    for span in spans.values():
        if span.parent is None and span.role in ("server", "shard"):
            candidates = by_body[span.rid] if span.role == "server" else by_shard[span.shard]
            for owner in candidates:
                if owner.start <= span.start <= owner.end:
                    span.parent = owner.key
                    break
    for span in spans.values():
        if span.parent in spans:
            spans[span.parent].children.append(span)
    return list(spans.values())


def under(roots) -> list[Span]:
    """The roots and every span below them."""
    found, todo = [], list(roots)
    while todo:
        span = todo.pop()
        found.append(span)
        todo.extend(span.children)
    return found


def attribute(root: Span) -> dict[str, float]:
    """Split ``root``'s time over its tree; shares sum to its duration.

    Each instant goes to the innermost spans active then, split evenly
    when concurrent branches (shard calls, the event loop) overlap; on a
    single thread this is every span's self time.
    """
    nodes = under([root])
    edges = sorted({min(max(t, root.start), root.end) for n in nodes for t in (n.start, n.end)})
    shares: dict[str, float] = defaultdict(float)
    for low, high in zip(edges, edges[1:]):
        active = {id(n) for n in nodes if n.start <= low and n.end >= high}
        leaves = [
            n for n in nodes
            if id(n) in active and not any(id(c) in active for c in n.children)
        ]
        for leaf in leaves:
            shares[leaf.name] += (high - low) / len(leaves)
    return shares


def breakdown(roots, operations: int) -> list[str]:
    """Report lines: where the roots' time went, adding up to their total.

    ``roots`` are the timed spans of ``operations`` operations (a bulk
    round has one root per phase).
    """
    totals: dict[str, float] = defaultdict(float)
    for root in roots:
        for name, seconds in attribute(root).items():
            totals[name] += seconds
    measured = sum(root.duration for root in roots)
    count = operations or 1
    lines = [f"time breakdown over {operations} operations "
             f"(mean {measured / count * 1e3:.4f} ms each):"]
    root_names = {root.name for root in roots}
    for name, seconds in sorted(totals.items(), key=lambda kv: -kv[1]):
        label = f"{name} (unattributed: caller and unwrapped code)" if name in root_names else name
        lines.append(
            f"  {label:58s} {seconds / count * 1e3:10.4f} ms/op "
            f"{seconds / measured if measured else 0.0:7.1%}"
        )
    lines.append(
        f"  {'sum of shares':58s} {sum(totals.values()) / count * 1e3:10.4f} ms/op "
        f"(measured {measured / count * 1e3:.4f})"
    )
    return lines


def layer_metrics(spans, operations: int, counters: dict) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from the spans and public counters."""
    count = defaultdict(int)
    self_s = defaultdict(float)
    duration = defaultdict(float)
    size = defaultdict(int)
    for span in spans:
        count[span.name] += 1
        self_s[span.name] += span.self_time()
        duration[span.name] += span.duration
        size[span.name] += span.size

    def mean(table, name, scale):
        return table[name] / count[name] * scale if count[name] else 0.0

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    evaluated = count["serving.server"] or operations
    cache_hits, cache_misses = counters.get("schedule_cache", (0, 0))
    store = counters.get("store", {})
    rounds = counters.get("rounds", 1) or 1
    store_hits = store.get("hits", 0)
    return {
        "serving.http_ms": mean(self_s, "serving.client", 1e3),
        "serving.scatter_ms": mean(self_s, "serving.scatter", 1e3),
        "serving.shard_call_ms": mean(duration, "serving.shard_call", 1e3),
        "serving.shard_hop_ms": mean(self_s, "serving.shard_call", 1e3),
        "serving.shard_calls_per_request": ratio(count["serving.shard_call"], evaluated),
        "serving.jobs_per_shard_call": ratio(size["serving.shard_call"],
                                             count["serving.shard_call"]),
        "serving.respcache_hit_ratio": ratio(
            counters.get("respcache_hits", 0),
            counters.get("respcache_hits", 0) + counters.get("respcache_misses", 0),
        ),
        "serving.shed": counters.get("shed", 0),
        "serving.client_retries": max(0, count["serving.client"] - operations)
        if count["serving.client"] else 0,
        "serving.degraded_calls": counters.get("degraded_calls", 0),
        "serving.server_cpu_util": counters.get("server_cpu_util", 0.0),
        "serving.shard_cpu_util": counters.get("shard_cpu_util", 0.0),
        "api.schema.decode_us": mean(self_s, "api.schema.decode", 1e6),
        "api.schema.encode_us": mean(self_s, "api.schema.encode", 1e6),
        "api.schema.client_decode_us": mean(self_s, "api.schema.client_decode", 1e6),
        "api.service.self_us": mean(self_s, "api.service", 1e6),
        "eval.sweeps.fit_us": mean(self_s, "eval.sweeps.fit", 1e6),
        "eval.parallel.self_us": mean(self_s, "eval.parallel", 1e6),
        "eval.parallel.calls_per_op": ratio(count["eval.parallel"], evaluated),
        "eval.parallel.jobs_per_call": ratio(size["eval.parallel"], count["eval.parallel"]),
        "eval.parallel.unique_ratio": ratio(size["eval.vectorized"], size["eval.parallel"]),
        "eval.parallel.job_keys_ms": mean(self_s, "eval.parallel.job_keys", 1e3),
        "eval.store.get_many_ms": mean(self_s, "eval.store.get_many", 1e3),
        "eval.store.put_many_ms": mean(self_s, "eval.store.put_many", 1e3),
        "eval.store.hit_ratio": ratio(store_hits, store_hits + store.get("misses", 0)),
        "eval.store.memory_hits": store.get("memory_hits", 0) / rounds,
        "eval.store.disk_hits": store.get("disk_hits", 0) / rounds,
        "eval.store.misses": store.get("misses", 0) / rounds,
        "eval.store.bytes_written": counters.get("bytes_written", 0) / rounds,
        "eval.store.faults": (
            store.get("corrupt", 0) + store.get("quarantined", 0)
            + store.get("degraded_puts", 0)
        ) / rounds,
        "eval.vectorized.batch_us": mean(self_s, "eval.vectorized", 1e6),
        "eval.vectorized.groups_per_call": ratio(count["designs.perf_batch"],
                                                 count["eval.vectorized"]),
        "arch.metrics_batch.evaluate_us": mean(self_s, "arch.metrics_batch", 1e6),
        "arch.metrics_batch.rows_per_call": ratio(size["arch.metrics_batch"],
                                                  count["arch.metrics_batch"]),
        "designs.perf_batch_us": mean(self_s, "designs.perf_batch", 1e6),
        "sim.cycle_jobs_ms": mean(self_s, "sim.cycle_jobs", 1e3),
        "sim.batch_engine_ms": mean(self_s, "sim.batch_engine", 1e3),
        "sim.compile_ms": mean(self_s, "sim.compile", 1e3),
        "sim.schedule_cache_hit_ratio": ratio(cache_hits, cache_hits + cache_misses),
        "sim.fused_groups": ratio(size["sim.batch_engine"], count["sim.batch_engine"]),
        "reram.batch.sample_ms": mean(self_s, "reram.batch.sample", 1e3),
        "reram.batch.profile_ms": mean(self_s, "reram.batch.profile", 1e3),
        "reram.batch.points_per_s": ratio(size["reram.batch.sample"],
                                          duration["reram.batch.sample"]),
        "workloads.build_network_ms": mean(self_s, "workloads.build_network", 1e3),
        "system.network_eval_ms": mean(self_s, "system.network_eval", 1e3),
        "host.cpu_util": counters.get("host_cpu_util", 0.0),
    }
