"""The in-process workloads: ``interactive`` and ``bulk``.

Both are closed loops with one caller thread in the benchmark process.
Each pass returns what it measured plus what the caller needs to check
its answers; checks run outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import shutil
import time
from array import array
from collections import Counter, OrderedDict
from time import perf_counter

import numpy as np

from perfbench.common import fresh_dir
from perfbench.stream import WINDOW, Stream, Tally, warmup_requests
from repro.api.registry import available_designs
from repro.api.schema import EvaluationRequest, FidelityRequest, NetworkRequest
from repro.api.service import RedService
from repro.arch.tech import default_tech
from repro.deconv.shapes import DeconvSpec
from repro.eval import parallel
from repro.eval.parallel import DesignJob
from repro.eval.store import PackedSweepStore
from repro.workloads.specs import TABLE_I_LAYERS

#: ``RedService`` method serving each stream kind.
HANDLERS = {
    "sweep": "sweep",
    "evaluate": "evaluate",
    "traced": "evaluate",
    "fidelity": "fidelity_sweep",
    "network": "evaluate_network",
}
#: Requests between answer-digest pauses (the clock stops while digesting).
SEGMENT = 200
#: Fresh analytic requests re-answered by the scalar oracle route.
ORACLE_SAMPLE = 24
#: Disk-tier and memory-tier passes per bulk round (each is short, so
#: take several and report the median).
WARM_PASSES = 3
#: Networks of the paper pass: the four distinct Table-I networks.
PAPER_NETWORKS = ("DCGAN", "Improved GAN", "SNGAN", "voc-fcn8s 8x")
#: Monte-Carlo grid of each paper-pass fidelity frontier: seeds x times.
PAPER_FIDELITY_SEEDS = 32
PAPER_FIDELITY_TIMES = (1.0, 3600.0, 86400.0, 2.6e6, 3.2e7)


def canonical(result) -> str:
    """The answer as canonical JSON (what byte-identity checks compare)."""
    return json.dumps(result.to_dict(), sort_keys=True)


def digest(result) -> str:
    return hashlib.sha1(canonical(result).encode("utf-8")).hexdigest()


def call(service: RedService, item, tracer=None):
    """Send one stream item to ``service``, as a root span when traced."""
    handler = getattr(service, HANDLERS[item.kind])
    if tracer is None:
        return handler(item.request)
    return tracer.root("request", item.body_crc, item.index, handler, item.request)


# ----------------------------------------------------------------------
# interactive
# ----------------------------------------------------------------------
def interactive_pass(seed: int, seconds: float, tracer=None) -> dict:
    """Closed loop of the seeded small-request stream against ``RedService()``.

    Bookkeeping stays small and fixed-size (latencies in an array, the
    last answers' digests only), so the benchmark's own memory does not
    grow with the number of requests the program completes.
    """
    service = RedService()
    for kind, request in warmup_requests(seed):
        getattr(service, HANDLERS[kind])(request)
    stream = Stream(seed)
    tally, latencies, digests = Tally(), array("d"), OrderedDict()
    oracle: list[tuple[str, object, str]] = []
    errors: Counter = Counter()
    mismatches = 0
    timed = cpu = 0.0
    while timed < seconds:
        sent_items, answers = [], []
        stream.prefetch(SEGMENT)
        cpu_start, start = time.process_time(), perf_counter()
        for _ in range(SEGMENT):
            item = stream.next()
            sent = perf_counter()
            try:
                result = call(service, item, tracer)
            except Exception as exc:  # a failed request is counted, not fatal
                errors[type(exc).__name__] += 1
                result = None
            latencies.append(perf_counter() - sent)
            sent_items.append(item)
            answers.append(result)
        timed += perf_counter() - start
        cpu += time.process_time() - cpu_start
        # Outside the clock: tally, digest answers, check repeats, sample.
        for item, result, latency in zip(sent_items, answers, latencies[-SEGMENT:]):
            tally.add(item, latency)
            if result is None:
                continue
            digests[item.index] = answer = digest(result)
            if item.repeat_of is not None:
                mismatches += digests.get(item.repeat_of, answer) != answer
            elif item.kind in ("sweep", "evaluate") and len(oracle) < ORACLE_SAMPLE:
                oracle.append((item.kind, item.request, canonical(result)))
        while len(digests) > WINDOW + SEGMENT:
            digests.popitem(last=False)
    service.close()
    return {
        "tally": tally,
        "latencies": latencies,
        "wall_s": timed,
        "cpu_s": cpu,
        "errors": errors,
        "repeat_mismatches": mismatches,
        "oracle": oracle,
    }


def oracle_mismatches(sample) -> int:
    """Sampled ``(kind, request, answer)`` whose answer the scalar oracle route
    does not reproduce."""
    with RedService(vectorized=False) as oracle:
        return sum(
            canonical(getattr(oracle, HANDLERS[kind])(request)) != answer
            for kind, request, answer in sample
        )


# ----------------------------------------------------------------------
# bulk
# ----------------------------------------------------------------------
def build_grid(seed: int) -> list[DesignJob]:
    """The 9,888-job stride-sweep grid, in a seeded order.

    The same grid as ``benchmarks/bench_sweep_vectorized.py::build_grid``
    in full mode (every registered design, strides 2-16 plus a stride-32
    slice, two technology points), defined here so the benchmark does
    not move when that gate module changes.  The seed only permutes the
    order: every run does the same work.
    """
    base = default_tech()
    axes = [
        (stride, range(3, 23), (8, 16, 32, 48, 64), (8, 16, 32, 64)) for stride in (2, 4, 8, 16)
    ]
    axes.append((32, range(3, 11), (8, 16, 32), (8, 16)))
    jobs = []
    for tech_index, tech in enumerate((base, base.with_overrides(mux_share=4))):
        for stride, sizes, channel_axis, filter_axis in axes:
            for size in sizes:
                for channels in channel_axis:
                    for filters in filter_axis:
                        spec = DeconvSpec(
                            input_height=size, input_width=size, in_channels=channels,
                            kernel_height=2 * stride, kernel_width=2 * stride,
                            out_channels=filters, stride=stride, padding=stride // 2,
                        )
                        jobs.extend(
                            DesignJob(
                                design, spec, tech,
                                layer_name=f"{design}/t{tech_index}/s{stride}"
                                f"/i{size}/c{channels}/m{filters}",
                            )
                            for design in available_designs()
                        )
    order = np.random.default_rng(seed).permutation(len(jobs))
    return [jobs[i] for i in order]


def paper_pass(service: RedService, seed: int) -> dict:
    """Table-I layers traced, their fidelity frontiers, the four networks."""
    seeds = tuple(range(seed, seed + PAPER_FIDELITY_SEEDS))
    return {
        "layers": [
            service.evaluate(EvaluationRequest(layer=layer.name, trace=True))
            for layer in TABLE_I_LAYERS
        ],
        "frontiers": [
            service.fidelity_sweep(
                FidelityRequest(layer=layer.name, seeds=seeds, times=PAPER_FIDELITY_TIMES)
            )
            for layer in TABLE_I_LAYERS
        ],
        "networks": [
            service.evaluate_network(NetworkRequest(network=name, seed=seed))
            for name in PAPER_NETWORKS
        ],
    }


def _timed(cpu: list, tracer, name: str, index: int, fn, *args):
    """``fn(*args)`` and its wall seconds; adds its CPU seconds to ``cpu[0]``."""
    cpu_start, start = time.process_time(), perf_counter()
    result = fn(*args) if tracer is None else tracer.root(name, index, index, fn, *args)
    elapsed = perf_counter() - start
    cpu[0] += time.process_time() - cpu_start
    return result, elapsed


def _bytes_under(directory) -> int:
    return sum(path.stat().st_size for path in directory.rglob("*") if path.is_file())


def bulk_round(grid, seed: int, index: int, tracer=None) -> dict:
    """One round: the grid cold, from disk, from memory; then the paper pass.

    Returns the phase times (``disk_s`` and ``memory_s`` hold one per
    pass) and their CPU time, the cold answers, the paper-pass results
    and store counters.
    """
    directory = fresh_dir("bulk-store")
    store = PackedSweepStore(directory)
    run = parallel.run_design_jobs
    cpu = [0.0]
    cold, cold_s = _timed(cpu, tracer, "bulk.grid_cold", index, run, grid, 1, store)
    stats: Counter = Counter()

    def reopened():
        nonlocal store
        store = PackedSweepStore(directory)
        return run(grid, cache=store)

    identical, disk_s, memory_s = True, [], []
    for _ in range(WARM_PASSES):
        stats.update(store.stats())
        store.close()
        disk, seconds = _timed(cpu, tracer, "bulk.grid_disk", index, reopened)
        disk_s.append(seconds)
        identical = identical and disk == cold
    for _ in range(WARM_PASSES):
        memory, seconds = _timed(cpu, tracer, "bulk.grid_memory", index, run, grid, 1, store)
        memory_s.append(seconds)
        identical = identical and memory == cold
    stats.update(store.stats())
    store.close()
    written = _bytes_under(directory)
    shutil.rmtree(directory, ignore_errors=True)

    paper_dir = fresh_dir("bulk-paper")
    service = RedService(cache=str(paper_dir))
    paper, paper_s = _timed(cpu, tracer, "bulk.paper", index, paper_pass, service, seed + index)
    stats.update(service.cache.stats())
    service.close()
    written += _bytes_under(paper_dir)
    shutil.rmtree(paper_dir, ignore_errors=True)
    return {
        "cold_s": cold_s,
        "disk_s": disk_s,
        "memory_s": memory_s,
        "paper_s": paper_s,
        "cpu_s": cpu[0],
        "grid_identical": identical,
        "cold": cold,
        "paper": paper,
        "store": stats,
        "bytes_written": written,
    }


def grid_oracle_mismatches(grid, results, every: int = 150) -> int:
    """A fixed sample of grid answers against the scalar oracle route."""
    picks = sorted(range(len(grid)), key=lambda i: grid[i].layer_name)[::every]
    oracle = parallel.run_design_jobs([grid[i] for i in picks], vectorized=False)
    return sum(
        pickle.dumps(results[i], 5) != pickle.dumps(expected, 5)
        for i, expected in zip(picks, oracle)
    )
