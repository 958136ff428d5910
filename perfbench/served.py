"""The ``served`` workload: the interactive stream over HTTP.

The server is a separate process started the way ``python -m repro
serve --port 0`` starts it (:mod:`perfbench.server`).  The generator
runs :data:`CALLERS` threads, each holding one keep-alive
``ServingClient`` and calling ``call_with_retry`` in a closed loop; the
run ends with a SIGTERM drain.  Two callers and two shards match the two
cores this benchmark was sized on.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from collections import Counter, OrderedDict
from time import perf_counter

from perfbench.common import ROOT, child_env, child_pids, cpu_seconds, peak_rss_mb, pid_alive
from perfbench.stream import Stream, body_crc, warmup_requests
from repro.serving.client import ServingClient

CALLERS = 2
#: Requests per second of run built before the clock starts; a faster
#: server drains them and the callers build the rest as they go.
PREFETCH_RATE = 800
#: What ``repro serve`` starts with (the CLI defaults).
TOPOLOGY = {
    "shards": 2,
    "max_inflight": 8,
    "max_queue": 32,
    "response_cache_entries": 256,
    "shard_store": None,
    "callers": CALLERS,
}
_LISTENING = re.compile(r"listening on ([0-9.]+):(\d+)")


class Server:
    """One server process, from launch to a checked SIGTERM drain."""

    def __init__(self, trace_dir=None) -> None:
        command = [sys.executable, "-m", "perfbench.server"]
        if trace_dir is not None:
            command += ["--trace-dir", str(trace_dir)]
        start = perf_counter()
        self.proc = subprocess.Popen(
            command,
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.stderr: list[str] = []
        self.shard_pids: list[int] = []
        self._address = threading.Event()
        self._reader = threading.Thread(target=self._read_stderr, daemon=True)
        self._reader.start()
        try:
            if not self._address.wait(60):
                raise RuntimeError("server did not announce its port:\n" + "".join(self.stderr))
            with ServingClient(self.host, self.port, timeout=5.0) as client:
                while client.readyz()[0] != 200:
                    time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        #: Seconds from launch to the first ``/readyz`` 200.
        self.setup_s = perf_counter() - start
        self.shard_pids = child_pids(self.proc.pid)

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            self.stderr.append(line)
            match = _LISTENING.search(line)
            if match and not self._address.is_set():
                self.host, self.port = match.group(1), int(match.group(2))
                self._address.set()

    def pids(self) -> list[int]:
        return [self.proc.pid, *self.shard_pids]

    def health(self) -> dict:
        with ServingClient(self.host, self.port, timeout=5.0) as client:
            return client.healthz()[1]

    def stop(self) -> tuple[int | None, list[int]]:
        """SIGTERM drain; returns the exit code and any shard left running."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            code = None
        self._reader.join(timeout=10)
        self.proc.stderr.close()
        deadline = time.monotonic() + 5.0
        while any(pid_alive(pid) for pid in self.shard_pids) and time.monotonic() < deadline:
            time.sleep(0.01)
        left = [pid for pid in self.shard_pids if pid_alive(pid)]
        for pid in left:  # reported as a failed check; not left running
            os.kill(pid, signal.SIGKILL)
        return code, left


def probe_setup(count: int) -> tuple[list[float], list[str]]:
    """``count`` launches timed to first readiness, each drained again."""
    times, problems = [], []
    for _ in range(count):
        server = Server()
        times.append(server.setup_s)
        code, left = server.stop()
        if code != 0 or left:
            problems.append(f"drain exit {code}, shards left {left}")
    return times, problems


class _ResponseCacheModel:
    """The server's LRU, replayed client-side to label hits and misses."""

    def __init__(self, entries: int) -> None:
        self.entries = entries
        self._keys: OrderedDict[int, None] = OrderedDict()
        self._lock = threading.Lock()

    def lookup(self, key: int) -> bool:
        with self._lock:
            if key in self._keys:
                self._keys.move_to_end(key)
                return True
            return False

    def store(self, key: int) -> None:
        with self._lock:
            self._keys[key] = None
            self._keys.move_to_end(key)
            while len(self._keys) > self.entries:
                self._keys.popitem(last=False)


def served_pass(seed: int, seconds: float, trace_dir=None, tracer=None) -> dict:
    """Launch a server, run the stream for ``seconds``, drain it."""
    server = Server(trace_dir)
    try:
        return _run_against(server, seed, seconds, tracer)
    except BaseException:
        server.stop()
        raise


def _run_against(server: Server, seed: int, seconds: float, tracer) -> dict:
    model = _ResponseCacheModel(TOPOLOGY["response_cache_entries"])
    with ServingClient(server.host, server.port) as client:
        for _, request in warmup_requests(seed):
            client.call_with_retry(request)
            model.store(body_crc(request))
    before = server.health()["response_cache"]
    stream = Stream(seed)
    stream.prefetch(int(PREFETCH_RATE * seconds))
    barrier = threading.Barrier(CALLERS + 1)
    records: list[list[tuple]] = [[] for _ in range(CALLERS)]
    errors: Counter = Counter()
    ends = [0.0] * CALLERS
    clock = {}

    def caller(slot: int) -> None:
        with ServingClient(server.host, server.port) as client:
            barrier.wait()
            deadline = clock["start"] + seconds
            while perf_counter() < deadline:
                item = stream.next()
                predicted_hit = model.lookup(item.body_crc)
                sent = perf_counter()
                try:
                    if tracer is None:
                        result = client.call_with_retry(item.request)
                    else:
                        result = tracer.root(
                            "request", item.body_crc, item.index,
                            client.call_with_retry, item.request,
                        )
                except Exception as exc:  # counted as failed, the loop goes on
                    errors[type(exc).__name__] += 1
                    result = None
                records[slot].append((item, perf_counter() - sent, result, predicted_hit))
                if result is not None:
                    model.store(item.body_crc)
            ends[slot] = perf_counter()

    threads = [threading.Thread(target=caller, args=(slot,)) for slot in range(CALLERS)]
    for thread in threads:
        thread.start()
    pids = server.pids()
    cpu_before = [cpu_seconds(pid) for pid in pids]
    client_cpu = time.process_time()
    clock["start"] = perf_counter()
    barrier.wait()
    for thread in threads:
        thread.join()
    wall = max(ends) - clock["start"]
    client_cpu = time.process_time() - client_cpu
    cpu = [cpu_seconds(pid) - start for pid, start in zip(pids, cpu_before)]
    rss = sum(peak_rss_mb(pid) for pid in pids)
    health = server.health()
    code, left = server.stop()
    cache = health["response_cache"]
    return {
        "records": [record for slot in records for record in slot],
        "wall_s": wall,
        "errors": errors,
        "client_cpu_s": client_cpu,
        "server_cpu_s": cpu[0],
        "shard_cpu_s": sum(cpu[1:]),
        "peak_rss_mb": rss,
        "respcache_hits": cache["hits"] - before["hits"],
        "respcache_misses": cache["misses"] - before["misses"],
        "shed": health["gate"]["shed_total"],
        "degraded_calls": health["degraded_calls"],
        "drain_exit": code,
        "shards_left": left,
        "setup_s": server.setup_s,
    }

