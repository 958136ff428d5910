"""The seeded request stream shared by the ``interactive`` and ``served`` workloads.

The stream is built in blocks of 50 requests with a fixed composition,
shuffled by the seed, so two seeds differ in their inputs but not in
their mix (the spread between runs then measures the program, not the
draw):

* 20 stride sweeps (2-4 strides, 4-8 analytic jobs) and 17 untraced
  evaluations of random layer shapes (3 jobs): the small requests whose
  per-call fixed cost dominates this workload's host time;
* 1 traced evaluation of a small shape (cycle-level engine), 1 Monte-Carlo
  fidelity frontier over a 2x2 seeds x times grid, and 1 FCN network
  request (the heavy tail);
* 10 byte-for-byte repeats of requests drawn from the last
  :data:`WINDOW` sent, so about one request in five repeats a recent one
  and a response cache has real hits.  Repeats have a fixed mix too
  (5 sweeps, 4 evaluations and one heavy request, rotating through the
  heavy kinds block by block); only which recent request is repeated is
  drawn.
"""

from __future__ import annotations

import json
import threading
import zlib
from collections import Counter, deque
from dataclasses import dataclass

import numpy as np

from repro.api.schema import (
    EvaluationRequest,
    FidelityRequest,
    NetworkRequest,
    SweepRequest,
)
from repro.deconv.shapes import DeconvSpec

#: Fresh requests per block, by kind.
BLOCK = {"sweep": 20, "evaluate": 17, "traced": 1, "fidelity": 1, "network": 1}
#: Repeats per block by kind (10 of 50: one request in five); the one
#: heavy repeat rotates through :data:`HEAVY`.
REPEATS = {"sweep": 5, "evaluate": 4, "heavy": 1}
HEAVY = ("traced", "fidelity", "network")
#: How far back a repeat may reach, in requests sent.
WINDOW = 100
KINDS = tuple(BLOCK)
BLOCK_SIZE = sum(BLOCK.values()) + sum(REPEATS.values())

_FCN_NETWORKS = ("voc-fcn8s 2x", "voc-fcn8s 8x")
_FIDELITY_TIMES = (1.0, 3600.0, 86400.0, 2.6e6)


@dataclass(frozen=True)
class StreamItem:
    """One request of the stream.

    Attributes:
        index: position in the stream.
        kind: one of :data:`KINDS`.
        request: the schema request object the caller sends.
        body_crc: CRC-32 of the request's wire body (links traced spans).
        jobs: analytic design jobs the request asks for.
        repeat_of: index of the request this one repeats, or ``None``.
    """

    index: int
    kind: str
    request: object
    body_crc: int
    jobs: int
    repeat_of: int | None


def _spec(rng: np.random.Generator, small: bool) -> DeconvSpec:
    stride = int(rng.integers(1, 4 if small else 5))
    kernel = int(rng.integers(max(2, stride), 2 * stride + 3))
    size = int(rng.integers(2, 7 if small else 17))
    widths = (4, 8, 16) if small else (8, 16, 32, 64, 128, 256)
    return DeconvSpec(
        input_height=size,
        input_width=size,
        in_channels=int(rng.choice(widths)),
        kernel_height=kernel,
        kernel_width=kernel,
        out_channels=int(rng.choice(widths)),
        stride=stride,
        padding=int(rng.integers(0, (kernel - 1) // 2 + 1)),
    )


def _fresh(rng: np.random.Generator, kind: str):
    """A new request of ``kind`` and the analytic jobs it carries."""
    if kind == "sweep":
        count = int(rng.integers(2, 5))
        strides = tuple(sorted(int(s) for s in rng.choice((1, 2, 4, 8, 16), count, False)))
        request = SweepRequest(
            strides=strides,
            input_size=int(rng.integers(3, 17)),
            channels=int(rng.choice((8, 16, 32, 64))),
            filters=int(rng.choice((8, 16, 32))),
        )
        return request, 2 * count
    if kind == "evaluate":
        return EvaluationRequest(spec=_spec(rng, small=False)), 3
    if kind == "traced":
        return EvaluationRequest(spec=_spec(rng, small=True), trace=True), 3
    if kind == "fidelity":
        seeds = tuple(int(s) for s in rng.choice(1000, 2, False))
        times = tuple(float(t) for t in rng.choice(_FIDELITY_TIMES, 2, False))
        return FidelityRequest(spec=_spec(rng, small=True), seeds=seeds, times=times), 3
    network = _FCN_NETWORKS[int(rng.integers(0, len(_FCN_NETWORKS)))]
    return NetworkRequest(network=network, seed=int(rng.integers(0, 1000))), 9


def body_crc(request) -> int:
    """CRC-32 of the bytes ``ServingClient.call`` puts on the wire."""
    return zlib.crc32(json.dumps(request.to_dict()).encode("utf-8"))


class Stream:
    """Thread-safe, endless, seeded request stream (blocks made on demand).

    Only the last :data:`WINDOW` requests are kept (repeats draw from
    them), so the stream's memory does not grow with the run.
    """

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng(seed)
        self._recent: deque[StreamItem] = deque(maxlen=WINDOW)
        self._ready: deque[StreamItem] = deque()
        self._created = 0
        self._lock = threading.Lock()

    def _extend(self) -> None:
        rng = self._rng
        heavy = HEAVY[(self._created // BLOCK_SIZE) % len(HEAVY)]
        slots = [(kind, False) for kind, count in BLOCK.items() for _ in range(count)]
        slots += [
            (heavy if kind == "heavy" else kind, True)
            for kind, count in REPEATS.items()
            for _ in range(count)
        ]
        for slot in rng.permutation(len(slots)):
            index, (kind, repeat) = self._created, slots[slot]
            origins = [item for item in self._recent if item.kind == kind] if repeat else []
            if origins:
                origin = origins[int(rng.integers(0, len(origins)))]
                item = StreamItem(index, kind, origin.request, origin.body_crc,
                                  origin.jobs, origin.index)
            else:
                request, jobs = _fresh(rng, kind)
                item = StreamItem(index, kind, request, body_crc(request), jobs, None)
            self._recent.append(item)
            self._ready.append(item)
            self._created += 1

    def prefetch(self, count: int) -> None:
        """Build the next ``count`` requests now (outside any timed region)."""
        with self._lock:
            while len(self._ready) < count:
                self._extend()

    def next(self) -> StreamItem:
        with self._lock:
            if not self._ready:
                self._extend()
            return self._ready.popleft()


class Tally:
    """The stream's composition as sent: per kind requests, jobs and time."""

    def __init__(self) -> None:
        self.requests: Counter = Counter()
        self.jobs: Counter = Counter()
        self.seconds: Counter = Counter()
        self.repeats = 0

    def add(self, item: StreamItem, latency_s: float) -> None:
        self.requests[item.kind] += 1
        self.jobs[item.kind] += item.jobs
        self.seconds[item.kind] += latency_s
        self.repeats += item.repeat_of is not None

    def lines(self, with_time: bool = False) -> list[str]:
        """Requests and jobs per kind, repeat share and window (and time share)."""
        total = sum(self.requests.values()) or 1
        total_s = sum(self.seconds.values()) or 1.0
        lines = [
            f"stream: {total} requests, repeats {self.repeats / total:.1%} "
            f"(window {WINDOW}), block {BLOCK_SIZE}"
        ]
        for kind in KINDS:
            count = self.requests[kind]
            line = (
                f"  {kind:9s} {count:6d} req ({count / total:6.1%}) "
                f"{self.jobs[kind] / count if count else 0.0:5.2f} jobs/req"
            )
            if with_time:
                line += f"  {self.seconds[kind] / total_s:6.1%} of request time"
            lines.append(line)
        return lines


def warmup_requests(seed: int) -> list[tuple[str, object]]:
    """``(kind, request)`` for every kind, from a seed the timed stream never uses."""
    rng = np.random.default_rng([seed, 1])
    return [(kind, _fresh(rng, kind)[0]) for kind in KINDS]
