"""Analytic (closed-form) compilation of the zero-skipping schedule.

The scalar schedule walk (:func:`walk_events`) replays every fire/idle/
fetch/write event of :class:`~repro.core.dataflow.ZeroSkippingSchedule`
one Python iteration at a time — O(fires) interpreter work per cold
``(spec, fold)`` pair.  This module derives the same
:class:`CompiledSchedule` *analytically* from the block decomposition:

* Tap ``(kh, kw)`` serves computation mode ``((kh-p) mod s, (kw-p) mod s)``
  (:mod:`repro.deconv.modes`), so in output block ``(by, bx)`` it touches
  output pixel ``(by*s + phase_y, bx*s + phase_x)`` and input pixel
  ``(by - shift_y, bx - shift_x)`` with ``shift = floor((k - p) / s)``.
  Both the in-range conditions and the pixel indices are separable in
  ``y``/``x``, so each tap fires exactly on a *rectangle* of blocks and
  its :class:`TapGroup` index arrays are a row-major meshgrid — no event
  walk needed.
* The counters factorize the same way: per-tap fire counts are products
  of per-axis block counts, write events cover each output pixel exactly
  once, and the per-block distinct-input count (buffer reads) is the
  product of per-axis distinct ``shift`` counts over the live taps.

:func:`compile_schedule` is the cached front door (an LRU of
``DEFAULT_SCHEDULE_CACHE_CAPACITY`` entries);
:func:`compile_schedule_via_walk` keeps the scalar walk as the oracle the
analytic path is tested against (``tests/sim/test_compiler.py``), and
the trace replay in :class:`~repro.sim.engine.CycleEngine` still streams
:func:`walk_events` directly.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.core.dataflow import ZeroSkippingSchedule
from repro.core.fold import fold_tap_slots
from repro.deconv.modes import decompose_modes
from repro.deconv.shapes import DeconvSpec
from repro.utils.validation import check_positive_int

#: Compiled schedules the LRU holds, least recently used evicted first.
DEFAULT_SCHEDULE_CACHE_CAPACITY = 64


@dataclass(frozen=True)
class TapGroup:
    """All fire events of one kernel tap, batched for vector execution.

    Attributes:
        tap: flat tap index ``kh * KW + kw``.
        phys: physical sub-crossbar holding the tap.
        slot: Eq. 2 fold slot of the tap within ``phys``.
        pixels: flat input-pixel index (``ih * IW + iw``) per event.
        outputs: flat output-pixel index (``oy * OW + ox``) per event;
            unique within a group (one block writes one pixel per mode).
    """

    tap: int
    phys: int
    slot: int
    pixels: np.ndarray
    outputs: np.ndarray

    @property
    def nbytes(self) -> int:
        """Memory held by this group's index arrays."""
        return self.pixels.nbytes + self.outputs.nbytes


@dataclass(frozen=True)
class CompiledSchedule:
    """The zero-skipping schedule lowered to flat event arrays.

    Weight-independent: depends only on ``(spec, fold)``, so one compiled
    schedule serves every run over the same layer shape.  Holds only what
    the math and counters need; per-event trace data is never stored here
    — traced runs stream :func:`walk_events` straight into the bounded
    trace ring instead.
    """

    spec: DeconvSpec
    fold: int
    num_slots: int
    cycles: int
    tap_groups: tuple[TapGroup, ...]
    num_fires: int
    sc_idle: int
    buffer_reads: int
    output_pixels: int

    @property
    def nbytes(self) -> int:
        """Memory held by the index arrays (the cache-dominant part)."""
        return sum(group.nbytes for group in self.tap_groups)

    def same_events(self, other: "CompiledSchedule") -> bool:
        """Event-for-event equality: counts, tap-group ordering and the
        row-major pixel/output ordering within every group.

        The canonical analytic-vs-oracle identity check, shared by
        ``tests/sim/test_compiler.py`` and
        ``benchmarks/bench_cycle_compile.py``.
        """
        if (
            self.spec != other.spec
            or self.fold != other.fold
            or self.num_slots != other.num_slots
            or self.cycles != other.cycles
            or self.num_fires != other.num_fires
            or self.sc_idle != other.sc_idle
            or self.buffer_reads != other.buffer_reads
            or self.output_pixels != other.output_pixels
            or len(self.tap_groups) != len(other.tap_groups)
        ):
            return False
        return all(
            mine.tap == theirs.tap
            and mine.phys == theirs.phys
            and mine.slot == theirs.slot
            and np.array_equal(mine.pixels, theirs.pixels)
            and np.array_equal(mine.outputs, theirs.outputs)
            for mine, theirs in zip(self.tap_groups, other.tap_groups)
        )


def walk_events(spec: DeconvSpec, fold: int):
    """Generate the scalar walk's events, one at a time, in exact order.

    Yields ``('fetch', slot, pixel)``, ``('idle', slot, f)``,
    ``('fire', slot, f, n, tap, pixel, target)`` and
    ``('write', slot, (oy, ox, mode))`` — the trace-replay path and the
    oracle the analytic compiler is validated against, without ever
    materializing the full event list.
    """
    schedule = ZeroSkippingSchedule(spec)
    tap_slots = fold_tap_slots(spec, fold)
    tap_mode = {
        kh * spec.kernel_width + kw: idx
        for idx, mode in enumerate(decompose_modes(spec))
        for kh, kw in mode.taps
    }
    for slot_index, slot in enumerate(schedule.cycles()):
        mode_target = {mode: (oy, ox) for oy, ox, mode in slot.outputs}
        for pixel in slot.distinct_inputs:
            yield ("fetch", slot_index, pixel)
        for f in range(fold):
            for n, slots in enumerate(tap_slots):
                tap = slots[f]
                if tap is None:
                    continue
                kh, kw = divmod(tap, spec.kernel_width)
                pixel = slot.assignments.get((kh, kw))
                if pixel is None:
                    yield ("idle", slot_index, f)
                    continue
                target = mode_target.get(tap_mode[tap])
                if target is None:
                    yield ("idle", slot_index, f)
                    continue
                yield ("fire", slot_index, f, n, tap, pixel, target)
        for out in slot.outputs:
            yield ("write", slot_index, out)


def compile_schedule_via_walk(spec: DeconvSpec, fold: int) -> CompiledSchedule:
    """Lower the schedule by replaying the scalar event walk (the oracle).

    O(fires) Python iterations — kept uncached as the reference the
    analytic :func:`compile_schedule` path is gated against, both in
    ``tests/sim/test_compiler.py`` and in
    ``benchmarks/bench_cycle_compile.py``.
    """
    iw, ow = spec.input_width, spec.output_width
    per_tap: dict[int, tuple[int, int, list[int], list[int]]] = {}
    num_fires = 0
    buffer_reads = 0
    output_pixels = 0
    sc_idle = 0
    for event in walk_events(spec, fold):
        kind = event[0]
        if kind == "fire":
            _, _slot, f, n, tap, pixel, target = event
            entry = per_tap.setdefault(tap, (n, f, [], []))
            entry[2].append(pixel[0] * iw + pixel[1])
            entry[3].append(target[0] * ow + target[1])
            num_fires += 1
        elif kind == "fetch":
            buffer_reads += 1
        elif kind == "idle":
            sc_idle += 1
        else:
            output_pixels += 1
    blocks_y, blocks_x = ZeroSkippingSchedule(spec).num_blocks
    num_slots = blocks_y * blocks_x
    return CompiledSchedule(
        spec=spec,
        fold=fold,
        num_slots=num_slots,
        cycles=num_slots * fold,
        tap_groups=tuple(
            TapGroup(
                tap=tap,
                phys=n,
                slot=f,
                pixels=np.asarray(pixels, dtype=np.intp),
                outputs=np.asarray(outputs, dtype=np.intp),
            )
            for tap, (n, f, pixels, outputs) in sorted(per_tap.items())
        ),
        num_fires=num_fires,
        sc_idle=sc_idle,
        buffer_reads=buffer_reads,
        output_pixels=output_pixels,
    )


@dataclass(frozen=True)
class _AxisGeometry:
    """Per-axis (y or x) tap geometry of the block decomposition.

    For kernel coordinate ``k`` along one axis: ``phase[k]`` is the output
    residue the tap serves, ``shift[k] = floor((k - p) / s)`` maps block
    index ``b`` to input coordinate ``b - shift[k]``, and
    ``[lo[k], hi[k])`` is the (possibly empty) live block range where both
    the output pixel and the input pixel are in bounds.  ``reads_total``
    is ``sum_b |{shift[k] : k live at b}|`` — the per-axis factor of the
    distinct-input (buffer read) count.
    """

    phase: np.ndarray
    shift: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    counts: np.ndarray
    num_blocks: int
    reads_total: int


def _axis_geometry(kernel: int, pad: int, stride: int, in_size: int, out_size: int) -> _AxisGeometry:
    """Solve one axis of the block decomposition in closed form."""
    num_blocks = -(-out_size // stride)
    k = np.arange(kernel)
    phase = (k - pad) % stride
    shift = (k - pad) // stride
    # Output in range: b * s + phase <= out_size - 1.
    out_hi = np.where(phase < out_size, (out_size - 1 - phase) // stride + 1, 0)
    # Input in range: 0 <= b - shift < in_size.
    lo = np.maximum(0, shift)
    hi = np.minimum(np.minimum(num_blocks, shift + in_size), out_hi)
    counts = np.maximum(0, hi - lo)
    # Distinct shift values over the live taps of each block, summed over
    # blocks: the axis factor of the buffer-read count (live taps — and
    # hence live input coordinates — form a product set across axes).
    blocks = np.arange(num_blocks)
    live = (blocks[:, None] >= lo[None, :]) & (blocks[:, None] < hi[None, :])
    reads = np.zeros(num_blocks, dtype=np.int64)
    for value in np.unique(shift):
        reads += live[:, shift == value].any(axis=1)
    return _AxisGeometry(
        phase=phase,
        shift=shift,
        lo=lo,
        hi=hi,
        counts=counts,
        num_blocks=num_blocks,
        reads_total=int(reads.sum()),
    )


def build_compiled_schedule(spec: DeconvSpec, fold: int) -> CompiledSchedule:
    """Derive the compiled schedule analytically (uncached).

    Event-for-event identical to :func:`compile_schedule_via_walk` —
    same tap-group ordering, same row-major pixel/output ordering within
    each group, same counter values — but built from meshgrid index
    arithmetic in O(taps) NumPy calls instead of O(fires) Python
    iterations.
    """
    check_positive_int(fold, "fold")
    s = spec.stride
    iw, ow = spec.input_width, spec.output_width
    ys = _axis_geometry(spec.kernel_height, spec.padding, s, spec.input_height, spec.output_height)
    xs = _axis_geometry(spec.kernel_width, spec.padding, s, spec.input_width, spec.output_width)

    tap_place = {
        tap: (n, f)
        for n, slots in enumerate(fold_tap_slots(spec, fold))
        for f, tap in enumerate(slots)
        if tap is not None
    }
    groups: list[TapGroup] = []
    for kh in range(spec.kernel_height):
        ny = int(ys.counts[kh])
        if ny == 0:
            continue
        by = np.arange(ys.lo[kh], ys.hi[kh])
        ih_rows = ((by - ys.shift[kh]) * iw)[:, None]
        oy_rows = ((by * s + ys.phase[kh]) * ow)[:, None]
        for kw in range(spec.kernel_width):
            if xs.counts[kw] == 0:
                continue
            tap = kh * spec.kernel_width + kw
            bx = np.arange(xs.lo[kw], xs.hi[kw])
            n, f = tap_place[tap]
            groups.append(
                TapGroup(
                    tap=tap,
                    phys=n,
                    slot=f,
                    pixels=(ih_rows + (bx - xs.shift[kw])[None, :]).ravel().astype(np.intp, copy=False),
                    outputs=(oy_rows + (bx * s + xs.phase[kw])[None, :]).ravel().astype(np.intp, copy=False),
                )
            )
    num_slots = ys.num_blocks * xs.num_blocks
    num_fires = int(ys.counts.sum() * xs.counts.sum())
    return CompiledSchedule(
        spec=spec,
        fold=fold,
        num_slots=num_slots,
        cycles=num_slots * fold,
        tap_groups=tuple(groups),
        num_fires=num_fires,
        # Every (slot, occupied fold-slot) pair either fires or idles.
        sc_idle=num_slots * spec.num_kernel_taps - num_fires,
        buffer_reads=ys.reads_total * xs.reads_total,
        # The schedule writes each output pixel exactly once
        # (ZeroSkippingSchedule.coverage_check).
        output_pixels=spec.num_output_pixels,
    )


# ----------------------------------------------------------------------
# Cached front door
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScheduleCacheEntry:
    """One resident compiled schedule: its key plus memory footprint."""

    spec: DeconvSpec
    fold: int
    nbytes: int


@dataclass(frozen=True)
class ScheduleCacheInfo:
    """Snapshot of the compiled-schedule LRU (hits/misses/footprint).

    ``entries`` are ordered least- to most-recently used, each carrying
    the index-array footprint of its schedule, so long-lived sweep
    processes can see exactly what :func:`clear_compiled_schedules`
    would release.
    """

    hits: int
    misses: int
    capacity: int
    entries: tuple[ScheduleCacheEntry, ...]

    @property
    def size(self) -> int:
        """Resident entry count."""
        return len(self.entries)


_cache_lock = threading.Lock()
_cache: OrderedDict[tuple[DeconvSpec, int], CompiledSchedule] = OrderedDict()
_cache_hits = 0
_cache_misses = 0


def compile_schedule(spec: DeconvSpec, fold: int) -> CompiledSchedule:
    """Analytically compile (LRU-cached per ``(spec, fold)``).

    A compiled schedule's index arrays scale with the layer's fire-event
    count, so the LRU holds at most ``DEFAULT_SCHEDULE_CACHE_CAPACITY``
    of them; long-lived processes can release everything with
    :func:`clear_compiled_schedules`, and :func:`schedule_cache_info`
    shows the per-entry footprint.
    """
    global _cache_hits, _cache_misses
    key = (spec, fold)
    with _cache_lock:
        cached = _cache.get(key)
        if cached is not None:
            _cache.move_to_end(key)
            _cache_hits += 1
            return cached
        _cache_misses += 1
    compiled = build_compiled_schedule(spec, fold)
    with _cache_lock:
        _cache[key] = compiled
        _cache.move_to_end(key)
        while len(_cache) > DEFAULT_SCHEDULE_CACHE_CAPACITY:
            _cache.popitem(last=False)
    return compiled


def schedule_cache_info() -> ScheduleCacheInfo:
    """Hits, misses, capacity and per-entry memory of the schedule LRU."""
    with _cache_lock:
        return ScheduleCacheInfo(
            hits=_cache_hits,
            misses=_cache_misses,
            capacity=DEFAULT_SCHEDULE_CACHE_CAPACITY,
            entries=tuple(
                ScheduleCacheEntry(spec=spec, fold=fold, nbytes=compiled.nbytes)
                for (spec, fold), compiled in _cache.items()
            ),
        )


def clear_compiled_schedules() -> None:
    """Release every cached compiled schedule (memory pressure valve)."""
    global _cache_hits, _cache_misses
    with _cache_lock:
        _cache.clear()
        _cache_hits = 0
        _cache_misses = 0
