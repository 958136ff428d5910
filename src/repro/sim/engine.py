"""Instrumented cycle-level execution of the RED schedule.

:class:`CycleEngine` replays the zero-skipping schedule against a (folded)
sub-crossbar tensor while recording a :class:`Trace` and a
:class:`CounterSet` — the observable the performance model's closed-form
counts are validated against (``tests/integration``).  The arithmetic is
identical to :meth:`repro.core.red_design.REDDesign.run_cycle_accurate`;
this engine adds observability rather than a second semantics.

The schedule is *compiled* once per ``(spec, fold)`` pair into flat NumPy
index arrays by the analytic compiler (:mod:`repro.sim.compiler` —
closed-form meshgrid construction, LRU-cached, no Python event walk) and
the MAC accumulation is executed as one batched matmul per kernel tap
instead of one Python-level matvec per (round, fold, sub-crossbar) event.
With tracing disabled (``trace_limit=0`` — the
:class:`~repro.sim.batch.BatchEngine` hot path), runs never touch the
scalar walk at all; a traced run still streams one scalar walk
(:func:`~repro.sim.compiler.walk_events`) per call into its bounded
event ring.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fold import fold_sct
from repro.core.mapping import build_sct
from repro.deconv.shapes import DeconvSpec
from repro.errors import ShapeError
from repro.sim.compiler import CompiledSchedule, compile_schedule, walk_events
from repro.sim.counters import CounterSet
from repro.sim.trace import Trace


@dataclass
class InstrumentedRun:
    """Output of an engine run: values plus observability artifacts."""

    output: np.ndarray
    cycles: int
    counters: CounterSet
    trace: Trace


def counters_from_schedule(compiled: CompiledSchedule) -> CounterSet:
    """The activity counters a run over ``compiled`` tallies.

    Only counters that fired are materialized, matching the event-driven
    accounting (a key exists iff at least one event occurred).  Shared by
    :class:`CycleEngine`, the fused :class:`~repro.sim.batch.BatchEngine`
    executor and :func:`repro.eval.parallel.run_cycle_jobs`, which reads
    a job's counters off its schedule without executing it.
    """
    c = compiled.spec.in_channels
    counters = CounterSet()
    for name, value in (
        ("buffer_reads", compiled.buffer_reads),
        ("sc_fire", compiled.num_fires),
        ("live_rows", compiled.num_fires * c),
        ("sc_idle", compiled.sc_idle),
        ("output_pixels", compiled.output_pixels),
    ):
        if value:
            counters.add(name, value)
    return counters


class CycleEngine:
    """Replays the RED schedule with tracing enabled.

    Args:
        spec: layer specification.
        fold: Eq. 2 interleave factor.
        trace_limit: maximum retained trace events; ``0`` disables trace
            replay entirely (counters are unaffected), which is what the
            batch engine uses on its hot path.  A non-zero limit replays
            one scalar schedule walk per ``run`` call to populate the
            ring — pass ``0`` when you don't read the trace.
    """

    def __init__(self, spec: DeconvSpec, fold: int = 1, trace_limit: int = 100_000) -> None:
        self.spec = spec
        self.fold = fold
        self.trace_limit = trace_limit

    def run(self, x: np.ndarray, w: np.ndarray) -> InstrumentedRun:
        """Execute the layer through the compiled, batched schedule."""
        spec = self.spec
        if tuple(x.shape) != spec.input_shape:
            raise ShapeError(f"input shape {x.shape} != spec {spec.input_shape}")
        if tuple(w.shape) != spec.kernel_shape:
            raise ShapeError(f"kernel shape {w.shape} != spec {spec.kernel_shape}")
        compiled = compile_schedule(spec, self.fold)
        folded = fold_sct(build_sct(w.astype(np.float64, copy=False), spec), self.fold)
        c = spec.in_channels
        oh, ow, m = spec.output_shape
        x_rows = np.ascontiguousarray(
            x.astype(np.float64, copy=False).reshape(-1, c)
        )
        out_flat = np.zeros((oh * ow, m), dtype=np.float64)
        for group in compiled.tap_groups:
            segment = folded.data[group.slot * c : (group.slot + 1) * c, :, group.phys]
            # Output pixels are unique within a tap group, so a fancy-index
            # accumulate is exact (no np.add.at needed).
            out_flat[group.outputs] += x_rows[group.pixels] @ segment
        trace = Trace(max_events=self.trace_limit)
        if self.trace_limit > 0:
            self._replay_trace(compiled, trace)
        return InstrumentedRun(
            output=out_flat.reshape(oh, ow, m),
            cycles=compiled.cycles,
            counters=counters_from_schedule(compiled),
            trace=trace,
        )

    def _replay_trace(self, compiled: CompiledSchedule, trace: Trace) -> None:
        """Re-emit the per-slot event interleaving of the scalar walk.

        Streams :func:`~repro.sim.compiler.walk_events` directly into the
        bounded trace ring, so memory stays capped at ``trace_limit``
        regardless of layer size (the old scalar engine's behavior).
        """
        fold = compiled.fold
        for event in walk_events(compiled.spec, fold):
            kind = event[0]
            base = event[1] * fold
            if kind == "fetch":
                trace.record(base, "input_fetch", event[2])
            elif kind == "fire":
                _, _slot, f, n, tap, pixel, _target = event
                trace.record(base + f, "sc_fire", (n, f, tap, pixel[0], pixel[1]))
            elif kind == "write":
                trace.record(base + fold - 1, "output_write", event[2])
