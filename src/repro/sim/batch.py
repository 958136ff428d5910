"""Batched cycle-level simulation of many ``(spec, fold)`` jobs.

Sweeps and benchmarks evaluate dozens of layer shapes, often many jobs
over the *same* shape (seeds, batch elements, Monte-Carlo operands).
:class:`BatchEngine` therefore executes jobs **fused by schedule**: jobs
sharing a ``(spec, fold)`` pair are grouped, their operands stacked into
one ``(B, pixels, C)`` tensor, and every kernel-tap group of the
analytically compiled schedule (:mod:`repro.sim.compiler`) runs as one
batched matmul across the whole group, accumulating into a pooled
``(B, OH*OW, M)`` output arena.  Python-level work per group is O(taps),
not O(jobs x taps).

The fused float64 path is *bit-identical* to running each job through
:class:`~repro.sim.engine.CycleEngine` by hand — same compiled schedule,
same per-tap GEMMs and accumulation order — which
``tests/sim/test_batch_engine.py`` and
``benchmarks/bench_cycle_compile.py`` assert exactly.  Throughput-bound
sweeps can opt into ``dtype=np.float32`` execution (tolerance-tested,
not bit-identical).  Requesting a per-job trace (``trace_limit > 0``)
falls back to per-job engine runs, since traces are inherently per job.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.fold import resolve_fold
from repro.deconv.shapes import DeconvSpec
from repro.errors import ParameterError, ShapeError
from repro.sim.compiler import compile_schedule
from repro.sim.counters import CounterSet
from repro.sim.engine import CycleEngine, counters_from_schedule


@dataclass(frozen=True)
class BatchJob:
    """One layer execution request.

    Attributes:
        spec: layer specification.
        fold: Eq. 2 interleave factor, or ``'auto'`` for the area-capped
            choice (same rule as :class:`~repro.core.red_design.REDDesign`).
        seed: RNG seed used to synthesize operands when none are supplied.
        label: free-form tag carried through to the result.
    """

    spec: DeconvSpec
    fold: int | str = 1
    seed: int = 0
    label: str = ""

    def resolved_fold(self, max_sub_crossbars: int = 128) -> int:
        """The concrete fold this job runs with (shared resolution rule)."""
        return resolve_fold(self.spec, self.fold, max_sub_crossbars)


@dataclass
class BatchJobResult:
    """Output of one job within a batch."""

    job: BatchJob
    fold: int
    output: np.ndarray
    cycles: int
    counters: dict[str, int]


@dataclass
class BatchResult:
    """Per-job results plus batch-level aggregate statistics."""

    results: list[BatchJobResult] = field(default_factory=list)

    @property
    def num_jobs(self) -> int:
        return len(self.results)

    @property
    def total_cycles(self) -> int:
        """Sum of compute rounds over every job."""
        return sum(r.cycles for r in self.results)

    def merged_counters(self) -> CounterSet:
        """All per-job activity counters summed into one set."""
        merged = CounterSet()
        for result in self.results:
            for name, value in result.counters.items():
                merged.add(name, value)
        return merged

    def group_sizes(self) -> dict[tuple[DeconvSpec, int], int]:
        """Job count per fused ``(spec, fold)`` execution group."""
        sizes: dict[tuple[DeconvSpec, int], int] = {}
        for result in self.results:
            key = (result.job.spec, result.fold)
            sizes[key] = sizes.get(key, 0) + 1
        return sizes

    def summary(self) -> dict[str, object]:
        """Aggregate statistics for reports and benchmarks.

        Besides the counter roll-ups, reports the grouping efficiency of
        the fused executor: the resolved-fold distribution, the number of
        distinct ``(spec, fold)`` groups and their per-group job counts
        (descending — a single large group means maximal fusion).
        """
        counters = self.merged_counters()
        jobs = max(self.num_jobs, 1)
        folds: dict[int, int] = {}
        for result in self.results:
            folds[result.fold] = folds.get(result.fold, 0) + 1
        sizes = sorted(self.group_sizes().values(), reverse=True)
        return {
            "jobs": self.num_jobs,
            "total_cycles": self.total_cycles,
            "mean_cycles_per_job": self.total_cycles / jobs,
            "sc_fires": counters.get("sc_fire"),
            "buffer_reads": counters.get("buffer_reads"),
            "live_rows": counters.get("live_rows"),
            "output_pixels": counters.get("output_pixels"),
            "fold_distribution": dict(sorted(folds.items())),
            "num_groups": len(sizes),
            "group_sizes": sizes,
            "mean_jobs_per_group": self.num_jobs / max(len(sizes), 1),
        }


class BatchEngine:
    """Run many jobs through the cycle engine with shared compilation.

    Args:
        max_sub_crossbars: SC budget used to resolve ``fold='auto'``.
        trace_limit: per-job trace budget; the default ``0`` takes the
            fused cross-job path (counters are still exact).  A non-zero
            limit runs jobs one at a time through a traced
            :class:`~repro.sim.engine.CycleEngine`.
        dtype: execution dtype of the fused path.  ``np.float64`` (the
            default) is bit-identical to per-job engine runs;
            ``np.float32`` halves memory traffic for throughput-bound
            sweeps at standard single-precision tolerance.  Combining a
            non-float64 dtype with tracing is rejected rather than
            silently ignored.
    """

    def __init__(
        self,
        max_sub_crossbars: int = 128,
        trace_limit: int = 0,
        dtype: np.dtype | str = np.float64,
    ) -> None:
        self.max_sub_crossbars = max_sub_crossbars
        self.trace_limit = trace_limit
        self.dtype = np.dtype(dtype)
        if self.dtype.kind != "f":
            raise ParameterError(f"dtype must be a float dtype, got {self.dtype}")
        if trace_limit > 0 and self.dtype != np.float64:
            raise ParameterError(
                "dtype overrides apply to the fused path only; the traced "
                f"per-job fallback (trace_limit={trace_limit}) always runs "
                "float64"
            )

    def operands_for(self, job: BatchJob) -> tuple[np.ndarray, np.ndarray]:
        """Deterministic synthetic operands for a job (seeded normal)."""
        rng = np.random.default_rng(job.seed)
        x = rng.normal(size=job.spec.input_shape)
        w = rng.normal(size=job.spec.kernel_shape)
        return x, w

    def run(
        self,
        jobs: list[BatchJob] | tuple[BatchJob, ...],
        operands: list[tuple[np.ndarray, np.ndarray]] | None = None,
    ) -> BatchResult:
        """Execute every job and collect the batch result (in job order).

        Args:
            jobs: the work list; jobs sharing ``(spec, fold)`` are fused
                into one stacked execution over a single compiled
                schedule.
            operands: optional explicit ``(x, w)`` pairs, one per job;
                omitted entries are synthesized from ``job.seed``.
        """
        jobs = list(jobs)
        if not jobs:
            raise ParameterError("jobs must be non-empty")
        if operands is not None and len(operands) != len(jobs):
            raise ShapeError(
                f"got {len(operands)} operand pairs for {len(jobs)} jobs"
            )
        pairs = [
            operands[index] if operands is not None else self.operands_for(job)
            for index, job in enumerate(jobs)
        ]
        for job, (x, w) in zip(jobs, pairs):
            if tuple(np.shape(x)) != job.spec.input_shape:
                raise ShapeError(
                    f"input shape {np.shape(x)} != spec {job.spec.input_shape}"
                )
            if tuple(np.shape(w)) != job.spec.kernel_shape:
                raise ShapeError(
                    f"kernel shape {np.shape(w)} != spec {job.spec.kernel_shape}"
                )
        folds = [job.resolved_fold(self.max_sub_crossbars) for job in jobs]
        if self.trace_limit > 0:
            return self._run_per_job(jobs, pairs, folds)
        return self._run_fused(jobs, pairs, folds)

    def _run_per_job(self, jobs, pairs, folds) -> BatchResult:
        """Traced fallback: one :class:`CycleEngine` run per job."""
        results = [
            BatchJobResult(
                job=job,
                fold=fold,
                output=run.output,
                cycles=run.cycles,
                counters=run.counters.as_dict(),
            )
            for job, (x, w), fold in zip(jobs, pairs, folds)
            for run in (
                CycleEngine(job.spec, fold=fold, trace_limit=self.trace_limit).run(x, w),
            )
        ]
        return BatchResult(results=results)

    def _run_fused(self, jobs, pairs, folds) -> BatchResult:
        """The hot path: one stacked execution per ``(spec, fold)`` group.

        Per group, the Eq. 1 tap segment ``W[kh, kw]`` is read directly
        from the stacked raw kernels — the folded sub-crossbar tensor
        stores exactly that ``(C, M)`` matrix at ``(slot, phys)``, so no
        per-job SCT/fold construction is needed on this path.
        """
        groups: dict[tuple[DeconvSpec, int], list[int]] = {}
        for index, (job, fold) in enumerate(zip(jobs, folds)):
            groups.setdefault((job.spec, fold), []).append(index)
        results: list[BatchJobResult | None] = [None] * len(jobs)
        for (spec, fold), indices in groups.items():
            compiled = compile_schedule(spec, fold)
            c = spec.in_channels
            kw_width = spec.kernel_width
            oh, ow, m = spec.output_shape
            x_stack = np.stack(
                [
                    np.asarray(pairs[i][0], dtype=np.float64).reshape(-1, c)
                    for i in indices
                ]
            ).astype(self.dtype, copy=False)
            w_stack = np.stack(
                [np.asarray(pairs[i][1], dtype=np.float64) for i in indices]
            ).astype(self.dtype, copy=False)
            arena = np.zeros((len(indices), oh * ow, m), dtype=self.dtype)
            for group in compiled.tap_groups:
                kh, kw = divmod(group.tap, kw_width)
                # (B, P, C) @ (B, C, M): one GEMM per job and tap, same
                # operand values/shapes as the per-job engine, so the
                # float64 results are bit-identical.  Outputs are unique
                # within a tap group, so the fancy-index accumulate is
                # exact.
                arena[:, group.outputs, :] += np.matmul(
                    x_stack[:, group.pixels, :], w_stack[:, kh, kw]
                )
            counters = counters_from_schedule(compiled).as_dict()
            for row, index in enumerate(indices):
                results[index] = BatchJobResult(
                    job=jobs[index],
                    fold=fold,
                    # Copy out of the arena: a view would pin the whole
                    # group's memory for as long as any one result lives.
                    output=arena[row].reshape(oh, ow, m).copy(),
                    cycles=compiled.cycles,
                    counters=dict(counters),
                )
        return BatchResult(results=results)  # type: ignore[arg-type]
