"""Job-level front end of the vectorized analytic evaluation plane.

:func:`evaluate_design_jobs_batch` takes a flat list of
:class:`~repro.eval.parallel.DesignJob` entries and groups them by
technology value.  Per technology it packs every job's spec once into a
design-major :class:`~repro.deconv.shapes.SpecArrays` (one contiguous
row run per canonical design), computing the counts all designs share —
output sizes, kernel taps, useful MACs — once for the whole pack.  Each
design family's registered ``perf_batch`` hook (:mod:`repro.api.registry`)
turns its row slice into a :class:`~repro.arch.metrics_batch.PerfInputBatch`;
the parts join into one batch and
:func:`~repro.arch.metrics_batch.evaluate_perf_batch` runs once per
technology — no per-job design objects, no process pool, and one set of
NumPy array ops per technology rather than per (design, technology).
That fixed cost dominates small requests (a stride sweep or a Table-I
layer comparison is a handful of jobs), and because every formula is
elementwise over jobs, a job's result does not depend on what else
shares its batch.

This is the default execution path for analytic cache misses inside
:func:`repro.eval.parallel.run_design_jobs`; the scalar per-job walk
(:func:`~repro.eval.parallel.evaluate_design_job`) survives as the
bit-identity oracle (``tests/eval/test_vectorized.py``) and as the
fallback for designs that do not implement the batch hook.
"""

from __future__ import annotations

from itertools import accumulate
from typing import TYPE_CHECKING, Sequence

from repro.api.registry import get_design, resolve_design
from repro.arch.breakdown import DesignMetrics
from repro.arch.metrics_batch import PerfInputBatch, evaluate_perf_batch
from repro.deconv.shapes import SpecArrays
from repro.errors import ParameterError
from repro.eval.parallel import _tech_segments

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.eval.parallel import DesignJob


def evaluate_design_jobs_batch(
    jobs: Sequence["DesignJob"],
) -> list[DesignMetrics]:
    """Evaluate jobs through the vectorized plane, in job order.

    Every job's design must provide a ``perf_batch`` hook (its registry
    entry's ``perf_batch``); mixed-capability work lists are the
    caller's concern (``run_design_jobs`` partitions before calling).
    Jobs are grouped by technology key segment (distinct instances that
    print alike share a group) and, within a tech, run design-major:
    each hook sees one contiguous row slice of the tech's spec pack.
    ``fold=None`` canonicalizes to ``'auto'`` exactly as the scalar
    build path does.

    Returns:
        Per-job :class:`DesignMetrics`, bit-identical to
        :func:`~repro.eval.parallel.evaluate_design_job` on each job.
    """
    results: list[DesignMetrics | None] = [None] * len(jobs)
    # Registry resolution is memoized per design string; the technology
    # key segments keep the hash-expensive instances out of the group
    # keys.
    canonical: dict[str, str] = {}
    groups: dict[str, dict[str, list[int]]] = {}
    for index, (job, tech) in enumerate(zip(jobs, _tech_segments(jobs))):
        design = canonical.get(job.design)
        if design is None:
            design = canonical[job.design] = resolve_design(job.design)
        by_design = groups.setdefault(tech, {})
        by_design.setdefault(design, []).append(index)

    for by_design in groups.values():
        order = [index for indices in by_design.values() for index in indices]
        tech = jobs[order[0]].tech
        packs = SpecArrays.from_specs([jobs[i].spec for i in order]).split(
            list(accumulate(len(indices) for indices in by_design.values()))
        )
        parts = []
        for (design, indices), arrays in zip(by_design.items(), packs):
            hook = get_design(design).perf_batch
            if hook is None:
                raise ParameterError(
                    f"design {design!r} has no perf_batch hook; "
                    "route it through the scalar path instead"
                )
            part = hook(
                arrays,
                ["auto" if jobs[i].fold is None else jobs[i].fold for i in indices],
                tech,
                [jobs[i].layer_name for i in indices],
            )
            if len(part) != len(indices):
                raise ParameterError(
                    f"design {design!r}'s perf_batch hook returned "
                    f"{len(part)} rows for {len(indices)} jobs"
                )
            parts.append(part)
        evaluated = evaluate_perf_batch(PerfInputBatch.concat(parts), tech)
        for index, metrics in zip(order, evaluated):
            results[index] = metrics
    return results  # type: ignore[return-value]
