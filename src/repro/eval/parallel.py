"""The sweep runners: one probe -> dedupe -> compute -> publish pipeline.

Every sweep in the repo — the stride sweep (:mod:`repro.eval.sweeps`),
the design x layer grid (:mod:`repro.eval.harness`), whole-network
evaluation (:mod:`repro.system.network_mapper`) and the device-fidelity
frontiers — reduces to a flat list of independent jobs
(:class:`DesignJob`, :class:`FidelityJob`).  This module is the single
in-process execution substrate for those lists:

1. :func:`job_key` / :func:`job_keys` (and the fidelity pair) — a
   SHA-256 over the canonical field-by-field representation of a job,
   a schema version and a payload *kind*: the keys of the kinds the
   store persists (cycle traces, fidelity samples).  Changing *any*
   field of the spec or of :class:`~repro.arch.tech.TechnologyParams`
   changes the key, so stale results can never be served after a
   calibration tweak (``tests/eval/test_sweep_cache.py``).  The batched
   forms share one memo loop (:func:`_hashed_keys`) and are
   property-tested equal to the scalar forms
   (``tests/eval/test_store.py``).  Analytic metrics never reach disk
   (they live in a :class:`~repro.api.service.RedService`'s memo, or
   in the memory tier of a store a direct caller passes), which needs
   no stable hash, so :func:`metrics_keys` keys them by value instead,
   grouping jobs exactly as :func:`job_keys` does.
2. :func:`_run_pipeline` — the one pipeline behind every runner.  With
   a :class:`~repro.eval.store.PackedSweepStore` it makes one batched
   probe (keys + ``get_many``); misses are deduped (by store key, or
   without a store by a hash-free value token inducing the same
   partition: :func:`metrics_keys` for design and cycle jobs), the
   deadline is checked, one compute step runs under
   the :class:`~repro.reliability.policy.RetryPolicy`, one ``put_many``
   publishes, and each result fans out relabelled per requesting job.
   The key/token build and each compute attempt run with CPython's
   cycle collector paused (:func:`_collector_paused`): they build large
   batches of objects that hold no reference cycles, which the
   collector would otherwise rescan many times over.
   Results come back in job order, byte-identical regardless of route
   or store temperature (``tests/properties/test_parallel_determinism.py``).
3. The runners supply their compute step: :func:`run_design_jobs`
   (the vectorized analytic plane, :mod:`repro.eval.vectorized`, with
   the scalar per-job oracle inline for hookless designs and
   ``vectorized=False``), :func:`run_cycle_jobs` (cycles and activity
   counters read off each compiled schedule, :mod:`repro.sim.compiler`,
   ``"cycles"`` kind) and :func:`run_fidelity_jobs` (the batched
   Monte-Carlo sampler, :mod:`repro.reram.batch`, ``"fidelity"`` kind).

Everything runs in the calling process; process parallelism belongs to
the serving plane (``repro serve --shards N``, :mod:`repro.serving`).
Design names resolve through :mod:`repro.api.registry` — no hard-coded
design dispatch here.
"""

from __future__ import annotations

import gc
import hashlib
import os
import pickle
import threading
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Sequence

from repro.api.registry import get_design, resolve_design
from repro.api.registry import build_design as _registry_build_design
from repro.arch.breakdown import DesignMetrics
from repro.arch.tech import TechnologyParams
from repro.deconv.shapes import DeconvSpec, SpecArrays
from repro.errors import ParameterError
from repro.reliability.policy import Deadline, RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only (import cycle guard)
    from repro.designs.base import DeconvDesign
    from repro.eval.store import PackedSweepStore

#: Bump when the cached payload or key layout changes shape.
#: 3: packed segment/index store became the default on-disk layout.
#: 4: device-fidelity plane joined the cache (``kind="fidelity"``).
CACHE_SCHEMA_VERSION = 4

#: Cache namespaces: analytic metrics, cycle-level measurements, and
#: Monte-Carlo device-fidelity samples.
METRICS_KIND = "metrics"
CYCLES_KIND = "cycles"
FIDELITY_KIND = "fidelity"


@dataclass(frozen=True)
class DesignJob:
    """One (design, layer, technology) evaluation request.

    Attributes:
        design: a design name or alias registered in
            :mod:`repro.api.registry` (see ``available_designs()``).
        spec: the layer shape.
        tech: the concrete technology instance (no ``None`` default here —
            cache keys must be explicit).
        fold: the Eq. 2 fold, ``'auto'``, or ``None`` for the design
            default; ignored by designs without the fold parameter.
        layer_name: label carried into the resulting metrics (not part of
            the cache key — identical shapes share one cached result).
    """

    design: str
    spec: DeconvSpec
    tech: TechnologyParams
    fold: int | str | None = None
    layer_name: str = ""


def _canonical_fold(job: DesignJob) -> int | str | None:
    """Fold as it actually affects the evaluation.

    Designs without the fold parameter (per their registry entry) ignore
    the field entirely (canonical ``None``); for fold-aware designs,
    ``None`` is an alias of ``'auto'``.  Canonicalizing before hashing
    lets semantically identical jobs share a cache entry.
    """
    if not get_design(job.design).accepts_fold:
        return None
    return "auto" if job.fold is None else job.fold


@dataclass(frozen=True)
class CycleStats:
    """Cycle-level measurement of one job, as persisted in the cache.

    Schedule-level observables only: the cycle count and activity
    counters of the job's compiled schedule
    (:func:`~repro.sim.engine.counters_from_schedule`), which a
    :class:`~repro.sim.batch.BatchEngine` run of the job reproduces for
    any operands.  No output tensor is computed or stored.

    Attributes:
        design: canonical design name.
        layer: label of the requesting job (relabelled on cache hits,
            exactly like :class:`DesignMetrics`).
        fold: the concrete resolved fold the schedule ran with.
        cycles: compute rounds executed.
        counters: sorted ``(name, value)`` activity-counter pairs.
    """

    design: str
    layer: str
    fold: int
    cycles: int
    counters: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class FidelityStats:
    """One Monte-Carlo device-fidelity sample, as persisted in the cache.

    Produced by the batched sampler (:mod:`repro.reram.batch`): the
    arithmetic error of one design's representative crossbar read under
    programming variation, stuck-at faults, retention drift at
    ``time_s`` and ADC quantization, relative to the exact integer
    column sums.  Error metrics are normalized by the mean absolute
    exact sum, so they are comparable across designs and shapes.

    Attributes:
        design: canonical design name.
        layer: label of the requesting job (relabelled on cache hits,
            exactly like :class:`DesignMetrics`).
        seed: Monte-Carlo seed of this sample.
        time_s: retention time the array was read at, seconds.
        rms_error: relative RMS readout error.
        mean_abs_error: relative mean absolute readout error.
        max_abs_error: relative worst-column readout error.
        stuck_fraction: fraction of cells the fault pattern pinned.
    """

    design: str
    layer: str
    seed: int
    time_s: float
    rms_error: float
    mean_abs_error: float
    max_abs_error: float
    stuck_fraction: float


@dataclass(frozen=True)
class FidelityJob:
    """One (design, layer, technology, scenario, seed, time) fidelity draw.

    The scenario knobs mirror the :class:`~repro.reram.noise.NoiseModel`
    and :class:`~repro.reram.drift.DriftModel` parameters; ``adc_bits``
    (``None`` = lossless) and the ``max_rows``/``max_cols`` caps shape
    the representative crossbar the design's fidelity profile derives.
    ``layer_name`` is a label, not a cache-key input, exactly like
    :class:`DesignJob`.
    """

    design: str
    spec: DeconvSpec
    tech: TechnologyParams
    seed: int = 0
    time_s: float = 1.0
    nu: float = 0.02
    programming_sigma: float = 0.05
    read_noise_sigma: float = 0.0
    stuck_at_rate: float = 0.0
    adc_bits: int | None = None
    max_rows: int = 128
    max_cols: int = 128
    layer_name: str = ""


#: FidelityJob fields that parameterize the sample (cache-key inputs,
#: in key order; ``layer_name`` is deliberately absent).
_FIDELITY_SCENARIO_FIELDS = (
    "seed",
    "time_s",
    "nu",
    "programming_sigma",
    "read_noise_sigma",
    "stuck_at_rate",
    "adc_bits",
    "max_rows",
    "max_cols",
)


def job_key(job: DesignJob, kind: str = METRICS_KIND) -> str:
    """Stable content hash of ``(kind, design, fold, spec, tech)``.

    Field-by-field over the frozen dataclasses so any change to any
    parameter — including a single calibration constant — produces a new
    key.  Deliberately independent of ``layer_name`` (a label, not an
    input) and of process/interpreter state; ``fold`` is canonicalized
    via :func:`_canonical_fold` and the design name via
    :func:`repro.api.registry.resolve_design`, so aliases share entries.
    """
    parts = [
        f"schema={CACHE_SCHEMA_VERSION}",
        f"kind={kind}",
        f"design={resolve_design(job.design)}",
        f"fold={_canonical_fold(job)!r}",
    ]
    for obj in (job.spec, job.tech):
        parts.append(type(obj).__name__)
        parts.extend(f"{f.name}={getattr(obj, f.name)!r}" for f in fields(obj))
    return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()


def _spec_key_segments(specs: Sequence[DeconvSpec]) -> list[str]:
    """Per-spec key segments, built struct-of-arrays in one pass.

    Equivalent to the ``type name + field=value`` walk :func:`job_key`
    performs per spec, but columnar: the unique specs are packed into a
    :class:`~repro.deconv.shapes.SpecArrays` once and each segment is a
    single ``%``-format over the row.  (``repr(int) == '%d' % int``, and
    every :class:`DeconvSpec` field is a validated Python int.)
    """
    if not specs:
        return []
    names = [f.name for f in fields(DeconvSpec)]
    template = "|".join(f"{name}=%d" for name in names)
    exact = [index for index, spec in enumerate(specs) if type(spec) is DeconvSpec]
    segments: list[str] = [""] * len(specs)
    if exact:
        arrays = SpecArrays.from_specs([specs[index] for index in exact])
        columns = [getattr(arrays, name).tolist() for name in names]
        for index, row in zip(exact, zip(*columns)):
            segments[index] = f"DeconvSpec|{template % row}|"
    for index, spec in enumerate(specs):
        if type(spec) is not DeconvSpec:  # subclass: fall back to the walk
            walked = "|".join(
                f"{f.name}={getattr(spec, f.name)!r}" for f in fields(spec)
            )
            segments[index] = f"{type(spec).__name__}|{walked}|"
    return segments


def _design_heads(jobs: Sequence[DesignJob]) -> list[tuple[str, type, object]]:
    """``(canonical design, fold type, canonical fold)`` per job.

    Registry lookups are memoized per design string.  The fold's type
    rides along so value-equal-but-distinct folds (2 vs 2.0) stay apart
    as in :func:`job_key`: an invalid fold must raise, not borrow.
    """
    info: dict[str, tuple[str, bool]] = {}
    heads = []
    for job in jobs:
        entry = info.get(job.design)
        if entry is None:
            registered = get_design(job.design)
            entry = info[job.design] = (registered.name, registered.accepts_fold)
        name, accepts_fold = entry
        fold = ("auto" if job.fold is None else job.fold) if accepts_fold else None
        heads.append((name, fold.__class__, fold))
    return heads


#: Technology segments kept across calls.  Bounded: ``tech_overrides``
#: arrive from the wire, so a stream can carry any number of values.
_TECH_SEGMENT_ENTRIES = 128
#: A plain technology's field names, and its values read as one tuple in C.
_TECH_NAMES = tuple(f.name for f in fields(TechnologyParams))
_TECH_VALUES = attrgetter(*_TECH_NAMES)


@lru_cache(maxsize=_TECH_SEGMENT_ENTRIES)
def _plain_tech_segment(values: bytes) -> str:
    """The segment of a plain :class:`TechnologyParams`, by pickled values.

    Pickled values key exactly where ``TechnologyParams.__eq__`` does
    not: ``0``, ``0.0``, ``-0.0`` and ``False`` compare equal but
    pickle (and print) apart, and each yields its own segment.
    """
    walked = zip(_TECH_NAMES, pickle.loads(values))
    return "|".join(("TechnologyParams", *(f"{name}={value!r}" for name, value in walked)))


def _tech_segment(tech: TechnologyParams) -> str:
    """The ``type name|field=value|...`` segment of one technology.

    A plain instance costs one pickle of its values and a lookup in
    :func:`_plain_tech_segment`'s cache instead of the 42-field walk,
    and value-equal instances share one string object across calls; a
    subclass takes the walk.
    """
    if type(tech) is TechnologyParams:
        return _plain_tech_segment(pickle.dumps(_TECH_VALUES(tech), 5))
    walked = (f"{f.name}={getattr(tech, f.name)!r}" for f in fields(tech))
    return "|".join((type(tech).__name__, *walked))


def _tech_segments(jobs: Sequence) -> list[str]:
    """The :func:`_tech_segment` of each job's technology.

    Memoized by identity within a call: a sweep has thousands of jobs
    but a handful of technology objects.  Grouping loops key by these
    segments rather than by the instances: ``hash(TechnologyParams)``
    walks every field, and instances that compare equal but print apart
    (``t_mux=0`` and ``t_mux=0.0``, which evaluate to int and float
    rows) must not share a group.
    """
    by_id: dict[int, str] = {}
    segments: list[str] = []
    for job in jobs:
        tech = job.tech
        segment = by_id.get(id(tech))
        if segment is None:
            segment = by_id[id(tech)] = _tech_segment(tech)
        segments.append(segment)
    return segments


def _hashed_keys(jobs: Sequence, heads: Sequence[str]) -> list[str]:
    """SHA-256 of ``head + spec segment + tech segment`` per job.

    The memo loop both batched key functions share: spec segments are
    built struct-of-arrays over the unique specs and the technology
    segment comes from :func:`_tech_segments`, so the per-job work is
    one string concatenation plus one SHA-256.
    """
    spec_by_id: dict[int, int] = {}
    spec_slots: dict[DeconvSpec, int] = {}
    unique_specs: list[DeconvSpec] = []
    slots: list[int] = []
    for job in jobs:
        spec = job.spec
        slot = spec_by_id.get(id(spec))
        if slot is None:
            slot = spec_slots.get(spec)
            if slot is None:
                slot = spec_slots[spec] = len(unique_specs)
                unique_specs.append(spec)
            spec_by_id[id(spec)] = slot
        slots.append(slot)
    spec_segments = _spec_key_segments(unique_specs)
    sha256 = hashlib.sha256
    return [
        sha256((head + spec_segments[slot] + tech).encode("utf-8")).hexdigest()
        for head, slot, tech in zip(heads, slots, _tech_segments(jobs))
    ]


def job_keys(jobs: Sequence[DesignJob], kind: str = METRICS_KIND) -> list[str]:
    """All cache keys of a work list in one batched pass.

    Bit-for-bit equal to ``[job_key(job, kind) for job in jobs]``
    (property-tested in ``tests/eval/test_store.py``) but engineered for
    the warm hot path: the ``schema|kind|design|fold`` head is memoized
    per distinct design/fold, and the spec/tech segments come from the
    shared :func:`_hashed_keys` memo loop.
    """
    prefix = f"schema={CACHE_SCHEMA_VERSION}|kind={kind}|design="
    memo: dict[tuple[str, type, object], str] = {}
    heads = []
    for head in _design_heads(jobs):
        text = memo.get(head)
        if text is None:
            text = memo[head] = f"{prefix}{head[0]}|fold={head[2]!r}|"
        heads.append(text)
    return _hashed_keys(jobs, heads)


#: A plain spec's nine int fields, read as one tuple in C.
_SPEC_FIELDS = attrgetter(*(f.name for f in fields(DeconvSpec)))


def metrics_keys(jobs: Sequence[DesignJob]) -> list[tuple]:
    """Value keys of analytic metrics jobs, for the store's memory tier.

    ``(design head, spec values, tech segment)`` per job: the canonical
    design and fold of :func:`_design_heads`, a plain
    :class:`DeconvSpec`'s nine ints (a subclass keys as the spec object
    itself, so it never meets a plain spec), and the technology segment
    of :func:`_tech_segment`.  Every part hashes in C, and jobs fall
    into exactly the groups :func:`job_keys` puts them in
    (property-tested in ``tests/eval/test_store.py``).  Metrics never
    reach disk, so their keys need no stable hash and no kind: no
    persisted kind's key is a tuple.  A key is equal across calls for
    equal jobs, so it can key a memo that outlives the call
    (:class:`~repro.api.service.RedService`'s).  Equal heads and spec
    values share one tuple within a call, and value-equal technologies
    one segment across calls, so a held key costs less than a 64-hex
    string.
    """
    heads: dict[tuple, tuple] = {}
    spec_values: dict[int, object] = {}
    keys = []
    for head, job, tech in zip(_design_heads(jobs), jobs, _tech_segments(jobs)):
        spec = job.spec
        value = spec_values.get(id(spec))
        if value is None:
            value = spec_values[id(spec)] = (
                _SPEC_FIELDS(spec) if type(spec) is DeconvSpec else spec
            )
        keys.append((heads.setdefault(head, head), value, tech))
    return keys


def fidelity_job_key(job: FidelityJob, kind: str = FIDELITY_KIND) -> str:
    """Stable content hash of a fidelity job (labels excluded).

    Field-by-field like :func:`job_key`: the design name is
    canonicalized, every scenario knob, the spec and the technology ride
    in the hash, and ``layer_name`` does not — identical samples share
    one cached :class:`FidelityStats`.
    """
    parts = [
        f"schema={CACHE_SCHEMA_VERSION}",
        f"kind={kind}",
        f"design={resolve_design(job.design)}",
    ]
    parts.extend(
        f"{name}={getattr(job, name)!r}" for name in _FIDELITY_SCENARIO_FIELDS
    )
    for obj in (job.spec, job.tech):
        parts.append(type(obj).__name__)
        parts.extend(f"{f.name}={getattr(obj, f.name)!r}" for f in fields(obj))
    return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()


def fidelity_job_keys(jobs: Sequence[FidelityJob], kind: str = FIDELITY_KIND) -> list[str]:
    """All fidelity cache keys in one batched pass.

    Bit-for-bit equal to ``[fidelity_job_key(job, kind) for job in jobs]``
    (property-tested in ``tests/eval/test_store.py``); the spec/tech
    segments come from the shared :func:`_hashed_keys` memo loop.
    """
    prefix = f"schema={CACHE_SCHEMA_VERSION}|kind={kind}|design="
    heads = []
    for job in jobs:
        scenario = "|".join(
            f"{name}={getattr(job, name)!r}" for name in _FIDELITY_SCENARIO_FIELDS
        )
        heads.append(f"{prefix}{resolve_design(job.design)}|{scenario}|")
    return _hashed_keys(jobs, heads)


def _fidelity_scenarios(jobs: Sequence[FidelityJob]) -> list[tuple]:
    """Value tokens of each job's (design, spec, tech, scenario) group.

    One profile derivation and one batched sampler call serve every
    ``(seed, time_s)`` point of a group.
    """
    return [
        (
            resolve_design(job.design),
            job.spec,
            tech,
            *(getattr(job, name) for name in _FIDELITY_SCENARIO_FIELDS[2:]),
        )
        for job, tech in zip(jobs, _tech_segments(jobs))
    ]


def _fidelity_tokens(jobs: Sequence[FidelityJob]) -> list[tuple]:
    """Hash-free value tokens: the scenario group plus the sample point."""
    return [
        (scenario, job.seed, job.time_s)
        for scenario, job in zip(_fidelity_scenarios(jobs), jobs)
    ]


def build_design_for_job(job: DesignJob) -> DeconvDesign:
    """Instantiate the accelerator design a job describes.

    Thin wrapper over :func:`repro.api.registry.build_design`, the single
    name-to-design dispatch.
    """
    return _registry_build_design(job.design, job.spec, job.tech, fold=job.fold)


def evaluate_design_job(job: DesignJob) -> DesignMetrics:
    """The pure worker: evaluate one job's analytical model."""
    return build_design_for_job(job).evaluate(job.layer_name)


#: Policy the runners retry transient failures with when the caller
#: passes none.  Small real backoff in production; tests inject a
#: no-sleep policy (``repro.reliability.policy.no_sleep``).
DEFAULT_RETRY_POLICY = RetryPolicy()


def relabelled(value, layer_name: str):
    """``value`` carrying ``layer_name``, skipping the no-op replace.

    Cache hits whose stored label already equals the requesting job's
    label are returned as-is — ``dataclasses.replace`` re-runs the
    frozen dataclass constructor and is pure overhead on the warm path.
    """
    if value.layer == layer_name:
        return value
    return replace(value, layer=layer_name)


def _is_store(cache) -> bool:
    """Whether ``cache`` speaks the store's batch protocol.

    Anything with ``get_many``/``put_many`` qualifies:
    :class:`~repro.eval.store.PackedSweepStore` and test doubles.
    """
    return hasattr(cache, "get_many") and hasattr(cache, "put_many")


#: Makes "read the collector's state, then disable it" one step against
#: another thread's re-enable.  Held across ``fork`` so that no child
#: inherits it locked.
_COLLECTOR_LOCK = threading.Lock()
if hasattr(os, "register_at_fork"):  # POSIX: the only platforms that fork
    os.register_at_fork(
        before=_COLLECTOR_LOCK.acquire,
        after_in_parent=_COLLECTOR_LOCK.release,
        after_in_child=_COLLECTOR_LOCK.release,
    )


def _collector_paused(fn: Callable, *args):
    """``fn(*args)`` with CPython's cycle collector paused.

    The pipeline's keys, tokens and result rows hold no reference
    cycles, so the pause defers no collectable garbage: it only keeps
    the collector from rescanning those batches again and again while
    they grow.  The collector comes back on exit only if it was on at
    entry, so a caller's own ``gc.disable()`` survives.  Without the
    lock, a pause that began while another thread's pause was ending
    could read "off", disable after that thread's re-enable, and leave
    the collector off for good.
    """
    with _COLLECTOR_LOCK:
        enabled = gc.isenabled()
        gc.disable()
    try:
        return fn(*args)
    finally:
        if enabled:
            with _COLLECTOR_LOCK:
                gc.enable()


def _run_pipeline(
    name: str, jobs: Sequence, kind: str, cache,
    keys: Callable[[Sequence], list],
    tokens: Callable[[Sequence], list],
    compute: Callable[[list, Deadline], list],
    timeout: float | None, retry_policy: RetryPolicy | None,
) -> list:
    """Probe -> dedupe -> compute -> publish -> fan-out, for every runner.

    Each runner supplies ``keys`` (its batched store-key function),
    ``tokens`` (hash-free value tokens inducing the same partition as
    the keys, used when there is no store) and ``compute`` (unique jobs
    and the deadline -> one result per job, in order).  The store is
    touched at most twice — one batched probe and one batched publish,
    never per job; identical jobs are computed once and fanned out
    relabelled per requesting job.  ``compute`` runs once, after a
    deadline check, under ``retry_policy``.

    The key/token build and each compute attempt run with the cycle
    collector paused (:func:`_collector_paused`); ``get_many``,
    ``put_many``, the fan-out and the retry policy's backoff sleeps run
    outside the pause.
    """
    if cache is not None and not _is_store(cache):
        # A store built per call would hold no analytic metric beyond
        # the call and be closed by nobody; RedService owns the one it
        # builds from a path.
        raise ParameterError(
            f"{name}: cache must be a store object or None, got {cache!r}; "
            "open a store directory with RedService(cache=path), which "
            "closes the store it builds"
        )
    deadline = Deadline(timeout)
    jobs = list(jobs)
    results: list = [None] * len(jobs)
    if not jobs:
        return results
    if cache is not None:
        all_keys = _collector_paused(keys, jobs)
        pending = []
        for index, value in enumerate(cache.get_many(all_keys, kind)):
            if value is None:
                pending.append(index)
            else:
                results[index] = relabelled(value, jobs[index].layer_name)
        if not pending:
            return results
        group_keys = [all_keys[index] for index in pending]
    else:
        pending = range(len(jobs))
        group_keys = _collector_paused(tokens, jobs)
    # Dedupe into one key -> slot dict and a flat slot per pending job:
    # no per-key list survives into the compute step to be walked by
    # the garbage collector.
    slot_of: dict[object, int] = {}
    slots: list[int] = []
    unique = []
    for index, key in zip(pending, group_keys):
        slot = slot_of.get(key)
        if slot is None:
            slot = slot_of[key] = len(unique)
            unique.append(jobs[index])
        slots.append(slot)
    deadline.check(name)
    policy = retry_policy or DEFAULT_RETRY_POLICY
    computed = policy.call(lambda: _collector_paused(compute, unique, deadline))
    if cache is not None:
        # One batched publish: a single put_many (one atomic index
        # publish on the packed store) instead of one write per job.
        cache.put_many(zip(slot_of, computed), kind)
    for index, slot in zip(pending, slots):
        results[index] = relabelled(computed[slot], jobs[index].layer_name)
    return results


def _evaluate_metrics(
    jobs: list[DesignJob], deadline: Deadline, vectorized: bool
) -> list[DesignMetrics]:
    """Analytic metrics of unique jobs, in order.

    Designs with a registered ``perf_batch`` hook go through the
    vectorized plane as one batch; the rest — and everything when
    ``vectorized`` is false — take the scalar per-job oracle inline.
    """
    computed: list[DesignMetrics | None] = [None] * len(jobs)
    if vectorized:
        hooked = {
            name: get_design(name).perf_batch is not None
            for name in {job.design for job in jobs}
        }
        batch = [p for p, job in enumerate(jobs) if hooked[job.design]]
        if batch:
            # Resolved per call (not at import): the vectorized plane
            # imports this module, and profilers rebind the attribute.
            from repro.eval.vectorized import evaluate_design_jobs_batch

            evaluated = evaluate_design_jobs_batch([jobs[p] for p in batch])
            for position, metrics in zip(batch, evaluated):
                computed[position] = metrics
    for position, job in enumerate(jobs):
        if computed[position] is None:
            deadline.check("run_design_jobs (scalar inline)")
            computed[position] = evaluate_design_job(job)
    return computed  # type: ignore[return-value]


def run_design_jobs(
    jobs: list[DesignJob] | tuple[DesignJob, ...],
    num_workers: int = 1,
    cache: PackedSweepStore | None = None,
    *,
    vectorized: bool = True,
    timeout: float | None = None,
    retry_policy: RetryPolicy | None = None,
) -> list[DesignMetrics]:
    """Evaluate every job, in order, optionally through a store.

    Args:
        jobs: the flat work list.
        num_workers: must be ``1`` — evaluation runs in-process;
            ``repro serve --shards N`` is the process-parallel path.
        cache: a :class:`~repro.eval.store.PackedSweepStore` the caller
            holds, or ``None``; a directory path raises
            :class:`~repro.errors.ParameterError` (open one with
            ``RedService(cache=path)``).  Metrics enter the store's
            memory tier only (recomputing one is cheaper than reading
            it back from disk), under :func:`metrics_keys` value keys,
            so the store serves in-process repeats without
            recomputing, and a reopened store recomputes.  Only
            direct callers pass a store here: a
            :class:`~repro.api.service.RedService` serves its repeats
            from its own memo and calls this runner without one.
        vectorized: route misses whose design registered a
            ``perf_batch`` hook through the struct-of-arrays analytic
            plane (:mod:`repro.eval.vectorized`), one fused batch per
            technology.  ``False`` forces the scalar per-job path
            for everything — the bit-identical oracle the plane is
            property-tested against.
        timeout: wall-clock budget in seconds (``None`` = no budget);
            expiry raises :class:`~repro.errors.EvaluationTimeoutError`.
        retry_policy: how a transient failure of the compute step
            (real or injected ``OSError``) retries; defaults to
            :data:`DEFAULT_RETRY_POLICY`.

    Returns:
        ``DesignMetrics`` in the same order as ``jobs``, independent of
        route and store state.  Jobs sharing a :func:`metrics_keys`
        key (identical shape/tech, labels aside) are evaluated once and
        the result fanned out relabelled.
    """
    if num_workers != 1:
        raise ParameterError(
            f"num_workers must be 1, got {num_workers}: the runners "
            "evaluate in-process; use `repro serve --shards N` for "
            "process parallelism"
        )
    return _run_pipeline(
        "run_design_jobs", jobs, METRICS_KIND, cache, metrics_keys, metrics_keys,
        lambda unique, deadline: _evaluate_metrics(unique, deadline, vectorized),
        timeout, retry_policy,
    )


def _cycle_stats(jobs: list[DesignJob], deadline: Deadline) -> list[CycleStats]:
    """Cycle stats of unique jobs, read off each compiled schedule.

    ``cycles`` and the activity counters depend on the schedule alone,
    never on operand values, so nothing executes: they are exactly what
    the functional :class:`~repro.sim.batch.BatchEngine` measures
    running the job (``tests/eval/test_cycle_stats.py``).
    """
    # Imported per call, not at import: profilers and fault tests
    # rebind compile_schedule.
    from repro.core.fold import resolve_fold
    from repro.sim.compiler import compile_schedule
    from repro.sim.engine import counters_from_schedule

    stats = []
    for job in jobs:
        deadline.check("run_cycle_jobs (job)")
        fold = resolve_fold(job.spec, "auto" if job.fold is None else job.fold)
        compiled = compile_schedule(job.spec, fold)
        counters = counters_from_schedule(compiled).as_dict()
        stats.append(
            CycleStats(
                design=resolve_design(job.design),
                layer=job.layer_name,
                fold=fold,
                cycles=compiled.cycles,
                counters=tuple(sorted(counters.items())),
            )
        )
    return stats


def run_cycle_jobs(
    jobs: list[DesignJob] | tuple[DesignJob, ...],
    cache: PackedSweepStore | None = None,
    *,
    timeout: float | None = None,
    retry_policy: RetryPolicy | None = None,
) -> list[CycleStats | None]:
    """Cycle-level companion to :func:`run_design_jobs`.

    Returns :class:`CycleStats` per job, in job order, for every
    trace-capable job (``supports_trace`` in its registry entry — RED);
    jobs whose design has no cycle engine yield ``None``.  Each miss
    resolves its fold against the default sub-crossbar budget, as the
    analytic metrics do, and reads its cycles and activity counters off
    the analytically compiled schedule
    (:func:`~repro.sim.compiler.compile_schedule`), with the deadline
    checked between jobs; no operand is synthesized or multiplied.
    Results persist under the ``"cycles"`` kind through the same
    pipeline as :func:`run_design_jobs`, in the store passed as
    ``cache`` (a store object or ``None``; a path raises
    :class:`~repro.errors.ParameterError`).
    """
    jobs = list(jobs)
    traceable = [
        index
        for index, job in enumerate(jobs)
        if get_design(job.design).supports_trace
    ]
    stats = _run_pipeline(
        "run_cycle_jobs", [jobs[index] for index in traceable], CYCLES_KIND,
        cache, lambda unique: job_keys(unique, CYCLES_KIND), metrics_keys,
        _cycle_stats, timeout, retry_policy,
    )
    results: list[CycleStats | None] = [None] * len(jobs)
    for index, value in zip(traceable, stats):
        results[index] = value
    return results


def _sample_fidelity(jobs: list[FidelityJob], deadline: Deadline) -> list[FidelityStats]:
    """Fidelity samples of unique jobs: one sampler call per scenario group."""
    from repro.reram.batch import profile_for_design, sample_fidelity_grid

    groups: dict[tuple, list[int]] = {}
    for position, scenario in enumerate(_fidelity_scenarios(jobs)):
        groups.setdefault(scenario, []).append(position)
    stats: list[FidelityStats | None] = [None] * len(jobs)
    for positions in groups.values():
        deadline.check("run_fidelity_jobs (scenario group)")
        first = jobs[positions[0]]
        profile = profile_for_design(
            first.design,
            first.spec,
            first.tech,
            adc_bits=first.adc_bits,
            max_rows=first.max_rows,
            max_cols=first.max_cols,
        )
        sampled = sample_fidelity_grid(
            profile,
            [(jobs[p].seed, jobs[p].time_s) for p in positions],
            nu=first.nu,
            programming_sigma=first.programming_sigma,
            read_noise_sigma=first.read_noise_sigma,
            stuck_at_rate=first.stuck_at_rate,
        )
        for position, stat in zip(positions, sampled):
            stats[position] = stat
    return stats  # type: ignore[return-value]


def run_fidelity_jobs(
    jobs: list[FidelityJob] | tuple[FidelityJob, ...],
    cache: PackedSweepStore | None = None,
    *,
    timeout: float | None = None,
    retry_policy: RetryPolicy | None = None,
) -> list[FidelityStats]:
    """Monte-Carlo fidelity companion to :func:`run_design_jobs`.

    Evaluates every :class:`FidelityJob` through the batched
    struct-of-arrays sampler (:func:`repro.reram.batch
    .sample_fidelity_grid`): misses are grouped per
    (design, spec, tech, scenario), the design's fidelity profile is
    derived once per group, and all of a group's unique
    ``(seed, time_s)`` points are drawn in one vectorized pass —
    bit-identical to the scalar per-point oracle
    (:func:`repro.reram.batch.fidelity_point`) and invariant to job
    order and sharding, because every RNG stream is keyed by values,
    never by batch position (``tests/reram/test_batch.py``).

    Results persist under the ``"fidelity"`` kind through the same
    pipeline as the other runners, in the store passed as ``cache`` (a
    store object or ``None``; a path raises
    :class:`~repro.errors.ParameterError`); returns
    :class:`FidelityStats` in job order.
    """
    return _run_pipeline(
        "run_fidelity_jobs", jobs, FIDELITY_KIND, cache, fidelity_job_keys,
        _fidelity_tokens, _sample_fidelity, timeout, retry_policy,
    )
