"""The ``RedService`` facade: one front door for every evaluation.

Request -> service -> engine flow
---------------------------------
Callers build a frozen request from :mod:`repro.api.schema`, hand it to
a :class:`RedService`, and get a frozen result back::

    from repro.api.schema import EvaluationRequest
    from repro.api.service import RedService

    with RedService(cache="~/.cache/red") as service:
        result = service.evaluate(EvaluationRequest(layer="GAN_Deconv1", trace=True))
        print(result.metrics_for("RED").latency.total)

A store persists only what a read beats recomputing: the RED cycle
trace above and fidelity-sweep samples reach ``~/.cache/red``.  The
analytic metrics never reach the store: every service keeps them in
its own memo, so a repeat is served in-process and the next process
recomputes.

Internally every path — :meth:`~RedService.evaluate`,
:meth:`~RedService.sweep`, :meth:`~RedService.evaluate_network`, plus
the library-level helpers :meth:`~RedService.grid`,
:meth:`~RedService.sweep_points` and
:meth:`~RedService.network_evaluation` that :func:`repro.eval.harness.run_grid`,
:func:`repro.eval.sweeps.stride_speedup_sweep` and
:func:`repro.system.network_mapper.evaluate_network` delegate to —
flattens the work into :class:`~repro.eval.parallel.DesignJob` entries
and routes them through the service's analytic memo to
:func:`~repro.eval.parallel.run_design_jobs`, the single in-process
evaluation substrate.  Latency, energy and area are closed-form in
(design, fold, spec, technology), so the memo keys each job by that
value (:func:`~repro.eval.parallel.metrics_keys`) and sends only the
jobs it does not hold to the runner: a bounded LRU of
``MEMO_CAPACITY`` rows, each packed into 224 bytes and rebuilt with
the requesting job's label on a hit.
``trace=True`` requests additionally run
:func:`~repro.eval.parallel.run_cycle_jobs`, which reads each RED job's
cycle-level :class:`~repro.eval.parallel.CycleStats` off its compiled
schedule (nothing executes) and persists them in the same store under
the ``"cycles"`` kind.  :meth:`~RedService.evaluate_network` walks the
layer shapes of a network whose weights are never drawn
(:func:`repro.workloads.networks.build_network`).  Process parallelism
is the serving plane's job: it injects a sharded ``design_runner``.

Concurrency
-----------
The request handlers may be called from many threads at once, as the
serving plane's executor does: job execution is pure, store writes are
atomic, and one lock guards the memo's probe and insert.  The service
itself starts no threads.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict

from repro.api.registry import available_designs, baseline_design, resolve_design
from repro.api.schema import (
    ErrorInfo,
    EvaluationRequest,
    EvaluationResult,
    FidelityPoint,
    FidelityRequest,
    FidelityResult,
    NetworkDesignSummary,
    NetworkRequest,
    NetworkResult,
    SweepPoint,
    SweepRequest,
    SweepResult,
)
from repro.arch.metrics_batch import pack_metrics, unpack_metrics
from repro.arch.tech import TechnologyParams, default_tech
from repro.deconv.shapes import DeconvSpec
from repro.errors import ParameterError, SchemaError
from repro.eval.parallel import (
    DesignJob,
    FidelityJob,
    _is_store,
    metrics_keys,
    run_cycle_jobs,
    run_design_jobs,
    run_fidelity_jobs,
)
from repro.eval.store import PackedSweepStore
from repro.reliability.policy import is_retryable

#: Analytic rows each service's memo holds, least recently used evicted
#: first.  A held row costs about 540 B (224 packed bytes, its value key
#: and its LRU link), so a full memo holds about 2.2 MB.
MEMO_CAPACITY = 4096


class _MetricsMemo:
    """A bounded LRU of analytic rows, keyed by value, in front of a runner.

    Keys are :func:`~repro.eval.parallel.metrics_keys`, equal across
    calls for equal (design, fold, spec, technology) whatever the
    label.  Each value is the row's numbers as
    :func:`~repro.arch.metrics_batch.pack_metrics` bytes, which the
    cycle collector does not track; a hit is rebuilt with the key's
    design and the requesting job's label through the assembly the
    vectorized plane uses, pickle-identical to recomputing it.  Only
    rows a runner call returned without raising are stored, and only
    those bytes restore exactly.  One lock guards probe and insert.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._rows: OrderedDict[tuple, bytes] = OrderedDict()
        #: The runner's design-name string per canonical name: rebuilt
        #: rows share it as computed ones do, so a label that is that
        #: very string pickles as the same back-reference.
        self._designs: dict[str, str] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._rows)

    def __call__(self, runner, jobs, **kwargs) -> list:
        """``runner(jobs, **kwargs)``'s answer, evaluating only the misses."""
        keys = metrics_keys(jobs)
        results: list = [None] * len(keys)
        hits, names, packed, missing = [], [], [], []
        with self._lock:
            rows = self._rows
            for index, key in enumerate(keys):
                entry = rows.get(key)
                if entry is None:
                    missing.append(index)
                    continue
                rows.move_to_end(key)
                hits.append(index)
                names.append(self._designs[key[0][0]])
                packed.append(entry)
        if hits:
            labels = [jobs[index].layer_name for index in hits]
            for index, row in zip(hits, unpack_metrics(names, labels, packed)):
                results[index] = row
        if not missing:
            return results
        computed = runner([jobs[index] for index in missing], **kwargs)
        fresh = []
        for index, row in zip(missing, computed):
            results[index] = row
            entry = pack_metrics(row)
            if entry is not None and row.design == keys[index][0][0]:
                fresh.append((keys[index], row.design, entry))
        if fresh and self.capacity > 0:
            with self._lock:
                rows = self._rows
                for key, design, entry in fresh:
                    self._designs.setdefault(design, design)
                    rows[key] = entry
                    rows.move_to_end(key)
                    if len(rows) > self.capacity:
                        rows.popitem(last=False)
        return results

    def clear(self) -> None:
        with self._lock:
            self._rows.clear()
            self._designs.clear()


class RedService:
    """Facade over the evaluation substrate.

    The request handlers (:meth:`evaluate`, :meth:`sweep`,
    :meth:`evaluate_network`, :meth:`fidelity_sweep`) may be called from
    many threads at once; the serving plane's executor does.  Each takes
    an optional per-request ``timeout`` in seconds, forwarded to every
    runner call it makes; exceeding it raises
    :class:`~repro.errors.EvaluationTimeoutError`.

    Analytic metrics go through the service's memo: a bounded LRU of
    :data:`MEMO_CAPACITY` rows keyed by value, so a repeated job, under
    any label and in any request, is rebuilt instead of re-evaluated,
    and only the jobs the memo does not hold reach ``design_runner``
    (and, when served, the shard hop).  :meth:`close` drops it.

    Args:
        cache: a :class:`~repro.eval.store.PackedSweepStore`, a cache
            directory path (constructs the packed store, which the
            service owns and closes), or ``None``.  The store holds
            cycle traces and fidelity samples, on disk; the service
            never hands it analytic metrics, which live in its memo.
        vectorized: route analytic cache misses through the
            struct-of-arrays evaluation plane
            (:mod:`repro.eval.vectorized`, the default).  ``False``
            forces the scalar per-job oracle path — results are
            bit-identical either way.
        design_runner: the evaluation substrate for analytic metrics —
            any callable with :func:`~repro.eval.parallel.run_design_jobs`'
            signature.  The default is ``run_design_jobs`` itself; the
            serving plane injects a
            :class:`~repro.serving.runner.ShardedRunner` here so every
            service path fans out across supervised shard processes
            without the service tier knowing (daffodil-style layering:
            the controller swaps the component, the high-level API is
            unchanged).
    """

    def __init__(
        self,
        cache: PackedSweepStore | str | os.PathLike | None = None,
        vectorized: bool = True,
        design_runner=None,
    ) -> None:
        # A path builds one PackedSweepStore for the service's whole
        # lifetime, so every request shares its offset index, mmaps and
        # in-memory LRU hit tier.  The service owns that store and
        # close() releases it; the runners take store objects only.
        self._owns_cache = cache is not None and not _is_store(cache)
        if self._owns_cache:
            cache = PackedSweepStore(os.path.expanduser(os.fspath(cache)))
        self.cache = cache
        self.vectorized = vectorized
        self._design_runner = design_runner or run_design_jobs
        self._memo = _MetricsMemo(MEMO_CAPACITY)
        self._closed = False
        #: Set by the first traced request: only then did this service
        #: fill the process-wide compiled-schedule LRU close() empties.
        self._traced = False

    def _metrics(self, jobs: list[DesignJob], timeout: float | None = None) -> list:
        """Analytic metrics of ``jobs``, in order: memo hits, then the runner.

        ``timeout`` is the request's budget — the serving front door
        propagates each wire deadline here; it bounds the runner call
        that evaluates the memo's misses.
        """
        return self._memo(
            self._design_runner, jobs, vectorized=self.vectorized, timeout=timeout
        )

    # ------------------------------------------------------------------
    # Request-level entry points
    # ------------------------------------------------------------------
    def evaluate(
        self, request: EvaluationRequest, *, timeout: float | None = None
    ) -> EvaluationResult:
        """Evaluate one layer across designs (optionally cycle-traced).

        Traced ``CycleStats`` resolve ``fold='auto'`` against the same
        default sub-crossbar budget as the analytic metrics, so both
        report one cycle count.
        """
        if not isinstance(request, EvaluationRequest):
            raise SchemaError(
                f"evaluate() takes an EvaluationRequest, got {type(request).__name__}"
            )
        spec, label = self._resolve_layer(request)
        designs = self._resolve_designs(request.designs)
        tech = request.resolved_tech()
        jobs = [
            DesignJob(design, spec, tech, fold=request.fold, layer_name=label)
            for design in designs
        ]
        metrics = self._metrics(jobs, timeout)
        cycle_stats: tuple = ()
        if request.trace:
            self._traced = True
            cycle_stats = tuple(run_cycle_jobs(jobs, cache=self.cache, timeout=timeout))
        return EvaluationResult(
            layer=label,
            designs=designs,
            metrics=tuple(metrics),
            cycle_stats=cycle_stats,
        )

    def fidelity_sweep(
        self, request: FidelityRequest, *, timeout: float | None = None
    ) -> FidelityResult:
        """Monte-Carlo device-fidelity frontier for one layer.

        The energy axis comes from the analytic metrics — the same
        :class:`~repro.eval.parallel.DesignJob` list every other entry
        point routes through :func:`~repro.eval.parallel.run_design_jobs`
        — and the accuracy-vs-drift axes come from
        :func:`~repro.eval.parallel.run_fidelity_jobs`, one
        :class:`~repro.eval.parallel.FidelityJob` per
        (design, seed, time) grid point, batched through the
        struct-of-arrays sampler and persisted under the ``"fidelity"``
        cache kind.
        """
        if not isinstance(request, FidelityRequest):
            raise SchemaError(
                f"fidelity_sweep() takes a FidelityRequest, got {type(request).__name__}"
            )
        spec, label = self._resolve_layer(request)
        designs = self._resolve_designs(request.designs)
        tech = request.resolved_tech()
        metrics = self._metrics(
            [DesignJob(design, spec, tech, layer_name=label) for design in designs],
            timeout,
        )
        stats = run_fidelity_jobs(
            [
                FidelityJob(
                    design=design,
                    spec=spec,
                    tech=tech,
                    seed=seed,
                    time_s=time_s,
                    nu=request.nu,
                    programming_sigma=request.programming_sigma,
                    read_noise_sigma=request.read_noise_sigma,
                    stuck_at_rate=request.stuck_at_rate,
                    adc_bits=request.adc_bits,
                    max_rows=request.max_rows,
                    max_cols=request.max_cols,
                    layer_name=label,
                )
                for design in designs
                for seed in request.seeds
                for time_s in request.times
            ],
            cache=self.cache,
            timeout=timeout,
        )
        return FidelityResult(
            layer=label,
            designs=designs,
            energy_j=tuple(m.energy.total for m in metrics),
            points=tuple(
                FidelityPoint(
                    design=s.design,
                    seed=s.seed,
                    time_s=s.time_s,
                    rms_error=s.rms_error,
                    mean_abs_error=s.mean_abs_error,
                    max_abs_error=s.max_abs_error,
                    stuck_fraction=s.stuck_fraction,
                )
                for s in stats
            ),
        )

    def sweep(
        self, request: SweepRequest, *, timeout: float | None = None
    ) -> SweepResult:
        """Run the stride-speedup sweep a request describes.

        A transient failure (I/O fault, unavailable shard) in the batched
        run does not lose the whole sweep: the service falls back to
        per-stride evaluation and reports strides that still fail as
        :class:`~repro.api.schema.ErrorInfo` entries in
        :attr:`~repro.api.schema.SweepResult.failures`, with the
        surviving points (and an exponent fitted over them) intact.
        Permanent failures — invalid parameters, timeouts — raise.
        """
        if not isinstance(request, SweepRequest):
            raise SchemaError(
                f"sweep() takes a SweepRequest, got {type(request).__name__}"
            )
        tech = request.resolved_tech()
        failures: tuple[ErrorInfo, ...] = ()
        try:
            points = self.sweep_points(
                strides=request.strides,
                input_size=request.input_size,
                channels=request.channels,
                filters=request.filters,
                tech=tech,
                fold=request.fold,
                timeout=timeout,
            )
        except Exception as exc:
            if not is_retryable(exc):
                raise
            points, failures = self._sweep_points_partial(request, tech, timeout)
        exponent = None
        if len([p for p in points if p.stride > 1]) >= 2:
            from repro.eval.sweeps import quadratic_fit_exponent

            exponent = quadratic_fit_exponent(points)
        return SweepResult(
            points=tuple(points), fitted_exponent=exponent, failures=failures
        )

    def _sweep_points_partial(
        self,
        request: SweepRequest,
        tech: TechnologyParams,
        timeout: float | None = None,
    ) -> tuple[list[SweepPoint], tuple[ErrorInfo, ...]]:
        """Per-stride salvage pass behind :meth:`sweep`.

        Each stride is evaluated on its own so one persistently failing
        stride cannot take down its neighbours; a stride whose retries
        still exhaust becomes an :class:`~repro.api.schema.ErrorInfo`
        tagged ``source="stride=N"``.
        """
        points: list[SweepPoint] = []
        failures: list[ErrorInfo] = []
        for stride in sorted(set(request.strides)):
            try:
                points.extend(
                    self.sweep_points(
                        strides=(stride,),
                        input_size=request.input_size,
                        channels=request.channels,
                        filters=request.filters,
                        tech=tech,
                        fold=request.fold,
                        timeout=timeout,
                    )
                )
            except Exception as exc:
                if not is_retryable(exc):
                    raise
                failures.append(
                    ErrorInfo.from_exception(exc, source=f"stride={stride}")
                )
        return points, tuple(failures)

    def evaluate_network(
        self, request: NetworkRequest, *, timeout: float | None = None
    ) -> NetworkResult:
        """Evaluate every deconv layer of a named workload network."""
        if not isinstance(request, NetworkRequest):
            raise SchemaError(
                f"evaluate_network() takes a NetworkRequest, got {type(request).__name__}"
            )
        from repro.system.chip import provision_chip
        from repro.system.pipeline import pipeline_network
        from repro.workloads.networks import build_network

        designs = self._resolve_designs(request.designs)
        tech = request.resolved_tech()
        try:
            # The seed stays a plain int across the API boundary; the
            # workloads module owns the seed-to-generator mapping.
            network = build_network(request.network, seed=request.seed)
        except KeyError as exc:
            raise SchemaError(exc.args[0] if exc.args else str(exc)) from exc
        # The roll-ups normalize against the baseline design, so evaluate
        # it even when the requested subset omits it (it is cheap and
        # cache-shared); only the requested designs are reported.
        baseline = baseline_design()
        evaluated = designs if baseline in designs else (*designs, baseline)
        evaluation = self.network_evaluation(
            network,
            request.input_height,
            request.input_width,
            tech=tech,
            designs=evaluated,
            timeout=timeout,
        )
        layer_results = tuple(
            EvaluationResult(
                layer=mapped.name,
                designs=designs,
                metrics=tuple(
                    evaluation.metrics[design][mapped.name] for design in designs
                ),
            )
            for mapped in evaluation.layers
        )
        summaries = []
        for design in designs:
            report = pipeline_network(evaluation, design, batch=request.batch)
            chip = provision_chip(evaluation, design)
            summaries.append(
                NetworkDesignSummary(
                    design=design,
                    total_latency_s=evaluation.total_latency(design),
                    total_energy_j=evaluation.total_energy(design),
                    speedup=evaluation.speedup(design),
                    energy_saving=evaluation.energy_saving(design),
                    fill_latency_s=report.fill_latency,
                    bottleneck_latency_s=report.bottleneck_latency,
                    throughput_per_s=report.throughput,
                    chip_area_m2=chip.total_area,
                )
            )
        return NetworkResult(
            network=request.network,
            batch=request.batch,
            layers=tuple(mapped.name for mapped in evaluation.layers),
            designs=designs,
            layer_results=layer_results,
            summaries=tuple(summaries),
        )

    def close(self) -> None:
        """Drop the memo; release the owned store and compiled schedules.

        Idempotent.  A long-lived service that traced many distinct
        large layer shapes holds their compiled-schedule index arrays in
        the process-wide LRU
        (:func:`repro.sim.compiler.schedule_cache_info`); closing a
        service that ran a traced request returns that memory.  A service that traced nothing leaves the LRU alone, so
        call-scoped services (:func:`~repro.eval.harness.run_grid` and
        friends) never evict schedules other callers compiled.  A cache
        store the service constructed from a path is owned and closed
        too (its mmaps and LRU tier are released; caller-provided stores
        are the caller's to close).
        """
        from repro.sim.compiler import clear_compiled_schedules

        if self._closed:
            return
        self._closed = True
        self._memo.clear()
        if self._owns_cache:
            self.cache.close()
        if self._traced:
            clear_compiled_schedules()

    def __enter__(self) -> "RedService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _handler_for(self, request):
        if isinstance(request, EvaluationRequest):
            return self.evaluate
        if isinstance(request, SweepRequest):
            return self.sweep
        if isinstance(request, NetworkRequest):
            return self.evaluate_network
        if isinstance(request, FidelityRequest):
            return self.fidelity_sweep
        raise SchemaError(
            f"cannot dispatch request of type {type(request).__name__}; "
            "expected EvaluationRequest, SweepRequest, NetworkRequest "
            "or FidelityRequest"
        )

    # ------------------------------------------------------------------
    # Library-level canonical paths (the pre-API entry points delegate
    # here so there is exactly one evaluation path)
    # ------------------------------------------------------------------
    def grid(self, layers=None, tech: TechnologyParams | None = None):
        """Evaluate all registered designs over benchmark layers.

        The canonical implementation behind
        :func:`repro.eval.harness.run_grid`; returns an
        :class:`~repro.eval.harness.EvaluationGrid`.
        """
        from repro.eval.harness import EvaluationGrid
        from repro.workloads.specs import TABLE_I_LAYERS

        layers = layers or TABLE_I_LAYERS
        tech = tech or default_tech()
        designs = available_designs()
        jobs = [
            DesignJob(design, layer.spec, tech, layer_name=layer.name)
            for layer in layers
            for design in designs
        ]
        evaluated = self._metrics(jobs)
        metrics: dict[str, dict[str, object]] = {}
        for job, result in zip(jobs, evaluated):
            metrics.setdefault(job.layer_name, {})[job.design] = result
        return EvaluationGrid(metrics=metrics, layers=tuple(layers), tech=tech)

    def sweep_points(
        self,
        strides: tuple[int, ...] = (1, 2, 4, 8),
        input_size: int = 8,
        channels: int = 64,
        filters: int = 32,
        tech: TechnologyParams | None = None,
        fold: int | str = 1,
        timeout: float | None = None,
    ) -> list[SweepPoint]:
        """Measure RED's speedup as the stride grows (FCN rule ``K=2s``).

        The canonical implementation behind
        :func:`repro.eval.sweeps.stride_speedup_sweep`.
        """
        if not strides:
            raise ParameterError("strides must be non-empty")
        tech = tech or default_tech()
        baseline = baseline_design()
        traced = "RED"  # the sweep measures the paper's design by definition
        ordered = sorted(set(strides))
        jobs: list[DesignJob] = []
        for stride in ordered:
            kernel = max(2 * stride, 2)
            spec = DeconvSpec(
                input_height=input_size, input_width=input_size,
                in_channels=channels,
                kernel_height=kernel, kernel_width=kernel, out_channels=filters,
                stride=stride, padding=stride // 2,
            )
            jobs.append(
                DesignJob(traced, spec, tech, fold=fold, layer_name=f"stride{stride}")
            )
            jobs.append(DesignJob(baseline, spec, tech, layer_name=f"stride{stride}"))
        metrics = self._metrics(jobs, timeout)
        points = []
        for index, stride in enumerate(ordered):
            red_metrics = metrics[2 * index]
            zp_metrics = metrics[2 * index + 1]
            points.append(
                SweepPoint(
                    stride=stride,
                    modes=stride * stride,
                    cycles_red=red_metrics.cycles,
                    cycles_zp=zp_metrics.cycles,
                    speedup=red_metrics.speedup_over(zp_metrics),
                )
            )
        return points

    def network_evaluation(
        self,
        network,
        input_height: int = 1,
        input_width: int = 1,
        tech: TechnologyParams | None = None,
        designs: tuple[str, ...] | None = None,
        timeout: float | None = None,
    ):
        """Evaluate every design over every deconv layer of a module tree.

        The canonical implementation behind
        :func:`repro.system.network_mapper.evaluate_network`; returns a
        :class:`~repro.system.network_mapper.NetworkEvaluation`.
        """
        from repro.system.network_mapper import NetworkEvaluation, extract_deconv_layers

        tech = tech or default_tech()
        designs = self._resolve_designs(tuple(designs) if designs else ())
        layers = extract_deconv_layers(network, input_height, input_width)
        jobs = [
            DesignJob(design, mapped.spec, tech, layer_name=mapped.name)
            for design in designs
            for mapped in layers
        ]
        evaluated = self._metrics(jobs, timeout)
        metrics: dict[str, dict[str, object]] = {}
        for job, result in zip(jobs, evaluated):
            metrics.setdefault(job.design, {})[job.layer_name] = result
        return NetworkEvaluation(layers=layers, metrics=metrics, tech=tech)

    # ------------------------------------------------------------------
    # Shared resolution helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _resolve_designs(designs: tuple[str, ...]) -> tuple[str, ...]:
        """Canonical design names (all registered when none requested)."""
        if not designs:
            return available_designs()
        return tuple(resolve_design(name) for name in designs)

    @staticmethod
    def _resolve_layer(request: EvaluationRequest) -> tuple[DeconvSpec, str]:
        """The concrete (spec, label) an evaluation request names."""
        if request.spec is not None:
            label = request.layer_name or request.spec.describe()
            return request.spec, label
        from repro.workloads.specs import get_layer

        try:
            layer = get_layer(request.layer)
        except KeyError as exc:
            # KeyError str() wraps the message in repr quotes; unwrap it.
            raise SchemaError(exc.args[0] if exc.args else str(exc)) from exc
        return layer.spec, request.layer_name or layer.name
