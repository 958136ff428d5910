"""The ``RedService`` facade: one front door for every evaluation.

Request -> service -> engine flow
---------------------------------
Callers build a frozen request from :mod:`repro.api.schema`, hand it to
a :class:`RedService`, and get a frozen result back::

    from repro.api import EvaluationRequest, RedService

    with RedService(cache="~/.cache/red") as service:
        result = service.evaluate(EvaluationRequest(layer="GAN_Deconv1"))
        print(result.metrics_for("RED").latency.total)

Internally every path — :meth:`~RedService.evaluate`,
:meth:`~RedService.sweep`, :meth:`~RedService.evaluate_network`, plus
the library-level helpers :meth:`~RedService.grid`,
:meth:`~RedService.sweep_points` and
:meth:`~RedService.network_evaluation` that :func:`repro.eval.harness.run_grid`,
:func:`repro.eval.sweeps.stride_speedup_sweep` and
:func:`repro.system.network_mapper.evaluate_network` delegate to —
flattens the work into :class:`~repro.eval.parallel.DesignJob` entries
and routes them through :func:`~repro.eval.parallel.run_design_jobs`,
the single in-process evaluation substrate (vectorized plane + batched
on-disk :class:`~repro.eval.store.PackedSweepStore`).  ``trace=True``
requests additionally run :func:`~repro.eval.parallel.run_cycle_jobs`,
which reads each RED job's cycle-level
:class:`~repro.eval.parallel.CycleStats` off its compiled schedule
(nothing executes) and persists them in the same cache under the
``"cycles"`` kind.  :meth:`~RedService.evaluate_network` walks the
layer shapes of a network whose weights are never drawn
(:func:`repro.workloads.networks.build_network`).  Process parallelism
is the serving plane's job: it injects a sharded ``design_runner``.

Concurrency
-----------
:meth:`~RedService.submit` enqueues any request on a per-service thread
pool and returns a :class:`concurrent.futures.Future`;
:meth:`~RedService.gather` collects results in submission order.  The
evaluation substrate is thread-safe: job execution is pure, and cache
writes are atomic.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor

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
from repro.arch.tech import TechnologyParams, default_tech
from repro.deconv.shapes import DeconvSpec
from repro.errors import ParameterError, SchemaError, ServiceClosedError
from repro.eval.parallel import (
    DesignJob,
    FidelityJob,
    _coerce_cache,
    run_cycle_jobs,
    run_design_jobs,
    run_fidelity_jobs,
)
from repro.eval.store import PackedSweepStore
from repro.reliability.policy import RetryPolicy, is_retryable


class RedService:
    """Concurrent facade over the evaluation substrate.

    Args:
        cache: a :class:`~repro.eval.store.PackedSweepStore`, a cache
            directory path (constructs the packed store, migrating
            legacy directory-of-pickles content), or ``None``.
        tech: base technology the per-request overrides apply to
            (default: :func:`default_tech`).
        service_threads: thread-pool width for :meth:`submit`.
        max_sub_crossbars: SC budget used to resolve ``fold='auto'`` on
            cycle-level (trace) runs, whose
            :class:`~repro.eval.parallel.CycleStats` are read off the
            compiled schedule rather than executed.
        vectorized: route analytic cache misses through the
            struct-of-arrays evaluation plane
            (:mod:`repro.eval.vectorized`, the default).  ``False``
            forces the scalar per-job oracle path — results are
            bit-identical either way.
        timeout: optional wall-clock budget in seconds, forwarded to
            every runner call the service makes; exceeding it raises
            :class:`~repro.errors.EvaluationTimeoutError`.
        retry_policy: :class:`~repro.reliability.RetryPolicy` the
            runners apply to transient failures (I/O errors); ``None``
            uses the runners' default.
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
        tech: TechnologyParams | None = None,
        service_threads: int = 4,
        max_sub_crossbars: int = 128,
        vectorized: bool = True,
        timeout: float | None = None,
        retry_policy: RetryPolicy | None = None,
        design_runner=None,
    ) -> None:
        if service_threads < 1:
            raise ParameterError(f"service_threads must be >= 1, got {service_threads}")
        # Coerce once: a path builds one PackedSweepStore for the
        # service's whole lifetime, so every request shares its offset
        # index, mmaps and in-memory LRU hit tier (re-coercing per call
        # would reopen the store and defeat the memory tier).  A store
        # the service constructed itself is owned — close() releases it.
        self.cache = _coerce_cache(cache)
        self._owns_cache = self.cache is not None and self.cache is not cache
        self.tech = tech
        self.service_threads = service_threads
        self.max_sub_crossbars = max_sub_crossbars
        self.vectorized = vectorized
        if timeout is not None and not timeout > 0:
            raise ParameterError(f"timeout must be > 0 seconds, got {timeout!r}")
        self.timeout = timeout
        self.retry_policy = retry_policy
        self._design_runner = design_runner or run_design_jobs
        self._executor: ThreadPoolExecutor | None = None
        self._closed = False
        self._lock = threading.Lock()

    def _runner_kwargs(self, timeout: float | None = None) -> dict:
        """Substrate keywords every runner call shares.

        ``timeout`` overrides the service-wide budget for one request —
        the serving front door propagates each wire deadline here.
        """
        return {
            "cache": self.cache,
            "vectorized": self.vectorized,
            "timeout": self.timeout if timeout is None else timeout,
            "retry_policy": self.retry_policy,
        }

    # ------------------------------------------------------------------
    # Request-level entry points
    # ------------------------------------------------------------------
    def evaluate(
        self, request: EvaluationRequest, *, timeout: float | None = None
    ) -> EvaluationResult:
        """Evaluate one layer across designs (optionally cycle-traced).

        ``timeout`` overrides the service-wide budget for this request
        (wire-deadline propagation); ``None`` keeps the service default.
        """
        if not isinstance(request, EvaluationRequest):
            raise SchemaError(
                f"evaluate() takes an EvaluationRequest, got {type(request).__name__}"
            )
        spec, label = self._resolve_layer(request)
        designs = self._resolve_designs(request.designs)
        tech = request.resolved_tech(self.tech)
        jobs = [
            DesignJob(design, spec, tech, fold=request.fold, layer_name=label)
            for design in designs
        ]
        metrics = self._design_runner(jobs, **self._runner_kwargs(timeout))
        cycle_stats: tuple = ()
        if request.trace:
            cycle_stats = tuple(
                run_cycle_jobs(
                    jobs,
                    cache=self.cache,
                    max_sub_crossbars=self.max_sub_crossbars,
                    timeout=self.timeout if timeout is None else timeout,
                    retry_policy=self.retry_policy,
                )
            )
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
        tech = request.resolved_tech(self.tech)
        metrics = self._design_runner(
            [DesignJob(design, spec, tech, layer_name=label) for design in designs],
            **self._runner_kwargs(timeout),
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
            timeout=self.timeout if timeout is None else timeout,
            retry_policy=self.retry_policy,
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
        tech = request.resolved_tech(self.tech)
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
        tech = request.resolved_tech(self.tech)
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

    # ------------------------------------------------------------------
    # Concurrent entry points
    # ------------------------------------------------------------------
    def submit(self, request) -> Future:
        """Dispatch any request on the service thread pool.

        Returns a :class:`concurrent.futures.Future` resolving to the
        matching result type.  Raises
        :class:`~repro.errors.ServiceClosedError` after :meth:`close`
        — the closed check and executor creation share ``self._lock``,
        so a concurrent ``close()`` can never leak a fresh thread pool.
        """
        handler = self._handler_for(request)
        with self._lock:
            if self._closed:
                raise ServiceClosedError(
                    "cannot submit() on a closed RedService; "
                    "construct a new service instead"
                )
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.service_threads,
                    thread_name_prefix="red-service",
                )
            executor = self._executor
        return executor.submit(handler, request)

    def gather(self, futures) -> list:
        """Results of :meth:`submit` futures, in submission order."""
        return [future.result() for future in futures]

    def close(self) -> None:
        """Shut the service thread pool down and release compiled
        schedules (idempotent).

        A long-lived service that traced many distinct large layer
        shapes holds their compiled-schedule index arrays in the
        process-wide LRU (:func:`repro.sim.compiler.schedule_cache_info`);
        closing the service returns that memory.  A cache store the
        service constructed from a path is owned and closed too (its
        mmaps and LRU tier are released; caller-provided stores are the
        caller's to close).  After ``close()`` the service is retired:
        :meth:`submit` raises
        :class:`~repro.errors.ServiceClosedError` instead of silently
        spinning up a fresh thread pool nothing will ever shut down.
        """
        from repro.sim.compiler import clear_compiled_schedules

        with self._lock:
            executor, self._executor = self._executor, None
            already_closed = self._closed
            self._closed = True
        if executor is not None:
            executor.shutdown(wait=True)
        if already_closed:
            return
        if self._owns_cache:
            self.cache.close()
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
        tech = tech or self.tech or default_tech()
        designs = available_designs()
        jobs = [
            DesignJob(design, layer.spec, tech, layer_name=layer.name)
            for layer in layers
            for design in designs
        ]
        evaluated = self._design_runner(jobs, **self._runner_kwargs())
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
        tech = tech or self.tech or default_tech()
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
        metrics = self._design_runner(jobs, **self._runner_kwargs(timeout))
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

        tech = tech or self.tech or default_tech()
        designs = self._resolve_designs(tuple(designs) if designs else ())
        layers = extract_deconv_layers(network, input_height, input_width)
        jobs = [
            DesignJob(design, mapped.spec, tech, layer_name=mapped.name)
            for design in designs
            for mapped in layers
        ]
        evaluated = self._design_runner(jobs, **self._runner_kwargs(timeout))
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
