"""Typed service-layer API: registry, versioned schema, service facade.

Module map (the request -> service -> engine flow)
--------------------------------------------------
* :mod:`repro.api.registry` — **who can be evaluated.**  The design
  registry: ``@register_design("name", aliases=...)`` declares an
  accelerator design; ``available_designs()`` is the canonical
  presentation order (baseline first) every figure, table and default
  request uses.  This is the only name-to-design dispatch in the
  library.
* :mod:`repro.api.schema` — **what crosses the boundary.**  Frozen,
  ``schema_version``-tagged dataclasses, one per wire ``kind``:
  :class:`~repro.api.schema.EvaluationRequest` /
  :class:`~repro.api.schema.EvaluationResult`,
  :class:`~repro.api.schema.SweepRequest` /
  :class:`~repro.api.schema.SweepResult`,
  :class:`~repro.api.schema.NetworkRequest` /
  :class:`~repro.api.schema.NetworkResult`,
  :class:`~repro.api.schema.FidelityRequest` /
  :class:`~repro.api.schema.FidelityResult`, the CLI envelope
  :class:`~repro.api.schema.CommandPayload` and the failure envelope
  :class:`~repro.api.schema.ErrorInfo`.  Their strict
  ``to_dict``/``from_dict`` codec is derived from the dataclass fields.
* :mod:`repro.api.service` — **how it runs.**
  :class:`~repro.api.service.RedService` fronts the batch/cache
  substrate: requests are flattened into
  :class:`~repro.eval.parallel.DesignJob` lists, answered from the
  service's analytic memo (a value-keyed LRU of packed rows), and only
  the jobs it does not hold are executed by
  :func:`~repro.eval.parallel.run_design_jobs` (the vectorized plane);
  ``trace=True`` adds cycle-level
  :class:`~repro.eval.parallel.CycleStats` read off each job's compiled
  schedule (:mod:`repro.sim.compiler`), persisted on disk in the
  service's :class:`~repro.eval.store.PackedSweepStore`.  Its request
  handlers may be called from many threads at once, as the serving
  plane's executor does; the service starts no threads of its own.

Every pre-API entry point (`repro.eval.harness.run_grid`,
`repro.eval.sweeps.stride_speedup_sweep`,
`repro.system.network_mapper.evaluate_network`, the ``repro`` CLI)
delegates here, so there is exactly one evaluation path.

Registering a fourth design
---------------------------
::

    from repro.api.registry import register_design
    from repro.designs.base import DeconvDesign

    @register_design("my-design", aliases=("mine",), accepts_fold=False)
    class MyDesign(DeconvDesign):
        name = "my-design"
        ...  # run_functional / run_quantized / perf_input

    # It now appears in available_designs(), every default request,
    # `repro report --json`, and the sweep cache keyspace.

Import each name from the module that defines it; this package
re-exports nothing, so importing :mod:`repro.api.registry` never drags
in the whole evaluation stack.
"""
