"""Outside-in tracing: spans around the program's public layer boundaries.

The traced run wraps public functions where their callers look them
up (module attributes, class attributes, registry entries) and records
one span per call: name, start, end, parent, request id, a size (jobs,
rows, points, groups) and a tag (shard id).  Spans stay in memory and
are written out when the process ends; nothing under ``src/`` changes.

Parents come from a per-thread span stack.  Two hops have no shared
stack and are linked after the run instead:

* ``ShardedRunner`` scatters on a thread pool, so a shard call adopts
  the runner span that owns its ``DesignJob`` objects;
* client, server and shard processes share Linux's monotonic
  ``perf_counter`` clock, so a server span belongs to the client call
  with the same body CRC that contains it, and a shard-side
  evaluation to the shard call with the same shard id that contains it.

A span's self time is its duration minus the part its children cover.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import zlib
from time import perf_counter

#: Result ``to_dict`` methods timed as the server's response encoder.
_RESULT_CLASSES = ("EvaluationResult", "SweepResult", "NetworkResult", "FidelityResult")
#: ``RedService`` request handlers (the ``api.service`` layer).
_HANDLERS = ("evaluate", "sweep", "evaluate_network", "fidelity_sweep")


def _length(index):
    return lambda args, result: len(args[index])


def _body_crc(args) -> int:
    """Request id of a server-side span: CRC-32 of the raw request body."""
    return zlib.crc32(args[1])


class Tracer:
    """Span recorder for one process (see the module docstring)."""

    def __init__(self, role: str) -> None:
        self.role = role
        self.header: dict = {"schedule_cache": [0, 0]}
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owners: dict[int, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._registry: tuple = ()
        #: Where forked shard processes write their spans on exit.
        self.dump_dir = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _link(self, args) -> int | None:
        """The scatter span owning a job list passed across a thread pool."""
        for arg in args:
            if isinstance(arg, (list, tuple)) and arg:
                owner = self._owners.get(id(arg[0]))
                if owner is not None:
                    return owner
        return None

    def wrap(self, name, fn, size=None, tag=None, rid=None, owns_jobs=False):
        """``fn`` wrapped in a span; re-entrant calls fold into the outer one."""
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            local = tracer._local
            outer_rid = getattr(local, "rid", None)
            span_rid = outer_rid if rid is None else rid(args)
            local.rid = span_rid
            sid = next(tracer._ids)
            parent = stack[-1][0] if stack else tracer._link(args)
            jobs = args[1] if owns_jobs else ()
            for job in jobs:
                tracer._owners[id(job)] = sid
            stack.append((sid, name))
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                local.rid = outer_rid
                for job in jobs:
                    tracer._owners.pop(id(job), None)
                tracer.spans.append(
                    (
                        sid, parent, name, start, end, span_rid,
                        size(args, result) if size and result is not None else 0,
                        tag(args) if tag else None,
                    )
                )

        traced.__wrapped__ = fn
        return traced

    def root(self, name: str, rid: int, tag: int, fn, *args):
        """Run ``fn(*args)`` as a root span (one benchmark operation)."""
        self._local.rid = rid
        return self.wrap(name, fn, tag=lambda _args: tag)(*args)

    # ------------------------------------------------------------------
    # Installing and removing the wrappers
    # ------------------------------------------------------------------
    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_function(self, original, name: str, **options) -> None:
        """Rebind every ``repro`` module attribute that is ``original``."""
        wrapped = self.wrap(name, original, **options)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapped)

    def _patch_method(self, cls, attr: str, name: str, **options) -> None:
        self._patch(cls, attr, self.wrap(name, getattr(cls, attr), **options))

    def install(self) -> "Tracer":
        """Wrap the layer boundaries this process's role executes."""
        import repro.api.schema as schema
        import repro.serving.supervisor as supervisor
        from repro.api.registry import design_entries, register_design, unregister_design
        from repro.api.service import RedService
        from repro.arch.metrics_batch import evaluate_perf_batch
        from repro.eval.parallel import (
            job_keys,
            run_cycle_jobs,
            run_design_jobs,
            run_fidelity_jobs,
        )
        from repro.eval.store import PackedSweepStore
        from repro.eval.sweeps import quadratic_fit_exponent
        from repro.eval.vectorized import evaluate_design_jobs_batch
        from repro.reram.batch import profile_for_design, sample_fidelity_grid
        from repro.serving.client import ServingClient
        from repro.serving.respcache import ResponseCache
        from repro.serving.runner import ShardedRunner
        from repro.serving.server import ServingServer
        from repro.sim.batch import BatchEngine
        from repro.sim.compiler import compile_schedule, schedule_cache_info
        from repro.workloads.networks import build_network

        if self.role == "client":
            self._patch_method(ServingClient, "call", "serving.client")
            self._patch_function(schema.payload_from_dict, "api.schema.client_decode")
            return self
        for handler in _HANDLERS:
            self._patch_method(RedService, handler, "api.service")
        self._patch_method(RedService, "network_evaluation", "system.network_eval")
        self._patch_function(quadratic_fit_exponent, "eval.sweeps.fit")
        self._patch_function(run_design_jobs, "eval.parallel", size=_length(0))
        self._patch_function(job_keys, "eval.parallel.job_keys", size=_length(0))
        self._patch_function(
            evaluate_design_jobs_batch, "eval.vectorized", size=_length(0)
        )
        self._patch_function(evaluate_perf_batch, "arch.metrics_batch", size=_length(0))
        self._patch_method(PackedSweepStore, "get_many", "eval.store.get_many", size=_length(1))
        self._patch_method(PackedSweepStore, "put_many", "eval.store.put_many")
        self._patch_function(run_cycle_jobs, "sim.cycle_jobs", size=_length(0))
        self._patch_method(
            BatchEngine, "run", "sim.batch_engine",
            size=lambda args, result: len(result.group_sizes()),
        )
        self._patch_function(compile_schedule, "sim.compile")
        self._patch_function(run_fidelity_jobs, "eval.parallel.fidelity", size=_length(0))
        self._patch_function(sample_fidelity_grid, "reram.batch.sample", size=_length(1))
        self._patch_function(profile_for_design, "reram.batch.profile")
        self._patch_function(build_network, "workloads.build_network")

        entries = design_entries()
        self._registry = entries
        for entry in entries:
            unregister_design(entry.name)
        for entry in entries:
            hook = entry.perf_batch
            self._register(
                register_design, entry,
                hook and self.wrap("designs.perf_batch", hook, size=_length(0)),
            )

        close = RedService.close
        tracer = self

        def snapshot_then_close(service):
            # close() clears the compiled-schedule LRU and its counters.
            info = schedule_cache_info()
            tracer.header["schedule_cache"][0] += info.hits
            tracer.header["schedule_cache"][1] += info.misses
            return close(service)

        self._patch(RedService, "close", snapshot_then_close)
        if self.role != "server":
            return self
        for cls_name in _RESULT_CLASSES:
            self._patch_method(getattr(schema, cls_name), "to_dict", "api.schema.encode")
        self._patch_function(schema.payload_from_dict, "api.schema.decode")
        self._patch_method(ServingServer, "_process", "serving.server", rid=_body_crc)
        # A hit returns the cached payload, a miss None: size 1 marks a hit.
        self._patch_method(
            ResponseCache, "get", "serving.respcache.get", rid=_body_crc,
            size=lambda args, result: 1,
        )
        self._patch_method(ResponseCache, "put", "serving.respcache.put")
        self._patch_method(ShardedRunner, "__call__", "serving.scatter", owns_jobs=True)
        self._patch_method(
            supervisor.ShardSupervisor, "call", "serving.shard_call",
            size=_length(2), tag=lambda args: args[1],
        )
        worker = supervisor.shard_worker_main

        def traced_shard(conn, shard_index, *args):
            # Forked: drop the server's spans and stack, keep the wrappers.
            tracer.spans = []
            tracer._local = threading.local()
            tracer.role = "shard"
            tracer.header = {"schedule_cache": [0, 0], "shard": shard_index}
            try:
                return worker(conn, shard_index, *args)
            finally:
                tracer.dump(tracer.dump_dir)

        self._patch(supervisor, "shard_worker_main", traced_shard)
        return self

    @staticmethod
    def _register(register_design, entry, perf_batch) -> None:
        register_design(
            entry.name,
            aliases=entry.aliases,
            accepts_fold=entry.accepts_fold,
            supports_trace=entry.supports_trace,
            baseline=entry.baseline,
            description=entry.description,
            perf_batch=perf_batch,
            fidelity_profile=entry.fidelity_profile,
        )(entry.factory)

    def uninstall(self) -> None:
        """Restore every patched attribute and registry entry."""
        from repro.api.registry import register_design, unregister_design

        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        for entry in self._registry:
            unregister_design(entry.name)
        for entry in self._registry:
            self._register(register_design, entry, entry.perf_batch)
        self._registry = ()

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def record(self) -> dict:
        return {"role": self.role, "pid": os.getpid(), **self.header, "spans": self.spans}

    def dump(self, directory) -> None:
        """Write this process's spans to ``<directory>/spans-<pid>.json``."""
        path = os.path.join(directory, f"spans-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.record(), handle)
