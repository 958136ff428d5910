"""The resilient sharded serving plane (see README.md in this package).

Composition, bottom up:

* :mod:`~repro.serving.shard` / :mod:`~repro.serving.supervisor` —
  supervised worker processes with respawn-budget-then-degrade;
* :mod:`~repro.serving.breaker` — per-shard circuit breaking over the
  transient/permanent taxonomy;
* :mod:`~repro.serving.runner` — the ``run_design_jobs``-shaped
  substrate injected into :class:`~repro.api.service.RedService`,
  which sends each call's whole job list to one shard, round-robin;
* :mod:`~repro.serving.admission` — bounded admission with
  deterministic load shedding and the drain latch;
* :mod:`~repro.serving.server` / :mod:`~repro.serving.client` — the
  asyncio HTTP/JSON front door and its blocking client.

Unlike the deterministic evaluation packages (RED006), this package may
touch the clock — but only through injectable seams (breaker ``clock``,
supervisor ``sleeper``), and never with blocking calls inside ``async``
bodies (RED008).
"""
