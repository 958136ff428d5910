"""Deterministic fault injection and retry policies.

The reliability plane applies the repo's signature move — seed-derived,
value-keyed determinism (see the seeding contract in
:mod:`repro.reram`) — to failures themselves:

- :mod:`repro.reliability.failpoints` — a process-wide registry of
  named failure sites (``RED_FAILPOINTS=store.put_many:io_error@0.3``)
  whose trigger draws derive from ``SeedSequence(seed, spawn_key=...)``
  so an injected fault schedule is a pure function of configuration,
  never of batch order, shard count or wall clock.
- :mod:`repro.reliability.policy` — the frozen :class:`RetryPolicy`
  (deterministic exponential backoff, injectable sleeper) plus the
  :func:`is_retryable` transient/permanent split and the
  :class:`Deadline` helper behind every runner ``timeout=``.

This package is deliberately *outside* the RED006 deterministic
subpackage set: all wall-clock access (``time.monotonic``, sleeping
between retries) lives here and is injected into ``repro.eval`` /
``repro.api``, which stay clock-free.

See ``README.md`` next to this file for the failpoint catalogue.
"""
