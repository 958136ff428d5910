"""Warm response tier of the serving front door.

Every evaluation the substrate performs is a pure function of the
request payload — that is the repo's reproducibility contract (stores
replay byte-identical metrics, failpoint recovery is byte-identical,
the RNG plane is seed-addressed).  The serving plane exploits it:
successful ``POST /v1/payload`` responses are memoized by their exact
request body bytes, so a repeated request is answered from memory
without touching the admission gate, the shard runner, or a shard
pipe.

Design points:

- **Keyed by raw body bytes.**  The client's ``schema_version`` lives
  inside the body, so a v1 client's downgraded response can never be
  served to a v2 client — different bytes, different key.  Semantically
  equal bodies with different key order simply miss; the cache is a
  fast path, not a correctness layer.
- **Only 200s are stored.**  Error envelopes (overload, deadline,
  shard loss) describe the plane's state at one instant and must never
  outlive it.
- **Bounded LRU.**  ``max_entries`` caps memory; the eviction order is
  recency of *use*, so a steady working set stays resident under churn.
- **Loop-safe.**  ``get``/``put`` are dict moves under a lock — no IO,
  no blocking calls — so the event loop may consult the cache directly
  (RED008-clean).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.errors import ParameterError


class ResponseCache:
    """Bounded LRU of successful wire responses, keyed by body bytes."""

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ParameterError(
                f"max_entries must be >= 1, got {max_entries!r}"
            )
        self.max_entries = max_entries
        self._entries: OrderedDict[bytes, dict] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, body: bytes):
        """The cached 200 payload for ``body``, or ``None`` (a miss)."""
        with self._lock:
            payload = self._entries.get(body)
            if payload is None:
                self.misses += 1
                return None
            self._entries.move_to_end(body)
            self.hits += 1
            return payload

    def put(self, body: bytes, payload: dict) -> None:
        """Remember a successful response; evicts the coldest entry."""
        with self._lock:
            self._entries[body] = payload
            self._entries.move_to_end(body)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        """Health-endpoint counters (cheap, loop-safe)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(self._entries),
                "max_entries": self.max_entries,
            }
