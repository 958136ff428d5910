"""The warm response tier: LRU mechanics and front-door integration."""

import json

import pytest

from repro.api.schema import SweepRequest
from repro.errors import ParameterError
from repro.reliability.failpoints import configured_failpoints
from repro.serving.respcache import ResponseCache
from repro.serving.testing import ServerThread


class TestResponseCache:
    def test_get_put_and_counters(self):
        cache = ResponseCache(max_entries=4)
        assert cache.get(b"a") is None
        cache.put(b"a", {"x": 1})
        assert cache.get(b"a") == {"x": 1}
        stats = cache.stats()
        assert stats == {
            "hits": 1, "misses": 1, "entries": 1, "max_entries": 4,
        }

    def test_eviction_is_least_recently_used(self):
        cache = ResponseCache(max_entries=2)
        cache.put(b"a", {"v": "a"})
        cache.put(b"b", {"v": "b"})
        assert cache.get(b"a") == {"v": "a"}  # refresh a; b is now coldest
        cache.put(b"c", {"v": "c"})
        assert cache.get(b"b") is None
        assert cache.get(b"a") == {"v": "a"}
        assert cache.get(b"c") == {"v": "c"}

    def test_put_overwrites_in_place(self):
        cache = ResponseCache(max_entries=2)
        cache.put(b"a", {"v": 1})
        cache.put(b"a", {"v": 2})
        assert len(cache) == 1
        assert cache.get(b"a") == {"v": 2}

    def test_zero_entries_is_rejected(self):
        with pytest.raises(ParameterError):
            ResponseCache(max_entries=0)


SWEEP = SweepRequest(strides=(1, 2, 4))


class TestWarmTierIntegration:
    def test_repeat_request_hits_and_answers_are_byte_identical(self):
        with configured_failpoints(None):
            with ServerThread(num_shards=2) as plane:
                with plane.client() as client:
                    cold = client.call(SWEEP)
                    warm = client.call(SWEEP)
                    _, health = client.healthz()
        assert json.dumps(cold.to_dict(), sort_keys=True) == json.dumps(
            warm.to_dict(), sort_keys=True
        )
        stats = health["response_cache"]
        assert stats["hits"] >= 1
        assert stats["entries"] >= 1

    def test_warm_hit_skips_the_admission_gate(self):
        with configured_failpoints(None):
            with ServerThread(num_shards=2) as plane:
                with plane.client() as client:
                    client.call(SWEEP)
                    _, before = client.healthz()
                    client.call(SWEEP)
                    _, after = client.healthz()
        assert (
            after["gate"]["admitted_total"]
            == before["gate"]["admitted_total"]
        )

    def test_error_envelopes_are_never_cached(self):
        # Arm a permanent ingress fault for the first call: the 400
        # must not poison the tier for the retry that follows.
        with configured_failpoints(None):
            with ServerThread(num_shards=2) as plane:
                with plane.client() as client:
                    status, _ = client._exchange(
                        "POST",
                        "/v1/payload",
                        body=b"not json",
                        headers={"Content-Type": "application/json"},
                    )
                    assert status == 400
                    result = client.call(SWEEP)
                    _, health = client.healthz()
        assert result.points
        assert health["response_cache"]["entries"] == 1

    def test_disabled_tier_reports_zero_stats(self):
        with configured_failpoints(None):
            with ServerThread(
                num_shards=2, response_cache_entries=0
            ) as plane:
                with plane.client() as client:
                    client.call(SWEEP)
                    client.call(SWEEP)
                    _, health = client.healthz()
        assert health["response_cache"] == {
            "hits": 0, "misses": 0, "entries": 0, "max_entries": 0,
        }
