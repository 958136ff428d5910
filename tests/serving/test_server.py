"""End-to-end serving plane: wire protocol, negotiation, overload, drain.

Every test here talks to a real :class:`~repro.serving.server.ServingServer`
— real sockets, real forked shard processes — through the
:class:`~repro.serving.testing.ServerThread` harness, whose exit path is
byte-for-byte the SIGTERM drain.
"""

import json
import socket
import threading

import pytest

from repro.api.schema import (
    SCHEMA_VERSION,
    EvaluationRequest,
    SweepRequest,
    SweepResult,
)
from repro.api.service import RedService
from repro.deconv.shapes import DeconvSpec
from repro.errors import ParameterError, ShardUnavailableError
from repro.reliability.failpoints import configured_failpoints
from repro.reliability.policy import RetryPolicy, no_sleep
from repro.serving.client import ServingCallError
from repro.serving.runner import ShardedRunner
from repro.serving.server import ServingServer
from repro.serving.supervisor import ShardSupervisor
from repro.serving.testing import ServerThread
from tests.serving.conftest import kill_shard

SWEEP = SweepRequest(strides=(1, 2, 4))
#: Generous attempts, no real sleeping — chaos rounds retry a lot.
LENIENT = RetryPolicy(max_attempts=10, base_delay_s=0.0, sleeper=no_sleep)


# Class scope, not module: only one serving plane may be alive at a
# time.  Shard processes are forked, and forking while another plane's
# threads hold locks can deadlock the child until the supervisor's call
# budget reclaims it — exactly the cross-tenant interference the
# one-plane-per-process deployment model avoids.
@pytest.fixture(scope="class")
def plane():
    with configured_failpoints(None):
        with ServerThread(num_shards=2, call_timeout_s=20.0) as running:
            yield running


def in_process_reference(request):
    service = RedService()
    try:
        with configured_failpoints(None):
            return service.sweep(request)
    finally:
        service.close()


def digest(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


class TestWireProtocol:
    def test_healthz_and_readyz(self, plane):
        with plane.client() as client:
            health_status, health = client.healthz()
            ready_status, ready = client.readyz()
        assert health_status == 200
        assert health["status"] == "ok"
        assert set(health["shards"].values()) == {"running"}
        assert ready_status == 200
        assert all(hb["alive"] for hb in ready["heartbeats"].values())

    def test_sweep_matches_in_process_byte_for_byte(self, plane):
        expected = in_process_reference(SWEEP)
        with plane.client() as client:
            got = client.call(SWEEP)
        assert isinstance(got, SweepResult)
        assert json.dumps(got.to_dict(), sort_keys=True) == json.dumps(
            expected.to_dict(), sort_keys=True
        )

    def test_v1_client_negotiation_round_trips(self, plane):
        with plane.client(schema_version=1) as client:
            got = client.call(SWEEP)
        assert got.schema_version == 1
        wire = got.to_dict()
        assert wire["schema_version"] == 1
        assert "retry_after_s" not in json.dumps(wire)
        # Numbers are identical to what a v2 client sees.
        expected = in_process_reference(SWEEP)
        assert [p.speedup for p in got.points] == [
            p.speedup for p in expected.points
        ]

    def test_unknown_route_is_a_404_envelope(self, plane):
        with plane.client() as client:
            status, body = client._exchange("GET", "/nope")
        assert status == 404
        assert body["kind"] == "error_info"
        assert not body["retryable"]

    @pytest.mark.parametrize(
        ("request_body", "headers"),
        [
            ("{not json", {"Content-Type": "application/json"}),
            (
                json.dumps({"kind": "evaluation_request", "schema_version": SCHEMA_VERSION,
                            "layer": "GAN_Deconv1", "designs": 5}),
                {"Content-Type": "application/json"},
            ),
            (
                json.dumps({"kind": "sweep_request", "schema_version": [SCHEMA_VERSION]}),
                {"Content-Type": "application/json"},
            ),
            ("[" * 100_000, {"Content-Type": "application/json"}),
            ("", {"Content-Length": "abc"}),
            ("", {"Content-Length": "-5"}),
        ],
        ids=[
            "not-json", "designs-not-a-list", "unhashable-schema-version",
            "nested-too-deep", "content-length-abc", "content-length-negative",
        ],
    )
    def test_malformed_json_is_a_400_envelope(self, plane, request_body, headers):
        with plane.client() as client:
            status, body = client._exchange(
                "POST", "/v1/payload", body=request_body, headers=headers
            )
        assert status == 400
        assert body["kind"] == "error_info"
        assert body["error_type"] == "SchemaError"

    @pytest.mark.parametrize(
        "raw",
        [
            b"GET /healthz\r\n\r\n",
            b"GET /healthz HTTP/1.1 trailing\r\n\r\n",
            b"\r\n\r\n",
            b"POST /v1/payload HTTP/1.1\r\nContent-Length: 8388609\r\n\r\n",
        ],
        ids=["two-part-request-line", "four-part-request-line", "empty-request-line",
             "body-over-the-cap"],
    )
    def test_malformed_framing_is_a_400_envelope_then_close(self, plane, raw):
        with socket.create_connection(("127.0.0.1", plane.port), timeout=30) as sock:
            sock.sendall(raw)
            chunks = []
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        info = json.loads(body)
        assert (info["kind"], info["error_type"]) == ("error_info", "SchemaError")
        assert info["source"] == "serving.http"

    @pytest.mark.parametrize("attempt", ["banana", "-1"])
    def test_bad_attempt_header_is_a_400_envelope(self, plane, attempt):
        with plane.client() as client:
            status, body = client._exchange(
                "POST", "/v1/payload", body=json.dumps(SWEEP.to_dict()),
                headers={"X-Red-Attempt": attempt},
            )
        assert status == 400
        assert body["error_type"] == "SchemaError"
        assert "X-Red-Attempt" in body["message"]

    def test_v1_client_gets_a_v1_error_envelope(self, plane):
        wire = {"kind": "sweep_request", "schema_version": 1, "strides": "x"}
        with configured_failpoints(None), plane.client() as client:
            status, body = client._exchange(
                "POST", "/v1/payload", body=json.dumps(wire),
                headers={"Content-Type": "application/json"},
            )
        assert status == 400
        assert (body["kind"], body["error_type"]) == ("error_info", "SchemaError")
        assert body["schema_version"] == 1
        assert "retry_after_s" not in body

    def test_bad_deadline_header_is_a_400_envelope(self, plane):
        with plane.client() as client:
            status, body = client._exchange(
                "POST", "/v1/payload", body=json.dumps(SWEEP.to_dict()),
                headers={"X-Red-Timeout-S": "banana"},
            )
        assert status == 400
        assert body["error_type"] == "SchemaError"

    def test_schema_error_from_payload_is_permanent(self, plane):
        with plane.client() as client:
            with pytest.raises(ServingCallError) as caught:
                client.call({"kind": "sweep_request", "schema_version": 99})
        assert caught.value.status == 400
        assert not caught.value.info.retryable


class TestOverloadAndDeadline:
    def test_full_gate_sheds_429_with_retry_hint(self, plane):
        gate = plane.server.gate
        for _ in range(gate.capacity):
            gate.admit()
        try:
            with plane.client() as client:
                with pytest.raises(ServingCallError) as caught:
                    client.call(SWEEP)
        finally:
            for _ in range(gate.capacity):
                gate.release()
        assert caught.value.status == 429
        assert caught.value.info.error_type == "OverloadedError"
        assert caught.value.info.retryable
        assert caught.value.retry_after_s > 0

    def test_shed_request_succeeds_on_retry_after_slots_free(self, plane):
        gate = plane.server.gate
        for _ in range(gate.capacity):
            gate.admit()
        blocked = threading.Timer(
            0.05, lambda: [gate.release() for _ in range(gate.capacity)]
        )
        blocked.start()
        try:
            with plane.client() as client:
                # Real sleeps here: the retry loop must actually wait out
                # the server's retry_after_s hint for slots to free up.
                got = client.call_with_retry(
                    SWEEP,
                    retry_policy=RetryPolicy(max_attempts=20, base_delay_s=0.02),
                )
        finally:
            blocked.join()
        assert isinstance(got, SweepResult)

    def test_wire_deadline_maps_to_504(self, plane):
        # A deadline no evaluation can meet: the supervisor kills the
        # unresponsive call and the final status is the deadline's.
        with plane.client() as client:
            with pytest.raises(ServingCallError) as caught:
                client.call(EvaluationRequest(layer="FCN_Deconv2"), timeout_s=1e-6)
        assert caught.value.status == 504
        assert caught.value.info.error_type == "EvaluationTimeoutError"
        assert not caught.value.info.retryable
        # The plane recovers: shards respawn and keep serving.
        with plane.client() as client:
            got = client.call_with_retry(SWEEP, retry_policy=LENIENT)
        assert isinstance(got, SweepResult)


class TestDrain:
    def test_drain_under_load_answers_every_request(self):
        outcomes = {}
        barrier = threading.Barrier(9)

        def one_request(plane, index):
            barrier.wait()
            try:
                with plane.client(timeout=60.0) as client:
                    outcomes[index] = client.call(SWEEP)
            except (ServingCallError, ShardUnavailableError) as exc:
                outcomes[index] = exc

        with configured_failpoints(None):
            with ServerThread(
                num_shards=2, max_inflight=2, max_queue=2, call_timeout_s=20.0
            ) as plane:
                threads = [
                    threading.Thread(target=one_request, args=(plane, i))
                    for i in range(8)
                ]
                for t in threads:
                    t.start()
                barrier.wait()  # all client threads are in flight
                plane.server.request_drain()
                for t in threads:
                    t.join(timeout=120.0)
                    assert not t.is_alive(), "request hung across drain"
        assert plane.exit_code == 0
        assert len(outcomes) == 8
        for outcome in outcomes.values():
            # Complete result or typed envelope — never a hang, never
            # an unexplained connection drop mid-response.
            assert isinstance(
                outcome, (SweepResult, ServingCallError, ShardUnavailableError)
            )

    def test_drained_server_refuses_new_work_then_exits_zero(self):
        with configured_failpoints(None):
            with ServerThread(num_shards=2) as plane:
                plane.server.request_drain()
                deadline_met = plane.server.gate.wait_idle(timeout=30.0)
                assert deadline_met
                with pytest.raises(
                    (ServingCallError, ShardUnavailableError)
                ) as caught:
                    with plane.client() as client:
                        client.call(SWEEP)
                if isinstance(caught.value, ServingCallError):
                    assert caught.value.status == 503
                    assert caught.value.info.error_type == "DrainingError"
        assert plane.exit_code == 0


class TestChaos:
    def test_injected_faults_recover_byte_identical(self):
        """The tentpole invariant: crash + io_error mid-run, every
        request answered, recovered results byte-identical to fault-free.
        """
        expected = json.dumps(
            in_process_reference(SWEEP).to_dict(), sort_keys=True
        )
        spec = (
            "serving.shard_call:crash@0.3;"
            "serving.accept:io_error@0.2;"
            "serving.merge:io_error@0.1"
        )
        with configured_failpoints(spec, seed=11):
            with ServerThread(num_shards=2, respawn_budget=4) as plane:
                with plane.client(timeout=60.0) as client:
                    for _ in range(3):
                        got = client.call_with_retry(SWEEP, retry_policy=LENIENT)
                        assert (
                            json.dumps(got.to_dict(), sort_keys=True) == expected
                        )
                    ready_status, _ = client.readyz()
                assert ready_status == 200
        assert plane.exit_code == 0


class TestDeadShards:
    def test_fallback_answers_byte_identical_and_counts_every_call(
        self, monkeypatch
    ):
        requests = [
            SweepRequest(strides=(1, 2, 4), channels=16 + i) for i in range(3)
        ]
        expected = [digest(in_process_reference(r)) for r in requests]
        calls = []
        runner_call = ShardedRunner.__call__

        def counted(runner, jobs, **kwargs):
            calls.append(len(jobs))
            return runner_call(runner, jobs, **kwargs)

        monkeypatch.setattr(ShardedRunner, "__call__", counted)
        # Every shard dies on its first call and may not respawn, so
        # every runner call lands on the in-process fallback.
        with configured_failpoints("serving.shard_call:crash@1.0", seed=3):
            with ServerThread(
                num_shards=2, respawn_budget=0, response_cache_entries=0
            ) as plane:
                with plane.client(timeout=60.0) as client:
                    got = [digest(client.call(r)) for r in requests]
                    _, health = client.healthz()
        assert got == expected
        assert len(calls) == len(requests)
        assert health["degraded_calls"] == len(calls)
        assert set(health["shards"].values()) == {"degraded"}
        assert plane.exit_code == 0

    def test_without_fallback_a_dead_shard_gives_a_partial_sweep(self):
        request = SweepRequest(strides=(1, 2, 4, 8))
        expected = {p.stride: p for p in in_process_reference(request).points}
        with configured_failpoints(None):
            with ServerThread(
                num_shards=2,
                respawn_budget=0,
                fallback=False,
                response_cache_entries=0,
            ) as plane:
                kill_shard(plane.server.supervisor, 0)
                with plane.client(timeout=60.0) as client:
                    result = client.call(request)
        points = {p.stride: p for p in result.points}
        failed = {}
        for info in result.failures:
            assert info.retryable
            assert info.error_type == "ShardUnavailableError"
            failed[int(info.source.removeprefix("stride="))] = info
        # Round-robin alternates the per-stride salvage calls between
        # the live shard and the dead one.
        assert points and failed
        assert sorted([*points, *failed]) == list(request.strides)
        for stride, point in points.items():
            assert point == expected[stride]
        assert plane.exit_code == 0


class TestAnalyticMemo:
    def test_a_repeat_with_other_body_bytes_makes_no_shard_call(self, monkeypatch):
        # The same analytic jobs under another label: the body bytes
        # differ, so the response cache misses, and the service's memo
        # answers without crossing the shard hop.
        spec = DeconvSpec(4, 4, 3, 4, 4, 2, stride=2, padding=1)
        first, second = (
            EvaluationRequest(spec=spec, layer_name=label) for label in ("a", "b")
        )
        with RedService() as service, configured_failpoints(None):
            expected = service.evaluate(second)
        calls = []
        supervisor_call = ShardSupervisor.call

        def counted(supervisor, shard_id, jobs, *args, **kwargs):
            calls.append(len(jobs))
            return supervisor_call(supervisor, shard_id, jobs, *args, **kwargs)

        monkeypatch.setattr(ShardSupervisor, "call", counted)
        with configured_failpoints(None):
            with ServerThread(num_shards=2) as plane:
                with plane.client(timeout=60.0) as client:
                    assert client.call(first).layer == "a"
                    got = client.call(second)
        assert calls == [3]
        assert digest(got) == digest(expected)
        assert plane.exit_code == 0


class TestReadinessWithoutShards:
    """``/readyz`` answers from the gate and the heartbeats alone."""

    def test_draining_server_is_not_ready(self):
        server = ServingServer(num_shards=1)
        server.gate.begin_drain()
        status, payload, _ = server._readyz()
        assert status == 503
        assert (payload["error_type"], payload["source"]) == (
            "DrainingError", "serving.readyz",
        )

    def test_server_without_a_running_shard_is_not_ready(self):
        status, payload, _ = ServingServer(num_shards=2)._readyz()
        assert status == 503
        assert payload["status"] == "no-running-shard"
        assert [beat["alive"] for beat in payload["heartbeats"].values()] == [False, False]

    @pytest.mark.parametrize("drain_timeout_s", [0, -1.0])
    def test_non_positive_drain_timeout_rejected(self, drain_timeout_s):
        with pytest.raises(ParameterError, match="drain_timeout_s"):
            ServingServer(drain_timeout_s=drain_timeout_s)


class TestDrainEdges:
    def test_drain_closes_an_idle_keep_alive_connection(self):
        with configured_failpoints(None):
            running = ServerThread(num_shards=1, drain_timeout_s=0.5)
            with running:
                sock = socket.create_connection(("127.0.0.1", running.port), timeout=30)
                sock.sendall(b"GET /healthz HTTP/1.1\r\nConnection: keep-alive\r\n\r\n")
                head = sock.recv(65536)
                assert head.startswith(b"HTTP/1.1 200 ")
            # The drain ran with the connection idle and still open.
            with sock:
                assert sock.recv(65536) == b""
        assert running.exit_code == 0

    def test_drain_requested_before_start_is_remembered(self):
        server = ServingServer(num_shards=1)
        server.request_drain()
        assert server._drain_started.is_set()

    def test_drain_requested_after_exit_is_a_no_op(self):
        with configured_failpoints(None):
            with ServerThread(num_shards=1) as running:
                pass
        assert running.exit_code == 0
        running.server.request_drain()  # the loop is closed: nothing to do
