"""The blocking client on its own: retries and envelopes without a plane."""

import http.server
import json
import threading

import pytest

from repro.api.schema import SweepRequest, SweepResult
from repro.errors import ShardUnavailableError
from repro.reliability.policy import RetryPolicy
from repro.serving.client import ServingCallError, ServingClient

SWEEP = SweepRequest(strides=(1, 2))


class _AnswerWith503(http.server.BaseHTTPRequestHandler):
    """Answers every POST with HTTP 503 and a result payload, not an envelope."""

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        body = json.dumps(SweepResult(points=()).to_dict()).encode()
        self.send_response(503)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_unreachable_endpoint_retries_then_raises():
    slept = []
    policy = RetryPolicy(max_attempts=3, base_delay_s=0.01, sleeper=slept.append)
    # Port 1 on localhost: nothing listens there, so every dial is refused.
    with ServingClient("127.0.0.1", 1, timeout=2.0) as client:
        with pytest.raises(ShardUnavailableError, match="unreachable"):
            client.call_with_retry(SWEEP, retry_policy=policy)
    assert slept == [policy.delay_for(1), policy.delay_for(2)]


def test_error_status_without_an_envelope_is_a_schema_error():
    server = http.server.HTTPServer(("127.0.0.1", 0), _AnswerWith503)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with ServingClient("127.0.0.1", server.server_address[1], timeout=10.0) as client:
            with pytest.raises(ServingCallError) as caught:
                client.call(SWEEP)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert caught.value.status == 503
    assert caught.value.info.error_type == "SchemaError"
    assert caught.value.info.message == "non-error payload on HTTP 503"
    assert caught.value.info.source == "serving.client"
    assert not caught.value.info.retryable
