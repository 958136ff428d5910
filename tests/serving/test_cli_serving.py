"""CLI surface of the serving plane: ``repro ping`` and ``repro serve``.

The serve test exercises the real deployment path: a subprocess, the
announce line on stderr, a live ping, then SIGTERM -> graceful drain ->
exit 0 with no orphaned shard processes.
"""

import json
import os
import signal
import subprocess
import sys
import threading

import pytest

from repro.api.schema import SCHEMA_VERSION, payload_from_dict
from repro.cli import main
from repro.reliability.failpoints import configured_failpoints
from repro.serving.testing import ServerThread

REPO_SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


@pytest.fixture(scope="class")
def plane():
    with configured_failpoints(None):
        with ServerThread(num_shards=2) as running:
            yield running


class TestPing:
    def test_ping_healthy_plane_exits_zero(self, capsys, plane):
        assert main(["ping", "--port", str(plane.port)]) == 0
        out = capsys.readouterr().out
        assert "healthz=200" in out
        assert "readyz=200" in out

    def test_ping_json_payload_round_trips(self, capsys, plane):
        assert main(["ping", "--port", str(plane.port), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["command"] == "ping"
        assert payload["data"]["healthz_status"] == 200
        assert set(payload["data"]["healthz"]["shards"].values()) == {"running"}
        rebuilt = payload_from_dict(payload)
        assert json.loads(json.dumps(rebuilt.to_dict())) == payload

    def test_ping_unreachable_is_a_retryable_error_envelope(self, capsys):
        # Port 1 on localhost: nothing listens there.
        code = main(
            ["ping", "--port", "1", "--timeout", "0.5", "--json"]
        )
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "error_info"
        assert payload["error_type"] == "ShardUnavailableError"
        assert payload["retryable"] is True
        assert payload["source"] == "ping"


def _serve_pids():
    out = subprocess.run(["ps", "-ef"], capture_output=True, text=True).stdout
    return {
        int(line.split()[1])
        for line in out.splitlines()
        if "repro serve" in line
    }


class TestServeLifecycle:
    def test_sigterm_drains_to_exit_zero_without_orphans(self):
        before = _serve_pids()
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        env.pop("RED_FAILPOINTS", None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--shards", "2"],
            env=env,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            announce = {}

            def read_announce():
                announce["line"] = proc.stderr.readline()

            reader = threading.Thread(target=read_announce, daemon=True)
            reader.start()
            reader.join(timeout=60.0)
            line = announce.get("line", "")
            assert "listening on" in line, f"no announce line: {line!r}"
            port = int(line.split("listening on ")[1].split()[0].rsplit(":", 1)[1])

            assert main(["ping", "--port", str(port)]) == 0

            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60.0) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10.0)
            proc.stderr.close()
        # Graceful exit reaps every forked shard: nothing new survives.
        assert _serve_pids() <= before
