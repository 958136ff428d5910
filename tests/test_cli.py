"""Tests for the command-line interface."""

import json

import pytest

from repro.api.schema import SCHEMA_VERSION, payload_from_dict
from repro.cli import main


class TestCli:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "GAN_Deconv1" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        assert "Shift Adder" in capsys.readouterr().out

    def test_fig4(self, capsys):
        assert main(["fig4"]) == 0
        assert "86.78%" in capsys.readouterr().out

    def test_fig7(self, capsys):
        assert main(["fig7"]) == 0
        assert "speedup" in capsys.readouterr().out

    def test_fig8(self, capsys):
        assert main(["fig8"]) == 0
        assert "saving" in capsys.readouterr().out

    def test_fig9(self, capsys):
        assert main(["fig9"]) == 0
        assert "FCN_Deconv2" in capsys.readouterr().out

    def test_tradeoff(self, capsys):
        assert main(["tradeoff"]) == 0
        out = capsys.readouterr().out
        assert "fold" in out and "128" in out

    def test_network_default(self, capsys):
        assert main(["network"]) == 0
        out = capsys.readouterr().out
        assert "SNGAN" in out and "RED" in out

    def test_compare(self, capsys):
        assert main(["compare"]) == 0
        out = capsys.readouterr().out
        assert "published" in out and "measured" in out

    def test_mechanism(self, capsys):
        assert main(["mechanism"]) == 0
        out = capsys.readouterr().out
        assert "mode (1,1)" in out
        assert "zero redundancy" in out

    def test_report_contains_everything(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        for token in ("Table I", "Table II", "Fig. 4", "Fig. 7", "Fig. 8", "Fig. 9"):
            assert token in out

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])


class TestJsonOutput:
    """Every subcommand emits a versioned payload that round-trips."""

    @pytest.mark.parametrize(
        "command",
        ("table1", "table2", "fig4", "fig7", "fig8", "fig9",
         "tradeoff", "compare", "mechanism", "sweep", "network"),
    )
    def test_json_round_trips(self, capsys, command):
        assert main([command, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == SCHEMA_VERSION
        rebuilt = payload_from_dict(payload)
        assert json.loads(json.dumps(rebuilt.to_dict())) == payload

    def test_sweep_json_is_a_sweep_result(self, capsys):
        assert main(["sweep", "--json", "--strides", "1,2,4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "sweep_result"
        assert [p["stride"] for p in payload["points"]] == [1, 2, 4]

    def test_network_json_is_a_network_result(self, capsys):
        assert main(["network", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "network_result"
        assert payload["network"] == "SNGAN"
        assert {s["design"] for s in payload["summaries"]} == {
            "zero-padding", "padding-free", "RED",
        }

    def test_grid_json_carries_structured_results(self, capsys):
        assert main(["fig7", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "command_result"
        layers = [r["layer"] for r in payload["results"]]
        assert "GAN_Deconv1" in layers and "FCN_Deconv2" in layers
        # The rendered text rides along, so --json output is lossless.
        assert "speedup" in payload["text"]

    def test_text_output_has_no_json(self, capsys):
        assert main(["fig7"]) == 0
        out = capsys.readouterr().out
        assert "schema_version" not in out


class TestErrorBoundary:
    """ReproError surfaces as exit 2: one stderr line, or an ErrorInfo."""

    def test_unknown_network_exits_two_with_one_line(self, capsys):
        assert main(["network", "no-such-network"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("repro network: error:")
        assert "no-such-network" in lines[0]

    def test_json_error_envelope(self, capsys):
        assert main(["network", "no-such-network", "--json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "error_info"
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["error_type"] == "SchemaError"
        assert payload["source"] == "network"
        assert payload["retryable"] is False
        rebuilt = payload_from_dict(payload)
        assert rebuilt.to_dict() == payload

    def test_bad_sweep_strides_exit_two(self, capsys):
        assert main(["sweep", "--strides", "0,2"]) == 2
        err = capsys.readouterr().err
        assert "repro sweep: error:" in err

    def test_non_integer_strides_exit_two_with_one_line(self, capsys):
        assert main(["sweep", "--strides", "1,x"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [
            "repro sweep: error: --strides must be comma-separated integers, got '1,x'"
        ]

    def test_non_repro_errors_still_propagate(self):
        # Only ReproError is the CLI's to translate; anything else is a
        # bug and must surface as a traceback, not a tidy envelope.
        with pytest.raises(SystemExit):
            main(["network", "--bogus-flag"])
