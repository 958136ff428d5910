"""The repository's own tree honours every substrate contract.

This is the test that keeps the tree finding-free: a change that
re-introduces a global-state sampler, an unfrozen payload, a per-entry
store loop, or a stray oracle call fails here (and in ``make lint``)
with the rule's message, not in review.
"""

import json
import sys
from pathlib import Path

from repro.analysis.__main__ import main
from repro.analysis.engine import run_analysis
from repro.analysis.rules import default_rules

REPO = Path(__file__).resolve().parents[2]
LINTED_TREES = [REPO / "src", REPO / "benchmarks", REPO / "examples"]


class TestTreeIsClean:
    def test_zero_findings_over_the_real_tree(self):
        report = run_analysis(LINTED_TREES)
        rendered = "\n".join(f.render() for f in report.findings)
        assert report.findings == [], f"contract violations:\n{rendered}"

    def test_walk_actually_covers_the_tree(self):
        report = run_analysis(LINTED_TREES)
        assert report.files_checked > 100

    def test_registry_coverage_is_exercised(self):
        # The cross-file RED003 pass only judges coverage when it sees a
        # register_design-calling module; the real tree must contain one,
        # otherwise the rule silently passes on everything.
        rules = default_rules()
        registry_rule = next(r for r in rules if r.rule_id == "RED003")
        run_analysis([REPO / "src"], rules=rules)
        assert registry_rule._saw_registering_module
        assert len(registry_rule._design_classes) >= 3


class TestCommandLine:
    def test_cli_clean_tree_exits_zero(self, capsys):
        code = main([str(p) for p in LINTED_TREES])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 finding(s)" in out

    def test_cli_findings_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "eval" / "runner.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f(cache, key):\n    return cache.get(key)\n")
        code = main([str(tmp_path / "src")])
        out = capsys.readouterr().out
        assert code == 1
        assert "RED004" in out

    def test_cli_json_report(self, tmp_path, capsys):
        bad = tmp_path / "mod.py"
        bad.write_text("import numpy as np\nx = np.random.rand(3)\n")
        code = main([str(bad), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert [f["rule"] for f in payload["findings"]] == ["RED001"]

    def test_cli_missing_path_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "srcc")]) == 2
        assert "srcc" in capsys.readouterr().err

    def test_cli_usage_error_exits_two(self, capsys):
        assert main(["--no-such-flag"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_cli_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "RED001-RED008" in capsys.readouterr().out

    def test_cli_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "RED001", "RED002", "RED003", "RED004", "RED005", "RED006", "RED007",
            "RED008",
        ):
            assert rule_id in out

    def test_module_entry_point_runs(self, tmp_path):
        import subprocess

        clean = tmp_path / "mod.py"
        clean.write_text("x = 1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(clean)],
            capture_output=True,
            text=True,
            cwd=REPO,
        )
        assert proc.returncode == 0, proc.stderr
