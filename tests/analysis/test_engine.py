"""Engine mechanics: suppressions, walking, loop contexts, CLI."""

import ast

import pytest

from repro.analysis.engine import (
    PARSE_ERROR,
    Finding,
    is_suppressed,
    module_parts_for,
    run_analysis,
    suppressed_rules,
    walk_loop_contexts,
    walk_python_files,
)


class TestSuppressions:
    def test_no_marker(self):
        assert suppressed_rules("x = cache.get(key)") is None

    def test_bare_marker_suppresses_everything(self):
        assert suppressed_rules("x = 1  # red: ignore") == frozenset()

    def test_explicit_rules(self):
        got = suppressed_rules("x = 1  # red: ignore[RED001, red004]")
        assert got == frozenset({"RED001", "RED004"})

    def test_is_suppressed_matches_rule(self):
        lines = ["a = 1", "b = cache.get(k)  # red: ignore[RED004]"]
        hit = Finding(rule="RED004", path="f.py", line=2, message="m")
        miss = Finding(rule="RED001", path="f.py", line=2, message="m")
        assert is_suppressed(hit, lines)
        assert not is_suppressed(miss, lines)

    def test_bare_marker_suppresses_any_rule(self):
        lines = ["b = cache.get(k)  # red: ignore"]
        assert is_suppressed(Finding("RED004", "f.py", 1, "m"), lines)

    def test_out_of_range_line_is_not_suppressed(self):
        assert not is_suppressed(Finding("RED004", "f.py", 99, "m"), ["x"])


class TestWalking:
    def test_skips_pycache_and_hidden_dirs(self, tmp_path):
        (tmp_path / "pkg" / "__pycache__").mkdir(parents=True)
        (tmp_path / "pkg" / ".hidden").mkdir()
        (tmp_path / "pkg" / "real.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__" / "stale.py").write_text("x = 1\n")
        (tmp_path / "pkg" / ".hidden" / "secret.py").write_text("x = 1\n")
        files = walk_python_files([tmp_path])
        assert [f.name for f in files] == ["real.py"]

    def test_overlapping_roots_deduplicate(self, tmp_path):
        f = tmp_path / "pkg" / "mod.py"
        f.parent.mkdir()
        f.write_text("x = 1\n")
        assert walk_python_files([tmp_path, f.parent, f]) == [f]

    def test_module_parts_strips_src_anchor(self, tmp_path):
        path = tmp_path / "src" / "repro" / "eval" / "parallel.py"
        assert module_parts_for(path) == ("repro", "eval", "parallel")

    def test_syntax_error_becomes_parse_error_finding(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        report = run_analysis([tmp_path])
        assert [f.rule for f in report.findings] == [PARSE_ERROR]

    def test_missing_root_raises_naming_it(self, tmp_path):
        # A mistyped root walked as an empty tree would read as clean.
        (tmp_path / "src").mkdir()
        with pytest.raises(FileNotFoundError, match="srcc") as raised:
            run_analysis([tmp_path / "src", tmp_path / "srcc"])
        assert str(tmp_path / "src") + "," not in str(raised.value)

    def test_every_missing_root_is_named(self, tmp_path):
        with pytest.raises(FileNotFoundError) as raised:
            walk_python_files([tmp_path / "one", tmp_path / "two"])
        assert "one" in str(raised.value) and "two" in str(raised.value)


class TestWalkLoopContexts:
    def _contexts(self, src):
        tree = ast.parse(src)
        return {
            ast.unparse(node): in_loop
            for node, in_loop in walk_loop_contexts(tree)
            if isinstance(node, ast.Call)
        }

    def test_for_iterable_runs_once_body_per_iteration(self):
        ctx = self._contexts("for x in make():\n    use(x)\n")
        assert ctx["make()"] is False
        assert ctx["use(x)"] is True

    def test_while_test_is_per_iteration(self):
        ctx = self._contexts("while check():\n    step()\n")
        assert ctx["check()"] is True
        assert ctx["step()"] is True

    def test_first_generator_iterable_runs_once(self):
        ctx = self._contexts("r = [f(x) for x in make() if ok(x)]\n")
        assert ctx["make()"] is False
        assert ctx["f(x)"] is True
        assert ctx["ok(x)"] is True

    def test_nested_generator_iterable_is_per_iteration(self):
        ctx = self._contexts("r = [g(y) for x in make() for y in expand(x)]\n")
        assert ctx["make()"] is False
        assert ctx["expand(x)"] is True

    def test_comprehension_inside_loop_inherits_context(self):
        ctx = self._contexts("for k in keys():\n    r = [f(x) for x in probe(k)]\n")
        assert ctx["keys()"] is False
        assert ctx["probe(k)"] is True
