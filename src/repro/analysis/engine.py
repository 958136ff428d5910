"""The contract-linter engine: rules, findings, suppressions.

The substrate built in PRs 1-6 rests on a handful of hand-maintained
invariants — the SeedSequence spawn-key seeding contract, frozen
``schema_version``-tagged payloads, registry-only design dispatch, the
exactly-two-store-calls runner discipline, scalar-oracle-only code
paths.  This package turns each of them from a review comment into a
machine-checked rule (see ``rules/`` and README.md for the catalogue).

Moving parts
------------
* :class:`Finding` — one violation: rule id, file, line, message.
* :class:`Rule` — a check over one parsed module
  (:meth:`Rule.check`) plus an optional whole-tree pass
  (:meth:`Rule.finalize`) for cross-file contracts such as registry
  coverage.  :meth:`Rule.applies_to` scopes a rule to the module paths
  whose contract it encodes.
* :class:`ModuleSource` — one parsed file: source text, AST, and the
  dotted module parts the scoping predicates match against (computed
  from the path, stripping any leading ``src`` segment).
* Suppressions — a finding on a line carrying
  ``# red: ignore[RULE-ID]`` (or a bare ``# red: ignore`` for any rule)
  is dropped and counted, mirroring ``# noqa`` semantics.
* :func:`run_analysis` — walk the requested paths (skipping
  ``__pycache__`` and hidden directories; a path that does not exist
  raises :class:`FileNotFoundError`), run every rule, and return an
  :class:`AnalysisReport`.

Files that fail to parse surface as :data:`PARSE_ERROR` findings
rather than crashing the run, so one broken file cannot hide findings
in the rest of the tree (``compileall`` in ``make lint`` still fails
the build on them).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

#: Pseudo-rule id for files the engine cannot parse.
PARSE_ERROR = "RED000"

_SUPPRESS_RE = re.compile(
    r"#\s*red:\s*ignore(?:\[(?P<rules>[A-Za-z0-9_,\s-]*)\])?"
)


@dataclass(frozen=True)
class Finding:
    """One contract violation at a specific site.

    Attributes:
        rule: rule identifier (``"RED001"`` ... or :data:`PARSE_ERROR`).
        path: file path as walked (POSIX separators, stable across runs).
        line: 1-based line of the offending node (0 when unknown).
        message: human-readable statement of the violated invariant.
    """

    rule: str
    path: str
    line: int
    message: str

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


@dataclass
class ModuleSource:
    """One parsed source file handed to the rules.

    Attributes:
        path: the walked path (as reported in findings).
        text: raw source text.
        tree: parsed :mod:`ast` module, or ``None`` on syntax error.
        module_parts: dotted-module segments derived from the path with
            any leading ``src`` layout segment stripped — e.g.
            ``("repro", "eval", "parallel")`` — so rules can scope to
            packages regardless of the directory the walk started from.
    """

    path: str
    text: str
    tree: ast.Module | None
    module_parts: tuple[str, ...]

    def lines(self) -> list[str]:
        return self.text.splitlines()


class Rule:
    """Base class for one machine-checked contract.

    Subclasses set :attr:`rule_id` / :attr:`summary` and override
    :meth:`check` (per module) and/or :meth:`finalize` (once, after all
    modules, for cross-file contracts).  A fresh instance is created per
    run, so :meth:`check` may accumulate state for :meth:`finalize`.
    """

    rule_id: str = "RED???"
    summary: str = ""

    def applies_to(self, module: ModuleSource) -> bool:
        """Whether this rule's contract covers ``module`` at all."""
        return True

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        """Findings local to one module."""
        return iter(())

    def finalize(self) -> Iterator[Finding]:
        """Cross-module findings, after every file has been checked."""
        return iter(())

    # Helper shared by subclasses.
    def finding(self, module: ModuleSource, node, message: str) -> Finding:
        line = getattr(node, "lineno", 0) if node is not None else 0
        return Finding(
            rule=self.rule_id, path=module.path, line=line, message=message
        )


@dataclass
class AnalysisReport:
    """The outcome of one :func:`run_analysis` pass.

    Attributes:
        findings: violations left after inline suppressions.
        suppressed: count of findings dropped by inline suppressions.
        files_checked: number of Python files walked and parsed.
    """

    findings: list[Finding] = field(default_factory=list)
    suppressed: int = 0
    files_checked: int = 0

    def to_dict(self) -> dict:
        return {
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": self.suppressed,
            "files_checked": self.files_checked,
        }


# ----------------------------------------------------------------------
# Loop-context AST walking (shared by the loop-discipline rules)
# ----------------------------------------------------------------------
def walk_loop_contexts(tree: ast.AST) -> list[tuple[ast.AST, bool]]:
    """Every node paired with whether it re-executes per loop iteration.

    ``in_loop_body`` is True for nodes inside ``for``/``while`` bodies,
    ``while`` tests, and comprehension elements/conditions — and False
    for positions that run exactly once per statement: a ``for`` loop's
    iterable and the *first* generator's iterable of a comprehension
    (``[f(x) for x in make_once()]`` evaluates ``make_once()`` once).
    """
    out: list[tuple[ast.AST, bool]] = []

    def visit(node: ast.AST, in_loop: bool) -> None:
        out.append((node, in_loop))
        if isinstance(node, (ast.For, ast.AsyncFor)):
            visit(node.target, in_loop)
            visit(node.iter, in_loop)
            for stmt in (*node.body, *node.orelse):
                visit(stmt, True)
        elif isinstance(node, ast.While):
            visit(node.test, True)
            for stmt in (*node.body, *node.orelse):
                visit(stmt, True)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            for index, gen in enumerate(node.generators):
                visit(gen.target, True)
                visit(gen.iter, in_loop if index == 0 else True)
                for cond in gen.ifs:
                    visit(cond, True)
            if isinstance(node, ast.DictComp):
                visit(node.key, True)
                visit(node.value, True)
            else:
                visit(node.elt, True)
        else:
            for child in ast.iter_child_nodes(node):
                visit(child, in_loop)

    visit(tree, False)
    return out


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
def suppressed_rules(line: str) -> frozenset[str] | None:
    """The rule ids a source line suppresses.

    Returns ``None`` when the line carries no suppression marker, an
    empty frozenset for the bare ``# red: ignore`` form (suppresses
    every rule on the line), or the explicit ids from
    ``# red: ignore[RED001, RED004]``.
    """
    match = _SUPPRESS_RE.search(line)
    if match is None:
        return None
    rules = match.group("rules")
    if rules is None:
        return frozenset()
    return frozenset(r.strip().upper() for r in rules.split(",") if r.strip())


def is_suppressed(finding: Finding, lines: Sequence[str]) -> bool:
    """Whether ``finding`` is silenced by a marker on its source line."""
    if not 1 <= finding.line <= len(lines):
        return False
    rules = suppressed_rules(lines[finding.line - 1])
    if rules is None:
        return False
    return not rules or finding.rule in rules


# ----------------------------------------------------------------------
# File walking
# ----------------------------------------------------------------------
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}


def walk_python_files(paths: Sequence[str | Path]) -> list[Path]:
    """Every ``.py`` file under ``paths``, sorted, caches excluded.

    Raises :class:`FileNotFoundError` naming every path that does not
    exist: walked as an empty tree, a mistyped root would read as clean.
    """
    missing = [str(root) for root in paths if not Path(root).exists()]
    if missing:
        raise FileNotFoundError(f"no such file or directory: {', '.join(missing)}")
    collected: list[Path] = []
    for root in paths:
        root = Path(root)
        if root.is_file():
            if root.suffix == ".py":
                collected.append(root)
            continue
        for candidate in sorted(root.rglob("*.py")):
            parts = candidate.parts
            if any(part in _SKIP_DIRS or part.startswith(".") for part in parts):
                continue
            collected.append(candidate)
    # De-duplicate while preserving order (overlapping roots).
    seen: set[Path] = set()
    unique = []
    for path in collected:
        if path not in seen:
            seen.add(path)
            unique.append(path)
    return unique


def module_parts_for(path: Path) -> tuple[str, ...]:
    """Dotted-module segments for a file, stripping ``src`` layout roots.

    ``src/repro/eval/parallel.py`` -> ``("repro", "eval", "parallel")``;
    the rules' path predicates match on these segments so the engine
    behaves identically whether invoked on ``src`` or on the package
    directory itself.
    """
    parts = list(path.with_suffix("").parts)
    for anchor in ("src", "lib"):
        if anchor in parts:
            parts = parts[parts.index(anchor) + 1 :]
            break
    return tuple(parts)


def parse_module(path: Path) -> ModuleSource:
    """Read and parse one file (``tree=None`` on syntax errors)."""
    text = path.read_text(encoding="utf-8", errors="replace")
    try:
        tree = ast.parse(text)
    except SyntaxError:
        tree = None
    return ModuleSource(
        path=path.as_posix(),
        text=text,
        tree=tree,
        module_parts=module_parts_for(path),
    )


# ----------------------------------------------------------------------
# The run loop
# ----------------------------------------------------------------------
def run_analysis(
    paths: Sequence[str | Path],
    rules: Sequence[Rule] | None = None,
) -> AnalysisReport:
    """Run every rule over every Python file under ``paths``.

    Args:
        paths: files or directories to walk; each must exist.
        rules: rule instances (default: one of each registered rule —
            a fresh set per run, since rules may carry cross-file state).

    Returns:
        An :class:`AnalysisReport`; ``report.findings`` is empty exactly
        when the tree honours every contract (modulo suppressions).

    Raises:
        FileNotFoundError: a path does not exist.
    """
    if rules is None:
        from repro.analysis.rules import default_rules

        rules = default_rules()
    report = AnalysisReport()
    raw: list[tuple[Finding, Sequence[str]]] = []
    for path in walk_python_files(paths):
        module = parse_module(path)
        report.files_checked += 1
        if module.tree is None:
            raw.append(
                (
                    Finding(
                        rule=PARSE_ERROR,
                        path=module.path,
                        line=0,
                        message="file does not parse; rules were not evaluated",
                    ),
                    (),
                )
            )
            continue
        lines = module.lines()
        for rule in rules:
            if not rule.applies_to(module):
                continue
            for finding in rule.check(module):
                raw.append((finding, lines))
    for rule in rules:
        for finding in rule.finalize():
            raw.append((finding, ()))
    for finding, lines in raw:
        if is_suppressed(finding, lines):
            report.suppressed += 1
        else:
            report.findings.append(finding)
    report.findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return report
