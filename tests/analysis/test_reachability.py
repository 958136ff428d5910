"""Every module under ``src/repro`` is reached from an entry point.

A module earns its place when a command, an example, a benchmark or the
repo benchmark imports it, directly or through other reached modules.
Tests are not entry points: a module only its own tests import is dead
weight, and this guard names it.

The graph is built from the AST alone (nothing is imported), following
every ``import`` statement, including the lazy ones inside functions:

* ``import a.b`` reaches ``a.b`` and the packages above it;
* ``from pkg import name`` reaches ``pkg.name`` when that is a module,
  and otherwise the module that defines ``name``, following a package
  ``__init__``'s re-exports;
* a package ``__init__`` that only re-exports adds no edges of its own,
  so re-exporting a module does not keep it alive.  One that defines
  functions or classes (``repro.api``'s lazy ``__getattr__``, for
  example) is an ordinary module and adds its edges.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"

ENTRY_MODULES = ("repro.cli", "repro.__main__", "repro.analysis.__main__")
ENTRY_TREES = ("examples", "benchmarks", "perfbench")


def _module_files() -> dict[str, Path]:
    """Dotted name -> file for every module under ``src/repro``."""
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


MODULES = _module_files()


def _is_package(name: str) -> bool:
    return MODULES[name].name == "__init__.py"


def _only_reexports(tree: ast.Module) -> bool:
    return not any(
        isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        for node in tree.body
    )


def _reexports(tree: ast.Module) -> dict[str, tuple[str, str]]:
    """Name bound by a top-level ``from X import Y as name`` -> (X, Y)."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                bound[alias.asname or alias.name] = (node.module, alias.name)
    return bound


TREES = {name: ast.parse(path.read_text()) for name, path in MODULES.items()}


def _with_parents(name: str) -> list[str]:
    """``name`` and every package above it that is a ``repro`` module."""
    parts = name.split(".")
    return [
        dotted for dotted in (".".join(parts[:i]) for i in range(1, len(parts) + 1))
        if dotted in MODULES
    ]


def _resolve_from(package: str, name: str, seen=frozenset()) -> list[str]:
    """The modules ``from package import name`` reaches."""
    if f"{package}.{name}" in MODULES:
        return _with_parents(f"{package}.{name}")
    if package not in MODULES or package in seen:
        return _with_parents(package)
    tree = TREES[package]
    origin = _reexports(tree).get(name)
    if _is_package(package) and _only_reexports(tree) and origin is not None:
        module, attribute = origin
        return _resolve_from(module, attribute, seen | {package})
    return _with_parents(package)


def _imports(tree: ast.Module) -> set[str]:
    """Every ``repro`` module a file's import statements reach."""
    reached: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                reached.update(_with_parents(alias.name))
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                reached.update(_resolve_from(node.module, alias.name))
    return reached


def _edges(name: str) -> set[str]:
    tree = TREES[name]
    if _is_package(name) and _only_reexports(tree):
        return set()
    return _imports(tree)


def reached_modules() -> set[str]:
    """Every ``repro`` module some entry point reaches."""
    frontier: set[str] = set()
    for module in ENTRY_MODULES:
        frontier.update(_with_parents(module))
    for tree_name in ENTRY_TREES:
        for path in sorted((REPO / tree_name).glob("*.py")):
            frontier.update(_imports(ast.parse(path.read_text())))
    reached: set[str] = set()
    while frontier:
        module = frontier.pop()
        if module not in reached:
            reached.add(module)
            frontier.update(_edges(module) - reached)
    return reached


class TestReachability:
    def test_every_module_is_reached_from_an_entry_point(self):
        unreached = sorted(set(MODULES) - reached_modules())
        assert unreached == [], (
            "modules no command, example, benchmark or perfbench workload "
            f"imports (only tests do): {', '.join(unreached)}"
        )

    def test_reexport_alone_does_not_reach(self):
        # repro.arch re-exports its submodules and defines nothing, so
        # it reaches none of them; repro.api defines a lazy __getattr__
        # and reaches what that imports.
        assert _edges("repro.arch") == set()
        assert "repro.api.service" in _edges("repro.api")

    def test_from_import_follows_reexports_to_the_defining_module(self):
        assert "repro.arch.tech" in _resolve_from("repro.arch", "default_tech")
        assert "repro.arch.metrics" not in _resolve_from("repro.arch", "default_tech")
        # Two hops: repro re-exports run_grid from repro.eval, which
        # re-exports it from repro.eval.harness.
        assert "repro.eval.harness" in _resolve_from("repro", "run_grid")
