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

The same holds name by name inside the reached modules.  Every public
module-level function, class and UPPER_CASE constant, and every public
method of a public class, must be referenced outside its own definition
by a reached module or by a file of an entry tree.  A reference is a
name, an attribute, a ``from`` import or a string literal equal to the
name (so ``getattr`` dispatch counts); it is matched by name alone, so
an attribute ``x.run`` keeps every method called ``run`` alive.  Tests,
``__all__`` lists and re-export-only package ``__init__``s do not count.
``ALLOWLIST`` names the few that stay although only tests call them.
"""

from __future__ import annotations

import ast
import textwrap
from collections.abc import Iterator
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


#: Names that stay although only tests call them, and why.
ALLOWLIST = {
    "repro.eval.parallel.job_key":
        "scalar oracle the batched job_keys is property-tested against",
    "repro.eval.parallel.fidelity_job_key":
        "scalar oracle the batched fidelity_job_keys is property-tested against",
    "repro.arch.metrics_batch.PerfInputBatch.from_perf_inputs":
        "packs scalar perf inputs, the oracle every perf_batch hook is checked against",
    "repro.deconv.zero_padding.zero_padding_deconv":
        "Algorithm 1 end to end, checked against the scatter reference",
    "repro.core.fold.unfold_sct":
        "inverse of fold_sct; folding is checked to lose no weight",
    "repro.core.mapping.kernel_from_sct":
        "inverse of the Eq. 1 kernel-to-SCT mapping",
    "repro.reram.bitslice.reassemble_slices":
        "inverse of slice_weights",
    "repro.reram.shift_adder.combine_bit_planes":
        "pure-function oracle of the ShiftAdder accumulation",
    "repro.reliability.failpoints.format_failpoints":
        "inverse of parse_failpoints",
    "repro.deconv.modes.check_mode_partition":
        "checks that decompose_modes partitions the kernel taps",
    "repro.deconv.modes.num_nonempty_modes":
        "scalar oracle of the closed-form mode count the batch plane uses",
    "repro.core.dataflow.ZeroSkippingSchedule.coverage_check":
        "checks that the RED schedule produces every output pixel once",
    "repro.eval.store.PackedSweepStore.refresh":
        "the only way out of the store's degraded mode",
}


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def public_definitions(tree: ast.Module) -> Iterator[tuple[str, ast.AST]]:
    """(qualified name, node) of every name the guard holds to account."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _is_public(node.name):
                yield node.name, node
        elif isinstance(node, ast.ClassDef) and _is_public(node.name):
            yield node.name, node
            for item in node.body:
                if (
                    isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and _is_public(item.name)
                ):
                    yield f"{node.name}.{item.name}", item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Name)
                    and _is_public(target.id)
                    and target.id.isupper()
                ):
                    yield target.id, node


def _all_list_nodes(tree: ast.Module) -> set[int]:
    skipped: set[int] = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                skipped.update(id(child) for child in ast.walk(node))
    return skipped


def references(tree: ast.Module) -> Iterator[tuple[str, tuple[int, int]]]:
    """(referenced name, position) of every reference outside ``__all__``."""
    skipped = _all_list_nodes(tree)
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            yield node.id, (node.lineno, node.col_offset)
        elif isinstance(node, ast.Attribute):
            yield node.attr, (node.lineno, node.col_offset)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, (node.lineno, node.col_offset)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, (node.lineno, node.col_offset)


def name_sources(
    trees: dict[str, ast.Module], packages: set[str], root: Path
) -> dict[str, ast.Module]:
    """The code whose references keep a name alive.

    Every module in ``trees`` except the re-export-only package
    ``__init__``s among ``packages``, plus every file of the entry trees
    under ``root``; nothing under ``tests/``.
    """
    sources = {
        name: tree
        for name, tree in trees.items()
        if not (name in packages and _only_reexports(tree))
    }
    for tree_name in ENTRY_TREES:
        for path in sorted((root / tree_name).glob("*.py")):
            sources[path.relative_to(root).as_posix()] = ast.parse(path.read_text())
    return sources


def unreached_names(
    definers: dict[str, ast.Module], sources: dict[str, ast.Module]
) -> list[str]:
    """Dotted names defined in ``definers`` that no source references
    outside the name's own definition."""
    positions: dict[str, list[tuple[str, tuple[int, int]]]] = {}
    for source, tree in sources.items():
        for name, position in references(tree):
            positions.setdefault(name, []).append((source, position))
    unreached = []
    for module, tree in definers.items():
        for qualified, node in public_definitions(tree):
            start = (node.lineno, node.col_offset)
            end = (node.end_lineno, node.end_col_offset)
            if not any(
                source != module or not start <= position <= end
                for source, position in positions.get(qualified.rsplit(".", 1)[-1], ())
            ):
                unreached.append(f"{module}.{qualified}")
    return sorted(unreached)


def name_guard_failures(
    definers: dict[str, ast.Module],
    sources: dict[str, ast.Module],
    allowlist: dict[str, str],
) -> list[str]:
    """Every unreached name outside ``allowlist`` and every stale entry."""
    unreached = unreached_names(definers, sources)
    defined = {
        f"{module}.{qualified}"
        for module, tree in definers.items()
        for qualified, _node in public_definitions(tree)
    }
    failures = [
        f"{name}: only tests reference it"
        for name in unreached
        if name not in allowlist
    ]
    for name in sorted(allowlist):
        if name not in defined:
            failures.append(f"{name}: allowlisted but no longer defined")
        elif name not in unreached:
            failures.append(f"{name}: allowlisted but reached; drop it from ALLOWLIST")
    return failures


def _reached_trees() -> dict[str, ast.Module]:
    return {name: TREES[name] for name in sorted(reached_modules())}


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

    def test_every_public_name_is_referenced_from_reached_code(self):
        definers = _reached_trees()
        packages = {name for name in definers if _is_package(name)}
        failures = name_guard_failures(
            definers, name_sources(definers, packages, REPO), ALLOWLIST
        )
        assert failures == [], (
            "public names no command, example, benchmark or perfbench "
            "workload references (only tests do):\n" + "\n".join(failures)
        )


def _parse(source: str) -> ast.Module:
    return ast.parse(textwrap.dedent(source))


class TestNameGuard:
    """The name check on small synthetic sources."""

    def test_a_name_only_a_test_file_uses_is_unreached(self, tmp_path):
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_mod.py").write_text(
            "from pkg.mod import helper\n\nhelper()\n"
        )
        (tmp_path / "examples").mkdir()
        (tmp_path / "examples" / "demo.py").write_text("import pkg.mod\n")
        definers = {"pkg.mod": _parse("def helper():\n    return 1\n")}
        sources = name_sources(definers, set(), tmp_path)
        assert set(sources) == {"pkg.mod", "examples/demo.py"}
        assert unreached_names(definers, sources) == ["pkg.mod.helper"]

    def test_a_string_literal_in_reached_code_reaches(self):
        definers = {"pkg.handlers": _parse("def on_sweep():\n    return 1\n")}
        dispatch = _parse(
            """
            import pkg.handlers

            handler = getattr(pkg.handlers, "on_sweep")
            """
        )
        sources = {**definers, "pkg.dispatch": dispatch}
        assert unreached_names(definers, sources) == []

    def test_a_use_inside_its_own_body_does_not_reach(self):
        definers = {
            "pkg.mod": _parse(
                """
                def countdown(n):
                    return countdown(n - 1) if n else 0


                class Tree:
                    def walk(self):
                        return [child.walk() for child in self.children]

                    def size(self):
                        return len(self.walk())
                """
            )
        }
        # walk is reached by size; nothing reaches Tree, size or countdown.
        assert unreached_names(definers, dict(definers)) == [
            "pkg.mod.Tree", "pkg.mod.Tree.size", "pkg.mod.countdown",
        ]

    def test_a_reexport_only_init_does_not_reach(self, tmp_path):
        definers = {"pkg.mod": _parse("def exported():\n    return 1\n")}
        reexport = _parse(
            """
            from pkg.mod import exported

            __all__ = ["exported"]
            """
        )
        trees = {**definers, "pkg": reexport}
        sources = name_sources(trees, {"pkg"}, tmp_path)
        assert unreached_names(definers, sources) == ["pkg.mod.exported"]
        # An __init__ that defines code is an ordinary module.
        trees["pkg"] = _parse(
            """
            from pkg.mod import exported


            def main():
                return exported()
            """
        )
        sources = name_sources(trees, {"pkg"}, tmp_path)
        assert unreached_names(definers, sources) == []

    def test_an_all_list_does_not_reach(self):
        definers = {
            "pkg.mod": _parse(
                """
                __all__ = ["LIMIT", "helper"]

                LIMIT = 3


                def helper():
                    return 1
                """
            )
        }
        assert unreached_names(definers, dict(definers)) == [
            "pkg.mod.LIMIT", "pkg.mod.helper",
        ]

    def test_a_reached_allowlisted_name_fails(self):
        definers = {
            "pkg.mod": _parse(
                """
                def oracle():
                    return 1


                def caller():
                    return oracle()
                """
            )
        }
        failures = name_guard_failures(
            definers, dict(definers), {"pkg.mod.oracle": "only tests call it"}
        )
        assert failures == [
            "pkg.mod.caller: only tests reference it",
            "pkg.mod.oracle: allowlisted but reached; drop it from ALLOWLIST",
        ]

    def test_a_vanished_allowlisted_name_fails(self):
        definers = {"pkg.mod": _parse("def kept():\n    return 1\n")}
        allowlist = {"pkg.mod.kept": "an oracle", "pkg.mod.gone": "an oracle"}
        assert name_guard_failures(definers, dict(definers), allowlist) == [
            "pkg.mod.gone: allowlisted but no longer defined",
        ]
