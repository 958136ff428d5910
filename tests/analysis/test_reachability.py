"""Every module under ``src/repro`` is reached from an entry point.

A module earns its place when a command, an example, a benchmark or the
repo benchmark imports it, directly or through other reached modules.
Tests are not entry points: a module only its own tests import is dead
weight, and this guard names it.

The graph is built from the AST alone (nothing is imported), following
every ``import`` statement, including the lazy ones inside functions:

* ``import a.b`` reaches ``a.b`` and the packages above it;
* ``from pkg import name`` reaches ``pkg.name`` when that is a module,
  and otherwise ``pkg`` itself, the module that defines ``name``.

That second rule holds because every name has one import path, the
module that defines it: a package ``__init__`` binds no import its own
code does not use (most hold only their docstring), and no module
defines ``__all__``.  The guard checks that layout too.

The same holds name by name inside the reached modules.  Every public
module-level function, class and UPPER_CASE constant, and every public
method of a public class, must be referenced outside its own definition
by a reached module or by a file of an entry tree.  A reference is a
name, an attribute, a ``from`` import or a string literal equal to the
name (so ``getattr`` dispatch counts); it is matched by name alone, so
an attribute ``x.run`` keeps every method called ``run`` alive.  Tests
do not count.
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


TREES = {name: ast.parse(path.read_text()) for name, path in MODULES.items()}


def _with_parents(name: str) -> list[str]:
    """``name`` and every package above it that is a ``repro`` module."""
    parts = name.split(".")
    return [
        dotted for dotted in (".".join(parts[:i]) for i in range(1, len(parts) + 1))
        if dotted in MODULES
    ]


def _resolve_from(package: str, name: str) -> list[str]:
    """The modules ``from package import name`` reaches."""
    if f"{package}.{name}" in MODULES:
        return _with_parents(f"{package}.{name}")
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
            frontier.update(_imports(TREES[module]) - reached)
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


def references(tree: ast.Module) -> Iterator[tuple[str, tuple[int, int]]]:
    """(referenced name, position) of every reference in a file."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, (node.lineno, node.col_offset)
        elif isinstance(node, ast.Attribute):
            yield node.attr, (node.lineno, node.col_offset)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, (node.lineno, node.col_offset)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, (node.lineno, node.col_offset)


def name_sources(trees: dict[str, ast.Module], root: Path) -> dict[str, ast.Module]:
    """The code whose references keep a name alive.

    Every module in ``trees`` plus every file of the entry trees under
    ``root``; nothing under ``tests/``.
    """
    sources = dict(trees)
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


def _imported_names(tree: ast.Module) -> set[str]:
    """Every name a file's top-level imports bind (``__future__`` aside)."""
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    return bound


def _defines_all(tree: ast.Module) -> bool:
    return any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
    )


def layout_failures(trees: dict[str, ast.Module], packages: set[str]) -> list[str]:
    """Every import a package ``__init__`` among ``packages`` binds but
    does not use, and every module that defines ``__all__``."""
    failures = []
    for name, tree in sorted(trees.items()):
        if name in packages:
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            failures.extend(
                f"{name}: binds {bound} by import but does not use it"
                for bound in sorted(_imported_names(tree) - used)
            )
        if _defines_all(tree):
            failures.append(f"{name}: defines __all__")
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

    def test_every_name_has_one_import_path(self):
        packages = {name for name in MODULES if _is_package(name)}
        failures = layout_failures(TREES, packages)
        assert failures == [], (
            "import each name from the module that defines it; no package "
            "re-exports and no module lists __all__:\n" + "\n".join(failures)
        )

    def test_from_import_reaches_the_submodule_or_the_defining_module(self):
        # ``from repro.arch import tech`` names a module: it and its
        # packages are reached.
        assert _resolve_from("repro.arch", "tech") == [
            "repro", "repro.arch", "repro.arch.tech",
        ]
        # ``from repro.arch.tech import default_tech`` names a function:
        # the module that defines it is reached, and no sibling.
        assert _resolve_from("repro.arch.tech", "default_tech") == [
            "repro", "repro.arch", "repro.arch.tech",
        ]
        assert "repro.arch.metrics" not in _resolve_from("repro.arch", "tech")

    def test_every_public_name_is_referenced_from_reached_code(self):
        definers = _reached_trees()
        failures = name_guard_failures(definers, name_sources(definers, REPO), ALLOWLIST)
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
        sources = name_sources(definers, tmp_path)
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


class TestLayoutCheck:
    """The one-import-path check on small synthetic sources."""

    def test_a_package_init_that_reexports_fails(self):
        trees = {
            "pkg": _parse("from pkg.mod import exported\nimport pkg.util\n"),
            # An ordinary module's unused import is ruff's business.
            "pkg.mod": _parse("import pkg.util\n\n\ndef exported():\n    return 1\n"),
        }
        assert layout_failures(trees, {"pkg"}) == [
            "pkg: binds exported by import but does not use it",
            "pkg: binds pkg by import but does not use it",
        ]
        # An __init__ may import what its own code uses.
        trees["pkg"] = _parse(
            """
            from __future__ import annotations

            from pkg.mod import exported


            def main():
                return exported()
            """
        )
        assert layout_failures(trees, {"pkg"}) == []

    def test_an_all_list_fails(self):
        trees = {
            "pkg": _parse('"""A package."""\n'),
            "pkg.mod": _parse('LIMIT = 3\n__all__ = ["LIMIT"]\n'),
            "pkg.other": _parse('__all__: list[str] = []\n__all__ += ["x"]\n'),
        }
        assert layout_failures(trees, {"pkg"}) == [
            "pkg.mod: defines __all__", "pkg.other: defines __all__",
        ]
