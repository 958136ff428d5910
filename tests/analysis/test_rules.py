"""Per-rule fixtures: a violating tree, a clean tree, a suppressed tree."""

import ast
import textwrap
from pathlib import Path

import pytest

from repro.analysis.engine import ModuleSource, Rule, module_parts_for, run_analysis
from repro.analysis.rules.blocking import BlockingAsyncRule
from repro.analysis.rules.nondeterminism import NondeterminismRule
from repro.analysis.rules.oracle import OraclePurityRule
from repro.analysis.rules.registry import RegistryRule
from repro.analysis.rules.schema import SchemaRule
from repro.analysis.rules.seeding import SeedingRule
from repro.analysis.rules.store import StoreDisciplineRule
from repro.analysis.rules.swallow import SwallowRule


def run_on(tmp_path, files):
    """Write ``{relative path: source}`` under tmp_path and analyze the
    top-level directories written (``src``, ``benchmarks``)."""
    for rel, src in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(src))
    return run_analysis(sorted({tmp_path / Path(rel).parts[0] for rel in files}))


def rules_hit(report):
    return {f.rule for f in report.findings}


class TestSeedingRule:
    def test_legacy_sampler_flagged(self, tmp_path):
        report = run_on(
            tmp_path,
            {"src/repro/demo.py": "import numpy as np\nx = np.random.rand(4)\n"},
        )
        assert rules_hit(report) == {"RED001"}

    def test_unseeded_default_rng_flagged(self, tmp_path):
        report = run_on(
            tmp_path,
            {"src/repro/demo.py": "import numpy as np\nr = np.random.default_rng()\n"},
        )
        assert rules_hit(report) == {"RED001"}

    def test_service_tier_generator_flagged_even_with_seed(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/api/svc.py": """\
                import numpy as np

                def handle(request):
                    return np.random.default_rng(request.seed)
                """
            },
        )
        assert rules_hit(report) == {"RED001"}
        assert "service tier" in report.findings[0].message

    def test_rng_default_idiom_and_injected_seed_are_clean(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/lib.py": """\
                import numpy as np

                def sample(n, rng=None, seed=None):
                    rng = rng or np.random.default_rng(0)
                    other = np.random.default_rng(seed)
                    spawned = np.random.default_rng(np.random.SeedSequence(seed))
                    return rng, other, spawned
                """
            },
        )
        assert report.findings == []

    def test_hard_wired_library_seed_flagged_but_benchmark_seed_clean(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/lib.py": (
                    "import numpy as np\nr = np.random.default_rng(1234)\n"
                ),
                "benchmarks/bench_demo.py": (
                    "import numpy as np\nr = np.random.default_rng(1234)\n"
                ),
            },
        )
        assert [f.path for f in report.findings] == [
            (tmp_path / "src/repro/lib.py").as_posix()
        ]

    def test_stdlib_sampler_flagged_under_any_import_name(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/a.py": "import random\nx = random.random()\n",
                "src/repro/b.py": "import random as rnd\nx = rnd.choice([1, 2])\n",
            },
        )
        assert [f.rule for f in report.findings] == ["RED001", "RED001"]
        assert [f.message.split(";")[0] for f in report.findings] == [
            "stdlib global-state sampler random.random()",
            "stdlib global-state sampler random.choice()",
        ]

    def test_seed_derived_through_a_cast_or_arithmetic_is_clean(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/lib.py": """\
                import numpy as np

                def sample(seed, layer_seed):
                    a = np.random.default_rng(int(seed))
                    b = np.random.default_rng(layer_seed + 1)
                    return a, b
                """
            },
        )
        assert report.findings == []

    def test_conditional_rng_default_idiom_is_clean(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/lib.py": """\
                import numpy as np

                def sample(rng=None):
                    rng = np.random.default_rng(0) if rng is None else rng
                    return rng
                """
            },
        )
        assert report.findings == []

    def test_another_librarys_default_rng_is_out_of_scope(self, tmp_path):
        report = run_on(
            tmp_path,
            {"src/repro/lib.py": "import otherlib\nr = otherlib.default_rng()\n"},
        )
        assert report.findings == []

    def test_docstring_demo_flagged(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/pkg.py": '''\
                """Quickstart::

                    x = np.random.rand(3, 3)
                """
                '''
            },
        )
        assert rules_hit(report) == {"RED001"}
        assert "docstring" in report.findings[0].message

    def test_suppression_marker(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/demo.py": (
                    "import numpy as np\n"
                    "x = np.random.rand(4)  # red: ignore[RED001]\n"
                )
            },
        )
        assert report.findings == []
        assert report.suppressed == 1


class TestSchemaRule:
    CLEAN = """\
    from dataclasses import dataclass
    from typing import ClassVar

    SCHEMA_VERSION = 1

    class Payload:
        kind: ClassVar[str | None] = None

    @dataclass(frozen=True)
    class Request(Payload):
        kind: ClassVar[str] = "request"
        schema_version: int = SCHEMA_VERSION

    @dataclass(frozen=True)
    class Row(Payload):
        value: float = 0.0
    """

    def test_clean_schema_module(self, tmp_path):
        report = run_on(tmp_path, {"src/repro/api/schema.py": self.CLEAN})
        assert report.findings == []

    def test_unfrozen_dataclass_flagged(self, tmp_path):
        report = run_on(
            tmp_path,
            {"src/repro/api/schema.py": self.CLEAN.replace("frozen=True", "frozen=False", 1)},
        )
        assert rules_hit(report) == {"RED002"}
        assert "not frozen" in report.findings[0].message

    def test_kind_without_schema_version_flagged(self, tmp_path):
        source = self.CLEAN.replace("schema_version: int = SCHEMA_VERSION", "other: int = 0")
        report = run_on(tmp_path, {"src/repro/api/schema.py": source})
        assert rules_hit(report) == {"RED002"}
        assert "schema_version" in report.findings[0].message

    def test_plain_kind_assignment_counts_as_a_wire_payload(self, tmp_path):
        source = self.CLEAN.replace('kind: ClassVar[str] = "request"', 'kind = "request"')
        source = source.replace("schema_version: int = SCHEMA_VERSION", "other: int = 0")
        report = run_on(tmp_path, {"src/repro/api/schema.py": source})
        assert rules_hit(report) == {"RED002"}

    def test_rule_checks_every_kind_of_the_real_schema(self, tmp_path):
        # Not vacuous on the real module: strip the version field from
        # every payload and each of the ten registered kinds is flagged.
        from repro.api.schema import PAYLOAD_KINDS

        real = Path(__file__).resolve().parents[2] / "src/repro/api/schema.py"
        source = real.read_text().replace(
            "    schema_version: int = SCHEMA_VERSION\n", "    other: int = 0\n"
        )
        path = tmp_path / "src/repro/api/schema.py"
        path.parent.mkdir(parents=True)
        path.write_text(source)
        report = run_analysis([tmp_path / "src"])
        assert rules_hit(report) == {"RED002"}
        flagged = {f.message.split()[1] for f in report.findings}
        assert flagged == {cls.__name__ for cls in PAYLOAD_KINDS.values()}

    def test_rule_only_covers_schema_module(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/other.py": (
                    "from dataclasses import dataclass\n\n"
                    "@dataclass\nclass Mutable:\n    x: int = 0\n"
                )
            },
        )
        assert report.findings == []


class TestRegistryRule:
    DESIGN = """\
    from repro.designs.base import DeconvDesign

    class NewDesign(DeconvDesign):
        def perf_input(self, layer_name=""):
            return None
    """

    def test_unregistered_design_flagged(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/designs/new_design.py": self.DESIGN,
                "src/repro/api/registrations.py": (
                    "from repro.api.registry import register_design\n\n"
                    "register_design('other', factory=lambda spec: spec)\n"
                ),
            },
        )
        assert rules_hit(report) == {"RED003"}
        assert "NewDesign" in report.findings[0].message

    def test_registered_design_clean(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/designs/new_design.py": self.DESIGN,
                "src/repro/api/registrations.py": """\
                from repro.api.registry import register_design

                def _build(spec):
                    from repro.designs.new_design import NewDesign

                    return NewDesign(spec)

                register_design("new", factory=_build)
                """,
            },
        )
        assert report.findings == []

    def test_silent_when_no_registering_module_in_scope(self, tmp_path):
        report = run_on(tmp_path, {"src/repro/designs/new_design.py": self.DESIGN})
        assert report.findings == []

    def test_abstract_perf_input_not_a_design(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/designs/base2.py": """\
                import abc

                from repro.designs.base import DeconvDesign

                class Intermediate(DeconvDesign):
                    @abc.abstractmethod
                    def perf_input(self, layer_name=""):
                        ...
                """,
                "src/repro/api/registrations.py": (
                    "from repro.api.registry import register_design\n"
                    "register_design('x', factory=int)\n"
                ),
            },
        )
        assert report.findings == []

    def test_hook_surface_out_of_sync_flagged(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/api/registry.py": """\
                from dataclasses import dataclass

                @dataclass(frozen=True)
                class DesignEntry:
                    name: str
                    factory: object
                    aliases: tuple = ()
                    baseline: bool = False

                def register_design(name, *, aliases=()):
                    return DesignEntry(name=name, factory=None, aliases=aliases)
                """
            },
        )
        assert rules_hit(report) == {"RED003"}
        assert any("baseline" in f.message for f in report.findings)

    def test_keyword_without_an_entry_field_flagged(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/api/registry.py": """\
                from dataclasses import dataclass

                @dataclass(frozen=True)
                class DesignEntry:
                    name: str
                    factory: object
                    aliases: tuple = ()

                def register_design(name, *, aliases=(), colour=None):
                    return DesignEntry(name=name, factory=None, aliases=aliases)
                """
            },
        )
        assert [f.message.split(";")[0] for f in report.findings] == [
            "register_design keyword 'colour' has no DesignEntry field"
        ]

    def test_registry_without_register_design_flagged(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/api/registry.py": """\
                from dataclasses import dataclass

                @dataclass(frozen=True)
                class DesignEntry:
                    name: str
                    factory: object
                """
            },
        )
        assert rules_hit(report) == {"RED003"}
        assert "must define both DesignEntry and register_design" in (
            report.findings[0].message
        )


class TestStoreDisciplineRule:
    def test_single_entry_calls_flagged(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/eval/runner.py": """\
                def probe(cache, store, key, value):
                    hit = cache.get(key)
                    store.put(key, value)
                    return hit
                """
            },
        )
        assert [f.rule for f in report.findings] == ["RED004", "RED004"]

    def test_batch_call_in_loop_flagged(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/eval/runner.py": """\
                def drain(cache, batches):
                    for batch in batches:
                        cache.put_many(batch, kind="metrics")
                """
            },
        )
        assert rules_hit(report) == {"RED004"}

    def test_batch_call_in_comprehension_body_flagged(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/eval/runner.py": (
                    "def probe(cache, keys):\n"
                    "    return [cache.get_many([k], kind='m') for k in keys]\n"
                )
            },
        )
        assert rules_hit(report) == {"RED004"}

    def test_iterator_position_and_memo_dict_clean(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/eval/runner.py": """\
                def run(cache, keys, jobs):
                    head_memo = {}
                    for index, value in enumerate(cache.get_many(keys, kind="m")):
                        head_memo[index] = value
                    hits = [v for v in cache.get_many(keys, kind="m") if v]
                    cache.put_many(zip(keys, hits), kind="m")
                    return head_memo.get(0), hits
                """
            },
        )
        assert report.findings == []

    def test_outside_eval_out_of_scope(self, tmp_path):
        report = run_on(
            tmp_path,
            {"src/repro/sim/mod.py": "def f(cache, k):\n    return cache.get(k)\n"},
        )
        assert report.findings == []

    def test_suppression_marker(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/eval/runner.py": (
                    "def probe(cache, key):\n"
                    "    return cache.get(key)  # red: ignore[RED004]\n"
                )
            },
        )
        assert report.findings == []
        assert report.suppressed == 1


class TestOraclePurityRule:
    def test_walk_events_outside_contract_modules_flagged(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/eval/shortcut.py": (
                    "from repro.sim.compiler import walk_events\n\n"
                    "def cycles(schedule):\n    return walk_events(schedule)\n"
                )
            },
        )
        assert rules_hit(report) == {"RED005"}

    def test_walk_events_in_contract_module_clean(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/sim/engine.py": (
                    "from repro.sim.compiler import walk_events\n\n"
                    "def replay(schedule):\n    return walk_events(schedule)\n"
                )
            },
        )
        assert report.findings == []

    def test_scalar_oracle_loop_flagged(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/system/mapper.py": """\
                from repro.arch.metrics import evaluate_design

                def evaluate_all(inputs, tech):
                    return [evaluate_design(i, tech) for i in inputs]
                """
            },
        )
        assert rules_hit(report) == {"RED005"}
        assert "loop" in report.findings[0].message

    def test_single_scalar_call_clean(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/designs/one.py": """\
                from repro.arch.metrics import evaluate_design

                def evaluate(perf, tech):
                    return evaluate_design(perf, tech)
                """
            },
        )
        assert report.findings == []

    def test_batch_substrate_may_loop(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/eval/parallel.py": (
                    "def run(jobs):\n"
                    "    return [evaluate_design_job(j) for j in jobs]\n"
                )
            },
        )
        assert report.findings == []


class TestNondeterminismRule:
    def test_clock_read_flagged(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/eval/runner.py": (
                    "import time\n\ndef stamp():\n    return time.time()\n"
                )
            },
        )
        assert rules_hit(report) == {"RED006"}

    def test_entropy_read_flagged(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/api/tokens.py": (
                    "import os\n\ndef token():\n    return os.urandom(8)\n"
                )
            },
        )
        assert rules_hit(report) == {"RED006"}

    def test_bare_imported_clock_flagged(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/sim/mod.py": (
                    "from time import perf_counter\n\n"
                    "def stamp():\n    return perf_counter()\n"
                )
            },
        )
        assert rules_hit(report) == {"RED006"}

    def test_benchmarks_and_cli_out_of_scope(self, tmp_path):
        source = "import time\n\ndef stamp():\n    return time.time()\n"
        report = run_on(
            tmp_path,
            {
                "benchmarks/bench_mod.py": source,
                "src/repro/cli.py": source,
            },
        )
        assert report.findings == []


class TestSwallowRule:
    def test_bare_except_flagged(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/eval/mod.py": """\
                def load(path):
                    try:
                        return open(path).read()
                    except:
                        return None
                """
            },
        )
        assert rules_hit(report) == {"RED007"}
        assert "bare" in report.findings[0].message

    def test_broad_handler_without_raise_flagged(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/utils/mod.py": """\
                def best_effort(fn):
                    try:
                        fn()
                    except Exception:
                        pass
                """
            },
        )
        assert rules_hit(report) == {"RED007"}

    def test_broad_handler_in_tuple_flagged(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/core/mod.py": """\
                def run(fn):
                    try:
                        return fn()
                    except (ValueError, BaseException):
                        return None
                """
            },
        )
        assert rules_hit(report) == {"RED007"}

    def test_routing_handler_clean(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/eval/mod.py": """\
                def call(fn, retryable):
                    try:
                        return fn()
                    except Exception as exc:
                        if not retryable(exc):
                            raise
                        return None
                """
            },
        )
        assert report.findings == []

    def test_narrowed_handler_clean(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/eval/mod.py": """\
                import os

                def cleanup(path):
                    try:
                        os.unlink(path)
                    except OSError:
                        pass
                """
            },
        )
        assert report.findings == []

    def test_benchmarks_out_of_scope(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "benchmarks/bench_mod.py": """\
                def best_effort(fn):
                    try:
                        fn()
                    except Exception:
                        pass
                """
            },
        )
        assert report.findings == []


class TestBlockingAsyncRule:
    def test_time_sleep_in_coroutine_flagged(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/serving/mod.py": """\
                import time

                async def handle(request):
                    time.sleep(0.1)
                    return request
                """
            },
        )
        assert rules_hit(report) == {"RED008"}
        assert "time.sleep" in report.findings[0].message

    def test_sync_io_builtins_flagged(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/serving/mod.py": """\
                import subprocess

                async def handle(path):
                    with open(path) as fh:
                        data = fh.read()
                    subprocess.run(["true"])
                    return data
                """
            },
        )
        assert rules_hit(report) == {"RED008"}
        assert len(report.findings) == 2

    def test_executor_dispatch_and_sync_def_clean(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/serving/mod.py": """\
                import asyncio
                import time

                def blocking_probe():
                    time.sleep(0.1)  # runs on the pool, not the loop

                async def handle(loop):
                    await asyncio.sleep(0)
                    return await loop.run_in_executor(None, blocking_probe)
                """
            },
        )
        assert report.findings == []

    def test_nested_def_inside_coroutine_clean(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/serving/mod.py": """\
                async def handle(loop):
                    def probe():
                        import time

                        time.sleep(0.1)

                    return await loop.run_in_executor(None, probe)
                """
            },
        )
        assert report.findings == []

    def test_benchmarks_out_of_scope(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "benchmarks/bench_async.py": """\
                import time

                async def drive():
                    time.sleep(0.1)
                """
            },
        )
        assert report.findings == []


#: ``(rule, path, covered)``: the scope each rule's row in
#: src/repro/analysis/README.md states.  A mis-scoped rule would pass
#: silently on the modules whose contract it is meant to guard.
SCOPES = [
    (SeedingRule, "src/repro/eval/sweeps.py", True),
    (SeedingRule, "benchmarks/bench_device_plane.py", True),
    (SeedingRule, "src/repro/reram/noise.py", False),
    (SchemaRule, "src/repro/api/schema.py", True),
    (SchemaRule, "src/repro/api/service.py", False),
    (RegistryRule, "src/repro/designs/base.py", True),
    (RegistryRule, "examples/quickstart.py", False),
    (StoreDisciplineRule, "src/repro/eval/harness.py", True),
    (StoreDisciplineRule, "src/repro/serving/server.py", False),
    (OraclePurityRule, "src/repro/sim/engine.py", True),
    (OraclePurityRule, "benchmarks/bench_cycle_compile.py", False),
    (NondeterminismRule, "src/repro/eval/parallel.py", True),
    (NondeterminismRule, "src/repro/serving/server.py", False),
    (NondeterminismRule, "src/repro/cli.py", False),
    (SwallowRule, "src/repro/serving/supervisor.py", True),
    (SwallowRule, "benchmarks/bench_serving.py", False),
    (BlockingAsyncRule, "src/repro/serving/server.py", True),
    (BlockingAsyncRule, "perfbench/served.py", False),
]


@pytest.mark.parametrize(
    ("rule", "path", "covered"),
    SCOPES,
    ids=[f"{rule.rule_id}-{Path(path).stem}" for rule, path, _ in SCOPES],
)
def test_rule_scope(rule, path, covered):
    module = ModuleSource(
        path=path, text="", tree=ast.parse(""), module_parts=module_parts_for(Path(path))
    )
    assert rule().applies_to(module) is covered


class _Quiet(Rule):
    rule_id = "RED999"


def test_a_rule_that_overrides_nothing_finds_nothing(tmp_path):
    (tmp_path / "mod.py").write_text("import numpy as np\nx = np.random.rand(3)\n")
    report = run_analysis([tmp_path], rules=[_Quiet()])
    assert (report.findings, report.files_checked) == ([], 1)


def test_the_finding_helper_stamps_rule_path_and_line():
    module = ModuleSource(
        path="src/repro/x.py", text="a = 1\nb = 2\n", tree=ast.parse("a = 1\nb = 2\n"),
        module_parts=("repro", "x"),
    )
    finding = _Quiet().finding(module, module.tree.body[1], "message")
    assert (finding.rule, finding.path, finding.line, finding.message) == (
        "RED999", "src/repro/x.py", 2, "message",
    )
    assert _Quiet().finding(module, None, "message").line == 0


class TestHelperEdges:
    def test_store_call_on_a_call_result_is_not_a_store_receiver(self, tmp_path):
        report = run_on(tmp_path, {
            "src/repro/eval/runner.py": """
                def f(make_store, key):
                    return make_store().get(key)
            """,
        })
        assert "RED004" not in rules_hit(report)

    def test_an_extra_decorator_before_dataclass_is_skipped(self, tmp_path):
        report = run_on(tmp_path, {
            "src/repro/api/schema.py": """
                import functools
                from dataclasses import dataclass

                @functools.total_ordering
                @dataclass
                class Payload:
                    value: int = 0
            """,
        })
        assert "RED002" in rules_hit(report)

    def test_a_subscripted_decorator_does_not_mark_perf_input_abstract(self, tmp_path):
        report = run_on(tmp_path, {
            "src/repro/designs/orphan.py": """
                from repro.designs.base import DeconvDesign

                HOOKS = {"wrap": lambda f: f}

                class Orphan(DeconvDesign):
                    @HOOKS["wrap"]
                    def perf_input(self):
                        return None
            """,
            "src/repro/api/registry.py": """
                def register_design(name):
                    return lambda factory: factory

                @register_design("zp")
                def _build(spec, tech):
                    return None
            """,
        })
        assert "RED003" in rules_hit(report)

    def test_a_bare_except_that_reraises_is_still_flagged(self, tmp_path):
        report = run_on(tmp_path, {
            "src/repro/eval/runner.py": """
                def f(work):
                    try:
                        return work()
                    except:
                        raise
            """,
        })
        assert "RED007" in rules_hit(report)
