"""Importing a module loads only the modules it uses.

No package re-exports anything, so importing one module runs only its
own imports.  A fresh interpreter that imports :mod:`repro.api.service`
loads the registry, the schema, the analytic runner and the store, and
none of the designs, simulators, device models, workloads, figures,
reports or the serving plane: those load when a request needs them.
The one exception is deliberate: the server loads everything a shard
runs before it forks the shard.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

NOT_LOADED_BY_THE_SERVICE = (
    "repro.core",
    "repro.designs",
    "repro.eval.figures",
    "repro.eval.harness",
    "repro.eval.report",
    "repro.eval.tables",
    "repro.nn",
    "repro.reram",
    "repro.serving",
    "repro.sim",
    "repro.system",
    "repro.workloads",
)


def _loaded_after(statement: str) -> list[str]:
    """Every ``repro`` module, and ``numpy`` if loaded, after ``statement``
    runs in a fresh interpreter."""
    code = (
        f"{statement}\n"
        "import json, sys\n"
        "print(json.dumps(sorted(\n"
        "    m for m in sys.modules if m.split('.')[0] == 'repro' or m == 'numpy'\n"
        ")))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    return json.loads(proc.stdout)


def test_importing_the_service_loads_only_what_it_uses():
    loaded = _loaded_after("import repro.api.service")
    assert "repro.api.service" in loaded
    stray = [
        module
        for module in loaded
        if any(
            module == package or module.startswith(package + ".")
            for package in NOT_LOADED_BY_THE_SERVICE
        )
    ]
    assert stray == []


def test_the_design_registry_is_a_leaf():
    # Plugin designs and the design modules themselves import it.
    assert _loaded_after("import repro.api.registry") == [
        "repro", "repro.api", "repro.api.registry", "repro.errors",
    ]


def test_the_contract_linter_loads_only_itself():
    loaded = _loaded_after("import repro.analysis.__main__")
    assert "repro.analysis.rules" in loaded
    assert [m for m in loaded if m != "repro" and not m.startswith("repro.analysis")] == []


def test_a_forked_shard_imports_nothing():
    # A forked child inherits the import lock of any module another
    # server thread is importing at fork time, and would hang importing
    # it: what `repro serve` loads before forking covers a shard's calls.
    server = "import repro.cli, repro.serving.server\n"
    shard_calls = (
        "from repro.api.registry import available_designs\n"
        "from repro.arch.tech import default_tech\n"
        "from repro.deconv.shapes import DeconvSpec\n"
        "from repro.eval.parallel import DesignJob, run_design_jobs\n"
        "spec = DeconvSpec(4, 4, 8, 4, 4, 5, stride=2, padding=1)\n"
        "jobs = [DesignJob(d, spec, default_tech()) for d in available_designs()]\n"
        "run_design_jobs(jobs)\n"
        "run_design_jobs(jobs, vectorized=False)\n"
    )
    assert _loaded_after(server + shard_calls) == _loaded_after(server)
