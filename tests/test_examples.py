"""Every example script must run end to end (no rot).

The heavyweight GAN examples are exercised on reduced problem sizes by
their own integration tests; here each script is executed as ``__main__``
with its full workload, serially, with a generous timeout.
"""

import itertools
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), "example produced no output"


def test_examples_directory_has_quickstart():
    names = [p.name for p in EXAMPLES]
    assert "quickstart.py" in names
    assert len(names) >= 3


def test_package_docstring_quickstart_runs():
    """The ``Quickstart::`` block of ``repro``'s docstring runs as written."""
    import repro

    block = repro.__doc__.split("Quickstart::", 1)[1].split("\n\n", 1)[1]
    lines = block.splitlines()
    code = textwrap.dedent(
        "\n".join(itertools.takewhile(lambda line: not line or line[0] == " ", lines))
    )
    assert "from repro." in code
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert float(result.stdout) > 0
