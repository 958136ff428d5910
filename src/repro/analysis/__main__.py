"""``python -m repro.analysis`` — the contract-linter command line.

Walks the given paths (default: ``src benchmarks examples``), runs the
RED001-RED008 contract rules, and prints one line per finding::

    src/repro/api/service.py:272: RED001 ...

Exit codes follow the usual linter convention so ``make lint`` and CI
can chain it: 0 when the tree is clean, 1 when findings remain after
suppressions, 2 on usage or internal errors (a path that does not exist
among them).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.analysis.engine import run_analysis
from repro.analysis.rules import default_rules

#: Paths checked when none are given: the library plus the two trees
#: that consume it directly (tests exercise oracles by design and are
#: covered by their own suite instead).
DEFAULT_PATHS = ("src", "benchmarks", "examples")

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Check the RED substrate contracts (RED001-RED008).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help="files or directories to check (default: %(default)s)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit the full report as JSON instead of one line per finding",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        options = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; normalise.
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_CLEAN

    if options.list_rules:
        for rule in default_rules():
            print(f"{rule.rule_id}  {rule.summary}")
        return EXIT_CLEAN

    try:
        report = run_analysis(options.paths)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    if options.as_json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        for finding in report.findings:
            print(finding.render())
        tail = (
            f"{len(report.findings)} finding(s) in {report.files_checked} "
            f"file(s) ({report.suppressed} suppressed)"
        )
        print(tail)
    return EXIT_FINDINGS if report.findings else EXIT_CLEAN


if __name__ == "__main__":
    sys.exit(main())
