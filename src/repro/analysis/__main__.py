"""``python -m repro.analysis`` — the contract-linter command line.

Walks the given paths (default: ``src benchmarks examples``), runs the
RED001-RED007 contract rules, and prints one line per finding::

    src/repro/api/service.py:272: RED001 ...

Exit codes follow the usual linter convention so ``make lint`` and CI
can chain it: 0 when the tree is clean, 1 when findings remain after
suppressions and the baseline, 2 on usage or internal errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.engine import load_baseline, run_analysis, save_baseline
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
        description="Check the RED substrate contracts (RED001-RED007).",
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
        "--baseline",
        metavar="FILE",
        help="JSON baseline of grandfathered findings to ignore",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="FILE",
        help="write current findings to FILE as a baseline and exit 0",
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

    baseline = None
    if options.baseline:
        try:
            baseline = load_baseline(options.baseline)
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            print(f"error: cannot load baseline: {exc}", file=sys.stderr)
            return EXIT_ERROR

    # The library walks a missing root as an empty tree; on the command
    # line that would let a mistyped path pass as clean.
    missing = [path for path in options.paths if not Path(path).exists()]
    if missing:
        print(f"error: no such file or directory: {', '.join(missing)}", file=sys.stderr)
        return EXIT_ERROR

    try:
        report = run_analysis(options.paths, baseline=baseline)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    if options.write_baseline:
        save_baseline(options.write_baseline, report.findings)
        print(
            f"wrote {len(report.findings)} finding(s) to {options.write_baseline}"
        )
        return EXIT_CLEAN

    if options.as_json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        for finding in report.findings:
            print(finding.render())
        tail = (
            f"{len(report.findings)} finding(s) in {report.files_checked} "
            f"file(s) ({report.suppressed} suppressed, "
            f"{report.baselined} baselined)"
        )
        print(tail)
    return EXIT_FINDINGS if report.findings else EXIT_CLEAN


if __name__ == "__main__":
    sys.exit(main())
