"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload interactive|served|bulk \\
        --seed N --seconds S --trace 0|1

The program under test is this checkout's ``src/``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- every ``end_to_end`` metric of
``BENCHMARK.json`` with ``--trace 0``, every ``per_layer`` one with
``--trace 1``.  Everything above it is the human-readable report: stream
composition, every metric with its unit and sample count (including
those only some workloads have), the answer checks and the run record.
Exits 2, printing no result, when the program cannot be imported from
here.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("interactive", "served", "bulk")


def _import_program() -> str | None:
    """Put this checkout first on the path; an error message if it has no program."""
    src = ROOT / "src"
    # Drop this script's directory: its module names (``tracing``,
    # ``stream``...) must only be importable as ``perfbench.*``.
    if sys.path and Path(sys.path[0]).resolve() == Path(__file__).resolve().parent:
        sys.path.pop(0)
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import repro
    except ImportError as exc:
        return f"cannot import the program from {src}: {exc}"
    if Path(repro.__file__).resolve().parents[1] != src.resolve():
        return f"imported repro from {repro.__file__}, not from {src}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    problem = _import_program()
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2

    from perfbench.common import WORK, Report, run_record
    from perfbench.workloads import RUNNERS, TOPOLOGY

    trace = bool(args.trace)
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = [(m["name"], m["unit"]) for m in manifest["per_layer" if trace else "end_to_end"]]
    record = run_record(args.workload, args.seed, args.seconds, trace, TOPOLOGY[args.workload])
    print("record: " + json.dumps(record, sort_keys=True))
    report = Report()
    for line in RUNNERS[args.workload](args.seed, args.seconds, trace, report):
        print(line)
    report.print_table(f"{args.workload} ({'traced' if trace else 'untraced'}), seed {args.seed}")
    line = report.result_line(metrics, positive=not trace)
    WORK.mkdir(exist_ok=True)
    (WORK / f"last-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "result": json.loads(line)}), encoding="utf-8"
    )
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
