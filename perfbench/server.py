"""Server launcher: ``python -m repro serve --port 0``, optionally traced.

``python -m perfbench.server [--trace-dir DIR]`` starts the serving
plane exactly as the CLI does (2 shards, default admission limits, the
256-entry response cache, no shard store).  With ``--trace-dir`` it
first installs the tracing wrappers, so the forked shards inherit them;
the server and every shard write their spans to ``DIR`` when they exit.
"""

from __future__ import annotations

import argparse
import sys


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.server")
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args(argv)
    tracer = None
    if args.trace_dir is not None:
        from perfbench.tracing import Tracer

        tracer = Tracer("server").install()
        tracer.dump_dir = args.trace_dir
    from repro.cli import main as cli_main

    code = cli_main(["serve", "--port", "0"])
    if tracer is not None:
        tracer.dump(args.trace_dir)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
