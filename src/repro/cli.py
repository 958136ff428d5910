"""Command-line interface: a thin adapter over :class:`RedService`.

Each subcommand parses its arguments into a typed request from
:mod:`repro.api.schema`, calls the service, and renders the result —
as the familiar ASCII tables by default, or as a versioned JSON payload
with ``--json`` (every payload carries ``schema_version`` and
round-trips through :func:`repro.api.schema.payload_from_dict`).

Usage::

    python -m repro report            # everything (Tables I-II, Figs. 4-9)
    python -m repro table1            # benchmark table
    python -m repro table2            # component taxonomy
    python -m repro fig4              # redundancy curves
    python -m repro fig7              # latency comparison
    python -m repro fig8              # energy comparison
    python -m repro fig9              # area comparison
    python -m repro tradeoff          # Sec. III-C fold sweep (FCN_Deconv2)
    python -m repro network SNGAN     # whole-generator evaluation
    python -m repro sweep --strides 1,2,4,8,16
                                      # stride-speedup sweep
    python -m repro serve --shards 2  # sharded serving plane (SIGTERM drains)
    python -m repro ping              # health/readiness probe (exit 0/1/2)
    python -m repro report --json     # any subcommand, machine-readable
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.api.registry import available_designs
from repro.api.schema import (
    CommandPayload,
    ErrorInfo,
    EvaluationResult,
    NetworkRequest,
    SweepRequest,
)
from repro.api.service import RedService
from repro.errors import ReproError


def _grid_results(grid) -> tuple[EvaluationResult, ...]:
    """The grid as schema results, one per layer."""
    designs = available_designs()
    return tuple(
        EvaluationResult(
            layer=layer.name,
            designs=designs,
            metrics=tuple(grid.get(layer.name, design) for design in designs),
        )
        for layer in grid.layers
    )


def _cmd_table1() -> tuple[str, CommandPayload]:
    from repro.eval.tables import render_table1
    from repro.workloads.specs import TABLE_I_LAYERS

    text = render_table1()
    data = {"layers": [list(layer.table_row()) for layer in TABLE_I_LAYERS]}
    return text, CommandPayload(command="table1", data=data, text=text)


def _cmd_table2() -> tuple[str, CommandPayload]:
    from repro.arch.breakdown import TABLE_II_COMPONENTS
    from repro.eval.tables import render_table2

    text = render_table2()
    data = {"components": [list(row) for row in TABLE_II_COMPONENTS]}
    return text, CommandPayload(command="table2", data=data, text=text)


def _cmd_fig4() -> tuple[str, CommandPayload]:
    from repro.eval.figures import fig4_redundancy_curves
    from repro.eval.report import format_fig4

    text = format_fig4()
    data = {
        "curves": {
            name: [[stride, value] for stride, value in points]
            for name, points in fig4_redundancy_curves().items()
        }
    }
    return text, CommandPayload(command="fig4", data=data, text=text)


def _cmd_grid_figure(command: str, service: RedService) -> tuple[str, CommandPayload]:
    from repro.eval.report import format_fig7, format_fig8, format_fig9, full_report

    formatter = {
        "fig7": format_fig7,
        "fig8": format_fig8,
        "fig9": format_fig9,
        "report": full_report,
    }[command]
    grid = service.grid()
    text = formatter(grid)
    return text, CommandPayload(
        command=command, results=_grid_results(grid), text=text
    )


def _cmd_tradeoff() -> tuple[str, CommandPayload]:
    from repro.core.tradeoff import explore_fold_tradeoff
    from repro.utils.formatting import (
        format_area,
        format_joules,
        format_seconds,
        render_ascii_table,
    )
    from repro.workloads.specs import get_layer

    spec = get_layer("FCN_Deconv2").spec
    points = explore_fold_tradeoff(spec, folds=(1, 2, 4, 8, 16))
    rows = [
        (
            p.fold,
            p.num_physical_scs,
            p.cycles,
            format_seconds(p.latency),
            format_joules(p.energy),
            format_area(p.area),
        )
        for p in points
    ]
    text = render_ascii_table(
        ("fold", "physical SCs", "cycles", "latency", "energy", "area"),
        rows,
        title="Sec. III-C fold trade-off on FCN_Deconv2",
    )
    data = {
        "layer": "FCN_Deconv2",
        "points": [
            {
                "fold": p.fold,
                "physical_scs": p.num_physical_scs,
                "cycles": p.cycles,
                "latency_s": p.latency,
                "energy_j": p.energy,
                "area_m2": p.area,
            }
            for p in points
        ],
    }
    return text, CommandPayload(command="tradeoff", data=data, text=text)


def _cmd_compare() -> tuple[str, CommandPayload]:
    from repro.eval.comparison import render_comparison

    text = render_comparison()
    return text, CommandPayload(command="compare", text=text)


def _cmd_mechanism() -> tuple[str, CommandPayload]:
    from repro.core.visualize import (
        render_cycle_table,
        render_modes,
        render_padded_map,
    )
    from repro.deconv.shapes import DeconvSpec

    example = DeconvSpec(4, 4, 2, 3, 3, 2, stride=2, padding=1)
    text = "\n".join(
        (
            "Fig. 6 computation modes (3x3 kernel, stride 2):\n",
            render_modes(example),
            "",
            render_padded_map(DeconvSpec(4, 4, 1, 4, 4, 1, stride=2, padding=1)),
            "",
            render_cycle_table(example, num_cycles=2),
        )
    )
    return text, CommandPayload(command="mechanism", text=text)


def _cmd_sweep(args, service: RedService) -> tuple[str, object]:
    from repro.errors import ParameterError
    from repro.utils.formatting import render_ascii_table

    try:
        strides = tuple(int(s) for s in args.strides.split(","))
    except ValueError:
        raise ParameterError(
            f"--strides must be comma-separated integers, got {args.strides!r}"
        ) from None
    result = service.sweep(SweepRequest(strides=strides))
    rows = [
        (p.stride, p.modes, p.cycles_zp, p.cycles_red, f"{p.speedup:.2f}x")
        for p in result.points
    ]
    text = render_ascii_table(
        ("stride", "modes (s^2)", "ZP cycles", "RED cycles", "speedup"),
        rows,
        title="Sec. III-C stride sweep",
    )
    if result.fitted_exponent is not None:
        text += f"\nfitted exponent: speedup ~ stride^{result.fitted_exponent:.2f}"
    return text, result


def _cmd_serve(args) -> int:
    """Run the sharded serving front door until SIGTERM/SIGINT drains it."""
    import threading

    from repro.serving.server import ServingServer

    server = ServingServer(
        host=args.host,
        port=args.port,
        num_shards=args.shards,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
    )

    def _announce() -> None:
        if server.ready.wait(30.0):
            print(
                f"repro serve: listening on {server.host}:{server.port} "
                f"({args.shards} shards); SIGTERM drains gracefully",
                file=sys.stderr,
            )

    threading.Thread(target=_announce, daemon=True).start()
    return server.run()


def _cmd_ping(args) -> tuple[str, CommandPayload, int]:
    """Probe ``/healthz`` + ``/readyz``; exit 0 healthy, 1 not ready.

    Unreachable endpoints raise through the standard CLI error boundary
    (exit 2, ``--json`` gets the :class:`ErrorInfo` envelope).
    """
    from repro.serving.client import ServingClient

    with ServingClient(args.host, args.port, timeout=args.timeout) as client:
        health_status, health = client.healthz()
        ready_status, ready = client.readyz()
    ok = health_status == 200 and ready_status == 200
    text = (
        f"{args.host}:{args.port} healthz={health_status} "
        f"readyz={ready_status} status={health.get('status', '?')} "
        f"shards={health.get('shards', {})}"
    )
    payload = CommandPayload(
        command="ping",
        data={
            "host": args.host,
            "port": args.port,
            "healthz_status": health_status,
            "readyz_status": ready_status,
            "healthz": health,
            "readyz": ready,
        },
        text=text,
    )
    return text, payload, 0 if ok else 1


def _cmd_network(args, service: RedService) -> tuple[str, object]:
    from repro.utils.formatting import format_seconds, render_ascii_table

    result = service.evaluate_network(NetworkRequest(network=args.name))
    rows = [
        (
            summary.design,
            format_seconds(summary.total_latency_s),
            f"{summary.speedup:.2f}x",
            f"{summary.energy_saving * 100:.1f}%",
            format_seconds(summary.bottleneck_latency_s),
            f"{summary.chip_area_m2 * 1e6:.4g} mm^2",
        )
        for summary in result.summaries
    ]
    text = render_ascii_table(
        ("design", "latency", "speedup", "energy saving", "pipeline II", "chip area"),
        rows,
        title=f"{args.name}: whole-network deconvolution evaluation",
    )
    return text, result


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RED (DATE 2019) reproduction: regenerate paper artefacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}
    for name in (
        "report", "table1", "table2", "fig4", "fig7", "fig8", "fig9",
        "tradeoff", "compare", "mechanism",
    ):
        subparsers[name] = sub.add_parser(name)
    network = sub.add_parser("network")
    network.add_argument(
        "name",
        nargs="?",
        default="SNGAN",
        help="workload network (DCGAN, 'Improved GAN', SNGAN, 'voc-fcn8s 8x')",
    )
    sweep = sub.add_parser("sweep", help="stride-speedup sweep")
    sweep.add_argument(
        "--strides", default="1,2,4,8", help="comma-separated strides"
    )
    serve = sub.add_parser(
        "serve", help="run the resilient sharded serving plane"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765, help="0 = ephemeral")
    serve.add_argument(
        "--shards", type=int, default=2, help="supervised shard processes"
    )
    serve.add_argument(
        "--max-inflight", type=int, default=8,
        help="concurrent requests before queueing",
    )
    serve.add_argument(
        "--max-queue", type=int, default=32,
        help="queued requests before deterministic shedding (429)",
    )
    ping = sub.add_parser(
        "ping", help="probe a serving plane: exit 0 ready, 1 degraded, 2 down"
    )
    ping.add_argument("--host", default="127.0.0.1")
    ping.add_argument("--port", type=int, default=8765)
    ping.add_argument(
        "--timeout", type=float, default=5.0, help="socket timeout, seconds"
    )
    subparsers["network"] = network
    subparsers["sweep"] = sweep
    subparsers["serve"] = serve
    subparsers["ping"] = ping
    # Every subcommand gets machine-readable output.
    for cmd in subparsers.values():
        cmd.add_argument(
            "--json",
            action="store_true",
            help="emit a schema_version-tagged JSON payload instead of a table",
        )
    args = parser.parse_args(argv)

    service = None
    code = 0
    try:
        if args.command == "serve":
            # The serving plane owns its own RedService (wired to the
            # sharded runner); no eager service here.
            return _cmd_serve(args)
        if args.command == "ping":
            text, payload, code = _cmd_ping(args)
        elif args.command == "table1":
            text, payload = _cmd_table1()
        elif args.command == "table2":
            text, payload = _cmd_table2()
        elif args.command == "fig4":
            text, payload = _cmd_fig4()
        elif args.command in ("fig7", "fig8", "fig9", "report"):
            service = RedService()
            text, payload = _cmd_grid_figure(args.command, service)
        elif args.command == "tradeoff":
            text, payload = _cmd_tradeoff()
        elif args.command == "compare":
            text, payload = _cmd_compare()
        elif args.command == "mechanism":
            text, payload = _cmd_mechanism()
        elif args.command == "sweep":
            service = RedService()
            text, payload = _cmd_sweep(args, service)
        else:  # network
            service = RedService()
            text, payload = _cmd_network(args, service)
    except ReproError as exc:
        # Error boundary: library failures are user-facing outcomes,
        # not tracebacks.  Humans get one line on stderr; --json gets
        # the same versioned ErrorInfo envelope the wire schema uses.
        if args.json:
            print(
                json.dumps(
                    ErrorInfo.from_exception(exc, source=args.command).to_dict(),
                    indent=2,
                )
            )
        else:
            print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2
    finally:
        if service is not None:
            service.close()

    if args.json:
        print(json.dumps(payload.to_dict(), indent=2))
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
