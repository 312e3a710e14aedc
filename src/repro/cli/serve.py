"""``repro serve`` and ``repro loadtest``: the online control plane
and the deterministic load that drives (and checks) it."""

from __future__ import annotations

import argparse
import sys

from ..analysis import format_table
from . import (
    SCHEME_CHOICES,
    UsageError,
    build_service,
    network_and_groups,
    positive_float,
    positive_int,
)


def _endpoint_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--socket", default=None, metavar="PATH",
                        help="serve/connect on a Unix socket")
    parser.add_argument("--host", default=None,
                        help="TCP host (default 127.0.0.1 when no socket)")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (0 = ephemeral)")


def _topology_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--topology", default=None, metavar="PATH",
                        help="topology JSON (default: a mesh from "
                        "--rows/--cols/--capacity)")
    parser.add_argument("--rows", type=int, default=8, help="mesh rows")
    parser.add_argument("--cols", type=int, default=8, help="mesh cols")
    parser.add_argument("--capacity", type=float, default=30.0)
    parser.add_argument("--srlg", choices=("none", "conduits", "file"),
                        default="none",
                        help="risk groups: 'conduits' bundles the default "
                        "mesh's row/column conduits; 'file' reads the "
                        "srlg section embedded in --topology")
    parser.set_defaults(kind="mesh")


def register(sub) -> None:
    """Add the ``serve`` and ``loadtest`` subparsers."""
    serve = sub.add_parser(
        "serve", help="run the online admission-control server"
    )
    _topology_options(serve)
    _endpoint_options(serve)
    serve.add_argument("--scheme", choices=SCHEME_CHOICES, default="P-LSR")
    serve.add_argument("--manifest", default=None, metavar="PATH",
                       help="write a final metrics manifest JSON on "
                       "shutdown")
    serve.add_argument("--trace-dir", default=None, metavar="DIR",
                       help="collect request/batch spans and write "
                       "server_trace.json/.ndjson into DIR on shutdown")
    serve.set_defaults(handler=_cmd_serve)

    load = sub.add_parser(
        "loadtest", help="drive a running server with deterministic load"
    )
    _endpoint_options(load)
    load.add_argument("--rate", type=positive_float, default=40.0,
                      help="mean arrival rate (requests per virtual "
                      "second)")
    load.add_argument("--duration", type=positive_float, default=60.0,
                      help="virtual seconds of load")
    load.add_argument("--hold-min", type=positive_float, default=2.0,
                      help="minimum connection hold time (virtual s)")
    load.add_argument("--hold-max", type=positive_float, default=6.0,
                      help="maximum connection hold time (virtual s)")
    load.add_argument("--bw", type=positive_float, default=1.0)
    load.add_argument("--seed", type=int, default=0)
    load.add_argument("--workload", choices=("poisson", "production"),
                      default="poisson",
                      help="'production' drives MMPP bursts and "
                      "drifting hot-spot endpoints (sojourns/epochs "
                      "scaled to --duration)")
    load.add_argument("--time-scale", type=float, default=0.0,
                      help="wall seconds per virtual second "
                      "(0 = replay as fast as the pipe allows)")
    load.add_argument("--max-inflight", type=positive_int, default=64,
                      help="pipelined requests kept outstanding")
    load.add_argument("--plan", default=None, metavar="PATH",
                      help="fault-plan JSON mixing link flaps/bursts "
                      "into the load")
    load.add_argument("--report", default=None, metavar="PATH",
                      help="write the load report as JSON here")
    load.add_argument("--min-rps", type=float, default=None,
                      help="fail unless sustained requests/second "
                      "reaches this")
    load.add_argument("--verify", action="store_true",
                      help="replay the same timeline on an in-process "
                      "twin service and compare decisions")
    _topology_options(load)
    load.add_argument("--scheme", choices=SCHEME_CHOICES, default="P-LSR",
                      help="twin scheme for --verify (must match the "
                      "server)")
    load.set_defaults(handler=_cmd_loadtest)


def _endpoint_kwargs(args: argparse.Namespace) -> dict:
    if args.socket is not None:
        return {"socket_path": args.socket}
    return {"host": args.host or "127.0.0.1", "port": args.port}


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from ..metrics import ServiceMetrics
    from ..server import ControlPlaneServer

    network, risk_groups = network_and_groups(args)
    metrics = ServiceMetrics()
    service = build_service(args, network, risk_groups, metrics=metrics)

    async def _run() -> ControlPlaneServer:
        server = ControlPlaneServer(
            service, metrics,
            manifest_path=args.manifest,
            trace_dir=args.trace_dir,
            **_endpoint_kwargs(args),
        )
        await server.start()
        # Readiness line for scripts that wait on our stdout.
        print(
            "serving {} on {} ({} nodes, {} links)".format(
                service.scheme.name, server.endpoint,
                network.num_nodes, network.num_links,
            ),
            flush=True,
        )
        await server.serve_until_shutdown()
        return server

    server = asyncio.run(_run())
    stats = server.stats
    print(
        "drained: {} requests ({} protocol errors) over {} connections, "
        "acceptance ratio {:.4f}".format(
            stats.requests_total, stats.protocol_errors,
            stats.connections_total, service.counters.acceptance_ratio,
        )
    )
    if args.manifest:
        print("wrote manifest to {}".format(args.manifest))
    if args.trace_dir and server.trace is not None:
        print("wrote {} spans ({} dropped) to {}".format(
            len(server.trace), server.trace.dropped, args.trace_dir,
        ))
    return 0


def _cmd_loadtest(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from ..faults import FaultPlan
    from ..server import (
        LoadGenConfig,
        LoadGenerator,
        build_timeline,
        fetch_status,
        run_sequential_reference,
    )

    plan = FaultPlan.load(args.plan) if args.plan else None
    config = LoadGenConfig(
        arrival_rate=args.rate,
        duration=args.duration,
        hold_min=args.hold_min,
        hold_max=args.hold_max,
        bw_req=args.bw,
        master_seed=args.seed,
        fault_plan=plan,
        workload=args.workload,
    )
    endpoint = _endpoint_kwargs(args)
    if endpoint.get("port") == 0:
        raise UsageError("repro loadtest: --port is required for TCP "
                         "targets")

    needs_topology = args.verify or (
        plan is not None
        and (
            (plan.bursts.enabled and plan.bursts.correlated)
            or plan.regional.enabled
        )
    )
    network = risk_groups = None
    if needs_topology or args.srlg != "none":
        network, risk_groups = network_and_groups(args)

    async def _run():
        status = await fetch_status(**endpoint)
        if network is not None and (
            network.num_nodes != status["nodes"]
            or network.num_links != status["links"]
        ):
            raise SystemExit(
                "loadtest topology ({} nodes, {} links) does not match "
                "the server's ({} nodes, {} links)".format(
                    network.num_nodes, network.num_links,
                    status["nodes"], status["links"],
                )
            )
        timeline = build_timeline(
            config, status["nodes"], status["links"],
            network=network, risk_groups=risk_groups,
        )
        generator = LoadGenerator(
            timeline,
            time_scale=args.time_scale,
            max_inflight=args.max_inflight,
            **endpoint,
        )
        report = await generator.run()
        return status, timeline, report

    status, timeline, report = asyncio.run(_run())

    rows = [
        ("server scheme", status.get("scheme", "?")),
        ("timeline events", report.events),
        ("responses", report.responses),
        ("admits", report.admits),
        ("accepted", report.accepted),
        ("acceptance ratio", "{:.4f}".format(report.acceptance_ratio)),
        ("releases acknowledged", report.released),
        ("link failures / repairs",
         "{} / {}".format(report.fail_links, report.repair_links)),
        ("protocol errors", report.protocol_error_total),
        ("wall seconds", "{:.2f}".format(report.wall_seconds)),
        ("requests / second", "{:.0f}".format(report.requests_per_second)),
    ]
    print(format_table(("metric", "value"), rows))

    failures = 0
    if report.protocol_error_total:
        print("FAIL: {} protocol errors: {}".format(
            report.protocol_error_total, report.protocol_errors,
        ), file=sys.stderr)
        failures += 1
    if args.min_rps is not None and report.requests_per_second < args.min_rps:
        print("FAIL: sustained {:.0f} req/s < required {:.0f}".format(
            report.requests_per_second, args.min_rps), file=sys.stderr)
        failures += 1
    if args.verify:
        # The twin must see the same risk groups as the server: they
        # change the decisions.
        twin = build_service(args, network, risk_groups)
        reference = run_sequential_reference(twin, timeline)
        exact = report.decisions == reference["decisions"]
        print("reference acceptance ratio {:.4f} (decisions {})".format(
            reference["acceptance_ratio"],
            "identical" if exact else "differ"))
        if not exact:
            print("FAIL: decision trace differs from the sequential "
                  "reference", file=sys.stderr)
            failures += 1
    if args.report:
        payload = report.to_dict()
        payload["config"] = {
            "arrival_rate": args.rate,
            "duration": args.duration,
            "hold_min": args.hold_min,
            "hold_max": args.hold_max,
            "bw_req": args.bw,
            "seed": args.seed,
            "time_scale": args.time_scale,
            "max_inflight": args.max_inflight,
            "fault_plan": plan.name if plan else None,
        }
        with open(args.report, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print("wrote load report to {}".format(args.report))
    return 1 if failures else 0
