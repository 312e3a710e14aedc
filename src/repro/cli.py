"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``topology`` — generate an evaluation network and save it as JSON;
* ``scenario`` — generate a Poisson request trace (a scenario file);
* ``replay``  — replay a scenario against a topology under a scheme,
  printing acceptance, fault tolerance and overhead-relevant stats;
* ``trace``   — replay a scenario with hierarchical span tracing and
  export a Chrome ``trace_event`` JSON (open in ``chrome://tracing``
  or https://ui.perfetto.dev) plus an optional NDJSON stream — the
  "why was this DR-connection rejected" debugging tool
  (``docs/tracing.md``);
* ``assess``  — load a topology, establish random DR-connections, and
  sweep single-link (or node) failures;
* ``campaign`` — sharded simulation campaigns: ``campaign run``
  executes the figure grid over a multiprocessing worker pool with an
  append-only checkpoint journal, ``campaign resume`` continues an
  interrupted run from that journal, ``campaign status`` reports
  progress from ``campaign_manifest.json`` (the paper's tables and
  figures come from ``python -m repro.experiments.run_all``);
* ``chaos``   — run a fault-injection chaos campaign (lossy signaling,
  router crashes, link flaps, correlated bursts, stale link state)
  and report recovery latency, retries and residual unprotection;
* ``serve``   — run the online admission-control server: NDJSON over
  TCP or a Unix socket, Prometheus/JSON metrics, graceful SIGTERM
  drain with a final metrics manifest;
* ``loadtest`` — drive a running server with a deterministic seeded
  workload (Poisson or MMPP/drift production arrivals, hold times,
  optional fault mix) and optionally diff its decisions against an
  in-process sequential replay of the same timeline;
* ``soak``    — long-horizon churn: stream a production trace (MMPP
  bursts, drifting hot spots) through one in-process service for
  10^5–10^6 admissions, with windowed metrics, the peak live
  population and peak-RSS accounting (``docs/architecture.md``,
  memory layer).

Every command is deterministic given its ``--seed``; topology and
scenario files round-trip through the serializers in
:mod:`repro.topology.serialize` and :mod:`repro.simulation.scenario`,
so a full evaluation can be driven from the shell with artifacts on
disk at every step — the workflow the paper describes (Matlab scenario
files fed into ns) with both halves in one tool.
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import Optional, Sequence

from .analysis import (
    FaultToleranceObserver,
    SpareShareObserver,
    format_table,
)
from .core import ENDPOINT_FAILED, DRTPService
from .experiments import make_scheme
from .kernels.search import ANSWERS, EXHAUSTIVE
from .simulation import Scenario, ScenarioSimulator, generate_scenario
from .topology import (
    load_network,
    load_network_with_groups,
    mesh_conduit_groups,
    mesh_network,
    ring_network,
    save_network,
    waxman_network,
)
from .topology.waxman import WaxmanParameters

SCHEME_CHOICES = ("D-LSR", "P-LSR", "BF", "disjoint", "random", "no-backup")


def _positive_float(text: str) -> float:
    """Argparse type: a strictly positive float.

    Rates, durations, windows and hold times silently fed ``0`` or a
    negative value used to surface as a downstream ZeroDivisionError,
    ValueError traceback, or an empty-timeline hang; rejecting them at
    the parser gives a one-line usage error instead.
    """
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected a number, got {!r}".format(text)
        )
    if value <= 0:
        raise argparse.ArgumentTypeError(
            "must be positive, got {}".format(text)
        )
    return value


def _positive_int(text: str) -> int:
    """Argparse type: a strictly positive integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected an integer, got {!r}".format(text)
        )
    if value <= 0:
        raise argparse.ArgumentTypeError(
            "must be positive, got {}".format(text)
        )
    return value


def _fraction(text: str) -> float:
    """Argparse type: a float in (0, 1]."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected a number, got {!r}".format(text)
        )
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(
            "must be in (0, 1], got {}".format(text)
        )
    return value


def _package_version() -> str:
    """Installed distribution version, falling back to the package
    constant when running from a source tree."""
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:
        from . import __version__

        return __version__


def _add_production_knobs(parser: argparse.ArgumentParser) -> None:
    """The MMPP/drift knobs shared by production-workload commands
    (``scenario --workload production``, ``soak``, ``loadtest
    --workload production``)."""
    parser.add_argument("--burst-factor", type=_positive_float, default=4.0,
                        help="burst-phase rate as a multiple of calm")
    parser.add_argument("--calm-mean", type=_positive_float, default=3600.0,
                        help="mean calm-phase sojourn, simulated seconds")
    parser.add_argument("--burst-mean", type=_positive_float, default=600.0,
                        help="mean burst-phase sojourn, simulated seconds")
    parser.add_argument("--hot-count", type=_positive_int, default=10,
                        help="size of the drifting hot destination set")
    parser.add_argument("--hot-fraction", type=_fraction, default=0.5,
                        help="share of connections aimed at hot nodes")
    parser.add_argument("--drift-epoch", type=_positive_float, default=3600.0,
                        help="seconds between hot-set migrations")
    parser.add_argument("--drift-migrate", type=_positive_int, default=1,
                        help="hot nodes replaced per migration step")


def build_parser() -> argparse.ArgumentParser:
    """The full ``repro`` argument parser (one subparser per command;
    importable so tests can drive parsing without a process)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dependable real-time connection routing (DSN 2001 "
        "reproduction) command-line tools",
    )
    parser.add_argument(
        "--version", action="version",
        version="%(prog)s {}".format(_package_version()),
    )
    sub = parser.add_subparsers(dest="command")

    topo = sub.add_parser("topology", help="generate a network file")
    topo.add_argument("output", help="where to write the topology JSON")
    topo.add_argument("--kind", choices=("waxman", "mesh", "ring"),
                      default="waxman")
    topo.add_argument("--nodes", type=int, default=60)
    topo.add_argument("--degree", type=float, default=3.0,
                      help="Waxman average degree target")
    topo.add_argument("--rows", type=int, default=4, help="mesh rows")
    topo.add_argument("--cols", type=int, default=4, help="mesh cols")
    topo.add_argument("--capacity", type=float, default=30.0)
    topo.add_argument("--seed", type=int, default=0)
    topo.add_argument("--srlg", choices=("none", "conduits", "proximity"),
                      default="none",
                      help="embed a risk-group assignment: 'conduits' "
                      "bundles mesh rows/columns, 'proximity' buckets "
                      "Waxman links by geographic cell")
    topo.add_argument("--srlg-cell", type=float, default=0.25,
                      help="proximity bucketing cell size (unit square)")

    scen = sub.add_parser("scenario", help="generate a scenario file")
    scen.add_argument("output", help="where to write the scenario JSON")
    scen.add_argument("--nodes", type=_positive_int, default=60)
    scen.add_argument("--rate", type=_positive_float, default=0.4,
                      help="mean arrival rate (connections/second)")
    scen.add_argument("--duration", type=_positive_float, default=5400.0,
                      help="simulated seconds")
    scen.add_argument("--workload", choices=("poisson", "production"),
                      default="poisson",
                      help="'poisson' is the paper's process; "
                      "'production' layers MMPP bursts and hot-spot "
                      "drift from repro.loadmodel")
    scen.add_argument("--pattern", choices=("UT", "NT"), default="UT",
                      help="endpoint pattern (poisson workload only; "
                      "production always drifts an NT-style hot set)")
    scen.add_argument("--bw", type=_positive_float, default=1.0)
    scen.add_argument("--hold-min", type=_positive_float, default=1200.0,
                      help="minimum holding time, seconds (paper: 20min)")
    scen.add_argument("--hold-max", type=_positive_float, default=3600.0,
                      help="maximum holding time, seconds (paper: 60min)")
    scen.add_argument("--seed", type=int, default=0)
    _add_production_knobs(scen)

    replay = sub.add_parser("replay", help="replay a scenario file")
    replay.add_argument("topology", help="topology JSON from `topology`")
    replay.add_argument("scenario", help="scenario JSON from `scenario`")
    replay.add_argument("--scheme", choices=SCHEME_CHOICES, default="D-LSR")
    replay.add_argument("--warmup", type=float, default=None,
                        help="seconds before measurement (default: half)")
    replay.add_argument("--snapshots", type=int, default=4)
    replay.add_argument("--num-backups", type=int, default=1)
    replay.add_argument("--oracle", action="store_true",
                        help="replay under the differential-testing "
                        "oracle: every operation is mirrored into a "
                        "naive reference service and diffed "
                        "bit-for-bit (slow; fails loudly on any "
                        "fast-path divergence)")

    trace = sub.add_parser(
        "trace",
        help="replay a scenario with span tracing; export a Chrome "
        "trace (chrome://tracing / Perfetto) and optional NDJSON",
    )
    trace.add_argument("topology", help="topology JSON from `topology`")
    trace.add_argument("scenario", help="scenario JSON from `scenario`")
    trace.add_argument("--scheme", choices=SCHEME_CHOICES, default="D-LSR")
    trace.add_argument("--out", default="trace.json", metavar="PATH",
                       help="Chrome trace_event JSON output path")
    trace.add_argument("--ndjson", default=None, metavar="PATH",
                       help="also write the spans as an NDJSON stream")
    trace.add_argument("--max-spans", type=int, default=200_000,
                       metavar="N",
                       help="span ring-buffer bound; oldest spans are "
                       "evicted and counted once exceeded (the search "
                       "digest is read from the service's counters, "
                       "which eviction cannot undercount)")
    trace.add_argument("--warmup", type=float, default=None,
                       help="seconds before measurement (default: half)")
    trace.add_argument("--rejections", type=int, default=5, metavar="N",
                       help="rejected admissions to summarize (0 = none)")

    assess = sub.add_parser(
        "assess", help="failure sweep over a randomly loaded network"
    )
    assess.add_argument("topology", help="topology JSON from `topology`")
    assess.add_argument("--scheme", choices=SCHEME_CHOICES, default="D-LSR")
    assess.add_argument("--connections", type=int, default=50)
    assess.add_argument("--bw", type=float, default=1.0)
    assess.add_argument("--seed", type=int, default=0)
    assess.add_argument("--nodes", action="store_true",
                        help="sweep node failures instead of link failures")

    camp = sub.add_parser(
        "campaign",
        help="sharded simulation campaigns (run / resume / status)",
    )
    csub = camp.add_subparsers(dest="campaign_command", required=True)

    def _grid_options(p):
        p.add_argument("--scale", choices=("paper", "quick", "smoke"),
                       default="quick")
        p.add_argument("--seed", type=int, default=7,
                       help="master scenario seed")
        p.add_argument("--degrees", default="3,4", metavar="LIST",
                       help="comma-separated average degrees E")
        p.add_argument("--patterns", default="UT,NT", metavar="LIST",
                       help="comma-separated traffic patterns")
        p.add_argument("--lambdas", default=None, metavar="LIST",
                       help="comma-separated arrival rates (default: "
                       "each degree's figure-panel x-axis)")
        p.add_argument("--schemes", default=",".join(
            ("D-LSR", "P-LSR", "BF")), metavar="LIST",
            help="comma-separated routing schemes")

    crun = csub.add_parser(
        "run", help="run a sharded campaign with checkpointing"
    )
    _grid_options(crun)
    crun.add_argument("--dir", required=True, metavar="DIR",
                      help="campaign directory (journal, manifest, "
                      "merged CSV outputs)")
    crun.add_argument("--jobs", type=int, default=1, metavar="N",
                      help="worker processes (1 = inline)")
    crun.add_argument("--resume", action="store_true",
                      help="continue if DIR already holds a journal")
    crun.add_argument("--stop-after", type=int, default=None,
                      metavar="CELLS",
                      help="stop after this many newly completed cells "
                      "(simulates an interruption; resume later)")
    crun.add_argument("--trace-dir", default=None, metavar="DIR",
                      help="collect per-cell worker spans and write "
                      "campaign_trace.json/.ndjson into DIR")

    cres = csub.add_parser(
        "resume", help="resume an interrupted campaign from its journal"
    )
    cres.add_argument("--dir", required=True, metavar="DIR")
    cres.add_argument("--jobs", type=int, default=1, metavar="N")
    cres.add_argument("--trace-dir", default=None, metavar="DIR",
                      help="collect per-cell worker spans and write "
                      "campaign_trace.json/.ndjson into DIR")

    cstat = csub.add_parser(
        "status", help="report campaign progress from the manifest"
    )
    cstat.add_argument("--dir", required=True, metavar="DIR")
    cstat.add_argument("--json", action="store_true",
                       help="print the raw manifest JSON")

    chaos = sub.add_parser(
        "chaos", help="run a fault-injection chaos campaign"
    )
    chaos.add_argument("--rows", type=int, default=8, help="mesh rows")
    chaos.add_argument("--cols", type=int, default=8, help="mesh cols")
    chaos.add_argument("--capacity", type=float, default=30.0)
    chaos.add_argument("--scheme", choices=SCHEME_CHOICES, default="D-LSR")
    chaos.add_argument("--rate", type=_positive_float, default=2.0,
                       help="Poisson arrival rate (connections/second)")
    chaos.add_argument("--duration", type=_positive_float, default=600.0,
                       help="simulated seconds")
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--plan", default=None,
                       help="fault-plan JSON (default: every fault family "
                       "at baseline intensity)")
    chaos.add_argument("--intensity", type=float, default=1.0,
                       help="scale the default plan's fault rates")
    chaos.add_argument("--retry-interval", type=float, default=5.0,
                       help="background backup re-establishment cadence")
    chaos.add_argument("--report", default=None,
                       help="also write the report as JSON here")
    chaos.add_argument("--trace-dir", default=None, metavar="DIR",
                       help="trace the campaign and write "
                       "chaos_trace.json/.ndjson into DIR")
    chaos.add_argument("--log", default=None, metavar="PATH",
                       help="write the textual report here (default: "
                       "benchmarks/results/chaos_<scheme>_seed<seed>.log"
                       ", a gitignored location; pass 'none' to skip)")
    chaos.add_argument("--verify", action="store_true",
                       help="run the campaign twice and assert the "
                       "reports are bit-for-bit identical")
    chaos.add_argument("--srlg", choices=("none", "conduits"),
                       default="none",
                       help="shared-risk model: 'conduits' bundles the "
                       "mesh's row/column conduits into risk groups, "
                       "sizes spare per group, and lets the plan's "
                       "regional family cut whole conduits")

    def _endpoint_options(p):
        p.add_argument("--socket", default=None, metavar="PATH",
                       help="serve/connect on a Unix socket")
        p.add_argument("--host", default=None,
                       help="TCP host (default 127.0.0.1 when no socket)")
        p.add_argument("--port", type=int, default=0,
                       help="TCP port (0 = ephemeral)")

    def _topology_options(p):
        p.add_argument("--topology", default=None, metavar="PATH",
                       help="topology JSON (default: a mesh from "
                       "--rows/--cols/--capacity)")
        p.add_argument("--rows", type=int, default=8, help="mesh rows")
        p.add_argument("--cols", type=int, default=8, help="mesh cols")
        p.add_argument("--capacity", type=float, default=30.0)
        p.add_argument("--srlg", choices=("none", "conduits", "file"),
                       default="none",
                       help="risk groups: 'conduits' bundles the default "
                       "mesh's row/column conduits; 'file' reads the "
                       "srlg section embedded in --topology")

    serve = sub.add_parser(
        "serve", help="run the online admission-control server"
    )
    _topology_options(serve)
    _endpoint_options(serve)
    serve.add_argument("--scheme", choices=SCHEME_CHOICES, default="P-LSR")
    serve.add_argument("--snapshot-db", action="store_true",
                       help="route from periodically refreshed snapshots "
                       "instead of live link state")
    serve.add_argument("--manifest", default=None, metavar="PATH",
                       help="write a final metrics manifest JSON on "
                       "shutdown")
    serve.add_argument("--trace-dir", default=None, metavar="DIR",
                       help="collect request/batch spans and write "
                       "server_trace.json/.ndjson into DIR on shutdown")

    load = sub.add_parser(
        "loadtest", help="drive a running server with deterministic load"
    )
    _endpoint_options(load)
    load.add_argument("--rate", type=_positive_float, default=40.0,
                      help="mean arrival rate (requests per virtual "
                      "second)")
    load.add_argument("--duration", type=_positive_float, default=60.0,
                      help="virtual seconds of load")
    load.add_argument("--hold-min", type=_positive_float, default=2.0,
                      help="minimum connection hold time (virtual s)")
    load.add_argument("--hold-max", type=_positive_float, default=6.0,
                      help="maximum connection hold time (virtual s)")
    load.add_argument("--bw", type=_positive_float, default=1.0)
    load.add_argument("--seed", type=int, default=0)
    load.add_argument("--workload", choices=("poisson", "production"),
                      default="poisson",
                      help="'production' drives MMPP bursts and "
                      "drifting hot-spot endpoints (sojourns/epochs "
                      "scaled to --duration)")
    load.add_argument("--time-scale", type=float, default=0.0,
                      help="wall seconds per virtual second "
                      "(0 = replay as fast as the pipe allows)")
    load.add_argument("--max-inflight", type=_positive_int, default=64,
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
    load.add_argument("--tolerance", type=float, default=0.005,
                      help="acceptance-ratio tolerance for --verify")

    soak = sub.add_parser(
        "soak",
        help="long-horizon churn soak: stream a production trace "
        "(MMPP x hot-spot drift) through one service, with windowed "
        "metrics and peak-RSS accounting",
    )
    soak.add_argument("--topology", default=None, metavar="PATH",
                      help="topology JSON (default: generate a Waxman "
                      "graph from --nodes/--degree/--capacity)")
    soak.add_argument("--nodes", type=_positive_int, default=500)
    soak.add_argument("--degree", type=_positive_float, default=4.0,
                      help="Waxman average degree target")
    soak.add_argument("--capacity", type=_positive_float, default=40.0)
    soak.add_argument("--scheme", choices=SCHEME_CHOICES, default="P-LSR")
    soak.add_argument("--admissions", type=_positive_int, default=100_000,
                      help="admission attempts to sustain")
    soak.add_argument("--rate", type=_positive_float, default=50.0,
                      help="long-run mean arrival rate (connections "
                      "per simulated second)")
    soak.add_argument("--hold-min", type=_positive_float, default=20.0,
                      help="minimum holding time, simulated seconds "
                      "(short holds = high churn)")
    soak.add_argument("--hold-max", type=_positive_float, default=60.0,
                      help="maximum holding time, simulated seconds")
    soak.add_argument("--bw", type=_positive_float, default=1.0)
    soak.add_argument("--seed", type=int, default=0)
    soak.add_argument("--window", type=_positive_int, default=10_000,
                      help="admissions per measurement window")
    soak.add_argument("--out", default=None, metavar="PATH",
                      help="write the JSON soak report here")
    soak.add_argument("--rss-limit-mb", type=_positive_float, default=None,
                      help="fail (exit 1) if peak RSS exceeds this")
    soak.add_argument("--quiet", action="store_true",
                      help="suppress per-window progress lines")
    _add_production_knobs(soak)

    return parser


# ----------------------------------------------------------------------
# Command implementations
# ----------------------------------------------------------------------
def _cmd_topology(args: argparse.Namespace) -> int:
    if args.kind == "waxman":
        network = waxman_network(
            args.nodes,
            capacity=args.capacity,
            parameters=WaxmanParameters(target_degree=args.degree),
            rng=random.Random(args.seed),
        )
    elif args.kind == "mesh":
        network = mesh_network(args.rows, args.cols, args.capacity)
    else:
        network = ring_network(args.nodes, args.capacity)
    groups = None
    if args.srlg == "conduits":
        if args.kind != "mesh":
            print("--srlg conduits needs --kind mesh", file=sys.stderr)
            return 2
        groups = mesh_conduit_groups(network, args.rows, args.cols)
    elif args.srlg == "proximity":
        if args.kind != "waxman":
            print("--srlg proximity needs --kind waxman (geometric "
                  "layout)", file=sys.stderr)
            return 2
        from .topology import proximity_groups

        groups = proximity_groups(network, cell_size=args.srlg_cell)
    save_network(network, args.output, risk_groups=groups)
    print(
        "wrote {}: {} nodes, {} links, average degree {:.2f}{}".format(
            args.output,
            network.num_nodes,
            network.num_links,
            network.average_degree(),
            "" if groups is None else
            ", {} risk groups (max size {})".format(
                groups.num_groups, groups.max_group_size),
        )
    )
    return 0


def _production_trace_config(args: argparse.Namespace, num_nodes: int):
    """Build a ProductionTraceConfig from the shared CLI knobs."""
    from .loadmodel import (
        DriftParameters,
        MMPPParameters,
        ProductionTraceConfig,
    )
    from .simulation.arrivals import HoldingTimeDistribution

    return ProductionTraceConfig(
        num_nodes=num_nodes,
        mmpp=MMPPParameters.bursty(
            args.rate,
            burst_factor=args.burst_factor,
            calm_mean=args.calm_mean,
            burst_mean=args.burst_mean,
        ),
        drift=DriftParameters(
            hot_count=args.hot_count,
            hot_fraction=args.hot_fraction,
            epoch_seconds=args.drift_epoch,
            migrate=args.drift_migrate,
        ),
        holding=HoldingTimeDistribution(args.hold_min, args.hold_max),
        bw_req=args.bw,
        seed=args.seed,
    )


def _cmd_scenario(args: argparse.Namespace) -> int:
    from .simulation.arrivals import HoldingTimeDistribution

    if args.workload == "production":
        from .loadmodel import generate_production_scenario

        if args.hot_count >= args.nodes:
            print(
                "repro scenario: --hot-count must be below --nodes",
                file=sys.stderr,
            )
            return 2
        scenario = generate_production_scenario(
            _production_trace_config(args, args.nodes),
            duration=args.duration,
        )
    else:
        scenario = generate_scenario(
            num_nodes=args.nodes,
            arrival_rate=args.rate,
            duration=args.duration,
            bw_req=args.bw,
            pattern=args.pattern,
            holding=HoldingTimeDistribution(args.hold_min, args.hold_max),
            seed=args.seed,
        )
    scenario.save(args.output)
    print(
        "wrote {}: {} requests over {:.0f}s (empirical rate {:.3f}/s)".format(
            args.output,
            scenario.num_requests,
            scenario.duration,
            scenario.arrival_rate,
        )
    )
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    network = load_network(args.topology)
    scenario = Scenario.load(args.scenario)
    scheme = make_scheme(args.scheme)
    if args.num_backups > 1:
        if not hasattr(scheme, "num_backups"):
            print("scheme {} does not support multiple backups".format(
                args.scheme), file=sys.stderr)
            return 2
        scheme.num_backups = args.num_backups
    service = DRTPService(network, scheme)
    oracle = None
    if args.oracle:
        from .testing import DifferentialOracle, require_exact

        try:
            for request in scenario.requests:
                require_exact(request.bw_req)
        except ValueError as error:
            print("replay --oracle: {}".format(error), file=sys.stderr)
            return 2
        oracle = DifferentialOracle(service)
        service = oracle
    ft = FaultToleranceObserver()
    spare = SpareShareObserver()
    warmup = args.warmup if args.warmup is not None else scenario.duration / 2
    result = ScenarioSimulator(
        service, scenario, warmup=warmup, snapshot_count=args.snapshots
    ).run(observers=(ft, spare))
    rows = [
        ("scheme", result.scheme),
        ("requests", result.requests),
        ("accepted", result.accepted),
        ("acceptance ratio", "{:.4f}".format(result.acceptance_ratio)),
        ("mean active connections",
         "{:.1f}".format(result.mean_active_connections)),
        ("fault tolerance P_act-bk", "{:.4f}".format(ft.stats.p_act_bk)),
        ("control messages / request",
         "{:.1f}".format(result.control_messages / max(1, result.requests))),
        ("spare share of committed bw",
         "{:.1%}".format(spare.mean_spare_fraction)),
    ]
    for reason, count in sorted(result.rejected.items()):
        rows.append(("rejected: {}".format(reason), count))
    if oracle is not None:
        rows.append(("oracle operations", oracle.operations))
        rows.append(("oracle checks", oracle.checks))
        rows.append(("oracle divergences", 0))
    print(format_table(("metric", "value"), rows))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .observability import (
        TraceCollector,
        write_chrome_trace,
        write_ndjson,
    )

    network = load_network(args.topology)
    scenario = Scenario.load(args.scenario)
    scheme = make_scheme(args.scheme)
    # detail=True: the debugging CLI affords the cost decompositions
    # (conflict/q_links per backup search) production tracing skips.
    collector = TraceCollector(max_spans=args.max_spans, detail=True)
    service = DRTPService(network, scheme, trace=collector)
    warmup = args.warmup if args.warmup is not None else scenario.duration / 2
    result = ScenarioSimulator(service, scenario, warmup=warmup).run()

    label = "drtp-{}".format(scheme.name)
    events = write_chrome_trace(args.out, collector, label=label)
    counts = collector.counts()
    rows = [(name, counts[name]) for name in sorted(counts)]
    rows.append(("spans total", len(collector)))
    rows.append(("spans dropped", collector.dropped))
    print(format_table(("span", "count"), rows))
    print("replayed {} requests, accepted {} (ratio {:.4f})".format(
        result.requests, result.accepted, result.acceptance_ratio,
    ))
    print("wrote {} trace events to {}".format(events, args.out))
    if args.ndjson:
        spans = write_ndjson(args.ndjson, collector, label=label)
        print("wrote {} span records to {}".format(spans, args.ndjson))
    if args.rejections > 0:
        rejected = [
            span for span in collector.spans("service.admit")
            if span.tags.get("accepted") is False
        ]
        if rejected:
            print("\n{} rejected admission(s); first {}:".format(
                len(rejected), min(args.rejections, len(rejected)),
            ))
            for span in rejected[:args.rejections]:
                print("  request {} {}->{} bw {}: {}".format(
                    span.tags.get("request"), span.tags.get("source"),
                    span.tags.get("destination"), span.tags.get("bw"),
                    span.tags.get("reason"),
                ))
        # Cache effectiveness behind the rejections: warm hits served
        # a stored candidate without searching; cold misses ran the
        # full backup search (docs/performance.md reads this digest).
        searches = collector.spans("route.backup_search")
        warm_hits = sum(
            1 for span in searches if span.tags.get("warm") is True
        )
        cold_misses = sum(
            1 for span in searches if span.tags.get("warm") is False
        )
        if warm_hits or cold_misses:
            print(
                "backup searches: {} warm hit(s), {} cold miss(es) "
                "({} total)".format(warm_hits, cold_misses, len(searches))
            )
        # Which step of the search answered (docs/performance.md: a
        # rising "exhaustive" share is the unit phase falling through),
        # read from the service's counters: the span ring buffer may
        # have evicted the searches' spans, the tally forgets nothing.
        # The mean beside them is nodes settled per exhaustive answer
        # (both sides of the two-ended step; docs/tracing.md).
        answered = service.counters.searches
        settled = service.counters.exhaustive_settled
        for search in ("primary", "backup"):
            if any(key[0] == search for key in answered):
                exhaustive = answered.get((search, EXHAUSTIVE), 0)
                print("{} searches answered by: {}{}".format(
                    search,
                    ", ".join(
                        "{} {}".format(
                            answer, answered.get((search, answer), 0)
                        )
                        for answer in ANSWERS
                    ),
                    " (settled {:.1f} per exhaustive search)".format(
                        settled.get(search, 0) / exhaustive
                    ) if exhaustive else "",
                ))
    print("open the trace in https://ui.perfetto.dev or chrome://tracing")
    return 0


def _cmd_assess(args: argparse.Namespace) -> int:
    network = load_network(args.topology)
    service = DRTPService(network, make_scheme(args.scheme))
    rng = random.Random(args.seed)
    established = 0
    attempts = 0
    while established < args.connections and attempts < args.connections * 10:
        a = rng.randrange(network.num_nodes)
        b = rng.randrange(network.num_nodes)
        attempts += 1
        if a != b and service.request(a, b, args.bw).accepted:
            established += 1
    print("{} DR-connections established".format(established))

    total_attempts = total_success = 0
    worst = None
    if args.nodes:
        sweep = [("node", n, service.assess_node_failure(n))
                 for n in network.nodes()]
    else:
        sweep = [("link", l, impact)
                 for l, impact in service.sweep_link_failures()]
    for _kind, _ident, impact in sweep:
        # A connection ending at a dead switch makes no recovery attempt.
        impact.outcomes = [
            o for o in impact.outcomes if o.reason != ENDPOINT_FAILED
        ]
        total_attempts += impact.affected
        total_success += impact.activated
        if worst is None or impact.failed > worst[2].failed:
            worst = (_kind, _ident, impact)
    p = total_success / total_attempts if total_attempts else 1.0
    print(
        "failure sweep: {} recovery attempts, {} succeed -> "
        "P_act-bk = {:.4f}".format(total_attempts, total_success, p)
    )
    if worst is not None and worst[2].failed:
        print(
            "worst case: {} {} strands {} of {} ({})".format(
                worst[0], worst[1], worst[2].failed, worst[2].affected,
                worst[2].reasons(),
            )
        )
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from .faults import CampaignConfig, FaultPlan, run_campaign
    from .observability import UNTRACED

    if args.plan is not None:
        plan = FaultPlan.load(args.plan)
    else:
        plan = FaultPlan.everything(intensity=args.intensity)
    config = CampaignConfig(
        rows=args.rows,
        cols=args.cols,
        capacity=args.capacity,
        scheme=args.scheme,
        arrival_rate=args.rate,
        duration=args.duration,
        seed=args.seed,
        backup_retry_interval=args.retry_interval,
        srlg=args.srlg,
    )
    trace = _trace_collector(args)
    # The root every chaos.* action span (and the service spans under
    # them) hangs off; the --verify rerun below runs untraced.
    with trace.span(
        "chaos.campaign", "chaos",
        plan=plan.name, scheme=config.scheme, seed=config.seed,
    ) if trace is not None else UNTRACED:
        report = run_campaign(plan, config)
    if args.verify:
        rerun = run_campaign(plan, config)
        if rerun.to_dict() != report.to_dict():
            print("NOT REPRODUCIBLE: two runs of seed {} differ".format(
                args.seed), file=sys.stderr)
            return 1
        print("reproducible: two runs of seed {} are identical".format(
            args.seed))
    print(report.format())
    if args.log != "none":
        from pathlib import Path

        if args.log is not None:
            log_path = Path(args.log)
        else:
            # Default under benchmarks/results/ (gitignored) so ad-hoc
            # campaign logs stop littering the repository root.
            log_path = Path("benchmarks") / "results" / (
                "chaos_{}_seed{}.log".format(args.scheme, args.seed)
            )
        log_path.parent.mkdir(parents=True, exist_ok=True)
        log_path.write_text(report.format() + "\n")
        print("wrote campaign log to {}".format(log_path))
    _write_trace(trace, args, "chaos")
    if args.report:
        with open(args.report, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2)
        print("wrote report to {}".format(args.report))
    return 0


def _serving_network(args: argparse.Namespace):
    """The topology named by --topology, or the --rows x --cols mesh."""
    if args.topology is not None:
        return load_network(args.topology)
    return mesh_network(args.rows, args.cols, args.capacity)


def _serving_network_with_groups(args: argparse.Namespace):
    """Resolve ``(network, risk_groups)`` for serve/loadtest: the
    --srlg flag selects conduit bundling on the default mesh or the
    srlg section embedded in the --topology JSON."""
    if args.srlg == "file":
        if args.topology is None:
            raise SystemExit(
                "--srlg file needs --topology (a JSON with an embedded "
                "srlg section, written by save_network(risk_groups=...))"
            )
        network, groups = load_network_with_groups(args.topology)
        if groups is None:
            raise SystemExit(
                "{} has no srlg section".format(args.topology)
            )
        return network, groups
    network = _serving_network(args)
    if args.srlg == "conduits":
        if args.topology is not None:
            raise SystemExit(
                "--srlg conduits bundles the default mesh's conduits; "
                "with --topology, embed groups and use --srlg file"
            )
        return network, mesh_conduit_groups(network, args.rows, args.cols)
    return network, None


def _endpoint_kwargs(args: argparse.Namespace) -> dict:
    if args.socket is not None:
        return {"socket_path": args.socket}
    return {"host": args.host or "127.0.0.1", "port": args.port}


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .metrics import ServiceMetrics
    from .server import ControlPlaneServer

    network, risk_groups = _serving_network_with_groups(args)
    scheme = make_scheme(args.scheme)
    metrics = ServiceMetrics()
    service = DRTPService(
        network, scheme,
        live_database=not args.snapshot_db,
        metrics=metrics,
        risk_groups=risk_groups,
    )

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
                scheme.name, server.endpoint,
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

    from .faults import FaultPlan
    from .server import (
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
    if "port" in endpoint and endpoint["port"] == 0:
        print("repro loadtest: --port is required for TCP targets",
              file=sys.stderr)
        return 2

    async def _run():
        status = await fetch_status(**endpoint)
        needs_topology = args.verify or (
            plan is not None
            and (
                (plan.bursts.enabled and plan.bursts.correlated)
                or plan.regional.enabled
            )
        )
        network = risk_groups = None
        if needs_topology or args.srlg != "none":
            network, risk_groups = _serving_network_with_groups(args)
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
        return status, network, risk_groups, timeline, report

    status, network, risk_groups, timeline, report = asyncio.run(_run())

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
        # The twin must see the same risk groups as the server: an
        # SRLG-aware server routes (and therefore decides) differently.
        twin = DRTPService(
            network, make_scheme(args.scheme),
            live_database=status.get("live_database", True),
            risk_groups=risk_groups,
        )
        reference = run_sequential_reference(twin, timeline)
        delta = abs(
            reference["acceptance_ratio"] - report.acceptance_ratio
        )
        exact = report.decisions == reference["decisions"]
        print("reference acceptance ratio {:.4f} (delta {:.4f}, "
              "decisions {})".format(
                  reference["acceptance_ratio"], delta,
                  "identical" if exact else "differ"))
        if delta > args.tolerance:
            print("FAIL: acceptance ratio deviates from the sequential "
                  "reference by {:.4f} > {:.4f}".format(
                      delta, args.tolerance), file=sys.stderr)
            failures += 1
        if status.get("live_database", True) and not exact:
            print("FAIL: decision trace differs from the sequential "
                  "reference despite a live link-state database",
                  file=sys.stderr)
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


def _parse_list(raw: str, convert) -> tuple:
    return tuple(convert(item) for item in raw.split(",") if item.strip())


def _campaign_spec(args: argparse.Namespace):
    from .campaign import CampaignSpec

    return CampaignSpec(
        scale=args.scale,
        degrees=_parse_list(args.degrees, int),
        patterns=_parse_list(args.patterns, str),
        lambdas=(
            None if args.lambdas is None
            else _parse_list(args.lambdas, float)
        ),
        schemes=_parse_list(args.schemes, str),
        master_seed=args.seed,
    )


def _report_campaign(result) -> int:
    if result.complete:
        print("campaign complete: {} cells ({} resumed) in {:.1f}s".format(
            result.manifest["cells_total"], result.resumed_cells,
            result.wall_clock_seconds,
        ))
        for path in result.outputs:
            print("wrote {}".format(path))
    else:
        print("campaign interrupted: {}/{} cells checkpointed; resume "
              "with: repro campaign resume --dir {}".format(
                  result.manifest["cells_done"],
                  result.manifest["cells_total"], result.campaign_dir,
              ))
    print("manifest: {}".format(
        result.campaign_dir / "campaign_manifest.json"
    ))
    return 0


def _trace_collector(args: argparse.Namespace):
    """A collector when ``--trace-dir`` was given, else None."""
    if args.trace_dir is None:
        return None
    from .observability import TraceCollector

    return TraceCollector()


def _write_trace(trace, args: argparse.Namespace, stem: str) -> None:
    """Write ``trace`` (if any) into ``--trace-dir`` as
    ``<stem>_trace.json`` / ``.ndjson``."""
    if trace is None:
        return
    from .observability import write_trace_dir

    chrome, ndjson = write_trace_dir(args.trace_dir, trace, stem)
    print("wrote {} spans ({} dropped) to {} and {}".format(
        len(trace), trace.dropped, chrome, ndjson,
    ))


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from .campaign import run_campaign_jobs

    trace = _trace_collector(args)
    status = _report_campaign(run_campaign_jobs(
        _campaign_spec(args),
        args.dir,
        jobs=args.jobs,
        resume=args.resume,
        stop_after_cells=args.stop_after,
        trace=trace,
    ))
    _write_trace(trace, args, "campaign")
    return status


def _cmd_campaign_resume(args: argparse.Namespace) -> int:
    from .campaign import resume_campaign

    trace = _trace_collector(args)
    status = _report_campaign(
        resume_campaign(args.dir, jobs=args.jobs, trace=trace)
    )
    _write_trace(trace, args, "campaign")
    return status


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    import json

    from .campaign import campaign_status

    status = campaign_status(args.dir)
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    rows = [
        ("status", status.get("status", "?")),
        ("cells", "{} / {}".format(
            status.get("cells_done", "?"), status.get("cells_total", "?")
        )),
    ]
    progress = status.get("progress") or {}
    if progress:
        rows.append(("throughput (cells/s)", "{:.3f}".format(
            progress.get("throughput_cells_per_second") or 0.0
        )))
        eta = progress.get("eta_seconds")
        rows.append(("ETA", "{:.0f}s".format(eta) if eta else "-"))
        rows.append(("retries", progress.get("retries", 0)))
        workers = progress.get("workers") or {}
        if workers:
            rows.append(("workers", " ".join(
                "{}={}".format(name, state)
                for name, state in sorted(workers.items())
            )))
    if status.get("resumed_cells"):
        rows.append(("resumed cells", status["resumed_cells"]))
    merged = status.get("merged") or {}
    for scheme, stats in (merged.get("observer_stats") or {}).items():
        rows.append(("merged P_act-bk [{}]".format(scheme),
                     "{:.4f}".format(stats["p_act_bk"])))
    print(format_table(("field", "value"), rows))
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from .campaign import CampaignError

    handler = {
        "run": _cmd_campaign_run,
        "resume": _cmd_campaign_resume,
        "status": _cmd_campaign_status,
    }[args.campaign_command]
    try:
        return handler(args)
    except CampaignError as exc:
        print("repro campaign: {}".format(exc), file=sys.stderr)
        return 1


def _cmd_soak(args: argparse.Namespace) -> int:
    import json

    from .loadmodel import ProductionTraceGenerator, SoakEngine

    if args.topology is not None:
        network = load_network(args.topology)
    else:
        network = waxman_network(
            args.nodes,
            capacity=args.capacity,
            parameters=WaxmanParameters(target_degree=args.degree),
            rng=random.Random(args.seed),
        )
    if args.hot_count >= network.num_nodes:
        print(
            "repro soak: --hot-count must be below the node count",
            file=sys.stderr,
        )
        return 2
    service = DRTPService(network, make_scheme(args.scheme))
    config = _production_trace_config(args, network.num_nodes)
    print(
        "soak: {} nodes, {} links, scheme {}, {} admissions "
        "(window {}), offered load ~{:.0f} concurrent".format(
            network.num_nodes, network.num_links, args.scheme,
            args.admissions, args.window,
            config.expected_offered_load(),
        )
    )

    def progress(stats) -> None:
        if args.quiet:
            return
        print(
            "window {:>4}: t={:>9.1f}s active={:>6} accept={:.3f} "
            "{:>7.0f} adm/s rss={:.1f} MiB".format(
                stats.index, stats.sim_time, stats.active,
                stats.accepted / max(1, stats.admissions),
                stats.admissions_per_second,
                stats.rss_bytes / (1024.0 * 1024.0),
            ),
            flush=True,
        )

    engine = SoakEngine(
        service,
        ProductionTraceGenerator(config),
        window=args.window,
        progress=progress,
    )
    report = engine.run(args.admissions)
    payload = report.to_dict()
    payload["scheme"] = args.scheme
    payload["nodes"] = network.num_nodes
    payload["links"] = network.num_links
    payload["seed"] = args.seed
    rows = [
        ("admissions", report.admissions),
        ("accepted", report.accepted),
        ("acceptance ratio", "{:.4f}".format(report.acceptance_ratio)),
        ("releases", report.releases),
        ("final active", report.final_active),
        ("simulated time", "{:.0f}s".format(report.sim_time)),
        ("wall time", "{:.1f}s".format(report.wall_seconds)),
        ("admissions/s", "{:.0f}".format(report.admissions_per_second)),
        ("peak RSS", "{:.1f} MiB".format(
            report.peak_rss_bytes / (1024.0 * 1024.0))),
        ("peak live connections", report.connections["high_water"]),
        ("decision checksum", report.decision_checksum[:16]),
    ]
    print(format_table(("metric", "value"), rows))
    if args.out is not None:
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote {}".format(args.out))
    if args.rss_limit_mb is not None:
        limit = args.rss_limit_mb * 1024 * 1024
        if report.peak_rss_bytes > limit:
            print(
                "repro soak: peak RSS {:.1f} MiB exceeds the {:.1f} MiB "
                "ceiling".format(
                    report.peak_rss_bytes / (1024.0 * 1024.0),
                    args.rss_limit_mb,
                ),
                file=sys.stderr,
            )
            return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: parse ``argv`` (default ``sys.argv[1:]``),
    dispatch to the subcommand, return the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        # No subcommand: print the full help, exit 2 (usage error).
        parser.print_help(sys.stderr)
        return 2
    if args.command == "topology":
        return _cmd_topology(args)
    if args.command == "scenario":
        return _cmd_scenario(args)
    if args.command == "replay":
        return _cmd_replay(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "assess":
        return _cmd_assess(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "loadtest":
        return _cmd_loadtest(args)
    if args.command == "soak":
        return _cmd_soak(args)
    raise AssertionError("unhandled command {!r}".format(args.command))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
