"""``repro topology`` and ``repro scenario``: the files a replay reads."""

from __future__ import annotations

import argparse

from ..simulation import generate_scenario
from ..topology import save_network
from . import (
    UsageError,
    add_production_knobs,
    network_and_groups,
    positive_float,
    positive_int,
    production_trace_config,
)


def register(sub) -> None:
    """Add the ``topology`` and ``scenario`` subparsers."""
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
    topo.set_defaults(handler=_cmd_topology)

    scen = sub.add_parser("scenario", help="generate a scenario file")
    scen.add_argument("output", help="where to write the scenario JSON")
    scen.add_argument("--nodes", type=positive_int, default=60)
    scen.add_argument("--rate", type=positive_float, default=0.4,
                      help="mean arrival rate (connections/second)")
    scen.add_argument("--duration", type=positive_float, default=5400.0,
                      help="simulated seconds")
    scen.add_argument("--workload", choices=("poisson", "production"),
                      default="poisson",
                      help="'poisson' is the paper's process; "
                      "'production' layers MMPP bursts and hot-spot "
                      "drift from repro.loadmodel")
    scen.add_argument("--pattern", choices=("UT", "NT"), default="UT",
                      help="endpoint pattern (poisson workload only; "
                      "production always drifts an NT-style hot set)")
    scen.add_argument("--bw", type=positive_float, default=1.0)
    scen.add_argument("--hold-min", type=positive_float, default=1200.0,
                      help="minimum holding time, seconds (paper: 20min)")
    scen.add_argument("--hold-max", type=positive_float, default=3600.0,
                      help="maximum holding time, seconds (paper: 60min)")
    scen.add_argument("--seed", type=int, default=0)
    add_production_knobs(scen)
    scen.set_defaults(handler=_cmd_scenario)


def _cmd_topology(args: argparse.Namespace) -> int:
    network, groups = network_and_groups(args)
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


def _cmd_scenario(args: argparse.Namespace) -> int:
    if args.workload == "production":
        from ..loadmodel import generate_production_scenario

        if args.hot_count >= args.nodes:
            raise UsageError(
                "repro scenario: --hot-count must be below --nodes"
            )
        scenario = generate_production_scenario(
            production_trace_config(args, args.nodes),
            duration=args.duration,
        )
    else:
        from ..simulation.arrivals import HoldingTimeDistribution

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
