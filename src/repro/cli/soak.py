"""``repro soak``: a long production trace through one service."""

from __future__ import annotations

import argparse
import sys

from ..analysis import format_table
from . import (
    SCHEME_CHOICES,
    UsageError,
    add_production_knobs,
    build_service,
    network_and_groups,
    positive_float,
    positive_int,
    production_trace_config,
)


def register(sub) -> None:
    """Add the ``soak`` subparser."""
    soak = sub.add_parser(
        "soak",
        help="long-horizon churn soak: stream a production trace "
        "(MMPP x hot-spot drift) through one service, with windowed "
        "metrics and peak-RSS accounting",
    )
    soak.add_argument("--topology", default=None, metavar="PATH",
                      help="topology JSON (default: generate a Waxman "
                      "graph from --nodes/--degree/--capacity)")
    soak.add_argument("--nodes", type=positive_int, default=500)
    soak.add_argument("--degree", type=positive_float, default=4.0,
                      help="Waxman average degree target")
    soak.add_argument("--capacity", type=positive_float, default=40.0)
    soak.add_argument("--scheme", choices=SCHEME_CHOICES, default="P-LSR")
    soak.add_argument("--admissions", type=positive_int, default=100_000,
                      help="admission attempts to sustain")
    soak.add_argument("--rate", type=positive_float, default=50.0,
                      help="long-run mean arrival rate (connections "
                      "per simulated second)")
    soak.add_argument("--hold-min", type=positive_float, default=20.0,
                      help="minimum holding time, simulated seconds "
                      "(short holds = high churn)")
    soak.add_argument("--hold-max", type=positive_float, default=60.0,
                      help="maximum holding time, simulated seconds")
    soak.add_argument("--bw", type=positive_float, default=1.0)
    soak.add_argument("--seed", type=int, default=0)
    soak.add_argument("--window", type=positive_int, default=10_000,
                      help="admissions per measurement window")
    soak.add_argument("--out", default=None, metavar="PATH",
                      help="write the JSON soak report here")
    soak.add_argument("--rss-limit-mb", type=positive_float, default=None,
                      help="fail (exit 1) if peak RSS exceeds this")
    soak.add_argument("--quiet", action="store_true",
                      help="suppress per-window progress lines")
    add_production_knobs(soak)
    soak.set_defaults(handler=_cmd_soak, kind="waxman")


def _cmd_soak(args: argparse.Namespace) -> int:
    import json

    from ..loadmodel import ProductionTraceGenerator, SoakEngine

    network, _ = network_and_groups(args)
    if args.hot_count >= network.num_nodes:
        raise UsageError(
            "repro soak: --hot-count must be below the node count"
        )
    service = build_service(args, network)
    config = production_trace_config(args, network.num_nodes)
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

    report = SoakEngine(
        service,
        ProductionTraceGenerator(config),
        window=args.window,
        progress=progress,
    ).run(args.admissions)
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
        payload = dict(
            report.to_dict(), scheme=args.scheme, nodes=network.num_nodes,
            links=network.num_links, seed=args.seed,
        )
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote {}".format(args.out))
    if (args.rss_limit_mb is not None
            and report.peak_rss_bytes > args.rss_limit_mb * 1024 * 1024):
        print(
            "repro soak: peak RSS {:.1f} MiB exceeds the {:.1f} MiB "
            "ceiling".format(
                report.peak_rss_bytes / (1024.0 * 1024.0), args.rss_limit_mb,
            ),
            file=sys.stderr,
        )
        return 1
    return 0
