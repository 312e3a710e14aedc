"""``repro replay``, ``repro trace`` and ``repro assess``: a topology
file (and a scenario file) run under one routing scheme."""

from __future__ import annotations

import argparse
import random

from ..analysis import (
    FaultToleranceObserver,
    SpareShareObserver,
    format_table,
)
from ..core import ENDPOINT_FAILED
from ..kernels.search import ANSWERS, EXHAUSTIVE
from ..simulation import Scenario, ScenarioSimulator
from . import SCHEME_CHOICES, UsageError, build_service, network_and_groups


def register(sub) -> None:
    """Add the ``replay``, ``trace`` and ``assess`` subparsers."""
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
    replay.set_defaults(handler=_cmd_replay)

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
    trace.set_defaults(handler=_cmd_trace)

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
    assess.set_defaults(handler=_cmd_assess)


def _cmd_replay(args: argparse.Namespace) -> int:
    network, _ = network_and_groups(args)
    scenario = Scenario.load(args.scenario)
    service = build_service(args, network)
    oracle = None
    if args.oracle:
        from ..testing import DifferentialOracle, require_exact

        try:
            for request in scenario.requests:
                require_exact(request.bw_req)
        except ValueError as error:
            raise UsageError("replay --oracle: {}".format(error))
        oracle = service = DifferentialOracle(service)
    ft = FaultToleranceObserver()
    spare = SpareShareObserver()
    result = ScenarioSimulator(
        service, scenario, warmup=args.warmup, snapshot_count=args.snapshots
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
    from ..observability import (
        TraceCollector,
        write_chrome_trace,
        write_ndjson,
    )

    network, _ = network_and_groups(args)
    scenario = Scenario.load(args.scenario)
    # detail=True: the debugging CLI affords the cost decompositions
    # (conflict/q_links per backup search) production tracing skips.
    collector = TraceCollector(max_spans=args.max_spans, detail=True)
    service = build_service(args, network, trace=collector)
    result = ScenarioSimulator(service, scenario, warmup=args.warmup).run()

    label = "drtp-{}".format(service.scheme.name)
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
    network, _ = network_and_groups(args)
    service = build_service(args, network)
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
    for kind, ident, impact in sweep:
        # A connection ending at a dead switch makes no recovery attempt.
        impact.outcomes = [
            o for o in impact.outcomes if o.reason != ENDPOINT_FAILED
        ]
        total_attempts += impact.affected
        total_success += impact.activated
        if worst is None or impact.failed > worst[2].failed:
            worst = (kind, ident, impact)
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
