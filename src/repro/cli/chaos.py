"""``repro chaos``: a fault-injection campaign on a mesh, which
:func:`repro.faults.run_campaign` builds (network and service) itself."""

from __future__ import annotations

import argparse
import sys

from . import SCHEME_CHOICES, positive_float, trace_collector, write_trace


def register(sub) -> None:
    """Add the ``chaos`` subparser."""
    chaos = sub.add_parser(
        "chaos", help="run a fault-injection chaos campaign"
    )
    chaos.add_argument("--rows", type=int, default=8, help="mesh rows")
    chaos.add_argument("--cols", type=int, default=8, help="mesh cols")
    chaos.add_argument("--capacity", type=float, default=30.0)
    chaos.add_argument("--scheme", choices=SCHEME_CHOICES, default="D-LSR")
    chaos.add_argument("--rate", type=positive_float, default=2.0,
                       help="Poisson arrival rate (connections/second)")
    chaos.add_argument("--duration", type=positive_float, default=600.0,
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
    chaos.set_defaults(handler=_cmd_chaos)


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from ..faults import CampaignConfig, FaultPlan, run_campaign
    from ..observability import UNTRACED

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
    collector = trace_collector(args)
    # The root every chaos.* action span (and the service spans under
    # them) hangs off; the --verify rerun below runs untraced.
    with collector.span(
        "chaos.campaign", "chaos",
        plan=plan.name, scheme=config.scheme, seed=config.seed,
    ) if collector is not None else UNTRACED:
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
        # The default sits under benchmarks/results/, which is
        # gitignored, so ad-hoc logs stay out of the repository root.
        log_path = Path(args.log if args.log is not None else
                        "benchmarks/results/chaos_{}_seed{}.log".format(
                            args.scheme, args.seed))
        log_path.parent.mkdir(parents=True, exist_ok=True)
        log_path.write_text(report.format() + "\n")
        print("wrote campaign log to {}".format(log_path))
    write_trace(collector, args, "chaos")
    if args.report:
        with open(args.report, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2)
        print("wrote report to {}".format(args.report))
    return 0
