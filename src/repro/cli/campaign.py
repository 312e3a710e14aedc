"""``repro campaign run|resume|status``: the sharded figure grid.
:mod:`repro.campaign` loads in the handlers, so a process that never
runs a campaign (``repro serve``) does not import ``multiprocessing``."""

from __future__ import annotations

import argparse
import sys

from ..analysis import format_table
from . import trace_collector, write_trace


def register(sub) -> None:
    """Add the ``campaign`` subparser and its ``run``, ``resume`` and
    ``status`` subcommands."""
    camp = sub.add_parser(
        "campaign",
        help="sharded simulation campaigns (run / resume / status)",
    )
    csub = camp.add_subparsers(dest="campaign_command", required=True)
    camp.set_defaults(handler=_cmd_campaign)

    crun = csub.add_parser(
        "run", help="run a sharded campaign with checkpointing"
    )
    crun.add_argument("--scale", choices=("paper", "quick", "smoke"),
                      default="quick")
    crun.add_argument("--seed", type=int, default=7,
                      help="master scenario seed")
    crun.add_argument("--degrees", default="3,4", metavar="LIST",
                      help="comma-separated average degrees E")
    crun.add_argument("--patterns", default="UT,NT", metavar="LIST",
                      help="comma-separated traffic patterns")
    crun.add_argument("--lambdas", default=None, metavar="LIST",
                      help="comma-separated arrival rates (default: "
                      "each degree's figure-panel x-axis)")
    crun.add_argument("--schemes", default=",".join(
        ("D-LSR", "P-LSR", "BF")), metavar="LIST",
        help="comma-separated routing schemes")
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

    cres = csub.add_parser(
        "resume", help="resume an interrupted campaign from its journal"
    )
    cres.add_argument("--dir", required=True, metavar="DIR")
    cres.add_argument("--jobs", type=int, default=1, metavar="N")
    for parser in (crun, cres):
        parser.add_argument("--trace-dir", default=None, metavar="DIR",
                            help="collect per-cell worker spans and write "
                            "campaign_trace.json/.ndjson into DIR")

    cstat = csub.add_parser(
        "status", help="report campaign progress from the manifest"
    )
    cstat.add_argument("--dir", required=True, metavar="DIR")
    cstat.add_argument("--json", action="store_true",
                       help="print the raw manifest JSON")


def _parse_list(raw: str, convert) -> tuple:
    return tuple(convert(item) for item in raw.split(",") if item.strip())


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    """``run`` and ``resume``: report the result, write the trace."""
    from ..campaign import CampaignSpec, resume_campaign, run_campaign_jobs

    collector = trace_collector(args)
    if args.campaign_command == "resume":
        result = resume_campaign(args.dir, jobs=args.jobs, trace=collector)
    else:
        result = run_campaign_jobs(
            CampaignSpec(
                scale=args.scale,
                degrees=_parse_list(args.degrees, int),
                patterns=_parse_list(args.patterns, str),
                lambdas=(
                    None if args.lambdas is None
                    else _parse_list(args.lambdas, float)
                ),
                schemes=_parse_list(args.schemes, str),
                master_seed=args.seed,
            ),
            args.dir,
            jobs=args.jobs,
            resume=args.resume,
            stop_after_cells=args.stop_after,
            trace=collector,
        )
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
    write_trace(collector, args, "campaign")
    return 0


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    import json

    from ..campaign import campaign_status

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
    if status.get("resumed_cells"):
        rows.append(("resumed cells", status["resumed_cells"]))
    merged = status.get("merged") or {}
    for scheme, stats in (merged.get("observer_stats") or {}).items():
        rows.append(("merged P_act-bk [{}]".format(scheme),
                     "{:.4f}".format(stats["p_act_bk"])))
    print(format_table(("field", "value"), rows))
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from ..campaign import CampaignError

    handler = (_cmd_campaign_status if args.campaign_command == "status"
               else _cmd_campaign_run)
    try:
        return handler(args)
    except CampaignError as exc:
        print("repro campaign: {}".format(exc), file=sys.stderr)
        return 1
