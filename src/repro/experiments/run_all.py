"""Full reproduction campaign: ``python -m repro.experiments.run_all``.

Regenerates every table and figure of the paper at the chosen scale
(``--scale paper`` for the full-weight campaign, default ``quick``)
and prints paper-style text tables.  This is the module behind the
numbers recorded in ``EXPERIMENTS.md``; ``benchmarks/test_paper.py``
runs reduced slices of the same code paths and asserts the paper's
claims on them.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from ..analysis.report import format_table
from .ablations import (
    activation_pool_ablation,
    backup_count_ablation,
    bf_bound_ablation,
    conflict_awareness_ablation,
    multi_failure_ablation,
    qos_slack_ablation,
    reactive_vs_proactive_ablation,
    spare_policy_ablation,
    staleness_ablation,
    topology_locality_ablation,
)
from .config import SCALES
from .figure4 import chart_figure4, figure4_panel, format_figure4
from .figure5 import chart_figure5, figure5_panel, format_figure5
from .survivability import group_size_ablation, survivability_panel
from .table1 import format_table1

_ABLATION_HEADERS = (
    "variant",
    "P_act-bk",
    "overhead %",
    "acceptance",
    "msgs/req",
)

_SURVIVABILITY_HEADERS = (
    "scheme",
    "variant",
    "max group",
    "P_act-bk",
    "P_act-bk^(g)",
    "acceptance",
    "mean active",
)


def _print(section: str, body: str) -> None:
    print()
    print("=" * 72)
    print(section)
    print("=" * 72)
    print(body)
    sys.stdout.flush()


def main(argv: Sequence[str] = ()) -> None:
    """Regenerate every table and figure of the paper at the chosen
    scale, printing each section and optionally exporting CSV."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale", choices=sorted(SCALES), default="quick",
        help="simulation scale (paper = full-weight campaign)",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="master scenario seed"
    )
    parser.add_argument(
        "--skip-ablations", action="store_true",
        help="only regenerate Table 1 and Figures 4-5",
    )
    parser.add_argument(
        "--export", metavar="DIR", default=None,
        help="also write every figure panel as CSV into DIR",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="shard the figure campaign over N worker processes "
        "(default 1 = the sequential path); results are bit-identical "
        "either way",
    )
    parser.add_argument(
        "--campaign-dir", metavar="DIR", default=None,
        help="checkpoint directory for the sharded campaign (default: "
        "benchmarks/results/campaign_<scale>_seed<seed>)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted sharded campaign from its "
        "checkpoint journal instead of starting over",
    )
    args = parser.parse_args(argv or None)
    scale = SCALES[args.scale]

    started = time.time()

    if args.jobs > 1 or args.resume:
        # Shard the figure grid over a worker pool, then prime the
        # sweep cache: the figure builders below reuse the parallel
        # results and print output identical to the sequential path.
        from ..campaign import CampaignSpec, run_campaign_jobs

        campaign_dir = args.campaign_dir or (
            "benchmarks/results/campaign_{}_seed{}".format(
                args.scale, args.seed
            )
        )
        result = run_campaign_jobs(
            CampaignSpec(scale=args.scale, master_seed=args.seed),
            campaign_dir,
            jobs=max(1, args.jobs),
            resume=args.resume,
            prime_caches=True,
        )
        print(
            "sharded campaign: {} cells over {} worker(s) in {:.1f}s "
            "({} resumed from checkpoint); manifest in {}".format(
                result.manifest["cells_total"], args.jobs,
                result.wall_clock_seconds, result.resumed_cells,
                campaign_dir,
            )
        )

    _print("Table 1", format_table1())

    for degree in (3, 4):
        curves4 = figure4_panel(degree, scale=scale, master_seed=args.seed)
        _print(
            "Figure 4 ({})".format(degree),
            format_figure4(degree, curves4)
            + "\n\n" + chart_figure4(degree, curves4),
        )
        curves5 = figure5_panel(degree, scale=scale, master_seed=args.seed)
        _print(
            "Figure 5 ({})".format(degree),
            format_figure5(degree, curves5)
            + "\n\n" + chart_figure5(degree, curves5),
        )

    if not args.skip_ablations:
        for title, rows in (
            ("Ablation: BF flood bound", bf_bound_ablation(scale=scale)),
            ("Ablation: spare policy", spare_policy_ablation(scale=scale)),
            (
                "Ablation: conflict awareness",
                conflict_awareness_ablation(scale=scale),
            ),
            (
                "Ablation: reactive vs proactive",
                reactive_vs_proactive_ablation(scale=scale),
            ),
            (
                "Ablation: activation pool",
                activation_pool_ablation(scale=scale),
            ),
            (
                "Ablation: backups per connection",
                backup_count_ablation(scale=scale),
            ),
            (
                "Ablation: link-state staleness",
                staleness_ablation(scale=scale),
            ),
            (
                "Ablation: delay-QoS slack",
                qos_slack_ablation(scale=scale),
            ),
            (
                "Ablation: multi-failure fault model",
                multi_failure_ablation(scale=scale),
            ),
            (
                "Ablation: topology locality (Waxman alpha)",
                topology_locality_ablation(scale=scale),
            ),
        ):
            _print(
                title,
                format_table(
                    _ABLATION_HEADERS, [row.as_tuple() for row in rows]
                ),
            )

        _print(
            "Survivability: conduit cuts (SRLG-blind vs SRLG-aware)",
            format_table(
                _SURVIVABILITY_HEADERS,
                [
                    row.as_tuple()
                    for row in survivability_panel(
                        scale=scale, master_seed=args.seed
                    )
                ],
            ),
        )
        _print(
            "Survivability: correlated blast radius (D-LSR)",
            format_table(
                _SURVIVABILITY_HEADERS,
                [
                    row.as_tuple()
                    for row in group_size_ablation(
                        scale=scale, master_seed=args.seed
                    )
                ],
            ),
        )

    if args.export:
        from .export import export_campaign

        written = export_campaign(
            args.export, scale=scale, master_seed=args.seed
        )
        print()
        print("exported {} CSV panels to {}".format(len(written), args.export))

    print()
    print("campaign finished in {:.1f}s at scale {!r}".format(
        time.time() - started, scale.name
    ))


if __name__ == "__main__":
    main()
