#!/usr/bin/env python
"""Scheme bake-off: replay one day of traffic under every scheme.

The paper's methodology in miniature: generate one scenario file
(Poisson arrivals, uniform 20–60-minute lifetimes) and replay it under
P-LSR, D-LSR, bounded flooding, the conflict-blind disjoint baseline
and the no-backup baseline, then print the comparison table — fault
tolerance, capacity overhead, acceptance, route-discovery cost.

Run:  python examples/scheme_bakeoff.py            (quick, ~30 s)
      python examples/scheme_bakeoff.py --lam 0.5  (heavier load)
"""

from __future__ import annotations

import argparse
import random

from repro import DRTPService, generate_scenario, waxman_network
from repro.analysis import (
    FaultToleranceObserver,
    SpareShareObserver,
    capacity_overhead_percent,
    format_table,
)
from repro.experiments import make_scheme
from repro.simulation import ScenarioSimulator


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--lam", type=float, default=0.35,
                        help="arrival rate (connections/second)")
    parser.add_argument("--duration", type=float, default=4800.0,
                        help="simulated seconds")
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()

    network = waxman_network(60, capacity=30.0,
                             rng=random.Random(args.seed))
    scenario = generate_scenario(
        num_nodes=60,
        arrival_rate=args.lam,
        duration=args.duration,
        bw_req=1.0,
        pattern="UT",
        seed=args.seed,
    )
    print(
        "scenario: {} requests over {:.0f} min at lambda={}".format(
            scenario.num_requests, args.duration / 60.0, args.lam
        )
    )

    # Baseline first: the capacity yardstick.
    baseline_service = DRTPService(network, make_scheme("no-backup"))
    baseline = ScenarioSimulator(
        baseline_service, scenario, warmup=args.duration / 2,
        snapshot_count=4,
    ).run()
    print(
        "no-backup baseline carries {:.0f} connections on average".format(
            baseline.mean_active_connections
        )
    )

    rows = []
    for name in ("D-LSR", "P-LSR", "BF", "disjoint"):
        ft = FaultToleranceObserver()
        spare = SpareShareObserver()
        service = DRTPService(network, make_scheme(name))
        result = ScenarioSimulator(
            service, scenario, warmup=args.duration / 2, snapshot_count=4
        ).run(observers=(ft, spare))
        rows.append(
            (
                name,
                "{:.4f}".format(ft.stats.p_act_bk),
                "{:.1f}".format(
                    capacity_overhead_percent(
                        baseline.mean_active_connections,
                        result.mean_active_connections,
                    )
                ),
                "{:.3f}".format(result.acceptance_ratio),
                "{:.0f}".format(result.mean_active_connections),
                "{:.1f}".format(
                    result.control_messages / max(1, result.requests)
                ),
                "{:.1%}".format(spare.mean_spare_fraction),
            )
        )

    print()
    print(
        format_table(
            (
                "scheme",
                "P_act-bk",
                "overhead %",
                "acceptance",
                "active",
                "msgs/req",
                "spare share",
            ),
            rows,
            title="one scenario, every scheme (same requests, same network)",
        )
    )


if __name__ == "__main__":
    main()
