#!/usr/bin/env python
"""Quickstart: set up DR-connections and probe their fault tolerance.

Builds a 60-node Waxman network (the paper's evaluation substrate),
establishes a handful of dependable real-time connections under the
D-LSR routing scheme, then asks, for every link in the network, *what
would happen if that link failed right now* — the exact question
behind the paper's fault-tolerance metric.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import random

from repro import DLSRScheme, DRTPService, waxman_network
from repro.analysis import format_table


def main() -> None:
    rng = random.Random(2001)
    network = waxman_network(60, capacity=30.0, rng=rng)
    print(
        "network: {} nodes, {} unidirectional links, average degree "
        "{:.2f}".format(
            network.num_nodes, network.num_links, network.average_degree()
        )
    )

    service = DRTPService(network, DLSRScheme())

    # Establish 40 random DR-connections of 1 bandwidth unit each.
    endpoints = []
    while len(endpoints) < 40:
        a, b = rng.randrange(60), rng.randrange(60)
        if a != b:
            endpoints.append((a, b))

    rows = []
    for source, destination in endpoints:
        decision = service.request(source, destination, bw_req=1.0)
        if not decision.accepted:
            rows.append((source, destination, "REJECTED", decision.reason, ""))
            continue
        connection = decision.connection
        rows.append(
            (
                source,
                destination,
                "-".join(map(str, connection.primary_route.nodes)),
                "-".join(map(str, connection.backup_route.nodes)),
                connection.backup_overlap_with_primary(),
            )
        )
    print()
    print(
        format_table(
            ("src", "dst", "primary route", "backup route", "overlap"),
            rows[:10],
            title="first 10 DR-connections (D-LSR)",
        )
    )
    print("... plus {} more".format(max(0, len(rows) - 10)))

    # Exhaustive single-link-failure sweep (the P_act-bk measurement).
    attempts = successes = 0
    worst = None
    for _link_id, impact in service.sweep_link_failures():
        attempts += impact.affected
        successes += impact.activated
        if worst is None or impact.failed > worst.failed:
            worst = impact
    print()
    print(
        "single-link-failure sweep: {} affected primaries across all "
        "failures, {} would recover -> P_act-bk = {:.4f}".format(
            attempts, successes, successes / attempts if attempts else 1.0
        )
    )
    if worst is not None and worst.failed:
        link = network.link(worst.link_id)
        print(
            "worst single failure: link {} ({}->{}) strands {} of {} "
            "connections ({})".format(
                worst.link_id,
                link.src,
                link.dst,
                worst.failed,
                worst.affected,
                worst.reasons(),
            )
        )

    # Resource bill: how much spare does protection cost?
    state = service.state
    print()
    print(
        "bandwidth committed: {:.0f} primary + {:.0f} spare of {:.0f} "
        "total ({:.1%} utilization); spare is {:.1%} of the committed "
        "bandwidth".format(
            state.total_prime_bw(),
            state.total_spare_bw(),
            state.total_capacity(),
            state.utilization(),
            state.total_spare_bw()
            / (state.total_prime_bw() + state.total_spare_bw()),
        )
    )


if __name__ == "__main__":
    main()
