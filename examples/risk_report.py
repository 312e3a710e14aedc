#!/usr/bin/env python
"""Operator risk report: where would a failure hurt this network?

The paper's metric (P_act-bk) averages over all failures; an operator
running DRTP wants the disaggregated view before the failure happens:

* which links are load-bearing and how many connections each failure
  would strand (worst-first),
* which connections are effectively unprotected against some single
  failure,
* how much worse things get if the single-failure fault-model
  assumption is violated (two links at once),
* and what a switch (node) outage would do.

Run:  python examples/risk_report.py
"""

from __future__ import annotations

import random

from repro import DLSRScheme, DRTPService, waxman_network
from repro.analysis import (
    assess_double_failures,
    connection_exposures,
    format_table,
    rank_link_risks,
)
from repro.core import ENDPOINT_FAILED


def main() -> None:
    rng = random.Random(99)
    network = waxman_network(45, capacity=14.0, rng=rng)
    service = DRTPService(network, DLSRScheme())

    # Load the network to a realistic operating point.
    attempts = 0
    while attempts < 600 and service.active_connection_count < 160:
        a, b = rng.randrange(45), rng.randrange(45)
        if a != b:
            service.request(a, b, 1.0)
        attempts += 1
    print(
        "network loaded: {} DR-connections active, {:.0%} bandwidth "
        "committed".format(
            service.active_connection_count, service.state.utilization()
        )
    )

    # 1. Link risk ranking.
    risks = rank_link_risks(service, top=8)
    rows = [
        (
            "{}->{}".format(risk.src, risk.dst),
            risk.primaries_crossing,
            risk.would_recover,
            risk.would_fail,
            "{:.0%}".format(risk.recovery_ratio),
            dict(risk.failure_reasons) or "",
        )
        for risk in risks
    ]
    print()
    print(
        format_table(
            ("link", "primaries", "recover", "strand", "ratio", "why"),
            rows,
            title="top-8 riskiest links (worst single failures first)",
        )
    )

    # 2. Connection exposure.
    exposures = connection_exposures(service)
    exposed = [e for e in exposures if e.exposure > 0]
    print()
    if exposed:
        print(
            "{} of {} connections are exposed to at least one "
            "unrecoverable single link failure:".format(
                len(exposed), len(exposures)
            )
        )
        rows = [
            (
                e.connection_id,
                e.primary_hops,
                e.backup_count,
                len(e.unrecoverable_links),
                "{:.0%}".format(e.exposure),
            )
            for e in exposed[:8]
        ]
        print(
            format_table(
                ("conn", "primary hops", "backups", "bad links", "exposure"),
                rows,
            )
        )
    else:
        print(
            "every one of the {} connections survives any single link "
            "failure".format(len(exposures))
        )

    # 3. Fault-model stress: pairs of simultaneous failures.
    single_attempts = single_success = 0
    for _link_id, impact in service.sweep_link_failures():
        single_attempts += impact.affected
        single_success += impact.activated
    double = assess_double_failures(
        service, max_pairs=400, rng=random.Random(1)
    )
    print()
    print(
        "single-failure recovery: {:.2%} ({} attempts); "
        "double-failure recovery: {:.2%} ({} sampled pairs)".format(
            single_success / single_attempts,
            single_attempts,
            double.p_act_bk,
            double.pairs_assessed,
        )
    )

    # 4. Switch outages.
    worst_node = None
    for node in network.nodes():
        impact = service.assess_node_failure(node)
        # Connections ending at the dead switch make no recovery attempt.
        impact.outcomes = [
            o for o in impact.outcomes if o.reason != ENDPOINT_FAILED
        ]
        if worst_node is None or impact.failed > worst_node[1].failed:
            worst_node = (node, impact)
    node, impact = worst_node
    print()
    print(
        "worst switch outage: node {} affects {} transit connections, "
        "{} recover, {} strand ({})".format(
            node,
            impact.affected,
            impact.activated,
            impact.failed,
            impact.reasons() or "clean",
        )
    )


if __name__ == "__main__":
    main()
