"""Reactive recovery baseline (Section 1's "reactive schemes").

Reactive schemes "deal with failures only after their occurrences":
no backup channel exists and no spare bandwidth is reserved; when the
primary fails, a brand-new route is computed over whatever bandwidth
happens to be free.  The paper's motivation for DRTP is that this
"cannot give any guarantee on failure recovery due to potential
resource shortage and/or contention" — the ablation benchmarks use
this baseline to put a number on that claim.

:class:`ReactiveScheme` routes primaries only;
:func:`assess_reactive_recovery` mirrors
:func:`repro.core.recovery.assess_link_failure` for the reactive
world: affected connections sequentially try to re-route on residual
free bandwidth (the earlier re-route's claim is visible to the later
ones, modeling the paper's recovery contention).
"""

from __future__ import annotations

from typing import Iterable

from ..core.connection import DRConnection
from ..core.recovery import ActivationOutcome, FailureImpact
from ..kernels.search import flat_min_hop_path
from ..network.state import BW_EPSILON, NetworkState
from ..topology.graph import Network
from .base import RoutePlan, RouteQuery, RoutingScheme
from .link_state import plan_primary

#: Outcome reason for a successful reactive re-route.
REROUTED = "rerouted"
#: Outcome reason when no feasible restoration path exists.
NO_RESTORATION_PATH = "no-restoration-path"


class ReactiveScheme(RoutingScheme):
    """Primary-only routing; recovery is attempted post-failure."""

    name = "reactive"
    plans_backups = False

    def plan(self, query: RouteQuery) -> RoutePlan:
        primary = plan_primary(self, query)
        if primary is None:
            return RoutePlan(note="no bandwidth-feasible primary")
        return RoutePlan(primary=primary, note="reactive: no backup reserved")


def assess_reactive_recovery(
    network: Network,
    state: NetworkState,
    connections: Iterable[DRConnection],
    link_id: int,
) -> FailureImpact:
    """Would sequential reactive re-routing restore each victim?

    Each affected connection (establishment order) searches for a
    shortest route from its source to its destination that avoids the
    failed link and has enough *residual free* bandwidth on every
    link; residual accounting makes earlier winners consume capacity
    that later victims cannot reuse.  The victim's own primary
    reservations are treated as released (restoration replaces them).
    """
    impact = FailureImpact(link_id=link_id)
    affected = sorted(
        (
            conn
            for conn in connections
            if conn.is_active and conn.primary_route.uses_link(link_id)
        ),
        key=lambda conn: conn.established_seq,
    )
    if not affected:
        return impact

    # Residual free bandwidth per link id; each victim first returns
    # its own primary bandwidth to the pool.
    residual = [ledger.free_bw for ledger in state.ledgers()]
    down = state.failed_links() | {link_id}

    for conn in affected:
        for b in conn.primary_route.link_ids:
            residual[b] += conn.bw_req
        costs = [
            -1.0 if free + BW_EPSILON < conn.bw_req else 1.0
            for free in residual
        ]
        for b in down:
            costs[b] = -1.0
        route = flat_min_hop_path(
            network, conn.source, conn.destination, costs
        )
        if route is None:
            impact.outcomes.append(
                ActivationOutcome(conn.connection_id, False, NO_RESTORATION_PATH)
            )
            # The failed victim's bandwidth stays released.
            continue
        for b in route.link_ids:
            residual[b] -= conn.bw_req
        impact.outcomes.append(
            ActivationOutcome(conn.connection_id, True, REROUTED)
        )
    return impact
