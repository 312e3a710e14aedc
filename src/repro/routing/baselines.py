"""Baseline routing strategies the paper's schemes are judged against.

* :class:`NoBackupScheme` — plain QoS routing, no dependability.  The
  capacity-overhead metric (Figure 5) is defined relative to this
  baseline: "the difference between the number of D-connections
  without backups and that of each routing scheme".
* :class:`DisjointBackupScheme` — a conflict-blind backup: shortest
  route avoiding the primary, ignoring other connections' backups.
  Isolates the value of APLV/CV conflict awareness.
* :class:`RandomBackupScheme` — random route selection among feasible
  backup candidates; Section 6.2 observes that "even random selection
  can find a backup route with small conflicts" when connectivity is
  high, and this baseline lets the benchmarks test exactly that claim.
"""

from __future__ import annotations

import random
from typing import Optional

from ..kernels.search import flat_bounded_shortest_path, flat_dijkstra
from .base import RoutePlan, RouteQuery, RoutingScheme
from .link_state import LinkStateScheme, plan_primary


class NoBackupScheme(RoutingScheme):
    """Primary-only routing: a service under it admits on the primary
    alone."""

    name = "no-backup"
    plans_backups = False

    def plan(self, query: RouteQuery) -> RoutePlan:
        primary = plan_primary(self, query)
        if primary is None:
            return RoutePlan(note="no bandwidth-feasible primary")
        return RoutePlan(primary=primary, note="scheme provides no backups")


class DisjointBackupScheme(LinkStateScheme):
    """Shortest primary-disjoint backup, blind to conflicts."""

    name = "disjoint"
    conflict_kind = "disjoint"


class RandomBackupScheme(RoutingScheme):
    """Backup chosen by randomized link weights (still Q-penalized for
    primary overlap and bandwidth shortage, still loop-free)."""

    name = "random"

    def __init__(self, rng: Optional[random.Random] = None) -> None:
        super().__init__()
        self._rng = rng or random.Random(0)

    def plan(self, query: RouteQuery) -> RoutePlan:
        primary = plan_primary(self, query)
        if primary is None:
            return RoutePlan(note="no bandwidth-feasible primary")
        # The conflict-blind builder at hop scale 1: ``Q + 1`` on the
        # primary's links and bandwidth-short links, ``1`` elsewhere,
        # ``-1`` on failed links — then one weight in ``[0, 1)`` per
        # link, drawn in link-id order whatever the search will visit.
        ctx = self.context
        rng = self._rng
        costs = [
            cost + rng.random() if cost >= 0.0 else cost
            for cost in ctx.database.kernel_arrays().backup_costs(
                "disjoint", query.bw_req, primary.lset, primary.lset, 1.0
            )
        ]
        # Arbitrary positive floats: no unit phase applies.
        if query.max_hops is None:
            backup = flat_dijkstra(
                ctx.network, query.source, query.destination, costs
            )
        else:
            backup = flat_bounded_shortest_path(
                ctx.network, query.source, query.destination, costs,
                query.max_hops,
            )
        if backup is None:
            return RoutePlan(primary=primary, note="no backup route")
        return RoutePlan(primary=primary, backup=backup)
