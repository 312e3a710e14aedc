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
from typing import Optional, Tuple

from ..topology.graph import Link, Route
from .base import RoutePlan, RouteQuery, RoutingScheme
from .costs import Q_PENALTY, primary_link_cost
from .dijkstra import search
from .link_state import LinkStateScheme


class NoBackupScheme(RoutingScheme):
    """Primary-only routing (use with ``require_backup=False``)."""

    name = "no-backup"

    def plan(self, query: RouteQuery) -> RoutePlan:
        ctx = self.context
        primary = search(
            ctx.network,
            query.source,
            query.destination,
            primary_link_cost(ctx.database, query.bw_req),
            query.max_hops,
        )
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
        ctx = self.context
        primary = search(
            ctx.network,
            query.source,
            query.destination,
            primary_link_cost(ctx.database, query.bw_req),
            query.max_hops,
        )
        if primary is None:
            return RoutePlan(note="no bandwidth-feasible primary")
        lset = primary.lset
        database = ctx.database
        rng = self._rng
        weights = {}

        def cost(link: Link) -> Optional[Tuple[float, ...]]:
            if database.is_failed(link.link_id):
                return None
            q = 0.0
            if link.link_id in lset:
                q = Q_PENALTY
            elif database.backup_headroom(link.link_id) < query.bw_req:
                q = Q_PENALTY
            if link.link_id not in weights:
                weights[link.link_id] = 1.0 + rng.random()
            return (q + weights[link.link_id],)

        backup = search(
            ctx.network, query.source, query.destination, cost, query.max_hops
        )
        if backup is None:
            return RoutePlan(primary=primary, note="no backup route")
        return RoutePlan(primary=primary, backup=backup)
