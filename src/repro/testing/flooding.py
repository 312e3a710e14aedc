"""The naive bounded flood (Section 4), kept as the reference.

:class:`~repro.routing.flooding.BoundedFloodingScheme` runs its flood
over flat tables: tuple CDPs, link tests judged once per flood, bitmask
overlap.  This module keeps the flood it replaced, object for object as
the paper lists them — a frozen :class:`CDP` per transmitted copy, a
:class:`PendingEntry` per PCT row, a fully-built
:class:`~repro.topology.graph.Route` per CRT row, every test re-asked
of the database and the per-node
:class:`~repro.topology.distance.DistanceTable` for every copy, and
selection over ``LSET`` frozensets.  The lockstep suite
(``tests/test_flood_lockstep.py``) and the differential oracle's shadow
service hold the production flood to it: same candidates in the same
arrival order, same four counters, same plans.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..network.state import BW_EPSILON
from ..routing.base import RouteQuery
from ..routing.flooding import (
    BoundedFloodingScheme,
    CRTEntry,
    FloodingError,
    FloodResult,
)
from ..topology.distance import UNREACHABLE
from ..topology.graph import Route


@dataclass(frozen=True)
class CDP:
    """Channel-discovery packet (Section 4.1 field list)."""

    srce_id: int
    dest_id: int
    conn_id: int
    hc_limit: int
    hc_curr: int
    bw_req: float
    primary_flag: bool
    path: Tuple[int, ...]  # the paper's ``list``: nodes traversed so far


@dataclass
class PendingEntry:
    """One Pending Connection Table (PCT) row (Section 4.1)."""

    conn_id: int
    bw_req: float
    min_dist: int
    time_out: float


class ReferenceFloodingScheme(BoundedFloodingScheme):
    """Bounded flooding with the object flood and set-based selection;
    everything else (parameters, :meth:`plan`) is inherited."""

    #: Section 4.1 sizes the PCT/CRT timeouts from it ("no less than
    #: the average link delay times the hop limit"); the synchronous
    #: flood never lets one expire.
    average_link_delay = 0.01

    @classmethod
    def shadowing(cls, scheme: BoundedFloodingScheme) -> "ReferenceFloodingScheme":
        """An unbound reference scheme configured like ``scheme``."""
        shadow = cls(
            parameters=scheme.parameters,
            num_backups=scheme.num_backups,
        )
        shadow.max_deliveries = scheme.max_deliveries
        return shadow

    def flood(self, query: RouteQuery, conn_id: int = 0) -> FloodResult:
        """The object flood: one :class:`CDP` per transmitted copy, one
        :class:`PendingEntry` per node reached, one
        :class:`~repro.topology.graph.Route` per candidate."""
        ctx = self.context
        network = ctx.network
        database = ctx.database
        tables = ctx.distance_tables
        result = FloodResult()

        min_distance = tables[query.source].distance(query.destination)
        if min_distance == UNREACHABLE:
            return result
        hc_limit = self.parameters.hop_limit(min_distance)
        if query.max_hops is not None:
            # The delay-QoS bound tightens the flood region: no route
            # longer than max_hops is usable, so none is discovered.
            hc_limit = min(hc_limit, query.max_hops)
        result.hc_limit = hc_limit
        timeout = self.average_link_delay * hc_limit

        pct: Dict[int, PendingEntry] = {}
        seed = CDP(
            srce_id=query.source,
            dest_id=query.destination,
            conn_id=conn_id,
            hc_limit=hc_limit,
            hc_curr=0,
            bw_req=query.bw_req,
            primary_flag=True,
            path=(),
        )
        queue: deque = deque()
        # Section 4.2: the source applies the distance and bandwidth
        # tests per neighbor, then updates and forwards.
        self._forward_from(query.source, seed, queue, result)

        reached = {query.source}
        deliveries = 0
        while queue:
            node, packet = queue.popleft()
            deliveries += 1
            if deliveries > self.max_deliveries:
                raise FloodingError(
                    "flood for {}->{} exceeded {} deliveries".format(
                        query.source, query.destination, self.max_deliveries
                    )
                )
            reached.add(node)
            if node == query.destination:
                route_nodes = packet.path + (node,)
                result.candidates.append(
                    CRTEntry(
                        primary_flag=packet.primary_flag,
                        hop_count=packet.hc_curr,
                        route=Route.from_nodes(network, route_nodes),
                    )
                )
                continue
            entry = self._pct_for(pct, node, packet, timeout)
            if entry is None:
                continue  # failed the valid-detour test
            self._forward_from(node, packet, queue, result)

        result.nodes_reached = len(reached)
        result.deliveries = deliveries
        return result

    def _pct_for(
        self,
        pct: Dict[int, PendingEntry],
        node: int,
        packet: CDP,
        timeout: float,
    ) -> Optional[PendingEntry]:
        """Apply the valid-detour test and maintain the node's PCT.

        The PCT dict is keyed by ``(node, conn_id)`` conceptually; the
        flood handles a single connection, so the node id suffices.
        Returns ``None`` when the packet must be dropped.
        """
        key = node
        entry = pct.get(key)
        if entry is None:
            pct[key] = PendingEntry(
                conn_id=packet.conn_id,
                bw_req=packet.bw_req,
                min_dist=packet.hc_curr,
                time_out=timeout,
            )
            return pct[key]
        # Section 4.3: an additional test on packets seen again.
        limit = self.parameters.alpha * entry.min_dist + self.parameters.beta
        if packet.hc_curr > limit:
            return None
        if packet.hc_curr < entry.min_dist:
            entry.min_dist = packet.hc_curr
        return entry

    def _forward_from(
        self,
        node: int,
        packet: CDP,
        queue: deque,
        result: FloodResult,
    ) -> None:
        """Apply per-neighbor tests; enqueue updated copies."""
        ctx = self.context
        network = ctx.network
        database = ctx.database
        table = ctx.distance_tables[node]
        # Every copy leaving this node carries the same bumped hop
        # count and the same extended path.
        hc_next = packet.hc_curr + 1
        path_next = packet.path + (node,)
        for link in network.out_links(node):
            neighbor = link.dst
            # Failed links carry nothing (topology-change information
            # propagates immediately in the fault model).
            if database.is_failed(link.link_id):
                continue
            # Loop-freedom test (trivially passes at the source).
            if neighbor in packet.path:
                continue
            # Distance test: can the CDP still make it in time?
            remaining = table.via(packet.dest_id, neighbor)
            if remaining == UNREACHABLE:
                continue
            if packet.hc_curr + remaining + 1 > packet.hc_limit:
                continue
            # Bandwidth test: usable at least as a spare-sharing backup.
            if database.backup_headroom(link.link_id) + BW_EPSILON < packet.bw_req:
                continue
            # Update: recalculate primary_flag, bump hc_curr, append i.
            flag = packet.primary_flag and (
                database.primary_headroom(link.link_id) + BW_EPSILON
                >= packet.bw_req
            )
            # Built positionally (the CDP field order): this runs once
            # per transmission, where dataclasses.replace() is slow.
            forwarded = CDP(
                packet.srce_id,
                packet.dest_id,
                packet.conn_id,
                packet.hc_limit,
                hc_next,
                packet.bw_req,
                flag,
                path_next,
            )
            result.cdp_transmissions += 1
            queue.append((neighbor, forwarded))

    # ------------------------------------------------------------------
    # Destination selection (Section 4.4)
    # ------------------------------------------------------------------
    @staticmethod
    def _overlap(lset, other_lset, risk_groups) -> int:
        """Selection overlap between two link sets: shared links
        without an SRLG assignment, shared *risk groups* with one.
        Singleton groups map each link to its own group, so the two
        counts coincide and selection is unchanged."""
        if risk_groups is None:
            return len(lset & other_lset)
        return len(
            risk_groups.groups_of(lset) & risk_groups.groups_of(other_lset)
        )

    @staticmethod
    def select_routes(
        candidates: List[CRTEntry],
        risk_groups=None,
    ) -> Tuple[Optional[Route], Optional[Route]]:
        """Pick (primary, backup) from a CRT.

        Primary: shortest candidate with ``primary_flag = 1`` (first
        arrival among equals).  Backup: among all remaining candidates,
        minimize ``(overlap with primary, hop count, arrival order)``
        — overlap counted per risk group when an SRLG assignment is
        supplied.
        """
        primary_entry = None
        primary_index = -1
        for index, entry in enumerate(candidates):
            if not entry.primary_flag:
                continue
            if primary_entry is None or entry.hop_count < primary_entry.hop_count:
                primary_entry = entry
                primary_index = index
        if primary_entry is None:
            return None, None
        best_backup = None
        best_key = None
        for index, entry in enumerate(candidates):
            if index == primary_index:
                continue
            overlap = ReferenceFloodingScheme._overlap(
                entry.route.lset, primary_entry.route.lset, risk_groups
            )
            key = (overlap, entry.hop_count, index)
            if best_key is None or key < best_key:
                best_key = key
                best_backup = entry
        backup = best_backup.route if best_backup is not None else None
        return primary_entry.route, backup

    @staticmethod
    def select_routes_multi(
        candidates: List[CRTEntry], num_backups: int, risk_groups=None
    ) -> Tuple[Optional[Route], List[Route]]:
        """Pick the primary plus up to ``num_backups`` backups.

        Backups are chosen greedily: each next backup minimizes
        ``(overlap with primary and already-chosen backups, hop count,
        arrival order)`` among the remaining candidates, so a second
        backup prefers routes disjoint from both the primary and the
        first backup.
        """
        primary, first = ReferenceFloodingScheme.select_routes(
            candidates, risk_groups
        )
        if primary is None or first is None:
            return primary, []
        backups = [first]
        taken = {primary.lset, first.lset}
        avoid = set(primary.lset) | set(first.lset)
        while len(backups) < num_backups:
            best = None
            best_key = None
            for index, entry in enumerate(candidates):
                if entry.route.lset in taken:
                    continue
                overlap = ReferenceFloodingScheme._overlap(
                    entry.route.lset, avoid, risk_groups
                )
                key = (overlap, entry.hop_count, index)
                if best_key is None or key < best_key:
                    best_key = key
                    best = entry.route
            if best is None:
                break
            backups.append(best)
            taken.add(best.lset)
            avoid.update(best.lset)
        return primary, backups

    def plan_backup(self, query: RouteQuery, primary: Route):
        """Re-flood and pick the candidate that minimally overlaps the
        *established* primary (reconfiguration path)."""
        result = self.flood(query)
        risk_groups = self._risk_groups()
        best = None
        best_key = None
        for index, entry in enumerate(result.candidates):
            if entry.route.lset == primary.lset:
                continue  # the primary itself is not a backup
            overlap = self._overlap(
                entry.route.lset, primary.lset, risk_groups
            )
            key = (overlap, entry.hop_count, index)
            if best_key is None or key < best_key:
                best_key = key
                best = entry.route
        return best
