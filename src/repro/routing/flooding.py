"""BF: routing with bounded flooding (Section 4).

Instead of maintaining extended link-state databases, BF discovers
routes on demand: the source floods a *channel-discovery packet* (CDP)
toward the destination, every node forwards copies only while four
tests pass, and the destination picks the primary and backup from the
candidate routes that survived.

The tests (Sections 4.2–4.3), for node ``i`` forwarding CDP ``m`` to
neighbor ``k``:

* **distance**:  ``hc_curr(m) + D_{dest,k} + 1 ≤ hc_limit(m)`` — the
  CDP can still reach the destination within the flood bound
  ``hc_limit = ρ·D + p`` (an ellipse-like region with the endpoints
  as loci);
* **loop-freedom**:  ``k ∉ list(m)``;
* **bandwidth**:  ``bw_req(m) ≤ total_bw(i,k) − prime_bw(i,k)`` — the
  link could carry the connection at least as a (spare-sharing)
  backup;
* **valid-detour** (only when ``i`` has seen this connection before):
  ``hc_curr(m) ≤ α·min_dist + β`` where ``min_dist`` is the shortest
  hop count any copy took to reach ``i``.

The flood is simulated synchronously with a FIFO delivery queue —
equivalent to uniform link delays — and every CDP transmission is
counted, feeding the discovery-overhead comparison of Section 6.

Destination selection (Section 4.4): primary = shortest candidate
with ``primary_flag = 1``; backup = among the remaining candidates,
the one that minimally overlaps the primary, shortest first among
equals (the paper's "shortest one that minimally overlaps").
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..kernels.bitset import mask_from_ids
from ..network.state import BW_EPSILON
from ..observability.spans import spanned
from ..topology.distance import UNREACHABLE
from ..topology.graph import Route
from .base import RoutePlan, RouteQuery, RoutingContext, RoutingScheme


class FloodingError(RuntimeError):
    """Raised when a flood exceeds the runaway-safety cap."""


@dataclass(frozen=True)
class BFParameters:
    """The four bounded-flooding knobs.

    ``hc_limit = floor(rho * D) + p`` bounds the flooded region
    (Section 4.1 requires ``rho ≥ 1``, ``p ≥ 0``); ``alpha`` and
    ``beta`` parameterize the valid-detour test (Section 4.3).  The
    evaluation uses ``rho = alpha = 1, p = beta = 2`` — "increasing
    the flooding area beyond this barely improves the performance".
    """

    rho: float = 1.0
    p: int = 2
    alpha: float = 1.0
    beta: int = 2

    def __post_init__(self) -> None:
        if self.rho < 1.0:
            raise ValueError("rho must be >= 1, got {}".format(self.rho))
        if self.p < 0:
            raise ValueError("p must be >= 0, got {}".format(self.p))
        if self.alpha < 1.0:
            raise ValueError("alpha must be >= 1, got {}".format(self.alpha))
        if self.beta < 0:
            raise ValueError("beta must be >= 0, got {}".format(self.beta))

    def hop_limit(self, min_distance: float) -> int:
        return int(math.floor(self.rho * min_distance)) + self.p


class CRTEntry:
    """One Candidate Route Table row: a route that reached the
    destination, with the flag saying whether it can host the primary.

    A flood files a row as the CDP's node and link-id tuples plus the
    link bitmask selection computes overlap on; the :class:`Route` is
    built on first read of :attr:`route`, so only the rows selection
    actually picks ever pay for one.
    """

    __slots__ = (
        "primary_flag", "hop_count", "nodes", "link_ids", "link_mask",
        "_route",
    )

    def __init__(self, primary_flag: bool, hop_count: int,
                 route: Route) -> None:
        self.primary_flag = primary_flag
        self.hop_count = hop_count
        self.nodes = route.nodes
        self.link_ids = route.link_ids
        self.link_mask = mask_from_ids(route.link_ids)
        self._route: Optional[Route] = route

    @classmethod
    def from_cdp(cls, primary_flag: bool, nodes: Tuple[int, ...],
                 link_ids: Tuple[int, ...], link_mask: int) -> "CRTEntry":
        """The row a delivered CDP files; no :class:`Route` yet."""
        entry = cls.__new__(cls)
        entry.primary_flag = primary_flag
        entry.hop_count = len(link_ids)
        entry.nodes = nodes
        entry.link_ids = link_ids
        entry.link_mask = link_mask
        entry._route = None
        return entry

    @property
    def route(self) -> Route:
        route = self._route
        if route is None:
            route = self._route = Route(self.nodes, self.link_ids)
        return route

    def __eq__(self, other) -> bool:
        if not isinstance(other, CRTEntry):
            return NotImplemented
        return (
            self.primary_flag == other.primary_flag
            and self.hop_count == other.hop_count
            and self.nodes == other.nodes
            and self.link_ids == other.link_ids
        )

    def __repr__(self) -> str:
        return "CRTEntry(primary_flag={!r}, hop_count={!r}, nodes={!r})".format(
            self.primary_flag, self.hop_count, self.nodes
        )


@dataclass
class FloodResult:
    """Everything a flood produced, for selection and accounting.

    ``deliveries`` counts dequeued CDP copies and ``hc_limit`` records
    the flood bound actually used (0 when the destination was
    unreachable and no flood ran) — both feed the ``route.flood``
    trace span.
    """

    candidates: List[CRTEntry] = field(default_factory=list)
    cdp_transmissions: int = 0
    nodes_reached: int = 0
    deliveries: int = 0
    hc_limit: int = 0


#: Per-flood verdict of the two link tests that do not depend on the
#: CDP: failed or no backup headroom / backup headroom only (clears
#: ``primary_flag``) / primary headroom too.
_BLOCKED, _BACKUP_ONLY, _PRIMARY_OK = 1, 2, 3


class BoundedFloodingScheme(RoutingScheme):
    """On-demand primary+backup discovery via bounded flooding."""

    name = "BF"

    #: Runaway guard: no sane flood on the paper's topologies comes
    #: near this many deliveries.
    max_deliveries = 500_000

    def __init__(self, parameters: Optional[BFParameters] = None,
                 num_backups: int = 1) -> None:
        super().__init__()
        if num_backups < 1:
            raise ValueError(
                "num_backups must be >= 1, got {}".format(num_backups)
            )
        self.parameters = parameters or BFParameters()
        #: Backup channels to pick from the CRT (Section 2's "one or
        #: more"); 1 matches the paper's evaluation.
        self.num_backups = num_backups

    def bind(self, context: RoutingContext) -> None:
        """Attach to a network and lay its topology out flat: per node
        the ``(neighbor, neighbor bit, link id, link bit)`` rows in
        ``out_links`` order, per destination the column of every
        node's distance table the flood's distance test reads."""
        super().bind(context)
        network = context.network
        self._adjacency = tuple(
            tuple(
                (link.dst, 1 << link.dst, link.link_id, 1 << link.link_id)
                for link in network.out_links(node)
            )
            for node in network.nodes()
        )
        # _hops_to[j][k] = D[k][j]: hops from k to destination j.
        self._hops_to = list(zip(*context.hop_counts))
        self._num_links = network.num_links

    # ------------------------------------------------------------------
    # Flooding
    # ------------------------------------------------------------------
    @spanned(
        "route.flood",
        "routing",
        lambda self, query, conn_id=0: dict(
            source=query.source, destination=query.destination
        ),
        lambda result: dict(
            hc_limit=result.hc_limit,
            cdp_transmissions=result.cdp_transmissions,
            deliveries=result.deliveries,
            nodes_reached=result.nodes_reached,
            candidates=len(result.candidates),
        ),
    )
    def flood(self, query: RouteQuery, conn_id: int = 0) -> FloodResult:
        """Run one CDP flood and collect the destination's CRT.

        A CDP in flight is the tuple ``(node, hc_curr, primary_flag,
        path, link_ids, path_mask, link_mask)`` — ``path`` the paper's
        ``list`` (nodes traversed before ``node``), the masks its node
        and link sets as bitsets.  ``srce_id``/``dest_id``/``hc_limit``
        /``bw_req`` are the same on every copy and ``conn_id`` names
        the one connection the flood serves, so they stay locals.  The
        PCT is ``node → min_dist`` for the same reason.
        """
        database = self.context.database
        result = FloodResult()
        source = query.source
        destination = query.destination
        hops_to_destination = self._hops_to[destination]
        min_distance = hops_to_destination[source]
        if min_distance == UNREACHABLE:
            return result
        hc_limit = self.parameters.hop_limit(min_distance)
        if query.max_hops is not None:
            # The delay-QoS bound tightens the flood region: no route
            # longer than max_hops is usable, so none is discovered.
            hc_limit = min(hc_limit, query.max_hops)
        result.hc_limit = hc_limit

        adjacency = self._adjacency
        alpha = self.parameters.alpha
        beta = self.parameters.beta
        max_deliveries = self.max_deliveries
        bw_req = query.bw_req
        # Failed links carry nothing (topology-change information
        # propagates immediately in the fault model).
        failed = database.failed_links()
        # The advertised headroom columns, synced once for the flood.
        tables = database.kernel_arrays().sync()
        backup_headroom = tables.bh
        primary_headroom = tables.ph
        # Neither the bandwidth test nor the primary_flag update
        # depends on the copy, so each link is judged once per flood.
        verdicts = [0] * self._num_links
        candidates = result.candidates
        pct: dict = {}
        transmissions = 0
        # Section 4.2: the source applies the same per-neighbor tests,
        # then updates and forwards — so the flood starts by handing
        # it a seed CDP, which opens the source's PCT row (min_dist 0;
        # loop-freedom keeps every copy away from it afterwards) but
        # is not a delivery.
        deliveries = -1
        queue: deque = deque([(source, 0, True, (), (), 0, 0)])
        while queue:
            (node, hc_curr, flag, path, link_ids, path_mask,
             link_mask) = queue.popleft()
            deliveries += 1
            if deliveries > max_deliveries:
                raise FloodingError(
                    "flood for {}->{} exceeded {} deliveries".format(
                        source, destination, max_deliveries
                    )
                )
            if node == destination:
                candidates.append(CRTEntry.from_cdp(
                    flag, path + (node,), link_ids, link_mask
                ))
                continue
            min_dist = pct.get(node)
            if min_dist is None:
                pct[node] = hc_curr
            # Section 4.3 valid-detour test, on packets seen again.
            elif hc_curr > alpha * min_dist + beta:
                continue
            elif hc_curr < min_dist:
                pct[node] = hc_curr
            # Every copy leaving this node carries the same bumped hop
            # count and the same extended path.
            hc_next = hc_curr + 1
            path_next = path + (node,)
            path_mask_next = path_mask | (1 << node)
            for neighbor, neighbor_bit, link_id, link_bit in adjacency[node]:
                # Loop-freedom test (trivially passes at the source).
                if path_mask & neighbor_bit:
                    continue
                # Distance test: can the CDP still make it in time?
                # (UNREACHABLE is inf and fails it.)
                if hc_next + hops_to_destination[neighbor] > hc_limit:
                    continue
                verdict = verdicts[link_id]
                if not verdict:
                    # Bandwidth test: usable at least as a
                    # spare-sharing backup; primary_flag survives only
                    # where a primary fits too.
                    if (
                        link_id in failed
                        or backup_headroom[link_id] + BW_EPSILON < bw_req
                    ):
                        verdict = _BLOCKED
                    elif primary_headroom[link_id] + BW_EPSILON >= bw_req:
                        verdict = _PRIMARY_OK
                    else:
                        verdict = _BACKUP_ONLY
                    verdicts[link_id] = verdict
                if verdict == _BLOCKED:
                    continue
                transmissions += 1
                queue.append((
                    neighbor,
                    hc_next,
                    flag and verdict == _PRIMARY_OK,
                    path_next,
                    link_ids + (link_id,),
                    path_mask_next,
                    link_mask | link_bit,
                ))

        result.cdp_transmissions = transmissions
        result.deliveries = deliveries
        # Every delivery opened or found a PCT row, except those at the
        # destination.
        result.nodes_reached = len(pct) + bool(candidates)
        return result

    # ------------------------------------------------------------------
    # Destination selection (Section 4.4)
    # ------------------------------------------------------------------
    @staticmethod
    def _least_overlapping(
        candidates: List[CRTEntry],
        avoid_ids,
        risk_groups,
        excluded=(),
        skip: int = -1,
    ) -> Optional[CRTEntry]:
        """The row minimizing ``(overlap with avoid_ids, hop count,
        arrival order)``, passing over row ``skip`` and every row whose
        link bitmask is in ``excluded``.

        Overlap counts shared links without an SRLG assignment, shared
        *risk groups* with one.  Singleton groups map each link to its
        own group, so the two counts coincide and selection is
        unchanged."""
        if risk_groups is None:
            avoid_mask = mask_from_ids(avoid_ids)
        else:
            avoid_groups = risk_groups.groups_of(avoid_ids)
        best = None
        best_key = None
        for index, entry in enumerate(candidates):
            if index == skip or entry.link_mask in excluded:
                continue
            if risk_groups is None:
                overlap = (entry.link_mask & avoid_mask).bit_count()
            else:
                overlap = len(
                    risk_groups.groups_of(entry.link_ids) & avoid_groups
                )
            key = (overlap, entry.hop_count, index)
            if best_key is None or key < best_key:
                best_key = key
                best = entry
        return best

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
        backup_entry = BoundedFloodingScheme._least_overlapping(
            candidates, primary_entry.link_ids, risk_groups,
            skip=primary_index,
        )
        backup = backup_entry.route if backup_entry is not None else None
        return primary_entry.route, backup

    @staticmethod
    @spanned(
        "route.select",
        "routing",
        lambda candidates, num_backups, risk_groups=None: dict(
            candidates=len(candidates)
        ),
        lambda picked: dict(
            primary_found=picked[0] is not None, backups=len(picked[1])
        ),
    )
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
        primary, first = BoundedFloodingScheme.select_routes(
            candidates, risk_groups
        )
        if primary is None or first is None:
            return primary, []
        backups = [first]
        avoid = primary.link_ids + first.link_ids
        taken = {mask_from_ids(primary.link_ids), mask_from_ids(first.link_ids)}
        while len(backups) < num_backups:
            best = BoundedFloodingScheme._least_overlapping(
                candidates, avoid, risk_groups, excluded=taken
            )
            if best is None:
                break
            backups.append(best.route)
            avoid += best.link_ids
            taken.add(best.link_mask)
        return primary, backups

    def _risk_groups(self):
        """The SRLG assignment visible to this scheme, if any."""
        if self._context is None:
            return None
        return self._context.database.risk_groups

    def plan_backup(self, query: RouteQuery, primary: Route):
        """Re-flood and pick the candidate that minimally overlaps the
        *established* primary (reconfiguration path); the primary
        itself is not a backup."""
        result = self.flood(query)
        best = self._least_overlapping(
            result.candidates,
            primary.link_ids,
            self._risk_groups(),
            excluded=(mask_from_ids(primary.link_ids),),
        )
        return best.route if best is not None else None

    def plan(self, query: RouteQuery) -> RoutePlan:
        result = self.flood(query)
        primary, backups = self.select_routes_multi(
            result.candidates, self.num_backups, self._risk_groups()
        )
        plan = RoutePlan(
            primary=primary,
            backup=backups[0] if backups else None,
            extra_backups=tuple(backups[1:]),
            control_messages=result.cdp_transmissions,
            candidates_considered=len(result.candidates),
        )
        if primary is None:
            plan.note = "no candidate route with primary_flag=1"
        elif not backups:
            plan.note = "CRT held no second candidate for the backup"
        return plan
