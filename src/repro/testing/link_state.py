"""The closure link-state planner, kept as the reference.

:class:`~repro.routing.link_state.LinkStateScheme` plans on flat
tables: one vectorized cost build per search, scalar-encoded costs,
array Dijkstra.  This module keeps the planner it replaced, written
the way the paper states it — one cost *closure* per search, asked of
the link-state database link by link as Dijkstra expands
(``C_i = Q + conflict_term + eps`` as a lexicographic
``(Q + conflict, 1)`` tuple), searched with the naive dict-based
Dijkstra of :mod:`repro.testing.reference`.  The differential oracle's
shadow service (:func:`~repro.testing.oracle.make_reference_service`)
and the conformance suite (``tests/test_kernel_equivalence.py``) hold
the production planner to it: same routes, same tie-breaks.

**Bit-exactness contract:** the batch builders in
:mod:`repro.kernels.arrays` evaluate these closures as array passes.
Any change to a feasibility expression here (for instance the exact
form ``headroom + BW_EPSILON < bw_req`` — *not* algebraically
"equivalent" rewrites, which differ in floating point) or to a
conflict term must be mirrored there, and is otherwise caught as a
divergence.
"""

from __future__ import annotations

from functools import partial
from typing import FrozenSet, Iterable, List, Optional, Tuple

from ..kernels.arrays import CONFLICT_KINDS
from ..network.database import LinkStateDatabase
from ..network.state import BW_EPSILON
from ..routing.base import RoutePlan, RouteQuery, RoutingScheme
from ..routing.costs import Q_PENALTY
from ..routing.link_state import LinkStateScheme
from ..topology.graph import Link, Route
from .reference import (
    LinkCost,
    naive_bounded_shortest_path,
    naive_shortest_path,
)


def primary_link_cost(database: LinkStateDatabase, bw_req: float) -> LinkCost:
    """Minimum-hop primary routing over bandwidth-feasible links.

    Primaries get *hard* feasibility (a primary without bandwidth is
    useless), matching the CDP ``primary_flag`` semantics: the link
    must have ``total_bw − prime_bw − spare_bw ≥ bw_req``.
    """

    def cost(link: Link) -> Optional[Tuple[float, ...]]:
        if database.is_failed(link.link_id):
            return None
        if database.primary_headroom(link.link_id) + BW_EPSILON < bw_req:
            return None
        return (1.0,)

    return cost


def _q_penalty(
    database: LinkStateDatabase,
    link: Link,
    bw_req: float,
    primary_lset: FrozenSet[int],
) -> float:
    """Eq. 4's ``Q`` term for one link (0 when neither condition holds)."""
    if link.link_id in primary_lset:
        return Q_PENALTY
    if database.backup_headroom(link.link_id) + BW_EPSILON < bw_req:
        return Q_PENALTY
    return 0.0


def _q_penalty_groups(
    database: LinkStateDatabase,
    link: Link,
    bw_req: float,
    avoid_groups: FrozenSet[int],
) -> float:
    """SRLG generalization of the ``Q`` term: a backup link is charged
    ``Q`` when it shares a *risk group* with any link it must survive
    (the primary, plus sibling backups), not merely when it *is* one of
    those links.  With singleton groups the two tests coincide, so this
    path reduces bit-identically to :func:`_q_penalty`."""
    if database.risk_groups.group_of(link.link_id) in avoid_groups:
        return Q_PENALTY
    if database.backup_headroom(link.link_id) + BW_EPSILON < bw_req:
        return Q_PENALTY
    return 0.0


def backup_cost(
    kind: str,
    database: LinkStateDatabase,
    bw_req: float,
    primary_lset: Iterable[int],
    avoid_lset: Optional[Iterable[int]] = None,
) -> LinkCost:
    """The backup link cost ``(Q + conflict, 1 hop)`` as a closure.

    ``kind`` picks the conflict term: ``"plsr"`` is ``||APLV_i||_1``
    (Eq. 4), ``"dlsr"`` is ``Σ_{L_j∈LSET_P} c_{i,j}`` (Section 3.2),
    ``"disjoint"`` is 0 — the conflict-blind baseline that isolates how
    much fault tolerance comes from conflict awareness as opposed to
    mere primary-disjointness.  ``avoid_lset`` extends the
    ``Q``-charged set beyond the primary — used when planning second
    and further backups, which should also stay off the already-chosen
    backup routes.

    When the network carries an SRLG assignment every term generalizes
    per-group: ``Q`` is charged for sharing a risk group with the
    avoided set, P-LSR's scalar counts backups per group and D-LSR's
    sum runs over the primary's risk groups, counting each correlated
    failure domain once.
    """
    if kind not in CONFLICT_KINDS:
        raise ValueError("unknown conflict kind {!r}".format(kind))
    lset = frozenset(primary_lset)
    avoid = frozenset(avoid_lset) if avoid_lset is not None else lset
    grouped = database.has_risk_groups
    if grouped:
        avoid = database.risk_groups.groups_of(avoid)
    q_penalty = _q_penalty_groups if grouped else _q_penalty
    l1 = database.group_aplv_l1 if grouped else database.aplv_l1
    count = (
        database.group_conflict_count if grouped else database.conflict_count
    )

    def cost(link: Link) -> Optional[Tuple[float, ...]]:
        if database.is_failed(link.link_id):
            return None
        q = q_penalty(database, link, bw_req, avoid)
        if kind == "plsr":
            q += l1(link.link_id)
        elif kind == "dlsr":
            q += count(link.link_id, lset)
        return (q, 1.0)

    return cost


plsr_backup_cost = partial(backup_cost, "plsr")
dlsr_backup_cost = partial(backup_cost, "dlsr")
disjoint_backup_cost = partial(backup_cost, "disjoint")


class ReferenceLinkStateScheme(RoutingScheme):
    """A link-state scheme planned with cost closures and the naive
    searches, against whatever database it is bound to.  With
    ``num_backups=0`` it is the planner's primary half alone — the
    reference of the primary-only baselines."""

    def __init__(self, name: str, conflict_kind: str, num_backups: int = 1):
        super().__init__()
        self.name = name
        self.conflict_kind = conflict_kind
        self.num_backups = num_backups

    @classmethod
    def shadowing(cls, scheme: LinkStateScheme) -> "ReferenceLinkStateScheme":
        """An unbound reference scheme configured like ``scheme``."""
        return cls(scheme.name, scheme.conflict_kind, scheme.num_backups)

    def _search(self, query: RouteQuery, cost: LinkCost) -> Optional[Route]:
        network = self.context.network
        if query.max_hops is None:
            return naive_shortest_path(
                network, query.source, query.destination, cost
            )
        return naive_bounded_shortest_path(
            network, query.source, query.destination, cost, query.max_hops
        )

    def _backup_search(
        self,
        query: RouteQuery,
        primary_lset: FrozenSet[int],
        avoid_lset: FrozenSet[int],
    ) -> Optional[Route]:
        return self._search(
            query,
            backup_cost(
                self.conflict_kind,
                self.context.database,
                query.bw_req,
                primary_lset,
                avoid_lset,
            ),
        )

    def plan(self, query: RouteQuery) -> RoutePlan:
        primary = self._search(
            query, primary_link_cost(self.context.database, query.bw_req)
        )
        if primary is None:
            return RoutePlan(note="no bandwidth-feasible primary within QoS")
        backups: List[Route] = []
        avoid = set(primary.lset)
        seen = {primary.lset}
        for _ in range(self.num_backups):
            route = self._backup_search(query, primary.lset, frozenset(avoid))
            if route is None or route.lset in seen:
                break
            backups.append(route)
            seen.add(route.lset)
            avoid.update(route.lset)
        if not backups:
            return RoutePlan(primary=primary, note="no backup route")
        return RoutePlan(
            primary=primary,
            backup=backups[0],
            extra_backups=tuple(backups[1:]),
        )

    def plan_backup(self, query: RouteQuery, primary: Route) -> Optional[Route]:
        """Single-backup search against an established primary (the
        reconfiguration entry point)."""
        if not self.num_backups:
            return None
        return self._backup_search(query, primary.lset, primary.lset)
