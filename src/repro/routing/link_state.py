"""Shared machinery of the link-state routing schemes.

P-LSR and D-LSR differ *only* in the conflict term of their backup
link cost (Sections 3.1 vs. 3.2); everything else — min-hop primary
selection, Q/epsilon handling, and the extension to multiple backups —
is common and lives here.  The primary step (:func:`plan_primary`) is
also what the primary-only and random baselines plan with: every
scheme that searches for its primary searches here.

Multi-backup planning (Section 2 allows "one or more backup
channels"): the k-th backup is planned with the ``Q`` penalty extended
to the links of the primary *and* of every already-chosen backup, so
the channels of one DR-connection spread across disjoint routes when
the topology allows.  Planning stops early when the next search can
only return a route identical to one already chosen.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Sequence

from ..kernels.search import (
    EXHAUSTIVE,
    NONE,
    encode_scale,
    flat_bounded_shortest_path,
    flat_min_hop_path,
    flat_shortest_path,
    search_workspace,
)
from ..observability.spans import current_span
from ..topology.graph import Route
from .base import RoutePlan, RouteQuery, RoutingScheme
from .costs import Q_PENALTY


def _flat_search(
    scheme: RoutingScheme,
    query: RouteQuery,
    costs: Sequence[float],
    search: str,
):
    """Dispatch one search over an already-built cost array and return
    the route with how it was answered (one of
    :data:`repro.kernels.search.ANSWERS`), tallying the answer — and
    the nodes an unbounded search's exhaustive step settled — on the
    owning service's counters when the scheme has one: the layered
    hop-bounded search when the query carries a delay bound, the
    unbounded flat search otherwise.

    ``search`` is ``"primary"`` or ``"backup"``.  A primary cost
    array's only allowed value is ``1.0``, which is what
    :func:`flat_min_hop_path` requires; the bounded layered search
    stays on the heap, whose re-expansions BFS cannot replicate — it
    has no unit phase, so whatever it finds it found exhaustively."""
    network = scheme.context.network
    settled = 0
    if query.max_hops is not None:
        route = flat_bounded_shortest_path(
            network, query.source, query.destination, costs, query.max_hops
        )
        answer = NONE if route is None else EXHAUSTIVE
    else:
        if search == "primary":
            route = flat_min_hop_path(
                network, query.source, query.destination, costs
            )
        else:
            route = flat_shortest_path(
                network, query.source, query.destination, costs
            )
        workspace = search_workspace(network)
        answer, settled = workspace.answer, workspace.settled
    if scheme.counters is not None:
        scheme.counters.record_search(search, answer, settled)
    return route, answer


def _cost_breakdown_flat(costs: Sequence[float], route: Route, scale: float):
    """Decompose a chosen route's cost: total of the conflict
    component, the summed conflict with ``Q`` penalties subtracted out,
    and how many links were ``Q``-charged.  Per-link conflict
    components are recovered from the encoded cost array as
    ``(encoded - 1.0) / scale`` — exact, because the encoded value is
    the integer ``conflict * scale + 1`` and both factors are exactly
    representable — then summed in route order."""
    total = 0.0
    q_links = 0
    for link_id in route.link_ids:
        value = (costs[link_id] - 1.0) / scale
        total += value
        if value >= Q_PENALTY:
            q_links += 1
    return total, total - q_links * Q_PENALTY, q_links


#: "No candidate was served — run the search" (``None`` is a servable
#: result: a cached no-route).
_SEARCH = object()


def _traced_flat_search(
    scheme: RoutingScheme,
    query: RouteQuery,
    costs: Sequence[float],
    scale: Optional[float],
    search: str,
    detail: bool = False,
    served=_SEARCH,
    **tags,
):
    """:func:`_flat_search` — or, given ``served``, a warm candidate
    standing in for it — wrapped in a ``route.<search>_search`` span
    under whatever span is open.  The span says
    whether a route was found, its hop count and — when a search ran —
    which step answered it (``answer``); ``detail`` adds the
    conflict-cost breakdown of the chosen route (the backup-search
    evaluation the walkthrough in ``EXPERIMENTS.md`` reads) when the
    span's collector opted into detail-level tags (``scale is None`` for
    primary searches, whose single-component cost has no breakdown to
    report)."""
    parent = current_span()
    if parent is None:
        if served is not _SEARCH:
            return served
        return _flat_search(scheme, query, costs, search)[0]
    with parent.child(
        "route.{}_search".format(search), "routing", **tags
    ) as span:
        route = served
        if route is _SEARCH:
            route, answer = _flat_search(scheme, query, costs, search)
            span.tag(answer=answer)
        if route is None:
            span.tag(found=False)
        else:
            span.tag(found=True, hops=len(route.link_ids))
            if detail and span.detail and scale is not None:
                total, conflict, q_links = _cost_breakdown_flat(
                    costs, route, scale
                )
                span.tag(
                    cost=round(total, 6),
                    conflict=round(conflict, 6),
                    q_links=q_links,
                )
    return route


def _warm_flat_search(
    scheme: RoutingScheme,
    query: RouteQuery,
    costs: Sequence[float],
    scale: Optional[float],
    avoid_lset: FrozenSet[int],
    primary_lset: FrozenSet[int],
    search: str,
    detail: bool = False,
    **tags,
):
    """:func:`_traced_flat_search` behind the warm-candidate cache
    (:mod:`repro.routing.warmstart`).

    The probe key carries every input of the cost build and of the
    search besides the cost array itself — endpoints, hop bound,
    bandwidth, conflict kind, LSET and avoid set — so cache validity
    reduces to "is the cost array unchanged", which the cache proves
    by epoch or digest equality before serving.  A hit returns the
    stored route without searching, under the same span name with
    ``warm=True``; a miss runs the cold search (``warm=False``) and
    stores its result.  Decisions are bit-identical either way."""
    cache = scheme.context.database.warmstart_cache()
    key = (
        scheme.conflict_kind,
        query.source,
        query.destination,
        query.max_hops,
        query.bw_req,
        primary_lset,
        avoid_lset,
    )
    probe = cache.probe(key, costs)
    if probe.hit:
        return _traced_flat_search(
            scheme, query, costs, scale, search, detail=detail,
            served=probe.route, warm=True, **tags
        )
    route = _traced_flat_search(
        scheme, query, costs, scale, search, detail=detail, warm=False,
        **tags
    )
    cache.store(probe, route)
    return route


def plan_primary(scheme: RoutingScheme, query: RouteQuery) -> Optional[Route]:
    """The primary step of every scheme that searches for one: the
    database's tables price each link ``1.0`` (feasible) or ``-1.0``
    (failed, or short of ``bw_req`` — hard feasibility, a primary
    without bandwidth is useless) in one pass, and the min-hop search
    — the layered one under a delay bound — runs over that array
    inside the ``route.primary_search`` span, counted into
    ``drtp_route_searches_total{search="primary"}``."""
    return _traced_flat_search(
        scheme,
        query,
        scheme.context.database.kernel_arrays().primary_costs(query.bw_req),
        None,
        "primary",
    )


class LinkStateScheme(RoutingScheme):
    """Base for schemes that route from the link-state database's
    array tables (:meth:`LinkStateDatabase.kernel_arrays`)."""

    #: Which conflict term of
    #: :meth:`~repro.kernels.arrays.CompiledLinkArrays.backup_costs` is
    #: this scheme's backup link cost (Eq. 4 / Section 3.2).
    conflict_kind: str = ""

    def __init__(self, num_backups: int = 1) -> None:
        super().__init__()
        if num_backups < 1:
            raise ValueError(
                "num_backups must be >= 1, got {}".format(num_backups)
            )
        self.num_backups = num_backups

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(self, query: RouteQuery) -> RoutePlan:
        primary = plan_primary(self, query)
        if primary is None:
            return RoutePlan(note="no bandwidth-feasible primary within QoS")
        backups = self._plan_backups(query, primary)
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
        return self._backup_search(
            query, primary.lset, primary.lset, reconfigure=True
        )

    def _backup_search(
        self,
        query: RouteQuery,
        primary_lset: FrozenSet[int],
        avoid_lset: FrozenSet[int],
        **tags,
    ) -> Optional[Route]:
        """One batch cost build — the database's tables evaluate this
        scheme's conflict term for every link at once, encoded at the
        hop scale of this query's search space — and one search over
        it.  ``primary_lset`` feeds the conflict term; ``avoid_lset``
        (a superset including earlier backups) the ``Q`` penalty."""
        scale = encode_scale(self.context.network, query.max_hops)
        costs = self.context.database.kernel_arrays().backup_costs(
            self.conflict_kind,
            query.bw_req,
            primary_lset,
            avoid_lset,
            scale,
        )
        return _warm_flat_search(
            self,
            query,
            costs,
            scale,
            avoid_lset,
            primary_lset,
            "backup",
            detail=True,
            **tags,
        )

    def _plan_backups(self, query: RouteQuery, primary: Route) -> List[Route]:
        backups: List[Route] = []
        avoid = set(primary.lset)
        seen = {primary.lset}
        for index in range(self.num_backups):
            route = self._backup_search(
                query, primary.lset, frozenset(avoid), backup_index=index
            )
            if route is None or route.lset in seen:
                break
            backups.append(route)
            seen.add(route.lset)
            avoid.update(route.lset)
        return backups
