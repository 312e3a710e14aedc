"""Routing-scheme interface.

A routing scheme answers one question: *given the network's current
DR-state, which primary and backup routes should a new DR-connection
use?*  The three paper schemes (P-LSR, D-LSR, BF) and the baselines
all implement :class:`RoutingScheme`; the DRTP service layer
(:mod:`repro.core.service`) is scheme-agnostic.

The plan also reports the *control messages* the discovery cost — CDP
transmissions for bounded flooding, zero for the link-state schemes
(whose recurring advertisement cost is modeled separately in
:mod:`repro.network.advertisement`) — feeding the routing-overhead
analysis the paper discusses in Sections 3–4 and 6.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..network.database import LinkStateDatabase
from ..network.state import NetworkState
from ..observability.spans import spanned
from ..topology.distance import (
    DistanceTable,
    all_pairs_hop_counts,
    build_distance_tables,
)
from ..topology.graph import Network, Route


@dataclass(frozen=True)
class RouteQuery:
    """A request to route one DR-connection.

    ``max_hops`` is the delay-QoS bound: neither the primary nor any
    backup may exceed it (Section 2's "QoS requirement (e.g.,
    end-to-end delay)" that can forbid long detours).  ``None`` means
    unbounded, the paper's evaluation default.
    """

    source: int
    destination: int
    bw_req: float
    max_hops: Optional[int] = None

    def __post_init__(self) -> None:
        if self.source == self.destination:
            raise ValueError("source and destination must differ")
        if self.bw_req <= 0:
            raise ValueError("bw_req must be positive")
        if self.max_hops is not None and self.max_hops < 1:
            raise ValueError("max_hops must be >= 1 when given")


@dataclass
class RoutePlan:
    """A scheme's answer to a :class:`RouteQuery`.

    ``primary is None`` means the connection must be rejected (no
    feasible primary).  ``backup is None`` with a primary present means
    the scheme found no backup route at all (the service layer decides
    whether that is fatal).  ``extra_backups`` carries further backup
    routes when the scheme was asked for more than one (Section 2's
    "one or more backup channels"), best-first.
    """

    primary: Optional[Route] = None
    backup: Optional[Route] = None
    extra_backups: Tuple[Route, ...] = ()
    control_messages: int = 0
    candidates_considered: int = 0
    note: str = ""

    @property
    def accepted(self) -> bool:
        return self.primary is not None

    @property
    def all_backups(self) -> Tuple[Route, ...]:
        if self.backup is None:
            return ()
        return (self.backup,) + tuple(self.extra_backups)

    @property
    def backup_overlap(self) -> int:
        """Links the backup shares with its primary (0 is ideal)."""
        if self.primary is None or self.backup is None:
            return 0
        return len(self.primary.shared_links(self.backup))


class RoutingContext:
    """Everything a scheme may consult: topology, authoritative
    ledgers, the link-state database view, and the hop-count matrix
    with the per-node distance tables that view it (built lazily —
    only bounded flooding and delay-QoS bounds need them)."""

    def __init__(
        self,
        network: Network,
        state: NetworkState,
        database: Optional[LinkStateDatabase] = None,
    ) -> None:
        self.network = network
        self.state = state
        self.database = database or LinkStateDatabase(state)
        self._hop_counts: Optional[List[List[float]]] = None
        self._distance_tables: Optional[List[DistanceTable]] = None

    @property
    def hop_counts(self) -> List[List[float]]:
        """All-pairs minimum hop counts ``D[i][j]`` — the one matrix
        every distance table and flood column is read from.  The
        topology is frozen, so it is never rebuilt."""
        if self._hop_counts is None:
            self._hop_counts = all_pairs_hop_counts(self.network)
        return self._hop_counts

    @property
    def distance_tables(self) -> List[DistanceTable]:
        if self._distance_tables is None:
            self._distance_tables = build_distance_tables(
                self.network, self.hop_counts
            )
        return self._distance_tables


class RoutingScheme(abc.ABC):
    """Abstract primary/backup route selection strategy."""

    #: Short identifier used in reports ("P-LSR", "D-LSR", "BF", ...).
    name: str = "abstract"

    #: Whether :meth:`plan` routes backups.  A primary-only scheme sets
    #: ``False``, and a service under it admits a request on its
    #: primary alone (``DRTPService(require_backup=None)``).
    plans_backups: bool = True

    #: The owning service's
    #: :class:`~repro.core.service.ServiceCounters` (``None`` while the
    #: scheme plans for no service): the link-state searches tally
    #: which step answered them there.
    counters = None

    def __init__(self) -> None:
        self._context: Optional[RoutingContext] = None

    def bind(self, context: RoutingContext) -> None:
        """Attach the scheme to a network; called once by the service."""
        self._context = context

    @property
    def context(self) -> RoutingContext:
        if self._context is None:
            raise RuntimeError(
                "{} is not bound to a network (call bind() first)".format(
                    type(self).__name__
                )
            )
        return self._context

    @abc.abstractmethod
    def plan(self, query: RouteQuery) -> RoutePlan:
        """Select primary and backup routes for a new DR-connection."""

    def plan_backup(self, query: RouteQuery, primary: Route) -> Optional[Route]:
        """Select a backup for an *already established* primary.

        Used by DRTP's resource-reconfiguration step (a connection
        that lost its backup, or whose backup was just promoted, needs
        a new one routed against its live primary).  The default
        re-plans from scratch and returns the backup only when the
        fresh primary coincides with the established one; schemes
        override this to route directly against ``primary``.
        """
        plan = self.plan(query)
        if plan.primary is not None and plan.primary.lset == primary.lset:
            return plan.backup
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "{}(name={!r})".format(type(self).__name__, self.name)


def _plan_tags(plan: RoutePlan) -> dict:
    tags = dict(
        accepted=plan.accepted,
        backup_found=plan.backup is not None,
        control_messages=plan.control_messages,
        candidates=plan.candidates_considered,
    )
    if plan.note:
        tags["note"] = plan.note
    return tags


@spanned(
    "route.plan",
    "routing",
    lambda scheme, query: dict(
        scheme=scheme.name,
        source=query.source,
        destination=query.destination,
    ),
    _plan_tags,
)
def plan_route(scheme, query: RouteQuery) -> RoutePlan:
    """``scheme.plan(query)`` for a new DR-connection — the service's
    planning step, a ``route.plan`` span under an open one (the
    searches and floods the scheme runs become its children).
    ``scheme`` is anything with ``name`` and ``plan``."""
    return scheme.plan(query)
