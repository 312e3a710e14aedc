"""DRTPService — the public facade of the library.

One service instance manages the DR-connections of one network under
one routing scheme and one spare-multiplexing policy::

    from repro import DRTPService, DLSRScheme, waxman_network

    net = waxman_network(60, capacity=30.0)
    service = DRTPService(net, DLSRScheme())
    decision = service.request(source=3, destination=41, bw_req=1.0)
    impact = service.assess_link_failure(some_link_id)
    service.release(decision.connection.connection_id)

The service is what the discrete-event simulator drives and what the
examples exercise; it is deliberately synchronous and deterministic so
that replaying one scenario file under different schemes (the paper's
comparison methodology) is exact.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import asdict, dataclass, field
from operator import attrgetter
from time import perf_counter
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from ..network.database import LinkStateDatabase
from ..network.state import BW_EPSILON, NetworkState
from ..observability.spans import spanned
from ..routing.base import RouteQuery, RoutingContext, RoutingScheme
from ..routing.base import plan_route
from ..topology.graph import Network
from ..topology.srlg import RiskGroupSet
from .admission import AdmissionController, AdmissionDecision
from .connection import ConnectionRequest, DRConnection
from .errors import ConnectionStateError
from .multiplexing import SharedSparePolicy, SparePolicy
# Not called from here; the e2e harness's span table names this binding.
from .signaling import register_backup_path  # noqa: F401
from .slab import SlabConnectionStore
from .recovery import (
    FailureImpact,
    apply_failed_links,
    apply_group_failure,
    apply_link_failure,
    assess_group_failure,
    assess_link_failure,
    assess_node_failure,
    incident_link_ids,
    reconfigure_unprotected,
    reprotect,
)


def _tally(totals: Dict[Any, int], key, count: int = 1) -> None:
    totals[key] = totals.get(key, 0) + count


@dataclass
class ServiceCounters:
    """Cumulative service-level statistics — the one place each of
    these counts is kept.  The service, its admission controller, the
    signaling walk and the bound routing scheme increment them; the
    simulator, the chaos report, ``status`` and the manifest read them
    directly, and :class:`~repro.metrics.ServiceMetrics` collects
    every ``drtp_*_total`` family from them at scrape time.

    The ``signaling_*`` block only moves beyond walks and hops under
    fault injection: it accumulates what the backup-register walks
    survived (retries, drops, crashes, duplicate deliveries, injected
    latency), and the degraded-admission ledger tracks Section 2.3
    backup re-establishment under adversity.  ``searches`` is keyed
    ``(search, answer)`` — which step of which link-state search
    answered (:data:`repro.kernels.search.ANSWERS`) —
    ``exhaustive_settled`` by search alone (the nodes the exhaustive
    step settled, both sides, over every search it ran for), the
    ``*recovery_outcomes`` by activation-outcome reason.
    ``failure_events`` counts applied failures (a node or a group is
    one event), ``links_repaired`` only links that were down.
    """

    requests: int = 0
    accepted: int = 0
    rejected: Dict[str, int] = field(default_factory=dict)
    released: int = 0
    control_messages: int = 0
    plan_candidates: int = 0
    searches: Dict[Tuple[str, str], int] = field(default_factory=dict)
    exhaustive_settled: Dict[str, int] = field(default_factory=dict)
    backup_overlap_links: int = 0
    backups_with_overlap: int = 0
    primary_hops_total: int = 0
    backup_hops_total: int = 0
    degraded_admissions: int = 0
    backups_reestablished: int = 0
    reestablish_attempts: int = 0
    signaling_walks: int = 0
    signaling_hops: int = 0
    signaling_retries: int = 0
    signaling_drops: int = 0
    signaling_crashes: int = 0
    signaling_duplicates: int = 0
    signaling_gave_up: int = 0
    signaling_delay: float = 0.0
    failure_events: int = 0
    links_repaired: int = 0
    recovery_outcomes: Dict[str, int] = field(default_factory=dict)
    group_failures: int = 0
    group_failed_links: int = 0
    group_recovery_outcomes: Dict[str, int] = field(default_factory=dict)

    @property
    def acceptance_ratio(self) -> float:
        if self.requests == 0:
            return 0.0
        return self.accepted / self.requests

    @property
    def rejection_ratio(self) -> float:
        if self.requests == 0:
            return 0.0
        return sum(self.rejected.values()) / self.requests

    @property
    def reestablish_success_ratio(self) -> float:
        """Fraction of background re-establishment attempts that
        restored protection; 0.0 before any attempt."""
        if self.reestablish_attempts == 0:
            return 0.0
        return self.backups_reestablished / self.reestablish_attempts

    @property
    def mean_signaling_retries(self) -> float:
        if self.signaling_walks == 0:
            return 0.0
        return self.signaling_retries / self.signaling_walks

    def record_rejection(self, reason: str) -> None:
        _tally(self.rejected, reason)

    def record_search(self, search: str, answer: str, settled: int) -> None:
        _tally(self.searches, (search, answer))
        if settled:
            _tally(self.exhaustive_settled, search, settled)

    def record_signaling(self, registration) -> None:
        """Fold one backup walk's accounting into the totals."""
        self.signaling_walks += 1
        self.signaling_hops += registration.hops_signaled
        self.signaling_retries += registration.retries
        self.signaling_drops += registration.drops
        self.signaling_crashes += registration.crashes
        self.signaling_duplicates += registration.duplicates
        self.signaling_delay += registration.delay
        if registration.gave_up:
            self.signaling_gave_up += 1

    def record_failure(
        self, impact: FailureImpact, group_links: Optional[int] = None
    ) -> None:
        """One applied failure event; ``group_links`` (how many links
        it took down) marks a correlated one — a risk-group cut or a
        regional burst — which the group tallies see as well."""
        self.failure_events += 1
        tallies = [self.recovery_outcomes]
        if group_links is not None:
            self.group_failures += 1
            self.group_failed_links += group_links
            tallies.append(self.group_recovery_outcomes)
        for reason, count in impact.reasons().items():
            for outcomes in tallies:
                _tally(outcomes, reason, count)

    def to_dict(self) -> Dict[str, Any]:
        """Every tally plus the derived ratios as one JSON-safe
        document (``searches`` nested ``{search: {answer: n}}``) —
        what ``status``, the manifest and the chaos report carry."""
        document = asdict(self)
        searches: Dict[str, Dict[str, int]] = {}
        for (search, answer), count in sorted(self.searches.items()):
            searches.setdefault(search, {})[answer] = count
        document.update(
            searches=searches,
            acceptance_ratio=self.acceptance_ratio,
            reestablish_success_ratio=self.reestablish_success_ratio,
        )
        return document


def _operation(name: str, opened, closed=None):
    """The span of one :class:`DRTPService` operation, said once:
    ``service.<name>``, tagged with the scheme and what
    ``opened(*arguments)`` adds when it opens and what
    ``closed(result)`` adds when it closes — a child of the open span
    (a traced server's ``server.apply``), else a root in the service's
    own collector, else nothing at all."""

    def tags(service, *args, **kwargs):
        return dict(scheme=service.scheme.name, **opened(*args, **kwargs))

    return spanned(
        "service." + name, "service", tags, closed, root=attrgetter("trace")
    )


def _failure(name: str, what: str, count=lambda failed: failed):
    """:func:`_operation` for the four ways to fail something: tagged
    ``what`` with (``count`` of) the first argument, then the impact
    and each affected connection's activation outcome."""
    return _operation(
        name,
        lambda failed, reconfigure=True: {what: count(failed)},
        lambda impact: dict(
            affected=impact.affected,
            activated=impact.activated,
            lost=impact.failed,
            outcomes=[
                dict(
                    connection=outcome.connection_id,
                    success=outcome.success,
                    reason=outcome.reason,
                    backup_index=outcome.backup_index,
                )
                for outcome in impact.outcomes
            ],
        ),
    )


class DRTPService:
    """Admission, teardown and recovery for DR-connections."""

    #: The controller whose commit methods walk every route's ledgers;
    #: the reference service of :mod:`repro.testing.oracle` sets the
    #: hop-by-hop one.
    admission_controller = AdmissionController

    def __init__(
        self,
        network: Network,
        scheme: RoutingScheme,
        spare_policy: Optional[SparePolicy] = None,
        require_backup: bool = True,
        live_database: bool = True,
        qos_slack: Optional[int] = None,
        fault_injector=None,
        retry_policy=None,
        metrics=None,
        trace=None,
        risk_groups: Optional[RiskGroupSet] = None,
    ) -> None:
        """``live_database=False`` routes from periodically-refreshed
        snapshots instead of instantly-converged link state — the
        staleness regime real link-state protocols live in.  Call
        :meth:`refresh_database` (or let the simulator schedule it) to
        re-flood; admission rolls back cleanly when stale information
        leads routing astray.

        ``qos_slack`` models a delay QoS: every connection's routes
        (primary and backups) are bounded to ``min_hop_distance +
        qos_slack`` hops.  ``None`` (the paper's evaluation setting)
        leaves route lengths unbounded.

        ``fault_injector`` (a
        :class:`~repro.faults.injector.FaultInjector`) makes backup
        signaling lossy; ``retry_policy`` (a
        :class:`~repro.faults.retry.RetryPolicy`) governs
        retransmission.  With an injector present, a request whose
        backup signaling exhausts its retries is admitted *unprotected*
        and queued — drive :meth:`reestablish_backup` (the simulator
        and chaos runner schedule it) to restore its protection in the
        background.

        ``metrics`` (a :class:`~repro.metrics.ServiceMetrics`) makes
        the service scrapeable: its registry collects every count from
        :attr:`counters` (always kept, registry or not) when read, and
        the service times each admission and its planning step into
        the two latency histograms — the only thing ``None`` (the
        default, and what every batch experiment uses) turns off.

        ``trace`` (a :class:`~repro.observability.TraceCollector`)
        records hierarchical spans for every admit/release/recover —
        including the route searches and signaling walks they contain.
        The service only *starts* trees there: an operation called
        under an open span (a traced server's) joins that span's tree
        and collector instead, and the layers below are handed no
        collector at all — they extend whatever span is open.  With
        ``None`` and nothing open, nothing is recorded and each site
        costs one guard.

        ``risk_groups`` (a :class:`~repro.topology.srlg.RiskGroupSet`)
        installs a shared-risk-link-group assignment before any route
        is computed: routing costs, conflict accounting and spare
        sizing all become group-aware (see :mod:`repro.topology.srlg`).
        ``None`` keeps the paper's per-link model."""
        self.network = network
        self.state = NetworkState(network)
        if risk_groups is not None:
            # Before the database: a snapshot database built afterwards
            # would otherwise miss the group tables on its first flood.
            self.state.install_risk_groups(risk_groups)
        self.database = LinkStateDatabase(self.state, live=live_database)
        self.scheme = scheme
        scheme.bind(RoutingContext(network, self.state, self.database))
        self.spare_policy = spare_policy or SharedSparePolicy()
        if qos_slack is not None and qos_slack < 0:
            raise ValueError("qos_slack must be >= 0 when given")
        self.qos_slack = qos_slack
        self.fault_injector = fault_injector
        self.retry_policy = retry_policy
        self.counters = scheme.counters = ServiceCounters()
        self.metrics = metrics
        if metrics is not None:
            metrics.bind_service(self)
        self.trace = trace
        self._admission = self.admission_controller(
            self.state,
            self.spare_policy,
            require_backup=require_backup,
            injector=fault_injector,
            retry_policy=retry_policy,
            counters=self.counters,
        )
        # Hot connection state lives in a slab store: dict-identical
        # iteration order (golden traces depend on it) with slot reuse
        # bounding footprint by the *peak* population, not total churn.
        self._connections: SlabConnectionStore = SlabConnectionStore()
        self._pending_backup: set = set()
        self._next_request_id = 0

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------
    def request(
        self,
        source: int,
        destination: int,
        bw_req: float,
        arrival_time: float = 0.0,
        holding_time: float = float("inf"),
        request_id: Optional[int] = None,
    ) -> AdmissionDecision:
        """Ask for a DR-connection; routes, reserves and registers."""
        if request_id is None:
            request_id = self._next_request_id
        self._next_request_id = max(self._next_request_id, request_id) + 1
        req = ConnectionRequest(
            request_id=request_id,
            source=source,
            destination=destination,
            bw_req=bw_req,
            arrival_time=arrival_time,
            holding_time=holding_time,
        )
        return self.admit(req)

    @_operation(
        "admit",
        lambda req: dict(
            request=req.request_id,
            source=req.source,
            destination=req.destination,
            bw=req.bw_req,
        ),
        lambda decision: dict(
            accepted=decision.accepted,
            reason=decision.reason,
            degraded=decision.degraded,
            **(dict(
                primary_hops=decision.connection.primary_route.hop_count,
                backups=decision.connection.backup_count,
            ) if decision.accepted else {}),
        ),
    )
    def admit(self, req: ConnectionRequest) -> AdmissionDecision:
        """Admit a pre-built request (the simulator's entry point)."""
        timed = self.metrics is not None
        started = perf_counter() if timed else 0.0
        counters = self.counters
        counters.requests += 1
        query = RouteQuery(
            req.source,
            req.destination,
            req.bw_req,
            max_hops=self._qos_bound(req.source, req.destination),
        )
        plan = plan_route(self.scheme, query)
        planned = perf_counter() if timed else 0.0
        counters.control_messages += plan.control_messages
        counters.plan_candidates += plan.candidates_considered
        decision = self._admission.admit(req, plan)
        if decision.accepted:
            connection = decision.connection
            assert connection is not None
            self._connections[connection.connection_id] = connection
            counters.accepted += 1
            if decision.degraded:
                counters.degraded_admissions += 1
                self._pending_backup.add(connection.connection_id)
            overlap = connection.backup_overlap_with_primary()
            if overlap:
                counters.backups_with_overlap += 1
                counters.backup_overlap_links += overlap
            counters.primary_hops_total += connection.primary_route.hop_count
            if connection.backup_route is not None:
                counters.backup_hops_total += connection.backup_route.hop_count
        else:
            counters.record_rejection(decision.reason)
        if timed:
            self.metrics.observe_admission(
                perf_counter() - started, planned - started
            )
        return decision

    def _qos_bound(self, source: int, destination: int) -> Optional[int]:
        """The per-connection hop bound under the service's QoS slack:
        minimum hop distance plus the slack, or ``None`` when the
        service imposes no delay QoS."""
        if self.qos_slack is None:
            return None
        distance = self.scheme.context.hop_counts[source][destination]
        if distance == float("inf"):
            return 1  # unreachable; any bound rejects cleanly
        return int(distance) + self.qos_slack

    @_operation("release", lambda connection_id: dict(connection=connection_id))
    def release(self, connection_id: int) -> None:
        """Terminate a connection and return all its resources."""
        try:
            connection = self._connections.pop(connection_id)
        except KeyError:
            raise ConnectionStateError(
                "no active connection with id {}".format(connection_id)
            )
        self._pending_backup.discard(connection_id)
        self._admission.release(connection)
        self.counters.released += 1

    # ------------------------------------------------------------------
    # Degraded-mode protection (Section 2.3 under adversity)
    # ------------------------------------------------------------------
    def pending_backup_ids(self) -> List[int]:
        """Connections admitted (or left) unprotected and queued for
        background backup re-establishment.  Entries whose connection
        departed, died, or regained protection by other means are
        pruned on read."""
        stale = set()
        for connection_id in self._pending_backup:
            conn = self._connections.get(connection_id)
            if conn is None or not conn.is_active or conn.backup is not None:
                stale.add(connection_id)
        self._pending_backup -= stale
        return sorted(self._pending_backup)

    def queue_backup_reestablishment(self, connection_id: int) -> bool:
        """Enqueue an active unprotected connection for background
        re-protection (used after failures leave survivors bare)."""
        conn = self._connections.get(connection_id)
        if conn is None or not conn.is_active or conn.backup is not None:
            return False
        self._pending_backup.add(connection_id)
        return True

    @_operation(
        "reestablish",
        lambda connection_id: dict(connection=connection_id),
        lambda restored: dict(restored=restored),
    )
    def reestablish_backup(self, connection_id: int) -> bool:
        """One background attempt to restore a queued connection's
        protection: plan a fresh backup against the standing primary
        and register it (under the service's fault injector and retry
        policy, if any).

        Returns True when the connection is protected afterwards —
        including "already was" — and False when it remains
        unprotected (caller reschedules) or no longer exists."""
        conn = self._connections.get(connection_id)
        if conn is None or not conn.is_active:
            self._pending_backup.discard(connection_id)
            return False
        if conn.backup is not None:
            self._pending_backup.discard(connection_id)
            return True
        self.counters.reestablish_attempts += 1
        if not reprotect(
            self._admission, conn, self.scheme,
            self._qos_bound(conn.source, conn.destination),
            self.fault_injector, self.retry_policy,
        ):
            return False
        self._pending_backup.discard(connection_id)
        self.counters.backups_reestablished += 1
        return True

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def assess_link_failure(
        self, link_id: int, use_free_bandwidth: bool = False
    ) -> FailureImpact:
        """What would happen if this link failed right now (pure)."""
        return assess_link_failure(
            self.state,
            self._connections.crossing((link_id,)),
            link_id,
            use_free_bandwidth=use_free_bandwidth,
        )

    def assess_node_failure(
        self, node: int, use_free_bandwidth: bool = False
    ) -> FailureImpact:
        """What would happen if this switch failed right now (pure):
        all of its links die at once, and the connections ending at it
        are lost as ``ENDPOINT_FAILED`` — the outcomes :meth:`fail_node`
        would report."""
        return assess_node_failure(
            self.state,
            self._connections.crossing(
                incident_link_ids(self.network, node)
            ),
            node,
            self.network,
            use_free_bandwidth=use_free_bandwidth,
        )

    def _settle(
        self,
        impact: FailureImpact,
        reconfigure: bool,
        started: float,
        group_links: Optional[int] = None,
    ) -> FailureImpact:
        """The tail every applied failure shares: DRTP step 4 —
        re-protect what it stripped; the walks are fault-free on
        purpose, the injector's streams belong to admissions and the
        re-establishment queue — then tally the event and, under
        metrics, its recovery time since ``started``."""
        if reconfigure:
            reconfigure_unprotected(
                self._admission, self._connections, self.scheme,
                self._qos_bound,
            )
        self.counters.record_failure(impact, group_links)
        if self.metrics is not None:
            self.metrics.observe_recovery(perf_counter() - started)
        return impact

    @_failure("fail_link", "link")
    def fail_link(self, link_id: int, reconfigure: bool = True) -> FailureImpact:
        """Fail a link for real: activate surviving backups, tear down
        casualties, and (optionally) re-protect unprotected survivors
        via DRTP's resource-reconfiguration step.  The link stays out
        of every route search until :meth:`repair_link`."""
        started = perf_counter()
        self.state.mark_link_failed(link_id)
        impact = apply_link_failure(
            self.state, self._admission, self._connections, link_id
        )
        return self._settle(impact, reconfigure, started)

    @_failure("fail_node", "node")
    def fail_node(self, node: int, reconfigure: bool = True) -> FailureImpact:
        """Fail a switch for real: every adjacent link dies, transit
        connections race for their surviving backups on the spare
        standing at the failure, then the losers and the connections
        terminating at the node are torn down."""
        started = perf_counter()
        failed = incident_link_ids(self.network, node)
        for link_id in failed:
            self.state.mark_link_failed(link_id)
        impact = apply_failed_links(
            self.state, self._admission, self._connections, failed,
            dead_node=node,
        )
        return self._settle(impact, reconfigure, started)

    # ------------------------------------------------------------------
    # Correlated (shared-risk) failures
    # ------------------------------------------------------------------
    @property
    def risk_groups(self) -> Optional[RiskGroupSet]:
        """The installed SRLG assignment, if any."""
        return self.state.risk_groups

    def install_risk_groups(self, groups: RiskGroupSet) -> None:
        """Install (or replace) the SRLG assignment on a running
        service.  Conflict accounting is rebuilt from the standing
        backup registrations; snapshot databases pick the group tables
        up at their next refresh."""
        self.state.install_risk_groups(groups)

    def _require_risk_groups(self) -> RiskGroupSet:
        groups = self.state.risk_groups
        if groups is None:
            raise ConnectionStateError(
                "no risk groups installed; pass risk_groups= to the "
                "service or call install_risk_groups() first"
            )
        return groups

    def assess_group_failure(
        self, group_id: int, use_free_bandwidth: bool = False
    ) -> FailureImpact:
        """What would happen if every link of one shared-risk group
        failed simultaneously (pure).  Aggregated over groups this
        yields the generalized survivability metric ``P_act-bk^(g)``."""
        groups = self._require_risk_groups()
        return assess_group_failure(
            self.state,
            self._connections.crossing(groups.members(group_id)),
            group_id,
            groups,
            use_free_bandwidth=use_free_bandwidth,
        )

    @_failure("fail_group", "group")
    def fail_group(
        self, group_id: int, reconfigure: bool = True
    ) -> FailureImpact:
        """Fail an entire shared-risk group for real: all member links
        die at once and the affected connections race for spare in a
        single activation round (simultaneous semantics — unlike
        calling :meth:`fail_link` per member, which would let earlier
        casualties re-protect before later links die)."""
        started = perf_counter()
        groups = self._require_risk_groups()
        for link_id in groups.members(group_id):
            self.state.mark_link_failed(link_id)
        impact = apply_group_failure(
            self.state,
            self._admission,
            self._connections,
            group_id,
            groups,
        )
        return self._settle(
            impact, reconfigure, started, len(groups.members(group_id))
        )

    @_failure("fail_link_set", "links", lambda link_ids: len(set(link_ids)))
    def fail_link_set(
        self, link_ids: Collection[int], reconfigure: bool = True
    ) -> FailureImpact:
        """Fail an arbitrary set of links (any collection; duplicates
        count once) simultaneously, in one activation round — the
        regional-fault primitive for neighborhood cuts that do not
        coincide with a named risk group."""
        started = perf_counter()
        failed = frozenset(link_ids)
        for link_id in failed:
            self.state.mark_link_failed(link_id)
        impact = apply_failed_links(
            self.state, self._admission, self._connections, failed
        )
        return self._settle(impact, reconfigure, started, len(failed))

    @_operation(
        "repair",
        lambda link_ids: dict(
            links=len(link_ids), link_ids=sorted(link_ids)
        ),
        lambda repaired: dict(links_repaired=repaired),
    )
    def _repair(self, link_ids: Collection[int]) -> int:
        """Return links to service; counts (and returns) how many of
        them were down."""
        repaired = 0
        for link_id in link_ids:
            repaired += self.state.is_link_failed(link_id)
            self.state.mark_link_repaired(link_id)
        self.counters.links_repaired += repaired
        return repaired

    def repair_group(self, group_id: int) -> None:
        """Return every link of a shared-risk group to service."""
        self._repair(self._require_risk_groups().members(group_id))

    def repair_link(self, link_id: int) -> None:
        """Return a previously failed link to service; its bandwidth
        becomes routable again immediately.  Repairing a healthy link
        is an idempotent no-op."""
        self._repair((link_id,))

    def repair_node(self, node: int) -> None:
        """Return a switch (all its links) to service."""
        self._repair(incident_link_ids(self.network, node))

    def refresh_database(self) -> None:
        """Re-flood link state (no-op effect for live databases)."""
        if not self.database.live:
            self.database.refresh()

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def active_connection_count(self) -> int:
        return len(self._connections)

    def unprotected_ids(self) -> List[int]:
        """Active connections currently running without a backup."""
        return sorted(
            conn.connection_id
            for conn in self._connections.values()
            if conn.is_active and conn.backup is None
        )

    def connections(self) -> Iterator[DRConnection]:
        return iter(self._connections.values())

    def connections_crossing(
        self, link_ids: Iterable[int]
    ) -> List[DRConnection]:
        """The live connections whose primary crosses any of
        ``link_ids``, in :meth:`connections` order — the candidate
        population of that failure, read off the store's
        primary-incidence index instead of a scan of the table."""
        return self._connections.crossing(link_ids)

    def connection(self, connection_id: int) -> DRConnection:
        try:
            return self._connections[connection_id]
        except KeyError:
            raise ConnectionStateError(
                "no active connection with id {}".format(connection_id)
            )

    def has_connection(self, connection_id: int) -> bool:
        return connection_id in self._connections

    def connection_store_stats(self) -> Dict[str, int]:
        """Slab footprint/reuse counters (soak reports archive these to
        prove steady-state memory stays flat under churn)."""
        return self._connections.stats()

    def warmstart_stats(self) -> Optional[Dict[str, int]]:
        """Warm backup-candidate cache effectiveness counters
        (probes/hits/misses/invalidations; see
        :mod:`repro.routing.warmstart`), or ``None`` while no backup
        search has consulted the cache (schemes that do not plan on
        the link tables never do)."""
        cache = getattr(self.database, "_warmstart_cache", None)
        if cache is None:
            # Don't create one just to report zeros.
            return None
        return cache.stats()

    def links_carrying_primaries(self) -> List[int]:
        """Link ids crossed by at least one active primary — the
        failure sites that matter for the ``P_act-bk`` sweep."""
        return sorted(self._connections.crossed_links())

    def check_invariants(self) -> None:
        """Cross-check ledgers against the live connection table, the
        table's incidence index against a rebuild from it, and the
        routing kernel's link tables (once built) against the ledgers.

        Per link, against the connection table: ``prime_bw`` is the
        sum of ``bw_req`` over the active primaries crossing it; every
        live backup channel is registered there and every registration
        belongs to one (no leaked registration); and ``spare_bw`` is
        Section 5's sizing rule as :meth:`SparePolicy.resize` applies
        it, ``min(target, max(0, capacity - prime_bw))``."""
        self.state.check_invariants()
        self._connections.check()
        arrays = getattr(self.database, "_kernel_arrays", None)
        if arrays is not None:
            arrays.check()
        prime_bw = [0.0] * self.network.num_links
        crossings = [0] * self.network.num_links
        for conn in self._connections.values():
            if conn.is_active:
                for link_id in conn.primary_route.link_ids:
                    prime_bw[link_id] += conn.bw_req
            for channel in conn.all_backups:
                key = channel.registration_key(conn.connection_id)
                for link_id in channel.route.link_ids:
                    if not self.state.ledger(link_id).has_backup(key):
                        raise ConnectionStateError(
                            "connection {} backup missing from link {} "
                            "registry".format(conn.connection_id, link_id)
                        )
                    crossings[link_id] += 1
        for ledger in self.state.ledgers():
            link_id = ledger.link_id
            if abs(ledger.prime_bw - prime_bw[link_id]) > BW_EPSILON:
                raise ConnectionStateError(
                    "link {} holds prime_bw {} but its active primaries "
                    "reserve {}".format(
                        link_id, ledger.prime_bw, prime_bw[link_id]
                    )
                )
            # Every crossing is registered (above), so a surplus
            # registration belongs to no live channel.
            if ledger.backup_count != crossings[link_id]:
                raise ConnectionStateError(
                    "link {} registers {} backups but live backup channels "
                    "cross it {} times".format(
                        link_id, ledger.backup_count, crossings[link_id]
                    )
                )
            sized = min(
                self.spare_policy.target(ledger),
                max(0.0, ledger.capacity - ledger.prime_bw),
            )
            if abs(ledger.spare_bw - sized) > BW_EPSILON:
                raise ConnectionStateError(
                    "link {} holds spare_bw {} but its {} policy sizes "
                    "it to {}".format(
                        link_id, ledger.spare_bw, self.spare_policy.name,
                        sized,
                    )
                )
