"""Failure recovery — detection, backup activation, reconfiguration.

DRTP's steps (2)–(4): after a network component fails, every affected
DR-connection tries to *activate* its backup, which succeeds only if
the spare resources reserved on every backup link can still cover it.
Conflicting backups multiplexed over the same spare may lose this race
— that is precisely the fault-tolerance loss the routing schemes try
to minimize.

Two entry points:

* :func:`assess_failed_links` — *pure*: computes which activations
  would succeed if a set of links failed at once, without touching any
  state.  A single link, a shared-risk group and a switch (every link
  touching it, with the switch named as ``dead_node``) are all link
  sets.  The paper's ``P_act-bk`` metric aggregates this over every
  link and many steady-state snapshots.

* :func:`apply_failed_links` — *mutating*: runs that same assessment
  on the state as it stands, then switches the winners to their
  backups (backup bandwidth becomes primary bandwidth), tears down the
  losers — the connections ending at a dead switch among them — and
  drops backups broken by the failure.  Every applied failure's
  outcomes are therefore the assessment of its failure on the standing
  state.  Re-establishing backups for connections left unprotected
  (DRTP step 4, resource reconfiguration) is
  :func:`reconfigure_unprotected`.

Contention order: affected connections activate in establishment
order (``established_seq``), a deterministic stand-in for the paper's
near-simultaneous races; each success consumes spare tokens that later
activations can no longer use.

The race runs on a *column*: the activation pool of every link, indexed
by link id (:func:`activation_pools` — ``spare_bw``, plus ``free_bw``
under the free-bandwidth ablation), copied once per failure so the
caller's column is never debited.  A sweep over many hypothetical
failures of one state reads the ledgers once and hands every race the
same column.  A backup passes iff ``min(residual[b] for b in links) +
BW_EPSILON >= bw``: rounding is monotone, so ``fl(x + BW_EPSILON)`` is
smallest at the smallest ``x``, and the least residual passes iff every
residual does (a route has at least one link, so the minimum is always
defined).  The race evaluates it as the scan that stops at the first
link with ``residual[b] + BW_EPSILON < bw`` — the same verdict, and on
CPython 3.11 cheaper than ``min(map(...))`` over a route's few links.
The race as first written (pools read lazily into a dict, ``all()``
per backup) is the reference,
:func:`repro.testing.recovery.reference_assess_failed_links`.

Finding the affected: the ``assess_*`` functions filter whatever
candidate population they are handed (active, primary crossing a failed
link), so a caller may hand them any superset of the affected — the
service hands them the connection store's primary-incidence index entry
for the failed links instead of the whole table.  The ``apply_*``
functions take the :class:`~repro.core.store.ConnectionStore` itself
and read the same index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
)

from ..network.state import BW_EPSILON, NetworkState
from ..routing.base import RouteQuery
from . import signaling
from .channel import Channel, ChannelRole
from .connection import ConnectionState, DRConnection
from .store import ConnectionStore

#: Activation-outcome reason strings.
ACTIVATED = "activated"
NO_BACKUP = "no-backup"
BACKUP_CROSSES_FAILURE = "backup-crosses-failed-link"
SPARE_EXHAUSTED = "spare-exhausted"
ENDPOINT_FAILED = "endpoint-failed"


class ActivationOutcome(NamedTuple):
    """One affected connection's recovery attempt (an immutable
    record; a sweep builds one per affected connection per failed
    link, so it is a tuple rather than a frozen dataclass).

    ``backup_index`` is the position (within the connection's
    activation-preference order) of the backup that activated, or -1
    when none did — with multiple backups per connection (Section 2's
    "one or more"), recovery falls through to the next backup when an
    earlier one is broken or starved.
    """

    connection_id: int
    success: bool
    reason: str
    backup_index: int = -1


@dataclass
class FailureImpact:
    """Everything one failure event would do to the DR-state.

    ``link_id`` labels the event: the failed link when exactly one
    link failed, ``-node - 1`` for a switch failure and -1 for any
    other link set; ``group_id`` is set as well when the event was a
    whole shared-risk group going down at once.
    """

    link_id: int
    outcomes: List[ActivationOutcome] = field(default_factory=list)
    group_id: Optional[int] = None

    @property
    def affected(self) -> int:
        return len(self.outcomes)

    @property
    def activated(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.success)

    @property
    def failed(self) -> int:
        return self.affected - self.activated

    def reasons(self) -> Dict[str, int]:
        histogram: Dict[str, int] = {}
        for outcome in self.outcomes:
            histogram[outcome.reason] = histogram.get(outcome.reason, 0) + 1
        return histogram


def assess_link_failure(
    state: NetworkState,
    connections: Iterable[DRConnection],
    link_id: int,
    use_free_bandwidth: bool = False,
    pools: Optional[Sequence[float]] = None,
) -> FailureImpact:
    """Judge every affected connection's activation, without mutation.

    Args:
        state: Authoritative ledgers (read-only here).
        connections: The candidate population; only *active*
            connections whose primary crosses ``link_id`` are affected.
        link_id: The failed unidirectional link.
        use_free_bandwidth: When True, activations may also draw on
            unallocated link bandwidth (an ablation; the paper's
            ``SC_i`` counts reserved spare only).
        pools: ``activation_pools(state, use_free_bandwidth)`` read
            beforehand — a sweep passes one column to every link;
            ``None`` reads it here.
    """
    return assess_failed_links(
        state,
        connections,
        frozenset({link_id}),
        use_free_bandwidth=use_free_bandwidth,
        pools=pools,
    )


def activation_pools(
    state: NetworkState, use_free_bandwidth: bool = False
) -> List[float]:
    """What each link can give activations, indexed by link id: its
    reserved ``spare_bw``, plus its unallocated ``free_bw`` under the
    free-bandwidth ablation."""
    if use_free_bandwidth:
        return [ledger.spare_bw + ledger.free_bw for ledger in state.ledgers()]
    return [ledger.spare_bw for ledger in state.ledgers()]


def incident_link_ids(network, node: int) -> FrozenSet[int]:
    """Every link touching ``node`` — what a switch failure takes down,
    and (a primary leaves its source and enters its destination over
    one of them) where every connection terminating there is indexed."""
    return frozenset(
        link.link_id
        for link in network.out_links(node) + network.in_links(node)
    )


def assess_node_failure(
    state: NetworkState,
    connections: Iterable[DRConnection],
    node: int,
    network,
    use_free_bandwidth: bool = False,
) -> FailureImpact:
    """A switch failure kills every link touching the node (Section 1
    lists "breakdown of network components (links and switches)").

    Connections *terminating at* the dead node are unrecoverable by
    any routing (their endpoint is gone); they appear with reason
    :data:`ENDPOINT_FAILED`.  The same call with ``dead_node`` is what
    :func:`apply_failed_links` runs when the switch fails for real, so
    the what-if and the failure report the same outcomes.
    """
    return assess_failed_links(
        state,
        connections,
        incident_link_ids(network, node),
        use_free_bandwidth=use_free_bandwidth,
        dead_node=node,
    )


def assess_group_failure(
    state: NetworkState,
    connections: Iterable[DRConnection],
    group_id: int,
    risk_groups,
    use_free_bandwidth: bool = False,
) -> FailureImpact:
    """Pure SRLG assessment: every link of one shared-risk group fails
    simultaneously and the affected connections race for activation.

    The aggregate success ratio over groups and snapshots is the
    generalized survivability metric ``P_act-bk^(g)``; with singleton
    groups it reduces exactly to :func:`assess_link_failure` and the
    paper's ``P_act-bk``.
    """
    members = risk_groups.members(group_id)
    impact = assess_failed_links(
        state,
        connections,
        frozenset(members),
        use_free_bandwidth=use_free_bandwidth,
    )
    impact.group_id = group_id
    return impact


def apply_group_failure(
    state: NetworkState,
    commit,
    connections: ConnectionStore,
    group_id: int,
    risk_groups,
) -> FailureImpact:
    """Mutating SRLG recovery: the whole group dies at once and the
    activation race of :func:`apply_failed_links` runs over the union
    — one simultaneous multi-link failure, not a sequence of
    single-link recoveries."""
    members = risk_groups.members(group_id)
    impact = apply_failed_links(
        state, commit, connections, frozenset(members)
    )
    impact.group_id = group_id
    return impact


def assess_failed_links(
    state: NetworkState,
    connections: Iterable[DRConnection],
    failed_links: FrozenSet[int],
    use_free_bandwidth: bool = False,
    dead_node: Optional[int] = None,
    pools: Optional[Sequence[float]] = None,
) -> FailureImpact:
    """Core activation-contention assessment for a set of dead links.

    Affected connections (active, primary crossing any failed link)
    attempt activation in establishment order; a backup activates iff
    its route avoids *every* failed link and all its links retain
    enough residual spare.  ``dead_node`` names the switch whose links
    these are, if any: a connection ending there takes its place in
    that order as :data:`ENDPOINT_FAILED`.  It draws no spare — every
    backup of it leaves or enters the dead switch — so the race runs
    on the spare reserved at the moment of failure.

    ``pools`` is the column the race starts from (see
    :func:`activation_pools`, which reads it when ``None``); the race
    debits a copy.
    """
    if dead_node is not None:
        label = -dead_node - 1
    elif len(failed_links) == 1:
        (label,) = failed_links
    else:
        label = -1
    impact = FailureImpact(link_id=label)
    active = _ACTIVE
    isdisjoint = failed_links.isdisjoint
    affected = [
        conn
        for conn in connections
        if conn.state in active and not isdisjoint(conn.primary.route.lset)
    ]
    if not affected:
        return impact
    affected.sort(key=_ESTABLISHED)

    # Residual activation bandwidth per link, consumed in order.
    residual = (
        activation_pools(state, use_free_bandwidth) if pools is None
        else list(pools)
    )
    outcomes = impact.outcomes
    for conn in affected:
        connection_id = conn.connection_id
        request = conn.request
        if dead_node is not None and dead_node in (
            request.source, request.destination
        ):
            outcomes.append(
                ActivationOutcome(connection_id, False, ENDPOINT_FAILED)
            )
            continue
        channel = conn.backup
        if channel is None:
            outcomes.append(
                ActivationOutcome(connection_id, False, NO_BACKUP)
            )
            continue
        # Try each backup in preference order — ``backup``, then
        # ``extra_backups[index - 1]`` — the first whose route avoids
        # the failure and whose links still hold spare wins.  (A loop
        # over a tuple of them measured slower: it is built per victim.)
        bw = request.bw_req
        extras = conn.extra_backups
        reason = BACKUP_CROSSES_FAILURE
        index = 0
        while True:
            route = channel.route
            if isdisjoint(route.lset):
                links = route.link_ids
                for link_id in links:
                    if residual[link_id] + BW_EPSILON < bw:
                        reason = SPARE_EXHAUSTED
                        break
                else:
                    for link_id in links:
                        residual[link_id] -= bw
                    outcomes.append(ActivationOutcome(
                        connection_id, True, ACTIVATED, index
                    ))
                    break
            if index == len(extras):
                outcomes.append(
                    ActivationOutcome(connection_id, False, reason)
                )
                break
            channel = extras[index]
            index += 1
    return impact


#: States whose primary carries traffic (``DRConnection.is_active``; a
#: tuple, whose identity test beats hashing an enum member).
_ACTIVE = (ConnectionState.ACTIVE, ConnectionState.UNPROTECTED)
_ESTABLISHED = attrgetter("established_seq")


def apply_link_failure(
    state: NetworkState,
    commit,
    connections: ConnectionStore,
    link_id: int,
) -> FailureImpact:
    """Mutating recovery: switch survivors to their backups.

    The assessment (same contention semantics as
    :func:`assess_link_failure`) decides who wins; the state mutation
    then:

    * releases every affected primary's reservations (the failed link's
      ledger keeps honest books even though the link is dead);
    * for winners, converts their backup registration into a primary
      reservation along the backup route, drawing first on free
      bandwidth and then on the spare pool the backup was multiplexed
      on (:func:`~repro.kernels.apply.batch_activate_walk`);
    * for losers, tears the whole connection down;
    * drops (releases) backups of *unaffected* connections that crossed
      the failed link — their primaries still run, but they are now
      unprotected until reconfiguration gives them a new backup.

    ``commit`` is the service's
    :class:`~repro.core.admission.AdmissionController`, which walks
    the ledgers.  Returns the same :class:`FailureImpact` the
    assessment produced.
    """
    return apply_failed_links(state, commit, connections, frozenset({link_id}))


def apply_failed_links(
    state: NetworkState,
    commit,
    connections: ConnectionStore,
    failed_links: FrozenSet[int],
    dead_node: Optional[int] = None,
) -> FailureImpact:
    """Core mutating recovery for a set of simultaneously dead links —
    one link, a shared-risk group, a regional cut or every link of the
    switch ``dead_node`` (as in :func:`assess_failed_links`).  The race
    runs first, on the state as it stands; the teardown of its losers
    then includes the connections ending at a dead switch."""
    impact = assess_failed_links(
        state,
        connections.crossing(failed_links),
        failed_links,
        dead_node=dead_node,
    )
    outcome_by_id = {o.connection_id: o for o in impact.outcomes}

    # Backups broken by the failure on connections whose primary is
    # intact: release those registrations (the routes are unusable).
    # The dead links' own backup registries name their owners; they are
    # visited in store order, as the table scan this replaces did.
    owners = {
        Channel.registration_owner(key)
        for link_id in failed_links
        for key in state.ledger(link_id).backups()
    }
    for conn in connections.ordered(owners):
        if conn.connection_id in outcome_by_id or not conn.is_active:
            continue
        for channel in list(conn.all_backups):
            if channel.route.lset & failed_links:
                _drop_channel(commit, conn, channel)

    for conn_id, outcome in outcome_by_id.items():
        conn = connections[conn_id]
        conn.mark_recovering()
        commit.unreserve(conn.primary_route.link_ids, conn.bw_req)
        if outcome.success:
            # Bring the winning backup to the front, then promote it;
            # the rest were routed against the dead primary and are
            # released (reconfiguration re-plans them).
            conn.select_backup(outcome.backup_index)
            for channel in list(conn.extra_backups):
                _drop_channel(commit, conn, channel)
            channel = conn.backup
            commit.activate(
                channel.registration_key(conn_id),
                channel.route.link_ids,
                conn.bw_req,
            )
            conn.promote_backup()
            connections.reindex(conn_id)
        else:
            for channel in list(conn.all_backups):
                _drop_channel(commit, conn, channel)
            conn.mark_failed()
            del connections[conn_id]
    return impact


def reprotect(
    commit,
    conn: DRConnection,
    scheme,
    max_hops: Optional[int] = None,
    injector=None,
    retry_policy=None,
) -> bool:
    """Give one unprotected connection a backup: plan it against the
    standing primary (``max_hops`` is the delay-QoS bound, as at
    admission), walk its register packet, attach the channel.
    ``injector`` / ``retry_policy`` make the walk lossy — only the
    re-establishment queue passes them; ``commit`` (the service's
    admission controller) walks the packet.  Returns whether the
    connection is protected afterwards."""
    backup = scheme.plan_backup(
        RouteQuery(conn.source, conn.destination, conn.bw_req, max_hops),
        conn.primary_route,
    )
    if backup is None or backup.lset == conn.primary_route.lset:
        return False
    packet = signaling.BackupRegisterPacket(
        connection_id=conn.connection_id,
        backup_route=backup,
        primary_lset=conn.primary_route.lset,
        bw_req=conn.bw_req,
    )
    registration = commit.reregister(packet, injector, retry_policy)
    if registration.success:
        conn.backup = Channel(role=ChannelRole.BACKUP, route=backup)
        conn.state = ConnectionState.ACTIVE
    return registration.success


def reconfigure_unprotected(
    commit,
    connections: ConnectionStore,
    scheme,
    hop_bound: Optional[Callable[[int, int], Optional[int]]] = None,
) -> int:
    """DRTP step 4: find new backups for unprotected connections.

    ``scheme`` is any bound :class:`~repro.routing.base.RoutingScheme`;
    its backup-selection machinery is reused by planning against the
    existing primary.  ``hop_bound(source, destination)`` is the
    delay-QoS bound a replacement backup must keep, exactly as at
    admission; ``None`` plans unbounded.  The walks are fault-free.
    Returns how many connections were re-protected.
    """
    restored = 0
    for conn in connections.values():
        if conn.backup is not None or not conn.is_active:
            continue
        max_hops = (
            hop_bound(conn.source, conn.destination)
            if hop_bound is not None else None
        )
        restored += reprotect(commit, conn, scheme, max_hops)
    return restored


# ----------------------------------------------------------------------
# Mutation helpers
# ----------------------------------------------------------------------
def _drop_channel(commit, conn: DRConnection, channel) -> None:
    """Release one backup channel's registrations and detach it."""
    commit.drop(
        channel.registration_key(conn.connection_id),
        channel.route.link_ids,
    )
    channel.release()
    if conn.backup is channel:
        conn.backup = (
            conn.extra_backups.pop(0) if conn.extra_backups else None
        )
    else:
        conn.extra_backups.remove(channel)
    if conn.backup is None and conn.state is ConnectionState.ACTIVE:
        conn.state = ConnectionState.UNPROTECTED

