"""Backup-path signaling (Section 2.2).

After the primary channel is placed, the source sends a *backup-path
register packet* along the chosen backup route.  The packet carries
the ``LSET`` of the corresponding primary so that every router on the
path can update the APLV of the link the backup traverses without
storing any per-connection state beyond its own links — the paper's
answer to the ``O(n × average-path-length)`` scalability problem.

Each router on the path:

1. checks the amount of available resources on the outgoing link
   (a backup needs ``total_bw − prime_bw ≥ bw_req``; reserved spare is
   shareable);
2. registers the backup in the link's backup-channel table and updates
   the link's APLV using the piggybacked ``LSET``;
3. asks the multiplexing policy to resize the spare pool;
4. forwards the packet.

A router that rejects the request answers with a *backup-release
packet* (also carrying the primary's ``LSET``) that unwinds the
registrations made upstream.  :func:`register_backup_path` performs
the walk and the unwind atomically from the caller's perspective.

Every walk commits through :mod:`repro.kernels.apply` — validate the
whole route with pure reads, then mutate it in one fused loop with one
change notification — so a rejection mutates nothing and a broken
precondition (a key already registered, an unknown link) raises
:class:`~repro.network.state.ResourceError` before anything is
touched.

Under fault injection (:mod:`repro.faults`) the walk stops being
atomic: register packets can be dropped or duplicated between hops,
and a router can crash right after registering — both strand *partial*
registrations along the route.  An attempt is then a *prefix* of the
same transaction: validate once (which hop would reject), draw the
fault script hop by hop (pure accounting — the injector's streams are
consumed draw for draw as a hop-by-hop walk would), commit the prefix
the packet reached, and release that prefix again on a rejection.
After a fault :func:`register_backup_path` behaves like a real
signaling source: its timeout fires, it sends an idempotent
source-initiated release (:func:`unwind_backup_path`) that rolls the
partial walk back exactly, and it retries under the caller's
:class:`~repro.faults.retry.RetryPolicy` until success, a genuine
resource rejection, or exhaustion.  A duplicated delivery is one more
message on the wire and nothing else: the router already holds the
registration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Tuple

from ..kernels.apply import (
    batch_register_walk,
    batch_release_walk,
    rejecting_hop,
)
from ..network.state import NetworkState
from ..observability.spans import spanned
from ..topology.graph import Route
from .errors import SignalingError
from .multiplexing import ResizeOutcome, SparePolicy


@dataclass(frozen=True)
class BackupRegisterPacket:
    """The backup-path register packet of Section 2.2.

    ``backup_index`` distinguishes the channels of a multi-backup
    DR-connection (0 = first backup); each backup registers in the
    per-link backup-channel tables under its own key.
    """

    connection_id: int
    backup_route: Route
    primary_lset: FrozenSet[int]
    bw_req: float
    backup_index: int = 0

    def __post_init__(self) -> None:
        if self.bw_req <= 0:
            raise SignalingError("bw_req must be positive")
        if self.backup_index < 0:
            raise SignalingError("backup_index must be >= 0")

    @property
    def registration_key(self):
        """Per-link registry key; plain connection id for the first
        backup (the common, paper-default case)."""
        if self.backup_index == 0:
            return self.connection_id
        return (self.connection_id, self.backup_index)


@dataclass(frozen=True)
class BackupReleasePacket:
    """The backup-path release packet (teardown or upstream unwind)."""

    connection_id: int
    backup_route: Route
    primary_lset: FrozenSet[int]
    backup_index: int = 0

    @property
    def registration_key(self):
        if self.backup_index == 0:
            return self.connection_id
        return (self.connection_id, self.backup_index)


@dataclass
class RegistrationResult:
    """Outcome of walking a register packet along the backup route.

    The fault-accounting fields stay at their defaults for the
    fault-free walk; under injection they record what the signaling
    survived: ``attempts`` counts walks (1 = no retry), ``gave_up``
    distinguishes "retries exhausted by faults" from a genuine
    resource rejection (``rejected_link`` set), and ``delay``
    accumulates injected signaling latency plus retry backoff.
    """

    success: bool
    rejected_link: Optional[int] = None
    resizes: List[ResizeOutcome] = field(default_factory=list)
    hops_signaled: int = 0
    attempts: int = 1
    drops: int = 0
    duplicates: int = 0
    crashes: int = 0
    delay: float = 0.0
    gave_up: bool = False

    @property
    def total_deficit(self) -> float:
        """Spare bandwidth that could not be provisioned along the
        route; positive means conflicting backups were multiplexed."""
        return sum(outcome.deficit for outcome in self.resizes)

    @property
    def retries(self) -> int:
        return self.attempts - 1


def _walk_tags(state, policy, packet, *_, **__):
    """Open tags of a register or release walk's span."""
    return dict(
        connection=packet.connection_id,
        backup_index=packet.backup_index,
        hops=len(packet.backup_route.link_ids),
    )


def _registration_tags(result: RegistrationResult):
    """Close tags of a ``signal.register`` span: the outcome, plus the
    fault accounting when the walk met any."""
    tags = dict(
        success=result.success,
        attempts=result.attempts,
        hops_signaled=result.hops_signaled,
        gave_up=result.gave_up,
    )
    if result.rejected_link is not None:
        tags["rejected_link"] = result.rejected_link
    if result.drops or result.duplicates or result.crashes:
        tags.update(
            drops=result.drops,
            duplicates=result.duplicates,
            crashes=result.crashes,
            delay=result.delay,
        )
    return tags


@spanned("signal.register", "signaling", _walk_tags, _registration_tags)
def register_backup_path(
    state: NetworkState,
    policy: SparePolicy,
    packet: BackupRegisterPacket,
    injector=None,
    retry_policy=None,
    counters=None,
) -> RegistrationResult:
    """Walk the register packet hop by hop; unwind on rejection.

    ``injector`` (a :class:`~repro.faults.injector.FaultInjector`)
    subjects the walk to drop/duplicate/delay/crash faults;
    ``retry_policy`` (a :class:`~repro.faults.retry.RetryPolicy`)
    governs retransmission after a faulted walk.  Without an injector
    the walk is the paper's atomic register/unwind and never retries.
    A faulted walk with no retry policy is unwound and reported with
    ``gave_up=True`` after the single attempt.

    ``counters`` (the service's
    :class:`~repro.core.service.ServiceCounters`) receives the walk's
    accounting — walks, hops, retries, drops, duplicates, crashes,
    give-ups — once, after the outcome is final; every walk the
    service causes passes here, so this is the one place they are
    tallied.  Under an open span the walk is a ``signal.register``
    span, with one ``signal.attempt`` child per (re)transmission under
    fault injection.
    """
    if injector is None:
        result = _register_walk(state, policy, packet)
    else:
        result = _register_with_faults(
            state, policy, packet, injector, retry_policy
        )
    if counters is not None:
        counters.record_signaling(result)
    return result


def _register_walk(
    state: NetworkState,
    policy: SparePolicy,
    packet: BackupRegisterPacket,
) -> RegistrationResult:
    """The fault-free atomic walk: one validate-then-apply transaction
    (:func:`repro.kernels.apply.batch_register_walk`)."""
    rejected_link, hops, resizes = batch_register_walk(
        state,
        policy,
        packet.registration_key,
        packet.backup_route.link_ids,
        packet.primary_lset,
        packet.bw_req,
    )
    return RegistrationResult(
        success=rejected_link is None,
        rejected_link=rejected_link,
        resizes=resizes,
        hops_signaled=hops,
    )


def _register_with_faults(
    state: NetworkState,
    policy: SparePolicy,
    packet: BackupRegisterPacket,
    injector,
    retry_policy,
) -> RegistrationResult:
    """Lossy register walk with retransmission.

    Each attempt walks until success, a resource rejection, or an
    injected fault (drop or router crash).  Faulted attempts leave
    partial registrations — exactly what a real crash or loss leaves —
    which the source-side unwind then rolls back idempotently before
    the next attempt, so retries always start from clean state and the
    caller can never observe a half-registered backup.
    """
    result = RegistrationResult(success=False)
    result.attempts = 0
    while True:
        result.attempts += 1
        if _attempt(state, policy, packet, injector, result) != _FAULTED:
            return result
        unwind_backup_path(state, policy, packet)
        if retry_policy is None or retry_policy.gives_up(
            result.attempts, result.delay
        ):
            result.gave_up = True
            return result
        result.delay += retry_policy.backoff(result.attempts, injector.retry_rng)


#: Internal walk statuses.
_OK = "ok"
_REJECTED = "rejected"
_FAULTED = "faulted"


@spanned(
    "signal.attempt",
    "signaling",
    lambda state, policy, packet, injector, result: dict(
        attempt=result.attempts
    ),
    lambda status: dict(outcome=status),
)
def _attempt(
    state: NetworkState,
    policy: SparePolicy,
    packet: BackupRegisterPacket,
    injector,
    result: RegistrationResult,
) -> str:
    """One lossy attempt, as a prefix of the fused transaction:
    validate, draw the faults, commit the hops the packet reached and
    — when a hop rejected — release them again (the upstream release
    packet).  A faulted prefix stays for the source's unwind."""
    route = packet.backup_route.link_ids
    key = packet.registration_key
    rejecting = rejecting_hop(
        state, key, route, packet.primary_lset, packet.bw_req
    )
    status, reached = _walk_once(injector, len(route), rejecting, result)
    prefix = route[:reached]
    _, _, resizes = batch_register_walk(
        state, policy, key, prefix, packet.primary_lset, packet.bw_req
    )
    if status == _REJECTED:
        batch_release_walk(state, policy, key, prefix)
        result.rejected_link = route[reached]
        resizes = []
    result.resizes = resizes
    result.success = status == _OK
    return status


def _walk_once(
    injector, hops: int, rejecting: Optional[int], result: RegistrationResult
) -> Tuple[str, int]:
    """Draw one attempt's fault script; pure accounting into
    ``result``.  Returns the status and how many hops registered: the
    crash point first, then one verdict per hop until a drop (the hop
    never sees the packet), the rejecting hop, a crash (the hop
    registers, then dies) or the end of the route."""
    crash_at = injector.crash_hop(hops)
    for hop in range(hops):
        event, delay = injector.sample_hop()
        result.delay += delay
        result.hops_signaled += 1
        if event == "drop":
            result.drops += 1
            return _FAULTED, hop
        if event == "duplicate":
            # Second delivery of the same packet: one more message on
            # the wire, absorbed by the router that already registered.
            result.duplicates += 1
            result.hops_signaled += 1
        if hop == rejecting:
            return _REJECTED, hop
        if crash_at == hop:
            result.crashes += 1
            return _FAULTED, hop + 1
    return _OK, hops


@spanned("signal.release", "signaling", _walk_tags)
def release_backup_path(
    state: NetworkState,
    policy: SparePolicy,
    packet: BackupReleasePacket,
) -> List[ResizeOutcome]:
    """Walk a release packet along the backup route, shrinking spare
    pools as registrations disappear."""
    return batch_release_walk(
        state, policy, packet.registration_key, packet.backup_route.link_ids
    )


@spanned(
    "signal.unwind",
    "signaling",
    lambda state, policy, packet: dict(
        connection=packet.connection_id, backup_index=packet.backup_index
    ),
    lambda released: dict(released=released),
)
def unwind_backup_path(
    state: NetworkState,
    policy: SparePolicy,
    packet: BackupRegisterPacket,
) -> int:
    """Source-initiated idempotent unwind of a (possibly partial) walk.

    After a drop or router crash the source does not know how far its
    register packet got, so the recovery release must be safe against
    every prefix: it walks the whole route and releases only the links
    that actually hold this packet's registration.  Calling it twice —
    or against a route that never registered anywhere — is a no-op,
    which is what makes crashed walks safely retryable.

    Returns the number of registrations released.
    """
    key = packet.registration_key
    holding = [
        link_id
        for link_id in packet.backup_route.link_ids
        if state.ledger(link_id).has_backup(key)
    ]
    batch_release_walk(state, policy, key, holding)
    return len(holding)
