"""Admission control — DR-connection management steps 1–3.

Section 2.2 lists the four management steps of a DR-connection; the
admission controller performs the first three atomically:

1. select a primary route and reserve resources;
2. find a backup route;
3. send the backup-path register packet along it.

Route *selection* is delegated to the bound routing scheme; this
module owns the resource transaction: reserving primary bandwidth,
running backup registration, and rolling everything back when any
stage fails, so a rejected request never leaks reservations.  The
controller is also the one object that walks a route's ledgers: its
commit methods (reserve, register, release, activate) serve admission,
teardown and recovery alike, each one of the validate-then-apply walks
of :mod:`repro.kernels.apply` — an infeasible primary or a rejected
backup mutates nothing, and a broken precondition raises before the
first write.  The reference service of :mod:`repro.testing.oracle`
overrides exactly those methods with the hop-by-hop spelling.

Policy knob: ``require_backup`` (default True) rejects a request whose
backup cannot be routed or registered — a DR-connection without a
backup offers no dependability.  With ``require_backup = False`` the
connection is admitted unprotected, which the fault-tolerance metric
then counts against the scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..kernels.apply import (
    batch_activate_walk,
    batch_release_primary,
    batch_release_walk,
    batch_reserve_primary,
)
from ..network.state import NetworkState
from ..routing.base import RoutePlan
from .channel import Channel, ChannelRole
from .connection import ConnectionRequest, DRConnection
from . import signaling
from .multiplexing import SparePolicy
from .signaling import (
    BackupRegisterPacket,
    BackupReleasePacket,
    RegistrationResult,
    register_backup_path,
    release_backup_path,
)


@dataclass
class AdmissionDecision:
    """The controller's verdict on one request.

    ``degraded`` marks a connection admitted *unprotected* because
    backup signaling exhausted its retries under injected faults (not
    because resources were missing) — the caller is expected to queue
    it for background backup re-establishment (Section 2.3 under
    adversity).
    """

    request: ConnectionRequest
    plan: RoutePlan
    connection: Optional[DRConnection] = None
    reason: str = "ok"
    backup_registration_deficit: float = 0.0
    degraded: bool = False

    @property
    def accepted(self) -> bool:
        return self.connection is not None


#: Rejection reason strings (stable identifiers used by the reports).
REASON_OK = "ok"
REASON_NO_PRIMARY = "no-primary-route"
REASON_PRIMARY_RESERVATION = "primary-reservation-failed"
REASON_NO_BACKUP_ROUTE = "no-backup-route"
REASON_BACKUP_REGISTRATION = "backup-registration-rejected"


class AdmissionController:
    """Transactional establishment/teardown of DR-connections."""

    def __init__(
        self,
        state: NetworkState,
        spare_policy: SparePolicy,
        require_backup: bool = True,
        injector=None,
        retry_policy=None,
        counters=None,
    ) -> None:
        """``injector``/``retry_policy`` subject backup signaling to
        fault injection with retransmission (see
        :mod:`repro.core.signaling`).  Under an injector, a connection
        whose backup signaling exhausts its retries is admitted
        unprotected instead of rejected — the decision is flagged
        ``degraded`` so the service can re-establish the backup in the
        background.  ``counters`` (the service's
        :class:`~repro.core.service.ServiceCounters`) receives per-walk
        signaling accounting when present."""
        self._state = state
        self._policy = spare_policy
        self._require_backup = require_backup
        self._injector = injector
        self._retry_policy = retry_policy
        self._counters = counters
        self._next_seq = 0

    @property
    def spare_policy(self) -> SparePolicy:
        return self._policy

    # ------------------------------------------------------------------
    # Establishment
    # ------------------------------------------------------------------
    def admit(self, request: ConnectionRequest, plan: RoutePlan) -> AdmissionDecision:
        decision = AdmissionDecision(request=request, plan=plan)
        if plan.primary is None:
            decision.reason = REASON_NO_PRIMARY
            return decision
        if not self.reserve(plan.primary.link_ids, request.bw_req):
            decision.reason = REASON_PRIMARY_RESERVATION
            return decision

        backup_channel: Optional[Channel] = None
        extra_channels: List[Channel] = []
        if plan.backup is None:
            if self._require_backup:
                self.unreserve(plan.primary.link_ids, request.bw_req)
                decision.reason = REASON_NO_BACKUP_ROUTE
                return decision
        else:
            packet = BackupRegisterPacket(
                connection_id=request.request_id,
                backup_route=plan.backup,
                primary_lset=plan.primary.lset,
                bw_req=request.bw_req,
            )
            registration = self.register(packet)
            if not registration.success:
                if registration.gave_up:
                    # Signaling faults, not resources, defeated the
                    # backup (only an injector makes a walk give up):
                    # admit unprotected and let the service
                    # re-establish protection in the background.
                    decision.degraded = True
                elif self._require_backup:
                    self.unreserve(plan.primary.link_ids, request.bw_req)
                    decision.reason = REASON_BACKUP_REGISTRATION
                    return decision
                # Otherwise admitted unprotected: primary stands.
            else:
                decision.backup_registration_deficit = registration.total_deficit
                backup_channel = Channel(
                    role=ChannelRole.BACKUP, route=plan.backup
                )
                # Further backups are best-effort: a rejected extra
                # never blocks admission (the first backup already
                # delivers the dependability guarantee).
                for index, route in enumerate(plan.extra_backups, start=1):
                    extra = BackupRegisterPacket(
                        connection_id=request.request_id,
                        backup_route=route,
                        primary_lset=plan.primary.lset,
                        bw_req=request.bw_req,
                        backup_index=index,
                    )
                    outcome = self.register(extra)
                    if outcome.success:
                        decision.backup_registration_deficit += (
                            outcome.total_deficit
                        )
                        extra_channels.append(
                            Channel(
                                role=ChannelRole.BACKUP,
                                route=route,
                                registration_index=index,
                            )
                        )

        connection = DRConnection(
            connection_id=request.request_id,
            request=request,
            primary=Channel(role=ChannelRole.PRIMARY, route=plan.primary),
            backup=backup_channel,
            extra_backups=extra_channels,
            established_seq=self._next_seq,
        )
        self._next_seq += 1
        decision.connection = connection
        return decision

    # ------------------------------------------------------------------
    # Teardown (management step 4)
    # ------------------------------------------------------------------
    def release(self, connection: DRConnection) -> None:
        """Release primary and backup resources of a connection.

        Released primary bandwidth returns to the free pool; the
        per-link resize lets deficient spare pools absorb it, per
        Section 5's replenishment rule.
        """
        self.unreserve(connection.primary_route.link_ids, connection.bw_req)
        for channel in connection.all_backups:
            self.deregister(
                BackupReleasePacket(
                    connection_id=connection.connection_id,
                    backup_route=channel.route,
                    primary_lset=connection.primary_route.lset,
                    backup_index=channel.registration_index,
                )
            )
        connection.terminate()

    # ------------------------------------------------------------------
    # The commit: every ledger walk the service makes
    # ------------------------------------------------------------------
    # Each method resolves its module-level walk binding at call time
    # (the e2e harness wraps the bindings there).  ``reregister`` is
    # ``register`` at the signaling module's binding, which counts the
    # re-protection walks; ``drop`` is ``deregister`` without the span.
    def reserve(self, link_ids: Sequence[int], bw: float) -> bool:
        return batch_reserve_primary(self._state, link_ids, bw)

    def unreserve(self, link_ids: Sequence[int], bw: float) -> None:
        # Freed bandwidth may cover a spare deficit along the route.
        batch_release_primary(self._state, self._policy, link_ids, bw)

    def register(self, packet: BackupRegisterPacket) -> RegistrationResult:
        return self._tally(register_backup_path(
            self._state, self._policy, packet, self._injector,
            self._retry_policy,
        ))

    def reregister(self, packet, injector, retry_policy) -> RegistrationResult:
        return self._tally(signaling.register_backup_path(
            self._state, self._policy, packet, injector, retry_policy
        ))

    def _tally(self, result: RegistrationResult) -> RegistrationResult:
        """Every register walk passes here: the one place the service's
        signaling accounting is kept."""
        if self._counters is not None:
            self._counters.record_signaling(result)
        return result

    def deregister(self, packet: BackupReleasePacket) -> None:
        release_backup_path(self._state, self._policy, packet)

    def drop(self, key, link_ids: Sequence[int]) -> None:
        batch_release_walk(self._state, self._policy, key, link_ids)

    def activate(self, key, link_ids: Sequence[int], bw: float) -> None:
        batch_activate_walk(self._state, self._policy, key, link_ids, bw)
