"""The commit, hop by hop — the reference the fused walks are held to.

:mod:`repro.kernels.apply` mutates a route's ledgers through their
private fields, one validate-then-apply transaction per walk.  This
module keeps the spelling it replaced, written the way Section 2.2
states it: each router in turn checks its link, calls one of
:class:`~repro.network.state.LinkLedger`'s public mutators, resizes the
spare pool and forwards the packet; a rejecting router's release packet
undoes the upstream hops in reverse; an activating router turns the
registration into a primary reservation, spare covering what free
bandwidth cannot; under fault injection the walk consults the injector
at every hop *while* it mutates, and the source's unwind visits the
whole route.

:class:`HopByHopController` is the admission controller with every
commit method spelled this way.  The reference service of
:mod:`repro.testing.oracle` commits through it, so the differential
oracle diffs each walk — results, fault accounting (twin injectors
consumed draw for draw) and fingerprints — after every operation.

Only valid inputs are comparable: a broken precondition raises
:class:`~repro.network.state.ResourceError` (an activation's missing
spare :class:`~repro.core.errors.RecoveryError`) here too, but
mid-walk, with the hops before it already mutated.  And a rejection
registers, then undoes, which lands exactly where the fused walk (which
mutates nothing) stays only while bandwidth sums are exact.
"""

from __future__ import annotations

from ..core.admission import AdmissionController
from ..core.errors import RecoveryError
from ..core.signaling import RegistrationResult
from ..network.state import BW_EPSILON


class HopByHopController(AdmissionController):
    """:class:`~repro.core.admission.AdmissionController` whose commit
    methods walk hop by hop; admission, teardown and recovery are
    unchanged."""

    def reserve(self, link_ids, bw: float) -> bool:
        """Reserve hop by hop; an infeasible hop undoes the ones before."""
        reserved = []
        for link_id in link_ids:
            ledger = self._state.ledger(link_id)
            if ledger.primary_headroom() + BW_EPSILON < bw:
                for undo in reversed(reserved):
                    undo.release_primary(bw)
                return False
            ledger.reserve_primary(bw)
            reserved.append(ledger)
        return True

    def unreserve(self, link_ids, bw: float) -> None:
        """Release hop by hop; freed bandwidth may cover a spare deficit."""
        for link_id in link_ids:
            ledger = self._state.ledger(link_id)
            ledger.release_primary(bw)
            self._policy.resize(ledger)

    def drop(self, key, link_ids) -> None:
        """The release packet's walk."""
        for link_id in link_ids:
            ledger = self._state.ledger(link_id)
            ledger.release_backup(key)
            self._policy.resize(ledger)

    def deregister(self, packet) -> None:
        self.drop(packet.registration_key, packet.backup_route.link_ids)

    def activate(self, key, link_ids, bw: float) -> None:
        """Backup activation hop by hop: each router releases the
        registration, lets spare cover the shortfall of free bandwidth
        and reserves the connection's bandwidth as primary."""
        for link_id in link_ids:
            ledger = self._state.ledger(link_id)
            ledger.release_backup(key)
            shortfall = bw - ledger.free_bw
            if shortfall > BW_EPSILON:
                if ledger.spare_bw + BW_EPSILON < shortfall:
                    raise RecoveryError(
                        "link {}: assessment promised spare that is "
                        "missing".format(link_id)
                    )
                ledger.set_spare(ledger.spare_bw - shortfall)
            ledger.reserve_primary(bw)
            self._policy.resize(ledger)

    def unwind(self, packet) -> int:
        """Source-initiated release: every hop of the route is visited,
        the ones holding the packet's registration release it."""
        holding = [
            link_id for link_id in packet.backup_route.link_ids
            if self._state.ledger(link_id).has_backup(packet.registration_key)
        ]
        self.drop(packet.registration_key, holding)
        return len(holding)

    def register(self, packet) -> RegistrationResult:
        return self.reregister(packet, self._injector, self._retry_policy)

    def reregister(self, packet, injector, retry_policy) -> RegistrationResult:
        """The register walk: atomic without an injector, lossy with
        retransmission under one."""
        result = RegistrationResult(success=False)
        if injector is None:
            self._walk(packet, None, result)
        else:
            result.attempts = 0
            while True:
                result.attempts += 1
                if self._walk(packet, injector, result) != "faulted":
                    break
                self.unwind(packet)
                if retry_policy is None or retry_policy.gives_up(
                    result.attempts, result.delay
                ):
                    result.gave_up = True
                    break
                result.delay += retry_policy.backoff(
                    result.attempts, injector.retry_rng
                )
        return self._tally(result)

    def _walk(self, packet, injector, result) -> str:
        """One walk of the register packet, mutating ledgers and
        ``result`` as it goes; returns its status.  A rejecting router's
        release packet undoes the upstream registrations in reverse hop
        order; after a drop or a crash the partial walk stays for the
        source's unwind."""
        route = packet.backup_route.link_ids
        crash_at = injector.crash_hop(len(route)) if injector else None
        result.resizes = []
        registered = []
        for hop, link_id in enumerate(route):
            event, delay = injector.sample_hop() if injector else (None, 0.0)
            result.delay += delay
            result.hops_signaled += 1
            if event == "drop":
                result.drops += 1
                return "faulted"
            if event == "duplicate":  # one more message on the wire
                result.duplicates += 1
                result.hops_signaled += 1
            ledger = self._state.ledger(link_id)
            if ledger.backup_headroom() + BW_EPSILON < packet.bw_req:
                self.drop(packet.registration_key, registered[::-1])
                result.success = False
                result.rejected_link = link_id
                result.resizes = []
                return "rejected"
            ledger.register_backup(
                packet.registration_key, packet.primary_lset, packet.bw_req
            )
            result.resizes.append(self._policy.resize(ledger))
            registered.append(link_id)
            if crash_at == hop:
                result.crashes += 1
                return "faulted"
        result.success = True
        return "ok"
