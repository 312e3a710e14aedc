"""The commit, hop by hop — the reference the fused walks are held to.

:mod:`repro.kernels.apply` mutates a route's ledgers through their
private fields, one validate-then-apply transaction per walk.  This
module keeps the spelling it replaced, written the way Section 2.2
states it: each router in turn checks its link, calls one of
:class:`~repro.network.state.LinkLedger`'s public mutators, resizes the
spare pool and forwards the packet; a rejecting router's release packet
undoes the upstream hops in reverse; an activating router turns the
registration into a primary reservation, spare covering what free
bandwidth cannot; under fault injection the walk
consults the injector at every hop *while* it mutates, and the source's
unwind visits the whole route.  ``tests/test_commit_lockstep.py`` runs
both on twin states and demands equal results, equal fault accounting
(the injector streams consumed draw for draw) and equal fingerprints.

Only valid inputs are comparable: a broken precondition raises
:class:`~repro.network.state.ResourceError` (an activation's missing
spare :class:`~repro.core.errors.RecoveryError`) here too, but
mid-walk, with the hops before it already mutated.
"""

from __future__ import annotations

from ..core.errors import RecoveryError
from ..core.signaling import BackupRegisterPacket, RegistrationResult
from ..network.state import BW_EPSILON, NetworkState


def reserve_primary(state: NetworkState, link_ids, bw: float) -> bool:
    """Reserve hop by hop; an infeasible hop undoes the ones before."""
    reserved = []
    for link_id in link_ids:
        ledger = state.ledger(link_id)
        if ledger.primary_headroom() + BW_EPSILON < bw:
            for undo in reversed(reserved):
                state.ledger(undo).release_primary(bw)
            return False
        ledger.reserve_primary(bw)
        reserved.append(link_id)
    return True


def release_primary(state: NetworkState, policy, link_ids, bw: float) -> None:
    """Release hop by hop; freed bandwidth may cover a spare deficit."""
    for link_id in link_ids:
        ledger = state.ledger(link_id)
        ledger.release_primary(bw)
        policy.resize(ledger)


def release_walk(state: NetworkState, policy, key, link_ids) -> list:
    """The release packet's walk; returns each hop's resize outcome."""
    outcomes = []
    for link_id in link_ids:
        ledger = state.ledger(link_id)
        ledger.release_backup(key)
        outcomes.append(policy.resize(ledger))
    return outcomes


def activate(state: NetworkState, policy, key, link_ids, bw: float) -> None:
    """Backup activation hop by hop: each router releases the
    registration, lets spare cover the shortfall of free bandwidth and
    reserves the connection's bandwidth as primary."""
    for link_id in link_ids:
        ledger = state.ledger(link_id)
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
        policy.resize(ledger)


def unwind(state: NetworkState, policy, packet: BackupRegisterPacket) -> int:
    """Source-initiated release: every hop of the route is visited,
    the ones holding the packet's registration release it."""
    released = 0
    for link_id in packet.backup_route.link_ids:
        ledger = state.ledger(link_id)
        if ledger.has_backup(packet.registration_key):
            ledger.release_backup(packet.registration_key)
            policy.resize(ledger)
            released += 1
    return released


def register_backup_path(
    state: NetworkState, policy, packet: BackupRegisterPacket,
    injector=None, retry_policy=None,
) -> RegistrationResult:
    """The register walk: atomic without an injector, lossy with
    retransmission under one."""
    if injector is None:
        return _register_walk(state, policy, packet)
    result = RegistrationResult(success=False)
    result.attempts = 0
    while True:
        result.attempts += 1
        if _walk_once(state, policy, packet, injector, result) != "faulted":
            return result
        unwind(state, policy, packet)
        if retry_policy is None or retry_policy.gives_up(
            result.attempts, result.delay
        ):
            result.gave_up = True
            return result
        result.delay += retry_policy.backoff(result.attempts, injector.retry_rng)


def _register_walk(state, policy, packet) -> RegistrationResult:
    """The fault-free walk; a rejection sends the release packet back
    upstream, undoing registrations in reverse hop order."""
    result = RegistrationResult(success=True)
    registered = []
    for link_id in packet.backup_route.link_ids:
        ledger = state.ledger(link_id)
        result.hops_signaled += 1
        if ledger.backup_headroom() + BW_EPSILON < packet.bw_req:
            release_walk(
                state, policy, packet.registration_key, registered[::-1]
            )
            result.success = False
            result.rejected_link = link_id
            result.resizes = []
            return result
        ledger.register_backup(
            packet.registration_key, packet.primary_lset, packet.bw_req
        )
        result.resizes.append(policy.resize(ledger))
        registered.append(link_id)
    return result


def _walk_once(state, policy, packet, injector, result) -> str:
    """One lossy walk attempt; mutates ledgers and ``result``'s fault
    accounting as it goes."""
    route = packet.backup_route.link_ids
    crash_at = injector.crash_hop(len(route))
    result.resizes = []
    result.success = False
    for hop, link_id in enumerate(route):
        event, delay = injector.sample_hop()
        result.delay += delay
        result.hops_signaled += 1
        if event == "drop":
            result.drops += 1
            return "faulted"
        if event == "duplicate":  # one more message on the wire
            result.duplicates += 1
            result.hops_signaled += 1
        ledger = state.ledger(link_id)
        if ledger.backup_headroom() + BW_EPSILON < packet.bw_req:
            unwind(state, policy, packet)
            result.rejected_link = link_id
            result.resizes = []
            return "rejected"
        ledger.register_backup(
            packet.registration_key, packet.primary_lset, packet.bw_req
        )
        result.resizes.append(policy.resize(ledger))
        if crash_at == hop:
            result.crashes += 1
            return "faulted"
    result.success = True
    return "ok"
