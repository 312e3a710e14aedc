"""Regression tests for the source-initiated signaling unwind.

The duplicate-delivery + crash-on-last-hop corner was previously only
exercised indirectly through the chaos smoke test; these tests script
the fault sequence exactly.  A scripted injector replaces the random
:class:`~repro.faults.injector.FaultInjector` so each test controls
which hop duplicates, drops, or crashes — and then asserts the unwind
restores the pristine state fingerprint and stays idempotent.
"""

import pytest

from repro.core import (
    BackupRegisterPacket,
    SharedSparePolicy,
    register_backup_path,
)
from repro.core.signaling import unwind_backup_path
from repro.faults.retry import RetryPolicy
from repro.network import NetworkState
from repro.topology import Route, mesh_network

from .scripted import ScriptedInjector


@pytest.fixture
def net():
    return mesh_network(3, 3, 10.0)


@pytest.fixture
def state(net):
    return NetworkState(net)


def packet(net, conn_id=1):
    backup_route = Route.from_nodes(net, [0, 3, 4, 5, 2])
    primary_route = Route.from_nodes(net, [0, 1, 2])
    return BackupRegisterPacket(
        connection_id=conn_id,
        backup_route=backup_route,
        primary_lset=primary_route.lset,
        bw_req=1.0,
    )


class TestCrashOnLastHop:
    def test_crash_after_final_registration_unwinds_fully(self, net, state):
        """A crash on the *last* hop strands a complete registration
        chain (every link registered, success never reported); the
        source-side unwind must release all of it."""
        pkt = packet(net)
        pristine = state.fingerprint()
        last_hop = len(pkt.backup_route.link_ids) - 1
        injector = ScriptedInjector(crash_script=[last_hop])
        result = register_backup_path(
            state, SharedSparePolicy(), pkt, injector, retry_policy=None
        )
        assert not result.success
        assert result.gave_up
        assert result.crashes == 1
        assert state.fingerprint() == pristine

    def test_duplicate_then_crash_on_last_hop(self, net, state):
        """The regression corner: the last hop's register packet is
        delivered twice *and* the router crashes after registering.
        The duplicate must be absorbed idempotently (single
        registration, counted once) and the unwind must still restore
        the pristine state."""
        pkt = packet(net)
        pristine = state.fingerprint()
        route = pkt.backup_route.link_ids
        last_hop = len(route) - 1
        # Clean deliveries up to the last hop, which duplicates.
        events = [(None, 0.0)] * last_hop + [("duplicate", 0.0)]
        injector = ScriptedInjector(
            hop_events=events, crash_script=[last_hop]
        )
        result = register_backup_path(
            state, SharedSparePolicy(), pkt, injector, retry_policy=None
        )
        assert not result.success
        assert result.duplicates == 1
        assert result.crashes == 1
        assert state.fingerprint() == pristine

    def test_retry_after_last_hop_crash_succeeds_cleanly(self, net, state):
        """With a retry policy, the attempt after a crash-on-last-hop
        walk starts from unwound state and registers every hop exactly
        once."""
        pkt = packet(net)
        last_hop = len(pkt.backup_route.link_ids) - 1
        injector = ScriptedInjector(crash_script=[last_hop, None])
        result = register_backup_path(
            state, SharedSparePolicy(), pkt, injector,
            retry_policy=RetryPolicy(max_attempts=3, jitter=0.0),
        )
        assert result.success
        assert result.attempts == 2
        assert result.crashes == 1
        for link_id in pkt.backup_route.link_ids:
            ledger = state.ledger(link_id)
            assert ledger.has_backup(pkt.registration_key)
            assert ledger.backup_count == 1
            assert ledger.aplv.max_element == 1  # no double registration


class TestUnwindIdempotence:
    def test_unwind_partial_walk_releases_prefix_only(self, net, state):
        """A drop mid-route leaves a registered prefix; the unwind
        releases exactly that prefix and restores the fingerprint."""
        pkt = packet(net)
        pristine = state.fingerprint()
        # Two clean hops, then the third delivery drops.
        events = [(None, 0.0), (None, 0.0), ("drop", 0.0)]
        injector = ScriptedInjector(hop_events=events)
        result = register_backup_path(
            state, SharedSparePolicy(), pkt, injector, retry_policy=None
        )
        assert not result.success
        assert result.drops == 1
        assert state.fingerprint() == pristine

    def test_unwind_is_idempotent(self, net, state):
        """Unwinding twice — or unwinding a never-registered walk —
        is a no-op; only the first pass over stranded registrations
        releases anything."""
        pkt = packet(net)
        policy = SharedSparePolicy()
        pristine = state.fingerprint()
        # Never registered: nothing to release.
        assert unwind_backup_path(state, policy, pkt) == 0
        # Strand a full registration by hand, then unwind twice.
        for link_id in pkt.backup_route.link_ids:
            state.ledger(link_id).register_backup(
                pkt.registration_key, pkt.primary_lset, pkt.bw_req
            )
            policy.resize(state.ledger(link_id))
        assert unwind_backup_path(state, policy, pkt) == len(
            pkt.backup_route.link_ids
        )
        assert unwind_backup_path(state, policy, pkt) == 0
        assert state.fingerprint() == pristine

    def test_unwind_spares_other_connections(self, net, state):
        """The unwind releases only its own packet's registrations:
        another connection's backup on the same links survives with
        its spare reservation intact."""
        policy = SharedSparePolicy()
        survivor = packet(net, conn_id=1)
        register_backup_path(state, policy, survivor)
        with_survivor = state.fingerprint()
        doomed = packet(net, conn_id=2)
        last_hop = len(doomed.backup_route.link_ids) - 1
        injector = ScriptedInjector(crash_script=[last_hop])
        result = register_backup_path(
            state, policy, doomed, injector, retry_policy=None
        )
        assert not result.success
        assert state.fingerprint() == with_survivor
        for link_id in survivor.backup_route.link_ids:
            assert state.ledger(link_id).has_backup(1)
