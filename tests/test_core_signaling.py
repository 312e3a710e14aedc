"""Tests for backup-path register/release signaling (Section 2.2)."""

import pytest

from repro.core import (
    BackupRegisterPacket,
    BackupReleasePacket,
    SharedSparePolicy,
    SignalingError,
    register_backup_path,
    release_backup_path,
)
from repro.network import NetworkState
from repro.topology import Route, mesh_network


@pytest.fixture
def net():
    return mesh_network(3, 3, 10.0)


@pytest.fixture
def state(net):
    return NetworkState(net)


def packet(net, conn_id=1, nodes=(0, 3, 4, 5, 2), primary=(0, 1, 2), bw=1.0):
    backup_route = Route.from_nodes(net, list(nodes))
    primary_route = Route.from_nodes(net, list(primary))
    return BackupRegisterPacket(
        connection_id=conn_id,
        backup_route=backup_route,
        primary_lset=primary_route.lset,
        bw_req=bw,
    )


class TestRegistration:
    def test_registers_every_hop(self, net, state):
        pkt = packet(net)
        result = register_backup_path(state, SharedSparePolicy(), pkt)
        assert result.success
        assert result.hops_signaled == 4
        for link_id in pkt.backup_route.link_ids:
            assert state.ledger(link_id).has_backup(1)
            assert state.ledger(link_id).spare_bw == pytest.approx(1.0)

    def test_aplv_filled_from_piggybacked_lset(self, net, state):
        pkt = packet(net)
        register_backup_path(state, SharedSparePolicy(), pkt)
        first = state.ledger(pkt.backup_route.link_ids[0])
        assert first.aplv.support() == set(pkt.primary_lset)

    def test_deficit_reported_not_fatal(self, net, state):
        policy = SharedSparePolicy()
        # Fill a link so spare cannot grow past 1 unit.
        shared = packet(net, conn_id=1).backup_route.link_ids[0]
        state.ledger(shared).reserve_primary(9.0)
        register_backup_path(state, policy, packet(net, conn_id=1))
        # Second conflicting backup (same primary links) still accepted.
        result = register_backup_path(
            state, policy, packet(net, conn_id=2, nodes=(0, 3, 6, 7, 8))
        )
        assert result.success
        first_hop = state.ledger(shared)
        assert first_hop.aplv.max_element == 2
        assert first_hop.spare_bw == pytest.approx(1.0)  # capped
        assert result.total_deficit > 0

    def test_invalid_bw_rejected(self, net):
        with pytest.raises(SignalingError):
            BackupRegisterPacket(
                connection_id=1,
                backup_route=Route.from_nodes(net, [0, 1]),
                primary_lset=frozenset({0}),
                bw_req=0.0,
            )


class TestRelease:
    def test_release_shrinks_shared_spare_precisely(self, net, state):
        policy = SharedSparePolicy()
        register_backup_path(state, policy, packet(net, conn_id=1))
        # Overlapping primaries: conn 2 shares the primary link set.
        register_backup_path(state, policy, packet(net, conn_id=2))
        shared = packet(net).backup_route.link_ids[0]
        assert state.ledger(shared).spare_bw == pytest.approx(2.0)
        release_backup_path(
            state,
            policy,
            BackupReleasePacket(
                connection_id=2,
                backup_route=packet(net).backup_route,
                primary_lset=packet(net).primary_lset,
            ),
        )
        assert state.ledger(shared).spare_bw == pytest.approx(1.0)
