"""Tests for channels, connection requests and DR-connections."""

import pytest

from repro.core import (
    Channel,
    ChannelRole,
    ChannelState,
    ConnectionRequest,
    ConnectionState,
    ConnectionStateError,
    DRConnection,
)
from repro.topology import Route, mesh_network


@pytest.fixture
def net():
    return mesh_network(3, 3, 10.0)


def make_connection(net, with_backup=True):
    primary = Channel(
        role=ChannelRole.PRIMARY, route=Route.from_nodes(net, [0, 1, 2])
    )
    backup = None
    if with_backup:
        backup = Channel(
            role=ChannelRole.BACKUP,
            route=Route.from_nodes(net, [0, 3, 4, 5, 2]),
        )
    request = ConnectionRequest(
        request_id=1, source=0, destination=2, bw_req=1.0
    )
    return DRConnection(
        connection_id=1, request=request, primary=primary, backup=backup
    )


class TestConnectionRequest:
    def test_departure_time(self):
        req = ConnectionRequest(1, 0, 1, 1.0, arrival_time=5.0,
                                holding_time=10.0)
        assert req.departure_time == 15.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ConnectionRequest(1, 2, 2, 1.0)
        with pytest.raises(ValueError):
            ConnectionRequest(1, 0, 1, 0.0)
        with pytest.raises(ValueError):
            ConnectionRequest(1, 0, 1, 1.0, holding_time=0.0)

    @pytest.mark.parametrize(
        "bw", [float("nan"), 5e-10, 1e-12, float("inf")]
    )
    def test_bandwidth_must_be_finite_and_above_epsilon(self, bw):
        with pytest.raises(ValueError):
            ConnectionRequest(1, 0, 1, bw)

    def test_nan_holding_time_rejected(self):
        with pytest.raises(ValueError):
            ConnectionRequest(1, 0, 1, 1.0, holding_time=float("nan"))


class TestChannel:
    def test_activation_promotes_backup(self, net):
        backup = Channel(
            role=ChannelRole.BACKUP, route=Route.from_nodes(net, [0, 1])
        )
        backup.activate()
        assert backup.role is ChannelRole.PRIMARY
        assert backup.state is ChannelState.ACTIVE

    def test_primary_cannot_activate(self, net):
        primary = Channel(
            role=ChannelRole.PRIMARY, route=Route.from_nodes(net, [0, 1])
        )
        with pytest.raises(ConnectionStateError):
            primary.activate()

    def test_failed_backup_cannot_activate(self, net):
        backup = Channel(
            role=ChannelRole.BACKUP, route=Route.from_nodes(net, [0, 1])
        )
        backup.mark_failed()
        with pytest.raises(ConnectionStateError):
            backup.activate()

    def test_released_channel_cannot_fail(self, net):
        channel = Channel(
            role=ChannelRole.PRIMARY, route=Route.from_nodes(net, [0, 1])
        )
        channel.release()
        with pytest.raises(ConnectionStateError):
            channel.mark_failed()

    def test_crosses(self, net):
        route = Route.from_nodes(net, [0, 1])
        channel = Channel(role=ChannelRole.PRIMARY, route=route)
        assert channel.crosses(route.link_ids[0])
        assert not channel.crosses(999)


class TestDRConnection:
    def test_role_validation(self, net):
        route = Route.from_nodes(net, [0, 1])
        request = ConnectionRequest(1, 0, 1, 1.0)
        with pytest.raises(ConnectionStateError):
            DRConnection(
                connection_id=1,
                request=request,
                primary=Channel(role=ChannelRole.BACKUP, route=route),
            )

    def test_protected_connection_active(self, net):
        conn = make_connection(net)
        assert conn.state is ConnectionState.ACTIVE
        assert conn.has_backup
        assert conn.is_active

    def test_unprotected_state_derived(self, net):
        conn = make_connection(net, with_backup=False)
        assert conn.state is ConnectionState.UNPROTECTED
        assert conn.is_active

    def test_backup_overlap(self, net):
        conn = make_connection(net)
        assert conn.backup_overlap_with_primary() == 0

    def test_recovery_flow(self, net):
        conn = make_connection(net)
        conn.mark_recovering()
        assert conn.state is ConnectionState.RECOVERING
        promoted = conn.promote_backup()
        assert promoted.role is ChannelRole.PRIMARY
        assert conn.backup is None
        assert conn.state is ConnectionState.UNPROTECTED
        assert conn.primary_route.nodes == (0, 3, 4, 5, 2)

    def test_promote_requires_recovering(self, net):
        conn = make_connection(net)
        with pytest.raises(ConnectionStateError):
            conn.promote_backup()

    def test_promote_without_backup_fails(self, net):
        conn = make_connection(net, with_backup=False)
        conn.mark_recovering()
        with pytest.raises(ConnectionStateError):
            conn.promote_backup()

    def test_terminate_releases_channels(self, net):
        conn = make_connection(net)
        conn.terminate()
        assert conn.state is ConnectionState.TERMINATED
        assert conn.primary.state is ChannelState.RELEASED
        with pytest.raises(ConnectionStateError):
            conn.terminate()

    def test_cannot_recover_failed_connection(self, net):
        conn = make_connection(net)
        conn.mark_failed()
        with pytest.raises(ConnectionStateError):
            conn.mark_recovering()

    def test_views(self, net):
        conn = make_connection(net)
        assert conn.source == 0
        assert conn.destination == 2
        assert conn.bw_req == 1.0
        assert conn.backup_route.hop_count == 4


class TestSelectBackup:
    def test_select_backup_reorders(self, net):
        from repro.core import Channel, ChannelRole
        from repro.topology import Route

        conn = make_connection(net)
        extra = Channel(
            role=ChannelRole.BACKUP,
            route=Route.from_nodes(net, [0, 3, 6, 7, 8, 5, 2]),
            registration_index=1,
        )
        conn.extra_backups.append(extra)
        conn.select_backup(1)
        assert conn.backup is extra
        assert conn.backup_count == 2
        # Index 0 selection is a no-op.
        conn.select_backup(0)
        assert conn.backup is extra

    def test_select_backup_bounds(self, net):
        from repro.core import ConnectionStateError

        conn = make_connection(net)
        with pytest.raises(ConnectionStateError):
            conn.select_backup(5)

    def test_extras_require_first_backup(self, net):
        from repro.core import Channel, ChannelRole, ConnectionStateError
        from repro.core.connection import ConnectionRequest, DRConnection
        from repro.topology import Route

        with pytest.raises(ConnectionStateError):
            DRConnection(
                connection_id=1,
                request=ConnectionRequest(1, 0, 2, 1.0),
                primary=Channel(
                    role=ChannelRole.PRIMARY,
                    route=Route.from_nodes(net, [0, 1, 2]),
                ),
                backup=None,
                extra_backups=[
                    Channel(
                        role=ChannelRole.BACKUP,
                        route=Route.from_nodes(net, [0, 3, 4, 5, 2]),
                    )
                ],
            )
