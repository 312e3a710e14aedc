"""Unit tests for link ledgers and the network state."""

import pytest

from repro.network import LinkLedger, NetworkState, ResourceError
from repro.topology import line_network, ring_network
from repro.topology.graph import Network


def make_ledger(capacity=10.0, num_links=8, link_id=0):
    return LinkLedger(link_id, capacity, num_links)


class TestPrimaryReservations:
    def test_reserve_and_release(self):
        ledger = make_ledger()
        ledger.reserve_primary(3.0)
        assert ledger.prime_bw == 3.0
        assert ledger.free_bw == 7.0
        ledger.release_primary(3.0)
        assert ledger.prime_bw == 0.0

    def test_over_reservation_rejected(self):
        ledger = make_ledger(capacity=2.0)
        ledger.reserve_primary(2.0)
        with pytest.raises(ResourceError):
            ledger.reserve_primary(0.5)

    def test_release_more_than_reserved_rejected(self):
        ledger = make_ledger()
        ledger.reserve_primary(1.0)
        with pytest.raises(ResourceError):
            ledger.release_primary(2.0)

    def test_nonpositive_amounts_rejected(self):
        ledger = make_ledger()
        with pytest.raises(ResourceError):
            ledger.reserve_primary(0.0)
        with pytest.raises(ResourceError):
            ledger.release_primary(-1.0)

    @pytest.mark.parametrize("bw", [float("nan"), 5e-10, float("inf")])
    def test_nan_and_sub_epsilon_amounts_rejected(self, bw):
        """NaN fails every comparison and a sub-epsilon backup would
        vanish from the demand map on release while still registered;
        both are refused before anything moves."""
        ledger = make_ledger()
        ledger.reserve_primary(1.0)
        before = (ledger.fingerprint(), ledger.version)
        for mutate in (ledger.reserve_primary, ledger.release_primary,
                       lambda amount: ledger.register_backup(1, {3}, amount)):
            with pytest.raises(ResourceError):
                mutate(bw)
        assert (ledger.fingerprint(), ledger.version) == before
        ledger.check_invariants()

    def test_primary_cannot_take_spare(self):
        ledger = make_ledger(capacity=5.0)
        ledger.register_backup(1, {2}, 1.0)
        ledger.set_spare(4.0)
        with pytest.raises(ResourceError):
            ledger.reserve_primary(2.0)


class TestBackupRegistry:
    def test_register_updates_aplv_and_demand(self):
        ledger = make_ledger()
        ledger.register_backup(7, {1, 2}, 1.0)
        assert ledger.aplv[1] == 1
        assert ledger.max_demand == 1.0
        assert ledger.backup_count == 1
        assert ledger.has_backup(7)
        assert ledger.backup_bw(7) == 1.0

    def test_demand_weighted_by_bandwidth(self):
        ledger = make_ledger()
        ledger.register_backup(1, {3}, 2.0)
        ledger.register_backup(2, {3}, 1.5)
        assert ledger.max_demand == pytest.approx(3.5)
        assert ledger.total_backup_bw == pytest.approx(3.5)

    def test_release_restores_counts(self):
        ledger = make_ledger()
        ledger.register_backup(1, {3, 4}, 1.0)
        ledger.register_backup(2, {4}, 1.0)
        ledger.release_backup(1)
        assert ledger.aplv[3] == 0
        assert ledger.aplv[4] == 1
        assert ledger.max_demand == pytest.approx(1.0)
        assert not ledger.has_backup(1)

    def test_duplicate_registration_rejected(self):
        ledger = make_ledger()
        ledger.register_backup(1, {0}, 1.0)
        with pytest.raises(ResourceError):
            ledger.register_backup(1, {2}, 1.0)

    def test_unknown_release_rejected(self):
        with pytest.raises(ResourceError):
            make_ledger().release_backup(42)

    def test_backups_view_returns_lsets(self):
        ledger = make_ledger()
        ledger.register_backup(5, {0, 1}, 1.0)
        assert ledger.backups() == {5: frozenset({0, 1})}


class TestSpareManagement:
    def test_set_spare_bounded_by_free(self):
        ledger = make_ledger(capacity=4.0)
        ledger.reserve_primary(3.0)
        with pytest.raises(ResourceError):
            ledger.set_spare(2.0)
        ledger.set_spare(1.0)
        assert ledger.spare_bw == 1.0

    def test_shrink_always_succeeds(self):
        ledger = make_ledger()
        ledger.set_spare(5.0)
        ledger.set_spare(0.0)
        assert ledger.spare_bw == 0.0

    def test_negative_spare_rejected(self):
        with pytest.raises(ResourceError):
            make_ledger().set_spare(-1.0)

    def test_spare_capacity_count_floor(self):
        ledger = make_ledger()
        ledger.set_spare(2.5)
        assert ledger.spare_capacity_count(1.0) == 2
        assert ledger.spare_capacity_count(2.5) == 1
        with pytest.raises(ResourceError):
            ledger.spare_capacity_count(0.0)

    def test_headrooms(self):
        ledger = make_ledger(capacity=10.0)
        ledger.reserve_primary(4.0)
        ledger.set_spare(3.0)
        assert ledger.primary_headroom() == pytest.approx(3.0)
        assert ledger.backup_headroom() == pytest.approx(6.0)


class TestInvariants:
    def test_clean_ledger_passes(self):
        ledger = make_ledger()
        ledger.reserve_primary(1.0)
        ledger.register_backup(1, {2}, 1.0)
        ledger.set_spare(1.0)
        ledger.check_invariants()

    def test_demand_desync_detected(self):
        ledger = make_ledger()
        ledger.register_backup(1, {2}, 1.0)
        ledger._demand.clear()  # simulate corruption
        with pytest.raises(ResourceError):
            ledger.check_invariants()


class TestNetworkState:
    def test_requires_frozen_network(self):
        net = Network(2)
        net.add_edge(0, 1, 1.0)
        with pytest.raises(ResourceError):
            NetworkState(net)

    def test_one_ledger_per_link(self):
        net = ring_network(4, 5.0)
        state = NetworkState(net)
        assert len(state.ledgers()) == net.num_links
        assert state.ledger(3).capacity == 5.0

    def test_aggregates(self):
        net = line_network(3, 10.0)
        state = NetworkState(net)
        state.ledger(0).reserve_primary(4.0)
        state.ledger(1).set_spare(6.0)
        assert state.total_capacity() == 40.0
        assert state.total_prime_bw() == 4.0
        assert state.total_spare_bw() == 6.0
        assert state.utilization() == pytest.approx(0.25)

    def test_unknown_link_rejected(self):
        state = NetworkState(line_network(2, 1.0))
        with pytest.raises(ResourceError):
            state.ledger(99)

    def test_check_invariants_scans_all(self):
        state = NetworkState(line_network(3, 1.0))
        state.check_invariants()
        state.ledger(2)._demand[0] = 1.0  # corrupt one ledger
        with pytest.raises(ResourceError):
            state.check_invariants()
