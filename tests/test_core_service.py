"""Tests for the DRTPService facade."""

import pytest

from repro.core import (
    ConnectionStateError,
    DRTPService,
    SharedSparePolicy,
)
from repro.network.state import ResourceError
from repro.routing import DLSRScheme, NoBackupScheme, PLSRScheme, ReactiveScheme
from repro.topology import line_network, mesh_network


@pytest.fixture
def service():
    return DRTPService(mesh_network(3, 3, 10.0), DLSRScheme())


class TestLifecycle:
    def test_request_and_release(self, service):
        decision = service.request(0, 8, 1.0)
        assert decision.accepted
        assert service.active_connection_count == 1
        service.release(decision.connection.connection_id)
        assert service.active_connection_count == 0
        assert service.state.total_prime_bw() == 0.0
        assert service.state.total_spare_bw() == 0.0

    def test_request_ids_unique_and_monotonic(self, service):
        a = service.request(0, 8, 1.0)
        b = service.request(1, 7, 1.0)
        assert b.connection.connection_id > a.connection.connection_id

    def test_explicit_request_id_respected(self, service):
        decision = service.request(0, 8, 1.0, request_id=55)
        assert decision.connection.connection_id == 55
        follow = service.request(1, 7, 1.0)
        assert follow.connection.connection_id == 56

    def test_release_unknown_raises(self, service):
        with pytest.raises(ConnectionStateError):
            service.release(7)

    def test_connection_lookup(self, service):
        decision = service.request(0, 8, 1.0)
        cid = decision.connection.connection_id
        assert service.connection(cid) is decision.connection
        assert service.has_connection(cid)
        with pytest.raises(ConnectionStateError):
            service.connection(999)


class TestCounters:
    def test_acceptance_accounting(self):
        # Tiny line network: second request must be rejected.
        service = DRTPService(line_network(3, 1.0), PLSRScheme(),
                              require_backup=False)
        first = service.request(0, 2, 1.0)
        second = service.request(0, 2, 1.0)
        assert first.accepted and not second.accepted
        counters = service.counters
        assert counters.requests == 2
        assert counters.accepted == 1
        assert counters.acceptance_ratio == pytest.approx(0.5)
        assert sum(counters.rejected.values()) == 1

    def test_hop_counters(self, service):
        decision = service.request(0, 8, 1.0)
        conn = decision.connection
        assert service.counters.primary_hops_total == conn.primary_route.hop_count
        assert service.counters.backup_hops_total == conn.backup_route.hop_count

    def test_overlap_counters(self):
        # Pendant node: the backup unavoidably shares the pendant link.
        from repro.topology import network_from_edges

        net = network_from_edges(
            4, [(0, 1), (1, 2), (2, 3), (1, 3)], capacity=10.0
        )
        service = DRTPService(net, DLSRScheme())
        service.request(0, 3, 1.0)
        assert service.counters.backups_with_overlap == 1
        assert service.counters.backup_overlap_links == 1


class TestViews:
    def test_links_carrying_primaries(self, service):
        decision = service.request(0, 8, 1.0)
        links = service.links_carrying_primaries()
        assert set(links) == set(decision.connection.primary_route.link_ids)

    def test_invariant_check_detects_missing_registration(self, service):
        decision = service.request(0, 8, 1.0)
        conn = decision.connection
        # Corrupt: silently remove one backup registration.
        link_id = conn.backup_route.link_ids[0]
        service.state.ledger(link_id).release_backup(conn.connection_id)
        with pytest.raises(ConnectionStateError):
            service.check_invariants()

    def test_invariant_check_detects_corrupt_kernel_table_row(self, service):
        decision = service.request(0, 8, 1.0)
        service.check_invariants()
        tables = service.database.kernel_arrays()
        tables.flush()
        # Corrupt by hand: one stored L1 norm drifts from its ledger.
        link_id = decision.connection.backup_route.link_ids[0]
        tables.l1[link_id] += 1
        with pytest.raises(ResourceError):
            service.check_invariants()
        # A row awaiting its flush is allowed to lag: dirty, not wrong.
        # (Reserve and give back: the ledger itself must still agree
        # with the connection table.)
        service.state.ledger(link_id).reserve_primary(1.0)
        service.state.ledger(link_id).release_primary(1.0)
        service.check_invariants()

    def test_repair_link_restores_routing(self, service):
        link_id = 0
        service.fail_link(link_id, reconfigure=False)
        assert service.state.is_link_failed(link_id)
        service.repair_link(link_id)
        assert not service.state.is_link_failed(link_id)


class TestPolicies:
    def test_custom_spare_policy_respected(self):
        from repro.core import DedicatedSparePolicy

        service = DRTPService(
            mesh_network(3, 3, 10.0),
            DLSRScheme(),
            spare_policy=DedicatedSparePolicy(),
        )
        service.request(0, 8, 1.0)
        service.request(2, 6, 1.0)
        # Dedicated: spare on a shared backup link equals the SUM.
        shared = None
        for ledger in service.state.ledgers():
            if ledger.backup_count == 2:
                shared = ledger
                break
        if shared is not None:
            assert shared.spare_bw == pytest.approx(2.0)

    def test_require_backup_false_admits_unprotected(self):
        service = DRTPService(
            line_network(3, 10.0), NoBackupScheme(), require_backup=False
        )
        decision = service.request(0, 2, 1.0)
        assert decision.accepted
        assert decision.connection.backup is None

    @pytest.mark.parametrize("scheme", [NoBackupScheme, ReactiveScheme])
    def test_primary_only_scheme_admits_by_default(self, scheme):
        """The admission rule follows the scheme: a primary-only one
        admits on the primary without being told to."""
        service = DRTPService(mesh_network(4, 4, 10.0), scheme())
        decision = service.request(0, 15, 1.0)
        assert decision.accepted
        assert decision.connection.backup is None
        assert not scheme.plans_backups

    @pytest.mark.parametrize("scheme", [NoBackupScheme, ReactiveScheme])
    def test_requiring_a_backup_of_a_primary_only_scheme_raises(self, scheme):
        with pytest.raises(ValueError, match="plans no backups"):
            DRTPService(mesh_network(4, 4, 10.0), scheme(),
                        require_backup=True)

    def test_planning_scheme_requires_a_backup_by_default(self):
        """``None`` under a scheme that plans backups is the strict
        rule: a request with no routable backup is rejected."""
        service = DRTPService(line_network(3, 10.0), PLSRScheme())
        assert not service.request(0, 2, 1.0).accepted
        assert PLSRScheme.plans_backups
