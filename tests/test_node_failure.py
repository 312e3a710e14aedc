"""Tests for switch (node) failure assessment."""

import pytest

from repro.core import (
    BACKUP_CROSSES_FAILURE,
    ENDPOINT_FAILED,
    ActivationOutcome,
    DRTPService,
    assess_node_failure,
)
from repro.routing import DLSRScheme
from repro.topology import complete_network, mesh_network


@pytest.fixture
def service():
    return DRTPService(mesh_network(3, 3, 10.0), DLSRScheme())


class TestNodeFailure:
    def test_unused_node_no_impact(self, service):
        decision = service.request(0, 2, 1.0)
        # Node 7 is far from both primary (top row) and backup.
        conn = decision.connection
        touched = set(conn.primary_route.nodes) | set(conn.backup_route.nodes)
        dead = next(n for n in range(9) if n not in touched)
        impact = service.assess_node_failure(dead)
        assert impact.affected == 0

    def test_transit_node_failure_recovers_via_backup(self, service):
        decision = service.request(0, 2, 1.0)
        conn = decision.connection
        transit = conn.primary_route.nodes[1]
        impact = service.assess_node_failure(transit)
        assert impact.affected == 1
        # Backup is disjoint, so the connection recovers.
        assert impact.activated == 1

    def test_backup_through_dead_node_fails(self):
        """Node failure kills several links at once: a backup that is
        link-disjoint from the primary can still die with it."""
        net = mesh_network(3, 3, 10.0)
        service = DRTPService(net, DLSRScheme())
        decision = service.request(0, 2, 1.0)
        conn = decision.connection
        shared_nodes = (
            set(conn.primary_route.nodes[1:-1])
            & set(conn.backup_route.nodes[1:-1])
        )
        if not shared_nodes:
            pytest.skip("routes happen to be node-disjoint here")
        impact = service.assess_node_failure(next(iter(shared_nodes)))
        assert impact.outcomes[0].reason == BACKUP_CROSSES_FAILURE

    def test_endpoint_failures_excluded_by_default(self, service):
        """A connection ending at the dead switch stays out of the backup
        race: it activates nothing, and a connection merely passing
        through the switch fares exactly as it would without it."""
        service.request(1, 7, 1.0)
        transit = service.request(0, 2, 1.0).connection
        assert 1 in transit.primary_route.nodes[1:-1]
        impact = service.assess_node_failure(1)
        assert impact.activated == 1
        alone = DRTPService(mesh_network(3, 3, 10.0), DLSRScheme())
        alone.request(0, 2, 1.0)
        lone = alone.assess_node_failure(1).outcomes[0]
        raced = next(
            o for o in impact.outcomes
            if o.connection_id == transit.connection_id
        )
        assert (raced.success, raced.reason, raced.backup_index) == (
            lone.success, lone.reason, lone.backup_index
        )

    def test_endpoint_losses_counted_when_asked(self, service):
        """The what-if reports a connection ending at the dead switch as
        lost to ENDPOINT_FAILED, the outcome fail_node reports for it."""
        service.request(0, 2, 1.0)
        impact = service.assess_node_failure(0)
        assert impact.affected == 1
        assert impact.outcomes == [
            ActivationOutcome(0, False, ENDPOINT_FAILED)
        ]
        assert impact.failed == 1
        assert service.fail_node(0, reconfigure=False).outcomes == (
            impact.outcomes
        )

    def test_node_disjoint_second_backup_survives(self):
        """With two backups in a rich topology, at least one tends to
        be node-disjoint; recovery falls through to it."""
        net = complete_network(6, 10.0)
        service = DRTPService(net, DLSRScheme(num_backups=2))
        decision = service.request(0, 5, 1.0)
        conn = decision.connection
        transit_nodes = set(conn.primary_route.nodes[1:-1])
        if not transit_nodes:
            pytest.skip("direct primary")
        impact = service.assess_node_failure(next(iter(transit_nodes)))
        assert impact.affected == 1
        assert impact.activated == 1

    def test_label_distinguishes_node_failures(self, service):
        service.request(0, 2, 1.0)
        impact = service.assess_node_failure(1)
        assert impact.link_id == -2  # node-failure label: -node - 1

    def test_free_function_matches_service(self, service):
        service.request(0, 2, 1.0)
        direct = assess_node_failure(
            service.state,
            list(service.connections()),
            1,
            service.network,
        )
        via_service = service.assess_node_failure(1)
        assert [o.reason for o in direct.outcomes] == [
            o.reason for o in via_service.outcomes
        ]


class TestMutatingNodeFailure:
    def test_transit_outage_promotes_backups(self):
        net = mesh_network(3, 3, 10.0)
        service = DRTPService(net, DLSRScheme())
        decision = service.request(0, 2, 1.0)
        conn = decision.connection
        transit = conn.primary_route.nodes[1]
        impact = service.fail_node(transit, reconfigure=True)
        assert impact.activated == 1
        survivor = service.connection(conn.connection_id)
        assert transit not in survivor.primary_route.nodes
        service.check_invariants()

    def test_endpoint_outage_tears_down(self):
        net = mesh_network(3, 3, 10.0)
        service = DRTPService(net, DLSRScheme())
        decision = service.request(0, 2, 1.0)
        impact = service.fail_node(2, reconfigure=False)
        assert not service.has_connection(decision.connection.connection_id)
        reasons = [o.reason for o in impact.outcomes]
        assert ENDPOINT_FAILED in reasons
        assert service.state.total_prime_bw() == 0.0
        assert service.state.total_spare_bw() == 0.0
        service.check_invariants()

    def test_node_links_marked_failed_and_repairable(self):
        net = mesh_network(3, 3, 10.0)
        service = DRTPService(net, DLSRScheme())
        service.fail_node(4, reconfigure=False)
        for link in net.out_links(4) + net.in_links(4):
            assert service.state.is_link_failed(link.link_id)
        service.repair_node(4)
        for link in net.out_links(4) + net.in_links(4):
            assert not service.state.is_link_failed(link.link_id)

    def test_outage_under_load_keeps_books(self):
        import random as random_module

        from repro.topology import waxman_network

        net = waxman_network(25, 12.0, rng=random_module.Random(4))
        service = DRTPService(net, DLSRScheme())
        rng = random_module.Random(4)
        for _ in range(120):
            a, b = rng.randrange(25), rng.randrange(25)
            if a != b:
                service.request(a, b, 1.0)
        before = service.active_connection_count
        impact = service.fail_node(7, reconfigure=True)
        service.check_invariants()
        lost = sum(1 for o in impact.outcomes if not o.success)
        assert service.active_connection_count == before - lost
        # Cleanup conserves everything.
        for conn in list(service.connections()):
            service.release(conn.connection_id)
        assert service.state.total_prime_bw() < 1e-6
        assert service.state.total_spare_bw() < 1e-6
