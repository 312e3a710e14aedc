"""Tests for delay-QoS hop bounds (bounded search + service slack)."""

import random

import pytest

from repro.core import DRTPService
from repro.kernels.search import (
    encode_scale,
    flat_bounded_shortest_path,
    flat_min_hop_path,
)
from repro.network import NetworkState
from repro.routing import (
    BoundedFloodingScheme,
    DLSRScheme,
    NoBackupScheme,
    PLSRScheme,
    RandomBackupScheme,
    ReactiveScheme,
    RouteQuery,
    RoutingContext,
)
from repro.topology import all_pairs_hop_counts, mesh_network, ring_network


def bound(scheme, net):
    scheme.bind(RoutingContext(net, NetworkState(net)))
    return scheme


def unit(net):
    return [1.0] * net.num_links


class TestBoundedShortestPath:
    def test_respects_bound(self):
        net = ring_network(8, 1.0)
        route = flat_bounded_shortest_path(net, 0, 4, unit(net), max_hops=4)
        assert route is not None
        assert route.hop_count == 4

    def test_infeasible_bound_returns_none(self):
        net = ring_network(8, 1.0)
        costs = unit(net)
        assert flat_bounded_shortest_path(net, 0, 4, costs, max_hops=3) is None
        assert flat_bounded_shortest_path(net, 0, 4, costs, max_hops=0) is None

    def test_matches_unbounded_when_loose(self):
        net = mesh_network(4, 4, 1.0)
        free = flat_min_hop_path(net, 0, 15, unit(net))
        bounded = flat_bounded_shortest_path(
            net, 0, 15, unit(net), max_hops=99
        )
        assert bounded.hop_count == free.hop_count

    def test_prefers_cheap_within_bound(self):
        """The cheap route is too long for the bound; the bounded
        search must take the compliant expensive one instead of
        failing."""
        net = ring_network(6, 1.0)
        costs = unit(net)
        costs[net.link_between(0, 1).link_id] = (
            5.0 * encode_scale(net, 5) + 1.0
        )
        unbounded_route = flat_bounded_shortest_path(
            net, 0, 1, costs, max_hops=5
        )
        assert unbounded_route.hop_count == 5  # detour wins when allowed
        tight = flat_bounded_shortest_path(net, 0, 1, costs, max_hops=2)
        assert tight is not None
        assert tight.hop_count == 1  # forced onto the expensive link

    def test_same_endpoints_rejected(self):
        net = ring_network(4, 1.0)
        with pytest.raises(ValueError):
            flat_bounded_shortest_path(net, 1, 1, unit(net), max_hops=3)


class TestRouteQueryQoS:
    def test_max_hops_validated(self):
        with pytest.raises(ValueError):
            RouteQuery(0, 1, 1.0, max_hops=0)


@pytest.mark.parametrize("scheme_cls", [PLSRScheme, DLSRScheme])
class TestLSRQoS:
    def test_tight_qos_forbids_detour(self, scheme_cls):
        """On a ring, the only disjoint backup is the long way round;
        with a tight hop bound there is no compliant backup at all —
        the paper's 'cannot recover' case."""
        net = ring_network(6, 10.0)
        scheme = bound(scheme_cls(), net)
        loose = scheme.plan(RouteQuery(0, 2, 1.0))
        assert loose.backup is not None
        assert loose.backup.hop_count == 4
        tight = scheme.plan(RouteQuery(0, 2, 1.0, max_hops=3))
        assert tight.primary is not None
        assert tight.backup is None

    def test_bound_applies_to_primary_too(self, scheme_cls):
        net = ring_network(8, 10.0)
        scheme = bound(scheme_cls(), net)
        # Saturate the short arc so the only primary is the long way.
        state = scheme.context.state
        for hop in ((0, 1), (1, 2), (2, 3)):
            state.ledger(net.link_between(*hop).link_id).reserve_primary(10.0)
        plan = scheme.plan(RouteQuery(0, 3, 1.0, max_hops=4))
        assert plan.primary is None  # detour is 5 hops > bound


class TestBFQoS:
    def test_flood_bound_tightened(self):
        net = mesh_network(3, 3, 10.0)
        scheme = bound(BoundedFloodingScheme(), net)
        loose = scheme.flood(RouteQuery(0, 8, 1.0))
        tight = scheme.flood(RouteQuery(0, 8, 1.0, max_hops=4))
        assert max(c.hop_count for c in tight.candidates) <= 4
        assert tight.cdp_transmissions < loose.cdp_transmissions


class TestServiceQoS:
    def test_slack_bounds_routes(self):
        net = ring_network(6, 10.0)
        service = DRTPService(net, DLSRScheme(), qos_slack=0)
        decision = service.request(0, 2, 1.0)
        # Slack 0: backup may not exceed the 2-hop minimum, and the
        # 4-hop detour is the only disjoint option -> rejected.
        assert not decision.accepted
        assert decision.reason == "no-backup-route"

    def test_generous_slack_admits(self):
        net = ring_network(6, 10.0)
        service = DRTPService(net, DLSRScheme(), qos_slack=2)
        decision = service.request(0, 2, 1.0)
        assert decision.accepted
        assert decision.connection.backup_route.hop_count <= 4

    def test_negative_slack_rejected(self):
        with pytest.raises(ValueError):
            DRTPService(ring_network(4, 1.0), DLSRScheme(), qos_slack=-1)

    def test_no_slack_means_unbounded(self):
        net = ring_network(6, 10.0)
        service = DRTPService(net, DLSRScheme())
        assert service.request(0, 2, 1.0).accepted

    @pytest.mark.parametrize(
        "scheme_cls", [NoBackupScheme, ReactiveScheme, RandomBackupScheme]
    )
    def test_baseline_schemes_keep_the_bound(self, scheme_cls):
        """With the direct link saturated every other route 0 -> 1 is
        a 3-hop detour; slack 0 allows 1 hop, so no primary (and, for
        the random scheme, no backup) may take it — the baselines
        once ignored ``max_hops``."""
        net = mesh_network(3, 3, 10.0)
        service = DRTPService(
            net, scheme_cls(), qos_slack=0, require_backup=False
        )
        direct = net.link_between(0, 1).link_id
        plan = service.scheme.plan(RouteQuery(0, 1, 1.0, max_hops=1))
        assert plan.primary.link_ids == (direct,)
        assert all(route.hop_count <= 1 for route in plan.all_backups)
        service.state.ledger(direct).reserve_primary(10.0)
        assert not service.request(0, 1, 1.0).accepted


@pytest.mark.parametrize(
    "scheme_cls, slack",
    # BF's default flood bound is D + 2 hops; a slack of 1 is tighter.
    [(DLSRScheme, 2), (BoundedFloodingScheme, 1)],
)
def test_reconfigured_backups_keep_the_qos_bound(scheme_cls, slack):
    """The backups DRTP re-plans after a failure obey the same hop
    bound as the ones planned at admission (unbounded re-planning left
    a 7-hop backup against a bound of 5 here)."""
    net = mesh_network(4, 4, 4.0)
    hops = all_pairs_hop_counts(net)
    service = DRTPService(net, scheme_cls(), qos_slack=slack)
    rng = random.Random(0)
    for _ in range(40):
        source, destination = rng.sample(range(16), 2)
        service.request(source, destination, 1.0)
    for link_id in rng.sample(range(net.num_links), 6):
        service.fail_link(link_id)
        for conn in service.connections():
            bound = hops[conn.source][conn.destination] + slack
            for channel in conn.all_backups:
                assert channel.route.hop_count <= bound
    service.check_invariants()
