"""Negative/edge-case coverage for Bellman–Ford and the reactive
baseline, pinned against the min-hop search (and the hop columns its
workspace keeps).

Two corners that previously had no direct tests:

* **unreachable destinations** — the distance-vector fixed point, the
  next-hop tables, the searches and the reactive scheme must all agree
  that no route exists (and reject cleanly rather than loop or leak);
* **hop limits exactly equal to the shortest path** — the bounded
  search's boundary: ``max_hops == len(shortest)`` must return the
  shortest route itself, ``max_hops == len(shortest) - 1`` must return
  nothing.
"""

import random

import pytest

from repro.core import DRTPService
from repro.core.admission import REASON_NO_PRIMARY
from repro.kernels.search import (
    flat_bounded_shortest_path,
    flat_min_hop_path,
    search_workspace,
)
from repro.routing import (
    ReactiveScheme,
    bellman_ford_vectors,
    next_hop_table,
)
from repro.topology import line_network, mesh_network, waxman_network
from repro.topology.distance import UNREACHABLE
from repro.topology.graph import Network


def unit(net):
    return [1.0] * net.num_links


def split_network():
    """Two components: {0,1,2} line and {3,4} pair."""
    net = Network(5)
    net.add_edge(0, 1, 10.0)
    net.add_edge(1, 2, 10.0)
    net.add_edge(3, 4, 10.0)
    net.freeze()
    return net


class TestUnreachableDestination:
    def test_bellman_ford_agrees_with_dijkstra(self):
        net = split_network()
        vectors, _ = bellman_ford_vectors(net)
        workspace = search_workspace(net)
        for src in net.nodes():
            for dst in net.nodes():
                if src == dst:
                    continue
                route = flat_min_hop_path(net, src, dst, unit(net))
                hops = workspace.hops_to(dst)[src]
                if route is None:
                    assert vectors[src][dst] == UNREACHABLE
                    assert hops == net.num_nodes
                else:
                    assert vectors[src][dst] == route.hop_count == hops

    def test_next_hop_table_omits_unreachable(self):
        net = split_network()
        table = next_hop_table(net, 0)
        assert set(table) == {1, 2}  # nothing toward the {3, 4} island

    def test_bounded_search_returns_none(self):
        net = split_network()
        assert flat_bounded_shortest_path(net, 0, 4, unit(net), 10) is None

    def test_reactive_rejects_cleanly(self):
        net = split_network()
        service = DRTPService(net, ReactiveScheme(), require_backup=False)
        decision = service.request(0, 4, 1.0)
        assert not decision.accepted
        assert decision.reason == REASON_NO_PRIMARY
        # A clean rejection leaks no reservations.
        assert service.state.total_prime_bw() == 0.0

    def test_reactive_parity_with_dijkstra_when_reachable(self):
        net = waxman_network(20, 30.0, rng=random.Random(4))
        service = DRTPService(net, ReactiveScheme(), require_backup=False)
        for src, dst in ((0, 13), (5, 17), (19, 2)):
            expected = flat_min_hop_path(net, src, dst, unit(net))
            decision = service.request(src, dst, 1.0)
            if expected is None:
                assert not decision.accepted
            else:
                # Same hop count as the unconstrained min-hop search
                # (exact links may differ: the scheme's cost also
                # carries the congestion term).
                assert decision.accepted
                route = decision.connection.primary_route
                assert route.hop_count == expected.hop_count


class TestExactHopLimit:
    @pytest.mark.parametrize("src,dst", [(0, 5), (1, 4), (0, 3)])
    def test_limit_equal_to_shortest_returns_shortest(self, src, dst):
        net = line_network(6, 10.0)
        shortest = flat_min_hop_path(net, src, dst, unit(net))
        bounded = flat_bounded_shortest_path(
            net, src, dst, unit(net), shortest.hop_count
        )
        assert bounded is not None
        assert bounded.link_ids == shortest.link_ids
        assert bounded.nodes == shortest.nodes

    @pytest.mark.parametrize("src,dst", [(0, 5), (1, 4), (0, 2)])
    def test_limit_one_below_shortest_returns_none(self, src, dst):
        net = line_network(6, 10.0)
        shortest = flat_min_hop_path(net, src, dst, unit(net))
        assert (
            flat_bounded_shortest_path(
                net, src, dst, unit(net), shortest.hop_count - 1
            )
            is None
        )

    def test_exact_limit_parity_across_mesh_pairs(self):
        net = mesh_network(4, 4, 10.0)
        for src in net.nodes():
            for dst in net.nodes():
                if src == dst:
                    continue
                shortest = flat_min_hop_path(net, src, dst, unit(net))
                bounded = flat_bounded_shortest_path(
                    net, src, dst, unit(net), shortest.hop_count
                )
                assert bounded.hop_count == shortest.hop_count

    def test_zero_and_negative_limits_reject(self):
        net = line_network(3, 10.0)
        assert flat_bounded_shortest_path(net, 0, 2, unit(net), 0) is None
        assert flat_bounded_shortest_path(net, 0, 2, unit(net), -1) is None
