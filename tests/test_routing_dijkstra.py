"""Tests for the route searches, cross-checked with networkx.

The searches take one cost per link id: ``1.0`` for a plain hop,
``-1.0`` for an excluded link, ``conflict * scale + 1.0`` for the
lexicographic ``(conflict, hops)`` cost.
"""

import random

import networkx as nx
import pytest

from repro.kernels.search import (
    encode_scale,
    flat_dijkstra,
    flat_min_hop_path,
    flat_shortest_path,
    search_workspace,
)
from repro.testing import naive_shortest_path
from repro.topology import (
    line_network,
    mesh_network,
    ring_network,
    waxman_network,
)
from repro.topology.graph import Network


def unit(net):
    return [1.0] * net.num_links


class TestBasics:
    def test_direct_neighbor(self):
        net = line_network(3, 1.0)
        route = flat_min_hop_path(net, 0, 1, unit(net))
        assert route.nodes == (0, 1)

    def test_line_end_to_end(self):
        net = line_network(5, 1.0)
        route = flat_min_hop_path(net, 0, 4, unit(net))
        assert route.nodes == (0, 1, 2, 3, 4)

    def test_unreachable_returns_none(self):
        net = Network(3)
        net.add_edge(0, 1, 1.0)
        net.freeze()
        assert flat_min_hop_path(net, 0, 2, unit(net)) is None
        assert flat_shortest_path(net, 0, 2, unit(net)) is None
        assert flat_dijkstra(net, 0, 2, unit(net)) is None

    def test_same_endpoints_rejected(self):
        net = line_network(3, 1.0)
        for search in (flat_min_hop_path, flat_shortest_path, flat_dijkstra):
            with pytest.raises(ValueError):
                search(net, 1, 1, unit(net))

    def test_route_is_valid(self):
        net = mesh_network(4, 4, 1.0)
        route = flat_min_hop_path(net, 0, 15, unit(net))
        assert len(set(route.nodes)) == len(route.nodes)
        for u, v in zip(route.nodes, route.nodes[1:]):
            assert net.has_link(u, v)

    def test_deterministic(self):
        net = mesh_network(4, 4, 1.0)
        a = flat_min_hop_path(net, 0, 15, unit(net))
        b = flat_min_hop_path(net, 0, 15, unit(net))
        assert a.nodes == b.nodes


class TestCostFunctions:
    def test_link_exclusion(self):
        net = ring_network(5, 1.0)
        costs = unit(net)
        costs[net.link_between(0, 1).link_id] = -1.0
        route = flat_shortest_path(net, 0, 1, costs)
        # Forced the long way around the ring.
        assert route.hop_count == 4

    def test_weighted_route_preferred(self):
        # Square: 0-1-3 (heavy) vs 0-2-3 (light).
        net = mesh_network(2, 2, 1.0)
        costs = unit(net)
        costs[net.link_between(0, 1).link_id] = 9 * encode_scale(net) + 1.0
        route = flat_shortest_path(net, 0, 3, costs)
        assert route.nodes == (0, 2, 3)

    def test_lexicographic_tie_break_prefers_short(self):
        # All links zero conflict cost: the hop component decides.
        net = ring_network(6, 1.0)
        route = flat_shortest_path(net, 0, 2, unit(net))
        assert route.hop_count == 2

    def test_lexicographic_primary_component_dominates(self):
        # Ring of 6: direct 0->1 has conflict cost 5; the 5-hop detour
        # has zero conflicts, so it must win despite the length.
        net = ring_network(6, 1.0)
        costs = unit(net)
        costs[net.link_between(0, 1).link_id] = 5 * encode_scale(net) + 1.0
        route = flat_shortest_path(net, 0, 1, costs)
        assert route.hop_count == 5

    def test_min_hop_path_filter(self):
        # The topology says one hop, so the first bounded pass comes
        # back empty and the two-ended test finds the real distance.
        net = ring_network(4, 1.0)
        costs = unit(net)
        costs[net.link_between(0, 1).link_id] = -1.0
        route = flat_min_hop_path(net, 0, 1, costs)
        assert route.hop_count == 3
        assert search_workspace(net).answer == "bounded"


class TestAgainstNetworkx:
    """Our searches must agree with networkx on random graphs."""

    def _to_nx(self, net):
        graph = nx.DiGraph()
        for link in net.links():
            graph.add_edge(link.src, link.dst)
        return graph

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_hop_distances_match(self, seed):
        net = waxman_network(30, 1.0, rng=random.Random(seed))
        graph = self._to_nx(net)
        lengths = dict(nx.all_pairs_shortest_path_length(graph))
        rng = random.Random(seed + 100)
        for _ in range(40):
            a, b = rng.randrange(30), rng.randrange(30)
            if a == b:
                continue
            route = flat_min_hop_path(net, a, b, unit(net))
            assert route.hop_count == lengths[a][b]

    @pytest.mark.parametrize("seed", [3, 4])
    def test_weighted_distances_match(self, seed):
        """Arbitrary positive weights: the exhaustive step alone."""
        net = waxman_network(25, 1.0, rng=random.Random(seed))
        rng = random.Random(seed)
        weights = [rng.uniform(1.0, 10.0) for _ in net.links()]
        graph = nx.DiGraph()
        for link in net.links():
            graph.add_edge(link.src, link.dst, weight=weights[link.link_id])

        for _ in range(25):
            a, b = rng.randrange(25), rng.randrange(25)
            if a == b:
                continue
            route = flat_dijkstra(net, a, b, weights)
            assert route == naive_shortest_path(
                net, a, b, lambda link: (weights[link.link_id],)
            )
            ours = sum(weights[l] for l in route.link_ids)
            theirs = nx.shortest_path_length(graph, a, b, weight="weight")
            assert ours == pytest.approx(theirs)
