"""Unit tests for the network topology model."""

import pytest

from repro.topology import (
    Network,
    Route,
    TopologyError,
    line_network,
    mesh_network,
    ring_network,
)


class TestNetworkConstruction:
    def test_add_edge_creates_two_unidirectional_links(self):
        net = Network(2)
        id_uv, id_vu = net.add_edge(0, 1, capacity=5.0)
        assert net.num_links == 2
        assert net.num_edges == 1
        assert net.link(id_uv).endpoints() == (0, 1)
        assert net.link(id_vu).endpoints() == (1, 0)

    def test_link_ids_are_dense_and_stable(self):
        net = Network(3)
        net.add_edge(0, 1, 1.0)
        net.add_edge(1, 2, 1.0)
        assert [link.link_id for link in net.links()] == [0, 1, 2, 3]

    def test_capacity_recorded_per_link(self):
        net = Network(2)
        net.add_edge(0, 1, capacity=7.5)
        assert net.link_between(0, 1).capacity == 7.5
        assert net.link_between(1, 0).capacity == 7.5

    def test_rejects_zero_nodes(self):
        with pytest.raises(TopologyError):
            Network(0)

    def test_rejects_self_loop(self):
        net = Network(2)
        with pytest.raises(TopologyError):
            net.add_edge(1, 1, 1.0)

    def test_rejects_duplicate_edge(self):
        net = Network(2)
        net.add_edge(0, 1, 1.0)
        with pytest.raises(TopologyError):
            net.add_edge(0, 1, 1.0)

    def test_rejects_nonpositive_capacity(self):
        net = Network(2)
        with pytest.raises(TopologyError):
            net.add_edge(0, 1, 0.0)

    def test_rejects_out_of_range_node(self):
        net = Network(2)
        with pytest.raises(TopologyError):
            net.add_edge(0, 2, 1.0)

    def test_frozen_network_rejects_edges(self):
        net = Network(3)
        net.add_edge(0, 1, 1.0)
        net.freeze()
        with pytest.raises(TopologyError):
            net.add_edge(1, 2, 1.0)

    def test_add_directed_link_single_direction(self):
        net = Network(2)
        net.add_directed_link(0, 1, 1.0)
        assert net.has_link(0, 1)
        assert not net.has_link(1, 0)


class TestNetworkQueries:
    @pytest.fixture
    def triangle(self):
        net = Network(3)
        net.add_edge(0, 1, 2.0)
        net.add_edge(1, 2, 2.0)
        net.add_edge(0, 2, 2.0)
        return net.freeze()

    def test_neighbors(self, triangle):
        assert sorted(triangle.neighbors(0)) == [1, 2]

    def test_degree_and_average_degree(self, triangle):
        assert triangle.degree(1) == 2
        assert triangle.average_degree() == pytest.approx(2.0)

    def test_out_and_in_links(self, triangle):
        outs = triangle.out_links(0)
        ins = triangle.in_links(0)
        assert all(link.src == 0 for link in outs)
        assert all(link.dst == 0 for link in ins)
        assert len(outs) == len(ins) == 2

    def test_reverse_link(self, triangle):
        link = triangle.link_between(0, 1)
        twin = triangle.reverse_link(link.link_id)
        assert twin.endpoints() == (1, 0)

    def test_reverse_link_missing_for_one_way(self):
        net = Network(2)
        lid = net.add_directed_link(0, 1, 1.0)
        net.freeze()
        assert net.reverse_link(lid) is None

    def test_link_between_missing_raises(self, triangle):
        with pytest.raises(TopologyError):
            Network(2).link_between(0, 1)

    def test_unknown_link_id_raises(self, triangle):
        with pytest.raises(TopologyError):
            triangle.link(99)


class TestConnectivity:
    def test_connected_ring(self):
        assert ring_network(5, 1.0).is_connected()

    def test_disconnected_network(self):
        net = Network(4)
        net.add_edge(0, 1, 1.0)
        net.add_edge(2, 3, 1.0)
        assert not net.freeze().is_connected()

    def test_single_node_is_connected(self):
        assert Network(1).is_connected()

    def test_connected_components(self):
        net = Network(5)
        net.add_edge(0, 1, 1.0)
        net.add_edge(2, 3, 1.0)
        components = net.freeze().connected_components()
        assert components == [[0, 1], [2, 3], [4]]


class TestRoute:
    @pytest.fixture
    def net(self):
        return line_network(4, 1.0)

    def test_from_nodes_resolves_links(self, net):
        route = Route.from_nodes(net, [0, 1, 2])
        assert route.hop_count == 2
        assert route.source == 0
        assert route.destination == 2
        assert len(route.lset) == 2

    def test_route_direction_matters(self, net):
        forward = Route.from_nodes(net, [0, 1])
        backward = Route.from_nodes(net, [1, 0])
        assert forward.lset != backward.lset

    def test_rejects_single_node(self, net):
        with pytest.raises(TopologyError):
            Route(nodes=(0,), link_ids=())

    def test_rejects_node_revisit(self, net):
        with pytest.raises(TopologyError):
            Route.from_nodes(net, [0, 1, 0])

    def test_rejects_mismatched_links(self):
        with pytest.raises(TopologyError):
            Route(nodes=(0, 1, 2), link_ids=(0,))

    def test_rejects_repeated_link(self):
        # Distinct nodes, but hand-picked link ids that repeat: the
        # commit's per-link independence rests on this being refused.
        with pytest.raises(TopologyError):
            Route(nodes=(0, 1, 2), link_ids=(3, 3))

    def test_rejects_missing_edge(self, net):
        with pytest.raises(TopologyError):
            Route.from_nodes(net, [0, 2])

    def test_shared_links_and_disjoint(self, net):
        mesh = mesh_network(2, 2, 1.0)
        a = Route.from_nodes(mesh, [0, 1, 3])
        b = Route.from_nodes(mesh, [0, 2, 3])
        assert a.is_disjoint_from(b)
        c = Route.from_nodes(mesh, [0, 1])
        assert not a.is_disjoint_from(c)
        assert a.shared_links(c) == c.lset

    def test_uses_link(self, net):
        route = Route.from_nodes(net, [0, 1, 2])
        assert route.uses_link(route.link_ids[0])
        assert not route.uses_link(999)

    def test_iteration_and_len(self, net):
        route = Route.from_nodes(net, [0, 1, 2, 3])
        assert len(route) == 3
        assert list(route) == list(route.link_ids)
