"""Tests for hop-count distances, distance tables and serialization."""

import random

import pytest

from repro.kernels.search import search_workspace
from repro.topology import (
    UNREACHABLE,
    DistanceTable,
    TopologyError,
    all_pairs_hop_counts,
    average_path_length,
    build_distance_tables,
    hop_counts_from,
    line_network,
    load_network,
    mesh_network,
    network_diameter,
    network_from_dict,
    network_to_dict,
    ring_network,
    save_network,
    waxman_network,
)
from repro.topology.graph import Network


class TestHopCounts:
    def test_line_distances(self):
        dist = hop_counts_from(line_network(4, 1.0), 0)
        assert dist == [0, 1, 2, 3]

    def test_ring_distances_wrap(self):
        dist = hop_counts_from(ring_network(6, 1.0), 0)
        assert dist == [0, 1, 2, 3, 2, 1]

    def test_unreachable_marked(self):
        net = Network(3)
        net.add_edge(0, 1, 1.0)
        net.freeze()
        dist = hop_counts_from(net, 0)
        assert dist[2] == UNREACHABLE

    def test_all_pairs_symmetric_for_paired_links(self):
        net = mesh_network(3, 3, 1.0)
        pairs = all_pairs_hop_counts(net)
        for i in range(9):
            for j in range(9):
                assert pairs[i][j] == pairs[j][i]

    def test_diameter_of_mesh(self):
        assert network_diameter(mesh_network(3, 3, 1.0)) == 4

    def test_diameter_raises_when_disconnected(self):
        net = Network(3)
        net.add_edge(0, 1, 1.0)
        net.freeze()
        with pytest.raises(TopologyError):
            network_diameter(net)

    def test_workspace_hop_column_is_the_all_pairs_column(self):
        """``SearchWorkspace.hops_to(t)`` — the searches' lazily built
        per-destination column — reads what column ``t`` of the
        all-pairs matrix does, direction included: a one-way ring with
        a one-way spur and a node nothing leads out of."""
        net = Network(7)
        for node in range(5):
            net.add_directed_link(node, (node + 1) % 5, 1.0)
        net.add_directed_link(2, 5, 1.0)   # spur: 5 reaches nobody
        net.add_edge(0, 3, 1.0)            # a two-way chord
        net.add_directed_link(6, 0, 1.0)   # 6 is reached by nobody
        net.freeze()
        pairs = all_pairs_hop_counts(net)
        workspace = search_workspace(net)
        for target in net.nodes():
            column = workspace.hops_to(target)
            assert workspace.hops_to(target) is column  # built once
            assert [
                UNREACHABLE if hops == net.num_nodes else hops
                for hops in column
            ] == [pairs[node][target] for node in net.nodes()]

    def test_average_path_length_ring(self):
        # Ring of 4: distances 1,2,1 from every node -> mean 4/3.
        assert average_path_length(ring_network(4, 1.0)) == pytest.approx(4 / 3)


class TestDistanceTable:
    @pytest.fixture
    def mesh(self):
        return mesh_network(3, 3, 1.0)

    def test_distance_matches_bfs(self, mesh):
        pairs = all_pairs_hop_counts(mesh)
        for node in mesh.nodes():
            table = DistanceTable(mesh, node)
            for dest in mesh.nodes():
                assert table.distance(dest) == pairs[node][dest]

    def test_via_is_neighbor_distance(self, mesh):
        table = DistanceTable(mesh, 0)
        # D_{j,k}: distance from neighbor k to destination j.
        assert table.via(8, 1) == 3  # 1 -> 8 takes 3 hops
        assert table.via(0, 1) == 1

    def test_distance_to_self_zero(self, mesh):
        assert DistanceTable(mesh, 4).distance(4) == 0

    def test_non_neighbor_rejected(self, mesh):
        table = DistanceTable(mesh, 0)
        with pytest.raises(TopologyError):
            table.via(8, 8)  # node 8 is not adjacent to node 0

    def test_build_all_tables(self, mesh):
        tables = build_distance_tables(mesh)
        assert len(tables) == 9
        assert tables[3].node == 3

    def test_eq7_identity(self, mesh):
        """D_j^i = min_k D_{j,k}^i + 1 (Section 4.1, Eq. 7)."""
        table = DistanceTable(mesh, 0)
        for dest in mesh.nodes():
            if dest == 0:
                continue
            derived = min(table.via(dest, k) for k in table.neighbors) + 1
            assert table.distance(dest) == derived


class TestSerialization:
    def test_round_trip_preserves_link_ids(self):
        net = waxman_network(12, 3.5, rng=random.Random(0))
        clone = network_from_dict(network_to_dict(net))
        assert clone.num_nodes == net.num_nodes
        assert [l.endpoints() for l in clone.links()] == [
            l.endpoints() for l in net.links()
        ]
        assert [l.capacity for l in clone.links()] == [
            l.capacity for l in net.links()
        ]

    def test_file_round_trip(self, tmp_path):
        net = mesh_network(2, 3, 2.0)
        path = tmp_path / "net.json"
        save_network(net, path)
        clone = load_network(path)
        assert clone.num_links == net.num_links
        assert clone.is_connected()

    def test_version_check(self):
        with pytest.raises(TopologyError):
            network_from_dict({"version": 99, "num_nodes": 2, "links": []})

    def test_missing_keys_rejected(self):
        with pytest.raises(TopologyError):
            network_from_dict({"version": 1})
