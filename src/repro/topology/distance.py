"""Hop-count distance machinery.

Section 4.1: "Each network node maintains a distance table (DT) ...
containing, for each destination j and for each neighbor k in NB_i,
the minimum hop count from i to j via k".  The minimum distance is
``D_j^i = min_k D_{j,k}^i + 1``.  Distance tables are rebuilt only on
topology change, so this module exposes plain precomputation helpers;
:class:`DistanceTable` is the per-node structure the bounded-flooding
scheme consults on every CDP forward decision.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

from .graph import Network, TopologyError

#: Sentinel hop count for unreachable destinations.
UNREACHABLE = float("inf")


def hop_counts_from(network: Network, source: int) -> List[float]:
    """Single-source minimum hop counts (BFS over out-links)."""
    dist: List[float] = [UNREACHABLE] * network.num_nodes
    dist[source] = 0
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for link in network.out_links(node):
            if dist[link.dst] == UNREACHABLE:
                dist[link.dst] = dist[node] + 1
                queue.append(link.dst)
    return dist


def all_pairs_hop_counts(network: Network) -> List[List[float]]:
    """Hop-count matrix ``D[i][j]``; BFS from every node."""
    return [hop_counts_from(network, node) for node in network.nodes()]


def network_diameter(network: Network) -> int:
    """Longest shortest path; raises if the network is disconnected."""
    best = 0
    for row in all_pairs_hop_counts(network):
        finite = [d for d in row if d != UNREACHABLE]
        if len(finite) != network.num_nodes:
            raise TopologyError("diameter undefined: network disconnected")
        best = max(best, int(max(finite)))
    return best


def average_path_length(network: Network) -> float:
    """Mean hop count over all ordered connected node pairs."""
    total = 0.0
    pairs = 0
    for i, row in enumerate(all_pairs_hop_counts(network)):
        for j, d in enumerate(row):
            if i != j and d != UNREACHABLE:
                total += d
                pairs += 1
    if pairs == 0:
        raise TopologyError("no connected node pairs")
    return total / pairs


class DistanceTable:
    """Per-node distance table ``D_{j,k}^i`` from Section 4.1.

    For node ``i``, ``via(j, k)`` is the minimum hop count from ``i``
    to destination ``j`` when the first hop is neighbor ``k``; and
    ``distance(j)`` is ``min_k via(j, k) + 1`` — with the convention
    that ``distance(i) == 0``.

    Built from all-pairs BFS: the hop count from ``i`` to ``j`` via
    neighbor ``k`` equals ``1 + D[k][j]`` minimized over nothing (the
    table reads ``D[k][j]`` itself; Eq. 7 adds the ``+1``).  The table
    is a read-only view of the all-pairs matrix: every node's table
    built from one matrix shares its rows.
    """

    def __init__(self, network: Network, node: int,
                 all_pairs: Optional[List[List[float]]] = None) -> None:
        network._check_node(node)
        self._node = node
        self._neighbors = tuple(network.neighbors(node))
        pairs = all_pairs if all_pairs is not None else all_pairs_hop_counts(network)
        # _via[k][j] = min hops k -> j (the D^i_{j,k} matrix transposed
        # for cache-friendly row access per neighbor).
        self._via: Dict[int, List[float]] = {
            k: pairs[k] for k in self._neighbors
        }
        self._num_nodes = network.num_nodes

    @property
    def node(self) -> int:
        return self._node

    @property
    def neighbors(self) -> tuple:
        return self._neighbors

    def via(self, destination: int, neighbor: int) -> float:
        """``D_{j,k}^i``: hops from ``neighbor`` to ``destination``.

        Following Eq. 7, the distance from this node to ``destination``
        through ``neighbor`` is ``via(destination, neighbor) + 1``.
        """
        if neighbor not in self._via:
            raise TopologyError(
                "{} is not a neighbor of node {}".format(neighbor, self._node)
            )
        if not 0 <= destination < self._num_nodes:
            raise TopologyError("unknown destination {}".format(destination))
        return self._via[neighbor][destination]

    def distance(self, destination: int) -> float:
        """Minimum hop count ``D_j^i`` from this node to ``destination``."""
        if destination == self._node:
            return 0
        if not self._neighbors:
            return UNREACHABLE
        return min(self._via[k][destination] for k in self._neighbors) + 1


def build_distance_tables(
    network: Network, all_pairs: Optional[List[List[float]]] = None
) -> List[DistanceTable]:
    """Distance tables for every node, all views of one all-pairs
    matrix (``all_pairs`` when the caller already holds it)."""
    pairs = all_pairs if all_pairs is not None else all_pairs_hop_counts(network)
    return [DistanceTable(network, node, pairs) for node in network.nodes()]
