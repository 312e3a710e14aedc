"""Network topology model.

The paper models a packet-switched network in which every connection
between two nodes consists of **two unidirectional links** (Section 2,
Figure 1).  Bandwidth is reserved per unidirectional link, so a primary
channel from node 3 to node 7 consumes capacity only in the 3->7
direction of each edge it crosses.

This module provides the three foundational types used everywhere else:

``Link``
    A single unidirectional link with an integer identity and a
    bandwidth capacity (the paper's ``total_bw`` for that link).

``Network``
    An immutable-after-build topology: a set of nodes, unidirectional
    links grouped into bidirectional pairs, and adjacency indexes.

``Route``
    A loop-free node path through a ``Network`` together with the link
    identifiers it traverses (the paper's ``LSET`` of a route).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple


class TopologyError(ValueError):
    """Raised when a topology is malformed or an operation is invalid."""


@dataclass(frozen=True)
class Link:
    """One unidirectional link ``src -> dst``.

    Attributes:
        link_id: Dense integer identifier, ``0 .. Network.num_links - 1``.
            APLVs and Conflict Vectors are indexed by this id.
        src: Node the link leaves.
        dst: Node the link enters.
        capacity: Total bandwidth usable for DR-connections on this link
            (the paper's ``total_bw``), in abstract bandwidth units.
    """

    link_id: int
    src: int
    dst: int
    capacity: float

    def endpoints(self) -> Tuple[int, int]:
        """Return ``(src, dst)``."""
        return (self.src, self.dst)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "L{}({}->{})".format(self.link_id, self.src, self.dst)


class Network:
    """A topology of nodes joined by pairs of unidirectional links.

    Build a network either edge-by-edge::

        net = Network(num_nodes=4)
        net.add_edge(0, 1, capacity=30.0)
        net.add_edge(1, 2, capacity=30.0)
        net.freeze()

    or from one of the generators in :mod:`repro.topology`.

    After :meth:`freeze` the topology is read-only; attempting to add
    edges raises :class:`TopologyError`.  All the routing and
    simulation machinery requires a frozen network so that link ids are
    stable (APLVs are vectors indexed by link id).
    """

    def __init__(self, num_nodes: int) -> None:
        if num_nodes <= 0:
            raise TopologyError("num_nodes must be positive, got {}".format(num_nodes))
        self._num_nodes = num_nodes
        self._links: List[Link] = []
        self._out: List[List[int]] = [[] for _ in range(num_nodes)]
        self._in: List[List[int]] = [[] for _ in range(num_nodes)]
        self._by_endpoints: Dict[Tuple[int, int], int] = {}
        self._frozen = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int, capacity: float) -> Tuple[int, int]:
        """Add a bidirectional edge as two unidirectional links.

        Returns the pair of new link ids ``(id_uv, id_vu)``.
        """
        if self._frozen:
            raise TopologyError("cannot add edges to a frozen network")
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise TopologyError("self-loop on node {} is not allowed".format(u))
        if (u, v) in self._by_endpoints:
            raise TopologyError("edge {}-{} already exists".format(u, v))
        if capacity <= 0:
            raise TopologyError("capacity must be positive, got {}".format(capacity))
        id_uv = self._add_link(u, v, capacity)
        id_vu = self._add_link(v, u, capacity)
        return (id_uv, id_vu)

    def add_directed_link(self, u: int, v: int, capacity: float) -> int:
        """Add a single unidirectional link (used by tests and examples
        that reproduce the paper's asymmetric figures)."""
        if self._frozen:
            raise TopologyError("cannot add links to a frozen network")
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise TopologyError("self-loop on node {} is not allowed".format(u))
        if (u, v) in self._by_endpoints:
            raise TopologyError("link {}->{} already exists".format(u, v))
        if capacity <= 0:
            raise TopologyError("capacity must be positive, got {}".format(capacity))
        return self._add_link(u, v, capacity)

    def _add_link(self, u: int, v: int, capacity: float) -> int:
        link_id = len(self._links)
        link = Link(link_id=link_id, src=u, dst=v, capacity=capacity)
        self._links.append(link)
        self._out[u].append(link_id)
        self._in[v].append(link_id)
        self._by_endpoints[(u, v)] = link_id
        return link_id

    def freeze(self) -> "Network":
        """Mark the topology read-only.  Returns ``self`` for chaining."""
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def num_links(self) -> int:
        """Number of *unidirectional* links (the paper's ``N``)."""
        return len(self._links)

    @property
    def num_edges(self) -> int:
        """Number of bidirectional edges (link pairs count once)."""
        seen = set()
        count = 0
        for link in self._links:
            key = (min(link.src, link.dst), max(link.src, link.dst))
            if key not in seen:
                seen.add(key)
                count += 1
        return count

    def nodes(self) -> range:
        return range(self._num_nodes)

    def links(self) -> Sequence[Link]:
        return tuple(self._links)

    def link(self, link_id: int) -> Link:
        try:
            return self._links[link_id]
        except IndexError:
            raise TopologyError("unknown link id {}".format(link_id))

    def link_between(self, u: int, v: int) -> Link:
        """Return the unidirectional link ``u -> v``."""
        try:
            return self._links[self._by_endpoints[(u, v)]]
        except KeyError:
            raise TopologyError("no link {}->{}".format(u, v))

    def has_link(self, u: int, v: int) -> bool:
        return (u, v) in self._by_endpoints

    def reverse_link(self, link_id: int) -> Optional[Link]:
        """Return the opposite-direction twin of a link, if present."""
        link = self.link(link_id)
        twin = self._by_endpoints.get((link.dst, link.src))
        return self._links[twin] if twin is not None else None

    def out_links(self, node: int) -> List[Link]:
        self._check_node(node)
        return [self._links[i] for i in self._out[node]]

    def in_links(self, node: int) -> List[Link]:
        self._check_node(node)
        return [self._links[i] for i in self._in[node]]

    def neighbors(self, node: int) -> List[int]:
        """Out-neighbors of ``node`` (the paper's ``NB_i``)."""
        self._check_node(node)
        return [self._links[i].dst for i in self._out[node]]

    def degree(self, node: int) -> int:
        """Out-degree (equals undirected degree for paired topologies)."""
        self._check_node(node)
        return len(self._out[node])

    def average_degree(self) -> float:
        """The paper's ``E``: average node degree over bidirectional edges."""
        if self._num_nodes == 0:
            return 0.0
        return 2.0 * self.num_edges / self._num_nodes

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self._num_nodes:
            raise TopologyError(
                "node {} out of range [0, {})".format(node, self._num_nodes)
            )

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        """True when every node is reachable from node 0 along links."""
        if self._num_nodes == 1:
            return True
        if not self._links:
            return False
        seen = {0}
        queue = deque([0])
        while queue:
            node = queue.popleft()
            for link_id in self._out[node]:
                nxt = self._links[link_id].dst
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return len(seen) == self._num_nodes

    def connected_components(self) -> List[List[int]]:
        """Weakly connected components as sorted node lists."""
        unseen = set(range(self._num_nodes))
        components: List[List[int]] = []
        while unseen:
            start = min(unseen)
            comp = {start}
            queue = deque([start])
            while queue:
                node = queue.popleft()
                for link_id in self._out[node]:
                    nxt = self._links[link_id].dst
                    if nxt not in comp:
                        comp.add(nxt)
                        queue.append(nxt)
                for link_id in self._in[node]:
                    prv = self._links[link_id].src
                    if prv not in comp:
                        comp.add(prv)
                        queue.append(prv)
            unseen -= comp
            components.append(sorted(comp))
        return components

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "Network(nodes={}, links={}, E={:.2f})".format(
            self._num_nodes, self.num_links, self.average_degree()
        )


@dataclass(frozen=True)
class Route:
    """A loop-free path through a network.

    Attributes:
        nodes: The node sequence, ``nodes[0]`` is the source and
            ``nodes[-1]`` the destination.
        link_ids: The traversed link ids, ``len(nodes) - 1`` of them.
    """

    nodes: Tuple[int, ...]
    link_ids: Tuple[int, ...]
    _lset: FrozenSet[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.nodes) < 2:
            raise TopologyError("a route needs at least two nodes")
        if len(self.link_ids) != len(self.nodes) - 1:
            raise TopologyError(
                "route with {} nodes must have {} links, got {}".format(
                    len(self.nodes), len(self.nodes) - 1, len(self.link_ids)
                )
            )
        if len(set(self.nodes)) != len(self.nodes):
            raise TopologyError("route revisits a node: {}".format(self.nodes))
        object.__setattr__(self, "_lset", frozenset(self.link_ids))
        if len(self._lset) != len(self.link_ids):
            raise TopologyError(
                "route repeats a link: {}".format(self.link_ids)
            )

    @classmethod
    def from_nodes(cls, network: Network, nodes: Iterable[int]) -> "Route":
        """Build a route from a node sequence, resolving link ids."""
        node_list = tuple(nodes)
        link_ids = tuple(
            network.link_between(u, v).link_id
            for u, v in zip(node_list, node_list[1:])
        )
        return cls(nodes=node_list, link_ids=link_ids)

    @property
    def source(self) -> int:
        return self.nodes[0]

    @property
    def destination(self) -> int:
        return self.nodes[-1]

    @property
    def hop_count(self) -> int:
        return len(self.link_ids)

    @property
    def lset(self) -> FrozenSet[int]:
        """The set of links in this route (the paper's ``LSET_r``)."""
        return self._lset

    def uses_link(self, link_id: int) -> bool:
        return link_id in self._lset

    def shared_links(self, other: "Route") -> FrozenSet[int]:
        """Links this route shares with ``other`` (overlap test)."""
        return self._lset & other._lset

    def is_disjoint_from(self, other: "Route") -> bool:
        """True when the two routes share no unidirectional link."""
        return not (self._lset & other._lset)

    def __iter__(self) -> Iterator[int]:
        return iter(self.link_ids)

    def __len__(self) -> int:
        return self.hop_count

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "-".join(str(n) for n in self.nodes)
