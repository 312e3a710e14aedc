"""Dijkstra shortest-path search with composite link costs.

Both LSR schemes route with "the Dijkstra's algorithm" over additive
link costs of the form ``C_i = Q + conflict_term + epsilon``
(Sections 3.1, 3.2).  The epsilon term exists purely to prefer the
*shortest* route among equal-conflict candidates; adding a small float
invites precision bugs, so this implementation uses **lexicographic
cost tuples** instead: every link cost is a tuple, path cost is the
component-wise sum, and comparison is tuple comparison.  Encoding
``(Q_penalties + conflicts, 1)`` per link reproduces the paper's
``Q + conflicts + epsilon`` ordering exactly for any epsilon in
``(0, 1)`` and any network diameter.

The search is a binary-heap Dijkstra, written here from scratch (no
networkx) because link costs depend on live DRTP state and on the
connection being routed.  Two fast-path optimizations make repeated
searches on an unchanged topology cheap, without changing a single
returned route:

* **cached adjacency** — frozen networks get a per-network
  :class:`SearchWorkspace` holding the out-link tuples of every node,
  so a search never re-materializes adjacency lists;
* **reusable priority-queue state** — distance/parent/visited arrays
  live in the workspace and are invalidated by an epoch stamp instead
  of being reallocated per search.

Tie-breaking (heap insertion counter over the cached adjacency order,
which is link insertion order) is bit-identical to the naive reference
implementation kept in :mod:`repro.testing.reference`; the
differential-testing oracle asserts exactly that.
"""

from __future__ import annotations

import weakref
from array import array
from heapq import heappop, heappush
from itertools import count
from typing import Callable, Dict, List, Optional, Tuple

from ..topology.graph import Link, Network, Route

#: A link-cost function: maps a link to an additive cost tuple, or to
#: ``None`` to exclude the link from the search entirely.
LinkCost = Callable[[Link], Optional[Tuple[float, ...]]]


def hop_cost(_link: Link) -> Tuple[float, ...]:
    """Unit cost — plain minimum-hop routing."""
    return (1.0,)


class SearchWorkspace:
    """Per-network reusable search state.

    ``adjacency[node]`` is the tuple of out-links of ``node`` in link
    insertion order (the tie-breaking order).  The distance, parent and
    visited arrays are validated per search by ``epoch`` stamps, so
    starting a new search costs two list reads per touched node instead
    of O(V) clearing or fresh dict allocations.

    The workspace also keeps what the flat searches
    (:mod:`repro.kernels.search`) know about the *topology alone* and
    therefore never invalidate: the pair adjacencies in both directions
    and, per destination first searched for, its hop column
    (:meth:`hops_to`).  ``answer`` names how the most recent flat
    search on this workspace was answered (one of
    :data:`repro.kernels.search.ANSWERS`) — the searches return only
    the route, their caller reads the rest here.
    """

    __slots__ = (
        "adjacency",
        "dist",
        "parent",
        "dist_stamp",
        "visited_stamp",
        "epoch",
        "in_use",
        "answer",
        "_flat",
        "_reverse",
        "_hop_columns",
    )

    def __init__(self, network: Network) -> None:
        self.adjacency: Tuple[Tuple[Link, ...], ...] = tuple(
            tuple(network.out_links(node)) for node in network.nodes()
        )
        num_nodes = network.num_nodes
        self.dist: List[Optional[Tuple[float, ...]]] = [None] * num_nodes
        self.parent: List[Optional[Tuple[int, int]]] = [None] * num_nodes
        self.dist_stamp = [0] * num_nodes
        self.visited_stamp = [0] * num_nodes
        self.epoch = 0
        self.in_use = False
        self.answer = ""
        self._flat: Optional[Tuple[Tuple[Tuple[int, int], ...], ...]] = None
        self._reverse: Optional[Tuple[Tuple[Tuple[int, int], ...], ...]] = None
        self._hop_columns: Dict[int, "array[int]"] = {}

    def flat_adjacency(self) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
        """Link-object-free form of :attr:`adjacency` for the compiled
        searches (:mod:`repro.kernels.search`): per node, a tuple of
        ``(dst, link_id)`` pairs in the same link-insertion order as
        the object tuples — so both search flavors expand edges, and
        therefore break ties, identically.  Pair tuples unpack in one
        bytecode step per edge, the hottest operation of the flat
        searches.  Built lazily once per workspace."""
        if self._flat is None:
            self._flat = tuple(
                tuple((link.dst, link.link_id) for link in out_links)
                for out_links in self.adjacency
            )
        return self._flat

    def reverse_adjacency(self) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
        """The in-link twin of :meth:`flat_adjacency`: per node, a
        tuple of ``(src, link_id)`` pairs, one per link entering it.
        Only order-free questions are asked of it (hop columns, the
        two-ended reachability test, the endpoint shift), so it carries
        no tie-breaking contract.  Built lazily once per workspace."""
        if self._reverse is None:
            incoming: List[List[Tuple[int, int]]] = [
                [] for _ in self.adjacency
            ]
            for out_links in self.adjacency:
                for link in out_links:
                    incoming[link.dst].append((link.src, link.link_id))
            self._reverse = tuple(tuple(pairs) for pairs in incoming)
        return self._reverse

    def hops_to(self, destination: int) -> "array[int]":
        """The hop column of ``destination``: ``hops_to(t)[v]`` is the
        minimum hop count from ``v`` to ``t`` over *every* link of the
        topology (Section 4.1's distance-table entry ``D_t^v``), and
        ``num_nodes`` — one more than any hop count — where ``t``
        cannot be reached from ``v``.  It depends on the topology
        only, so it is a lower bound under any cost array and is never
        invalidated.  One reverse breadth-first pass per destination
        first asked for, kept as a compact unsigned array."""
        column = self._hop_columns.get(destination)
        if column is None:
            unreachable = len(self.adjacency)
            hops = [unreachable] * unreachable
            hops[destination] = 0
            reverse = self.reverse_adjacency()
            frontier = [destination]
            depth = 0
            while frontier:
                depth += 1
                reached = []
                for node in frontier:
                    for src, _link_id in reverse[node]:
                        if hops[src] == unreachable:
                            hops[src] = depth
                            reached.append(src)
                frontier = reached
            column = self._hop_columns[destination] = array("I", hops)
        return column


#: Frozen topologies are immutable, so their adjacency (and the sized
#: search arrays) can be cached for the network's lifetime.
_WORKSPACES: "weakref.WeakKeyDictionary[Network, SearchWorkspace]" = (
    weakref.WeakKeyDictionary()
)


def search_workspace(network: Network) -> SearchWorkspace:
    """The cached workspace for a frozen network (created on first
    use).  Unfrozen networks get a fresh, uncached workspace — their
    adjacency may still change."""
    if not network.frozen:
        return SearchWorkspace(network)
    workspace = _WORKSPACES.get(network)
    if workspace is None:
        workspace = SearchWorkspace(network)
        _WORKSPACES[network] = workspace
    return workspace


def shortest_path(
    network: Network,
    source: int,
    destination: int,
    link_cost: LinkCost = hop_cost,
) -> Optional[Route]:
    """Minimum-cost loop-free path, or ``None`` if unreachable.

    Args:
        network: Topology to search (frozen topologies reuse a cached
            :class:`SearchWorkspace`).
        source: Start node.
        destination: End node (must differ from ``source``).
        link_cost: Additive cost per link; return ``None`` to forbid a
            link.  All returned tuples must have the same arity.

    Ties are broken deterministically by expansion order (heap
    insertion counter), so identical inputs yield identical routes —
    a property the scenario-replay methodology depends on.
    """
    network._check_node(source)
    network._check_node(destination)
    if source == destination:
        raise ValueError("source and destination must differ")

    workspace = search_workspace(network)
    if workspace.in_use:
        # Reentrant search (a cost function routing recursively):
        # fall back to an ephemeral workspace rather than corrupting
        # the in-flight arrays.
        workspace = SearchWorkspace(network)
    workspace.in_use = True
    try:
        return _heap_search(workspace, source, destination, link_cost)
    finally:
        workspace.in_use = False


def _heap_search(
    workspace: SearchWorkspace,
    source: int,
    destination: int,
    link_cost: LinkCost,
) -> Optional[Route]:
    workspace.epoch += 1
    epoch = workspace.epoch
    adjacency = workspace.adjacency
    dist = workspace.dist
    parent = workspace.parent
    dist_stamp = workspace.dist_stamp
    visited_stamp = workspace.visited_stamp

    counter = count()
    # The source carries the empty tuple, which acts as the additive
    # identity below and sorts before every non-empty cost in the heap.
    dist[source] = ()
    dist_stamp[source] = epoch
    heap = [((), next(counter), source)]
    while heap:
        cost, _, node = heappop(heap)
        if visited_stamp[node] == epoch:
            continue
        visited_stamp[node] = epoch
        if node == destination:
            return _unwind(workspace, epoch, source, destination)
        for link in adjacency[node]:
            dst = link.dst
            if visited_stamp[dst] == epoch:
                continue
            step = link_cost(link)
            if step is None:
                continue
            if cost:
                new_cost = tuple(a + b for a, b in zip(cost, step))
            else:
                new_cost = tuple(step)
            if dist_stamp[dst] != epoch or new_cost < dist[dst]:
                dist[dst] = new_cost
                dist_stamp[dst] = epoch
                parent[dst] = (node, link.link_id)
                heappush(heap, (new_cost, next(counter), dst))
    return None


def _unwind(
    workspace: SearchWorkspace, epoch: int, source: int, destination: int
) -> Route:
    nodes = [destination]
    links = []
    node = destination
    parent = workspace.parent
    while node != source:
        assert workspace.dist_stamp[node] == epoch
        prev, link_id = parent[node]
        nodes.append(prev)
        links.append(link_id)
        node = prev
    nodes.reverse()
    links.reverse()
    return Route(nodes=tuple(nodes), link_ids=tuple(links))


def bounded_shortest_path(
    network: Network,
    source: int,
    destination: int,
    link_cost: LinkCost,
    max_hops: int,
) -> Optional[Route]:
    """Minimum-cost path using at most ``max_hops`` links.

    Implements the delay-QoS constraint of DR-connections (Section 2:
    a backup whose "QoS requirement (e.g., end-to-end delay) is too
    tight to use the longer path" cannot take it): Dijkstra over the
    layered state space ``(node, hops_used)``, so a cheaper-but-longer
    route never shadows a compliant one.  The layered state space is
    keyed by dict (its size depends on the hop bound), but adjacency
    comes from the shared cached workspace.

    Complexity is ``O(max_hops · E · log(max_hops · V))`` — the hop
    bound is small (network diameter plus slack), so this stays cheap.
    """
    network._check_node(source)
    network._check_node(destination)
    if source == destination:
        raise ValueError("source and destination must differ")
    if max_hops < 1:
        return None

    adjacency = search_workspace(network).adjacency
    counter = count()
    dist: dict = {(source, 0): ()}
    parent: dict = {}
    heap = [((), next(counter), source, 0)]
    best_goal = None  # (cost, node, hops)
    while heap:
        cost, _, node, hops = heappop(heap)
        if best_goal is not None and cost >= best_goal[0]:
            break
        if node == destination:
            best_goal = (cost, node, hops)
            continue
        if hops == max_hops:
            continue
        if dist.get((node, hops), None) is not None and cost > dist[(node, hops)]:
            continue
        for link in adjacency[node]:
            step = link_cost(link)
            if step is None:
                continue
            if cost:
                new_cost = tuple(a + b for a, b in zip(cost, step))
            else:
                new_cost = tuple(step)
            state = (link.dst, hops + 1)
            old = dist.get(state)
            if old is None or new_cost < old:
                dist[state] = new_cost
                parent[state] = (node, hops, link.link_id)
                heappush(
                    heap, (new_cost, next(counter), link.dst, hops + 1)
                )
    if best_goal is None:
        return None
    _, node, hops = best_goal
    nodes = [node]
    links = []
    state = (node, hops)
    while state in parent:
        prev_node, prev_hops, link_id = parent[state]
        nodes.append(prev_node)
        links.append(link_id)
        state = (prev_node, prev_hops)
    nodes.reverse()
    links.reverse()
    if len(set(nodes)) != len(nodes):
        # The layered search can in principle thread through a node
        # twice at different hop counts when negative-progress moves
        # are cheap; with non-negative costs and the minimum-cost
        # guarantee this is unreachable, but guard anyway.
        return None
    return Route(nodes=tuple(nodes), link_ids=tuple(links))


def search(
    network: Network,
    source: int,
    destination: int,
    link_cost: LinkCost,
    max_hops: Optional[int] = None,
) -> Optional[Route]:
    """The closure search a query asks for: :func:`shortest_path`, or
    :func:`bounded_shortest_path` when it carries a delay bound."""
    if max_hops is None:
        return shortest_path(network, source, destination, link_cost)
    return bounded_shortest_path(
        network, source, destination, link_cost, max_hops
    )


def min_hop_path(
    network: Network,
    source: int,
    destination: int,
    link_allowed: Optional[Callable[[Link], bool]] = None,
) -> Optional[Route]:
    """Minimum-hop path over (optionally filtered) links."""

    def cost(link: Link) -> Optional[Tuple[float, ...]]:
        if link_allowed is not None and not link_allowed(link):
            return None
        return (1.0,)

    return shortest_path(network, source, destination, cost)


def path_cost(
    route: Route,
    network: Network,
    link_cost: LinkCost,
) -> Tuple[float, ...]:
    """Total additive cost of an existing route (for tests/analysis)."""
    total: Optional[Tuple[float, ...]] = None
    for link_id in route.link_ids:
        step = link_cost(network.link(link_id))
        if step is None:
            raise ValueError("route uses forbidden link {}".format(link_id))
        total = step if total is None else tuple(
            a + b for a, b in zip(total, step)
        )
    assert total is not None
    return total
