"""Naive reference implementations for differential testing.

The fast-path routing engine earns its speed from three pieces of
incrementally-maintained state: per-ledger demand maps with
``||APLV||_1`` and the CV bits kept beside them, support-versioned
Conflict-Vector caches, and per-network search workspaces with cached
adjacency.  Each of those is exactly the kind of state that can
silently drift from the truth.  This module keeps the *truth*:
rebuild-from-scratch counterparts with no caches and no incremental
state, against which :class:`~repro.testing.oracle.DifferentialOracle`
diffs the fast path after every operation.

``naive_shortest_path`` and ``naive_bounded_shortest_path`` are the
pre-optimization searches, preserved verbatim (dict-based distance
maps, adjacency re-materialized from the topology on every expansion).
They are the only searches left that ask a *closure* for each link's
cost (:data:`LinkCost`): a tuple, summed component-wise and compared
lexicographically, so ``(Q_penalties + conflicts, 1)`` per link orders
routes exactly as the paper's ``Q + conflicts + epsilon`` does for any
epsilon in ``(0, 1)``.  Their tie-breaking — heap insertion counter
over ``network.out_links`` order — is the contract the array searches
of :mod:`repro.kernels.search` must reproduce bit for bit.
The planners that search with them live next door
(:mod:`repro.testing.link_state`, :mod:`repro.testing.flooding`); the
shadow service that binds it all together is
:func:`repro.testing.oracle.make_reference_service`.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Callable, Optional, Tuple

from ..network.conflict_vector import ConflictVector
from ..network.database import LinkStateDatabase
from ..topology.graph import Link, Network, Route

#: A link-cost function: maps a link to an additive cost tuple, or to
#: ``None`` to exclude the link from the search entirely.  All
#: returned tuples must have the same arity.
LinkCost = Callable[[Link], Optional[Tuple[float, ...]]]


def hop_cost(_link: Link) -> Tuple[float, ...]:
    """Unit cost — plain minimum-hop routing."""
    return (1.0,)


def naive_shortest_path(
    network: Network,
    source: int,
    destination: int,
    link_cost: LinkCost = hop_cost,
) -> Optional[Route]:
    """The textbook dict-based Dijkstra the fast search replaced.

    No cached adjacency, no reused arrays: every call allocates fresh
    ``dist``/``parent`` dicts and walks ``network.out_links`` directly.
    """
    network._check_node(source)
    network._check_node(destination)
    if source == destination:
        raise ValueError("source and destination must differ")

    counter = count()
    dist: dict = {source: ()}
    parent: dict = {}
    heap = [((), next(counter), source)]
    visited = set()
    while heap:
        cost, _, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        if node == destination:
            return _unwind(source, destination, parent)
        for link in network.out_links(node):
            if link.dst in visited:
                continue
            step = link_cost(link)
            if step is None:
                continue
            if cost:
                new_cost = tuple(a + b for a, b in zip(cost, step))
            else:
                new_cost = tuple(step)
            old = dist.get(link.dst)
            if old is None or new_cost < old:
                dist[link.dst] = new_cost
                parent[link.dst] = (node, link.link_id)
                heapq.heappush(heap, (new_cost, next(counter), link.dst))
    return None


def _unwind(source: int, destination: int, parent: dict) -> Route:
    nodes = [destination]
    links = []
    node = destination
    while node != source:
        prev, link_id = parent[node]
        nodes.append(prev)
        links.append(link_id)
        node = prev
    nodes.reverse()
    links.reverse()
    return Route(nodes=tuple(nodes), link_ids=tuple(links))


def naive_bounded_shortest_path(
    network: Network,
    source: int,
    destination: int,
    link_cost: LinkCost,
    max_hops: int,
) -> Optional[Route]:
    """The pre-optimization layered ``(node, hops)`` bounded search."""
    network._check_node(source)
    network._check_node(destination)
    if source == destination:
        raise ValueError("source and destination must differ")
    if max_hops < 1:
        return None

    counter = count()
    dist: dict = {(source, 0): ()}
    parent: dict = {}
    heap = [((), next(counter), source, 0)]
    best_goal = None  # (cost, node, hops)
    while heap:
        cost, _, node, hops = heapq.heappop(heap)
        if best_goal is not None and cost >= best_goal[0]:
            break
        if node == destination:
            best_goal = (cost, node, hops)
            continue
        if hops == max_hops:
            continue
        if dist.get((node, hops), None) is not None and cost > dist[(node, hops)]:
            continue
        for link in network.out_links(node):
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
                heapq.heappush(
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
        return None
    return Route(nodes=tuple(nodes), link_ids=tuple(links))


class ReferenceDatabase(LinkStateDatabase):
    """A link-state database with no incremental state.

    Every APLV/CV read rebuilds the vector from the ledger's backup
    registry (:attr:`~repro.network.state.LinkLedger.aplv`, and
    :attr:`~repro.network.state.LinkLedger.group_aplv` for groups) —
    the naive O(|registry|·|LSET|) path the incremental engine
    replaced — and every other per-link read asks the ledger,
    never the production database's kernel table.  Reads are slow and
    always exact, which is the point: a shadow service routing from
    this database computes the ground-truth decision.
    """

    def __init__(self, state) -> None:
        super().__init__(state, live=True)

    def aplv_l1(self, link_id: int) -> int:
        return self._state.ledger(link_id).aplv.l1_norm

    def conflict_vector(self, link_id: int) -> ConflictVector:
        return ConflictVector.from_aplv(self._state.ledger(link_id).aplv)

    def conflict_count(self, link_id: int, primary_lset) -> int:
        return self._state.ledger(link_id).aplv.conflict_count(primary_lset)

    def group_aplv_l1(self, link_id: int) -> int:
        return self._state.ledger(link_id).group_aplv.l1_norm

    def group_conflict_count(self, link_id: int, primary_lset) -> int:
        ledger = self._state.ledger(link_id)
        return ledger.group_aplv.conflict_count(
            ledger.risk_groups.groups_of(primary_lset)
        )

    def primary_headroom(self, link_id: int) -> float:
        return self._state.ledger(link_id).primary_headroom()

    def backup_headroom(self, link_id: int) -> float:
        return self._state.ledger(link_id).backup_headroom()
