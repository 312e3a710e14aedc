"""Flat-array Dijkstra searches over batch-built cost arrays.

These searches consume a *cost array* — one float per link id, built
in a single batch pass by
:class:`~repro.kernels.arrays.LinkTables` — instead of a cost
closure, and walk the workspace's flat pair adjacency
(:meth:`~repro.routing.dijkstra.SearchWorkspace.flat_adjacency`).  A
negative entry excludes the link from the search (the closure path's
``None``).

Bit-exactness contract: the closure searches' lexicographic cost
tuples ``(conflict, hops)`` are encoded as ``conflict * scale + hops`` with
``scale`` computed by :func:`encode_scale`.  Both components are
integer-valued floats and every partial-path sum stays far below
2**53, so tuple order and encoded order coincide *exactly* — every
relaxation decision, every heap comparison and therefore every
returned route (tie-breaks included) matches
:func:`repro.routing.dijkstra.shortest_path` /
:func:`~repro.routing.dijkstra.bounded_shortest_path` run over the
equivalent closure.  The differential suite
(``tests/test_kernel_equivalence.py``) pins this.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from itertools import count
from typing import Optional, Sequence

from ..routing.dijkstra import SearchWorkspace, _unwind, search_workspace
from ..topology.graph import Network, Route

#: Integer-valued path costs must stay exactly representable; with the
#: conservative bound ``V * (Q + E) * scale`` this still leaves the
#: whole 10^4-node regime inside 2**53.
_EXACT_LIMIT = float(1 << 53)


def encode_scale(network: Network, max_hops: Optional[int] = None) -> float:
    """The hop multiplier for encoding ``(cost, hops)`` as one float.

    Any strict upper bound on a search's hop counts works; simple
    paths have at most ``num_nodes - 1`` hops and the layered bounded
    search never exceeds ``max_hops``."""
    scale = network.num_nodes
    if max_hops is not None and max_hops + 1 > scale:
        scale = max_hops + 1
    return float(scale)


def flat_shortest_path(
    network: Network,
    source: int,
    destination: int,
    costs: Sequence[float],
) -> Optional[Route]:
    """Minimum-cost loop-free path over a per-link scalar cost array.

    Mirrors :func:`repro.routing.dijkstra.shortest_path` exactly —
    same workspace, same epoch-stamped arrays, same heap tie-breaking
    by insertion counter over the identical adjacency order."""
    network._check_node(source)
    network._check_node(destination)
    if source == destination:
        raise ValueError("source and destination must differ")

    workspace = search_workspace(network)
    if workspace.in_use:
        workspace = SearchWorkspace(network)
    workspace.in_use = True
    try:
        return _flat_heap_search(workspace, source, destination, costs)
    finally:
        workspace.in_use = False


def _flat_heap_search(
    workspace: SearchWorkspace,
    source: int,
    destination: int,
    costs: Sequence[float],
) -> Optional[Route]:
    """Scalar-cost Dijkstra with a *bucket* priority queue.

    The tuple heap's entries are ``(cost, counter, node)`` where the
    counter realizes first-pushed-wins tie-breaking.  Here entries
    sharing a cost live in one FIFO deque keyed by the exact cost
    float, and a small heap orders only the *distinct* cost values.
    Draining the minimum bucket front-to-back pops entries in exactly
    ``(cost, counter)`` order: FIFO order within a bucket *is* global
    push-counter order, and every step cost is strictly positive, so
    a node expanded at cost ``c`` only ever pushes into buckets
    ``> c`` — the bucket being drained never grows.  Path costs that
    are equal as real numbers collide as float keys because the
    encoded sums are exact (see the module docstring), so this is
    bit-identical to the tuple heap while doing one heap operation
    per distinct cost instead of per push.
    """
    workspace.epoch += 1
    epoch = workspace.epoch
    pairs = workspace.flat_adjacency()
    dist = workspace.dist
    parent = workspace.parent
    dist_stamp = workspace.dist_stamp
    visited_stamp = workspace.visited_stamp

    dist[source] = 0.0
    dist_stamp[source] = epoch
    buckets = {0.0: deque((source,))}
    cost_heap = [0.0]
    get_bucket = buckets.get
    push = heappush
    pop = heappop
    # When no entry is negative the per-edge exclusion test is vacuous
    # (no ``step < 0.0`` branch could ever fire), so each expansion
    # takes the check-free relax loop.  Exclusions only appear for
    # failed or explicitly avoided links — rare in steady state.
    exclusions = min(costs) < 0.0
    while cost_heap:
        cost = cost_heap[0]
        bucket = buckets[cost]
        while bucket:
            node = bucket.popleft()
            if visited_stamp[node] == epoch:
                continue
            visited_stamp[node] = epoch
            if node == destination:
                return _unwind(workspace, epoch, source, destination)
            if exclusions:
                for dst, link_id in pairs[node]:
                    if visited_stamp[dst] == epoch:
                        continue
                    step = costs[link_id]
                    if step < 0.0:
                        continue
                    new_cost = cost + step
                    if dist_stamp[dst] != epoch or new_cost < dist[dst]:
                        dist[dst] = new_cost
                        dist_stamp[dst] = epoch
                        parent[dst] = (node, link_id)
                        target = get_bucket(new_cost)
                        if target is None:
                            buckets[new_cost] = deque((dst,))
                            push(cost_heap, new_cost)
                        else:
                            target.append(dst)
            else:
                for dst, link_id in pairs[node]:
                    if visited_stamp[dst] == epoch:
                        continue
                    new_cost = cost + costs[link_id]
                    if dist_stamp[dst] != epoch or new_cost < dist[dst]:
                        dist[dst] = new_cost
                        dist_stamp[dst] = epoch
                        parent[dst] = (node, link_id)
                        target = get_bucket(new_cost)
                        if target is None:
                            buckets[new_cost] = deque((dst,))
                            push(cost_heap, new_cost)
                        else:
                            target.append(dst)
        pop(cost_heap)
        del buckets[cost]
    return None


def _flat_tuple_heap_search(
    workspace: SearchWorkspace,
    source: int,
    destination: int,
    costs: Sequence[float],
) -> Optional[Route]:
    """Tuple-heap fallback of :func:`_flat_heap_search` — identical
    relaxations and ``(cost, counter)`` tie-breaking, used when packed
    floats could lose exactness."""
    workspace.epoch += 1
    epoch = workspace.epoch
    pairs = workspace.flat_adjacency()
    dist = workspace.dist
    parent = workspace.parent
    dist_stamp = workspace.dist_stamp
    visited_stamp = workspace.visited_stamp

    counter = count()
    dist[source] = 0.0
    dist_stamp[source] = epoch
    heap = [(0.0, next(counter), source)]
    while heap:
        cost, _, node = heappop(heap)
        if visited_stamp[node] == epoch:
            continue
        visited_stamp[node] = epoch
        if node == destination:
            return _unwind(workspace, epoch, source, destination)
        for dst, link_id in pairs[node]:
            if visited_stamp[dst] == epoch:
                continue
            step = costs[link_id]
            if step < 0.0:
                continue
            new_cost = cost + step
            if dist_stamp[dst] != epoch or new_cost < dist[dst]:
                dist[dst] = new_cost
                dist_stamp[dst] = epoch
                parent[dst] = (node, link_id)
                heappush(heap, (new_cost, next(counter), dst))
    return None


def flat_min_hop_path(
    network: Network,
    source: int,
    destination: int,
    costs: Sequence[float],
) -> Optional[Route]:
    """Unit-cost specialization of :func:`flat_shortest_path`: every
    allowed link costs exactly ``1.0`` (the primary cost array's only
    non-excluded value), so Dijkstra degenerates to breadth-first
    search — *bit-identically*.

    Equivalence argument: with unit steps the heap orders entries by
    ``(depth, insertion counter)``; every depth-``d`` push happens
    while popping depth-``d−1`` entries, which all precede any
    depth-``d`` pop, so heap order *is* FIFO push order.  Each node is
    pushed at most once (a second relaxation at equal depth fails the
    strict ``<`` test), parents are assigned at first discovery, and
    the destination is recognized at pop — all exactly as a deque BFS
    with a discovered-set does.  The deque replaces the heap's
    O(log n) pushes with O(1) appends, roughly tripling primary-search
    throughput.
    """
    network._check_node(source)
    network._check_node(destination)
    if source == destination:
        raise ValueError("source and destination must differ")

    workspace = search_workspace(network)
    if workspace.in_use:
        workspace = SearchWorkspace(network)
    workspace.in_use = True
    try:
        workspace.epoch += 1
        epoch = workspace.epoch
        pairs = workspace.flat_adjacency()
        parent = workspace.parent
        # dist_stamp doubles as the discovered marker, matching what
        # _unwind asserts along the returned route.
        seen = workspace.dist_stamp
        seen[source] = epoch
        queue = deque((source,))
        popleft = queue.popleft
        append = queue.append
        if min(costs) >= 0.0:
            # No excluded links, so the per-edge cost test is vacuous
            # and the loop is pure BFS.  This is the common case:
            # primary arrays only go negative for failed or
            # bandwidth-short links.
            while queue:
                node = popleft()
                if node == destination:
                    return _unwind(workspace, epoch, source, destination)
                for dst, link_id in pairs[node]:
                    if seen[dst] == epoch:
                        continue
                    seen[dst] = epoch
                    parent[dst] = (node, link_id)
                    append(dst)
            return None
        while queue:
            node = popleft()
            if node == destination:
                return _unwind(workspace, epoch, source, destination)
            for dst, link_id in pairs[node]:
                if seen[dst] == epoch:
                    continue
                if costs[link_id] < 0.0:
                    continue
                seen[dst] = epoch
                parent[dst] = (node, link_id)
                append(dst)
        return None
    finally:
        workspace.in_use = False


def flat_bounded_shortest_path(
    network: Network,
    source: int,
    destination: int,
    costs: Sequence[float],
    max_hops: int,
) -> Optional[Route]:
    """Hop-bounded variant over the layered ``(node, hops)`` space —
    the scalar-cost mirror of
    :func:`repro.routing.dijkstra.bounded_shortest_path`."""
    network._check_node(source)
    network._check_node(destination)
    if source == destination:
        raise ValueError("source and destination must differ")
    if max_hops < 1:
        return None

    pairs = search_workspace(network).flat_adjacency()
    counter = count()
    dist: dict = {(source, 0): 0.0}
    parent: dict = {}
    heap = [(0.0, next(counter), source, 0)]
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
        for dst, link_id in pairs[node]:
            step = costs[link_id]
            if step < 0.0:
                continue
            new_cost = cost + step
            state = (dst, hops + 1)
            old = dist.get(state)
            if old is None or new_cost < old:
                dist[state] = new_cost
                parent[state] = (node, hops, link_id)
                heappush(heap, (new_cost, next(counter), dst, hops + 1))
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
        # Same guard as the closure search: unreachable with non-negative
        # costs, kept for exact behavioral parity.
        return None
    return Route(nodes=tuple(nodes), link_ids=tuple(links))
