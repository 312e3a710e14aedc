"""Flat-array searches over batch-built cost arrays.

These searches consume a *cost array* — one float per link id, built
in a single batch pass by
:class:`~repro.kernels.arrays.CompiledLinkArrays` as a float64 buffer
(``array("d")``; any float sequence is accepted) — instead of a cost
closure, and walk the flat pair adjacency of a per-network
:class:`SearchWorkspace`.  A negative entry excludes the link from the
search (a reference cost closure's ``None``).  They are the only route
searches outside :mod:`repro.testing`.

Bit-exactness contract: the paper's ``Q + conflict + eps`` link cost
is the lexicographic tuple ``(conflict, hops)``, encoded as
``conflict * scale + hops`` with ``scale`` computed by
:func:`encode_scale`.  Both components are integer-valued floats and
every partial-path sum stays below 2**53 (:func:`encode_scale` refuses
a network where it might not), so tuple order and encoded order
coincide *exactly* — every relaxation decision, every heap comparison
and therefore every returned route (tie-breaks included) matches
:func:`repro.testing.reference.naive_shortest_path` /
:func:`~repro.testing.reference.naive_bounded_shortest_path` run over
the equivalent tuple-cost closure.  ``tests/test_property_kernels.py``
pins the searches, ``tests/test_kernel_equivalence.py`` the planner
built on them.

Searches that stop at the answer
--------------------------------

The reference search is an exhaustive Dijkstra: it pops nodes in
``(cost, push counter)`` order until the destination comes up.  Most
answers need far less.  A link costing exactly ``1.0`` — a feasible
link for a primary, a link with no ``Q`` and no conflict charge for a
backup — is a *unit* link, and the unbounded searches first run a
**unit phase** over unit links only:

1. *endpoint shift* (:func:`_shift_endpoints`) prices the cheapest
   allowed link out of the source and the cheapest allowed link into
   the destination down to ``1.0`` on a private copy, so a conflict
   that no route can avoid stops hiding the destination behind the
   whole zero-conflict region;
2. a *hop-bounded* FIFO breadth-first search
   (:func:`_bounded_unit_bfs`) over unit links, pruned by the
   destination's hop column (:meth:`SearchWorkspace.hops_to`), first at
   the topology's own hop count — it then walks only the min-hop DAG;
3. when that finds nothing, a two-ended reachability test
   (:func:`_unit_distance`) returns the exact unit distance, or
   ``None`` the moment either side runs dry, and the bounded search
   runs once more at exactly that distance.

Only when the destination is not reachable over unit links does
:func:`flat_shortest_path` run the exhaustive bucket-queue Dijkstra
(:func:`_flat_heap_search`, two-ended: see below), on the same shifted
array.  How a search
was answered (:data:`ANSWERS`) is left on the workspace for the
caller's span tags and metrics.  Every returned route stays identical
to the reference's because of four facts:

*A pruned FIFO BFS equals the unpruned one on every survivor.*  Call a
node a survivor when ``depth(v) + hops_to(t)[v] <= bound``, with
``depth`` its unit BFS depth.  A link ``u -> v`` gives ``hops_to(t)[u]
<= 1 + hops_to(t)[v]`` (full-topology hop counts are a consistent
lower bound), so the BFS parent of a survivor is a survivor: survivors
are closed under BFS parents.  By induction over pop order the pruned
queue is the unpruned queue restricted to survivors, each discovered
by the same parent over the same link.  The destination is a survivor
iff ``bound`` is at least its unit distance; its parent is fixed at
discovery, so returning there returns the reference's route.

*The first meeting of the two-ended BFS is the exact distance.*  With
``a`` forward and ``b`` backward levels fully grown and disjoint, the
distance exceeds ``a + b`` (the node ``min(a, D)`` steps along a
shortest path would lie in both).  A link scanned while growing level
``a + 1`` that lands on the other side therefore closes a path of
exactly ``a + b + 1`` links, whichever end grew.

*The endpoint shift is a uniform shift that keeps costs ≥ 1.*  Every
loop-free route uses exactly one link out of the source and one into
the destination, so subtracting ``floor - 1.0`` from each allowed link
of either set (the destination's floor taken after the source's
shift, which matters only for a direct link) lowers every
source-to-node cost by one constant and every candidate cost of the
destination by another: all comparisons among other nodes, and among
the destination's candidates, are unchanged; the destination only pops
earlier, and each candidate parent achieving its optimum still pops
before it because every link still costs at least ``1.0``.
Builder-made costs are ``k * scale + 1`` with integer ``k``, the
floors too, so the subtraction is exact and keeps that form.

*A unit route beats every route with a non-unit link.*  On such an
array a non-unit link costs at least ``scale + 1 > num_nodes - 1``,
more than any loop-free unit route in full.  So when the destination
is reachable over unit links the Dijkstra never pops a node through a
non-unit link before answering; among unit-cost pops its ``(cost,
counter)`` order is FIFO order (see :func:`_bounded_unit_bfs`), which
is the unit BFS.

The two-ended exhaustive step
-----------------------------

Beside the forward bucket Dijkstra from ``s`` a backward one runs from
``t`` over :meth:`SearchWorkspace.reverse_adjacency`; whichever side
has settled fewer nodes expands one whole bucket next.  A label either
side sets on a node the other has labelled closes an ``s``-``t`` walk,
and ``mu`` keeps the cheapest.  The forward side skips a label ``g`` at
``v`` — when pushing it and again when popping it — if ``g + LB(v) >
mu``: ``LB(v)`` is ``v``'s backward distance once the backward side has
settled ``v``, else ``top_b``, the backward heap's minimum key (``inf``
once it is empty).  Once ``top_f + top_b >= mu`` the backward side
stops and the forward side runs on alone until ``t`` pops.

*No label of an optimal-route node is skipped.*  For ``v`` on an
optimal route (cost ``C*``) and its label ``d(s, v)``, ``LB(v) <= d(v,
t) = C* - d(s, v)`` and ``mu >= C*``, so the test never fires.

*The route and its ties are the reference's.*  An optimal-route node
takes its final label only from a parent on an optimal route, over a
relaxation that is never skipped; a node popped above its distance
offers strictly more than the distance to every neighbour, so it never
ties with such a parent.  Skipped entries do not reorder the others,
so by induction over pop order the optimal-route nodes pop in the
reference's relative order with the reference's parents — ``t``
included.

*``mu`` is ``C*`` once ``top_f + top_b >= mu``.*  Were ``C* < mu``,
take an optimal route, ``x`` its last node with ``d(s, x) < top_f``
and ``y`` the next: ``d(s, y) >= top_f`` forces ``d(y, t) < top_b``.
A side settles every optimal-route node nearer than its top key (the
first one it has not would sit in its heap below that key), so ``x``
was settled forward, which gave ``y`` its final forward label, and
``y`` was settled backward.  Whichever final label of ``y`` came
second saw the other: ``mu <= C*``.  A stale key (a bucket every entry
of which was relabelled lower) only lowers a ``top``, so the test and
``LB`` stay true, just weaker.  Each side labels its own start, so the
other side's first touch records ``mu``: a side running dry while
``mu`` is ``inf`` proves there is no route.

The two bounds compare sums of one route taken from both ends, which
agree only because every sum is an exact integer;
:func:`flat_dijkstra`'s arbitrary floats run the step one-ended.
"""

from __future__ import annotations

import weakref
from array import array
from heapq import heappop, heappush
from itertools import count
from typing import Dict, List, Optional, Sequence, Tuple

from ..routing.costs import Q_PENALTY
from ..topology.graph import Network, Route

#: Integer-valued path costs must stay exactly representable: the
#: bucket queue keys on them, the endpoint shift subtracts them and
#: "a non-unit link costs at least ``scale + 1``" reads them back.
_EXACT_LIMIT = float(1 << 53)
_INF = float("inf")

#: How an unbounded flat search was answered, in the order tried: by
#: the first hop-bounded pass, by the second one at the two-ended
#: test's exact distance, by the exhaustive Dijkstra, or not at all.
PROBE, BOUNDED, EXHAUSTIVE, NONE = ANSWERS = (
    "probe", "bounded", "exhaustive", "none"
)

#: Per node, its ``(peer, link_id)`` pairs.
_Pairs = Tuple[Tuple[Tuple[int, int], ...], ...]


class SearchWorkspace:
    """Per-network reusable search state.

    The distance, parent and visited arrays — and the backward side's
    ``back_*`` twins — are validated per search by ``epoch`` stamps,
    so starting a new search costs two list reads per touched node
    instead of O(V) clearing or fresh dict allocations.

    The workspace also keeps what the searches know about the
    *topology alone* and therefore never invalidate: the pair
    adjacencies in both directions and, per destination first searched
    for, its hop column (:meth:`hops_to`).  ``answer`` names how the
    most recent :func:`flat_shortest_path` / :func:`flat_min_hop_path`
    on this workspace was answered (one of :data:`ANSWERS`) and
    ``settled`` how many nodes its exhaustive step settled (both
    sides) — they return only the route, their caller reads the rest
    here.
    """

    __slots__ = (
        "dist",
        "parent",
        "dist_stamp",
        "visited_stamp",
        "back_dist",
        "back_dist_stamp",
        "back_visited_stamp",
        "epoch",
        "answer",
        "settled",
        "_flat",
        "_link_src",
        "_reverse",
        "_hop_columns",
    )

    def __init__(self, network: Network) -> None:
        self._flat: _Pairs = tuple(
            tuple((link.dst, link.link_id) for link in network.out_links(node))
            for node in network.nodes()
        )
        num_nodes = network.num_nodes
        self.dist: List[float] = [0.0] * num_nodes
        # Each node's parent link; ``_link_src`` names the node it leaves.
        self.parent: List[int] = [-1] * num_nodes
        self._link_src = tuple(link.src for link in network.links())
        self.dist_stamp = [0] * num_nodes
        self.visited_stamp = [0] * num_nodes
        self.back_dist: List[float] = [0.0] * num_nodes
        self.back_dist_stamp = [0] * num_nodes
        self.back_visited_stamp = [0] * num_nodes
        self.epoch = 0
        self.answer = ""
        self.settled = 0
        self._reverse: Optional[_Pairs] = None
        self._hop_columns: Dict[int, "array[int]"] = {}

    def flat_adjacency(self) -> _Pairs:
        """Per node, a tuple of ``(dst, link_id)`` pairs in link
        insertion order — ``network.out_links`` order, the order the
        naive reference expands edges in, so both break ties
        identically.  Pair tuples unpack in one bytecode step per
        edge, the hottest operation of the searches."""
        return self._flat

    def reverse_adjacency(self) -> _Pairs:
        """The in-link twin of :meth:`flat_adjacency`: per node, a
        tuple of ``(src, link_id)`` pairs, one per link entering it.
        Only order-free questions are asked of it (hop columns, the
        two-ended reachability test, the endpoint shift), so it carries
        no tie-breaking contract.  Built lazily once per workspace."""
        if self._reverse is None:
            incoming: List[List[Tuple[int, int]]] = [[] for _ in self._flat]
            for src, pairs in enumerate(self._flat):
                for dst, link_id in pairs:
                    incoming[dst].append((src, link_id))
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
            unreachable = len(self._flat)
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


def _workspace_for(
    network: Network, source: int, destination: int
) -> SearchWorkspace:
    """Validate a search's endpoints and fetch its workspace.  A flat
    search calls nothing it was not handed as data, so the one cached
    workspace is never re-entered."""
    network._check_node(source)
    network._check_node(destination)
    if source == destination:
        raise ValueError("source and destination must differ")
    return search_workspace(network)


def encode_scale(network: Network, max_hops: Optional[int] = None) -> float:
    """The hop multiplier for encoding ``(cost, hops)`` as one float.

    Any strict upper bound on a search's hop counts works; simple
    paths have at most ``num_nodes - 1`` hops and the layered bounded
    search never exceeds ``max_hops``.

    Raises :class:`ValueError` when the conservative path-cost bound
    ``num_nodes * (Q + num_links) * scale`` could reach 2**53, where
    encoded sums stop being exact integers."""
    scale = network.num_nodes
    if max_hops is not None and max_hops + 1 > scale:
        scale = max_hops + 1
    if (
        network.num_nodes * (Q_PENALTY + network.num_links) * scale
        >= _EXACT_LIMIT
    ):
        raise ValueError(
            "cannot encode (cost, hops) exactly: {} nodes, {} links and "
            "hop scale {} could reach 2**53".format(
                network.num_nodes, network.num_links, scale
            )
        )
    return float(scale)


def flat_shortest_path(
    network: Network,
    source: int,
    destination: int,
    costs: Sequence[float],
) -> Optional[Route]:
    """Minimum-cost loop-free path over a per-link scalar cost array.

    Returns exactly the route of
    :func:`repro.testing.reference.naive_shortest_path` over the
    equivalent closure — the unit phase first, the exhaustive Dijkstra
    only when the destination is not reachable over unit links (module
    docstring).  ``costs`` must be a builder-made array: every entry
    ``-1.0`` (excluded) or ``k * scale + 1`` with integer ``k >= 0``
    and ``scale >= num_nodes``.  It is never written to."""
    return _search(network, source, destination, costs, exhaustive=True)


def flat_min_hop_path(
    network: Network,
    source: int,
    destination: int,
    costs: Sequence[float],
) -> Optional[Route]:
    """Unit-cost specialization of :func:`flat_shortest_path`: every
    allowed link costs exactly ``1.0`` (the primary cost array's only
    non-excluded value), so the unit phase is the whole search — no
    unit route means no route."""
    return _search(network, source, destination, costs, exhaustive=False)


def flat_dijkstra(
    network: Network,
    source: int,
    destination: int,
    costs: Sequence[float],
) -> Optional[Route]:
    """The exhaustive step of :func:`flat_shortest_path` on its own,
    for cost arrays that are *not* builder-made: every entry negative
    (excluded) or any positive float.  The unit phase's proofs need
    the ``k * scale + 1`` form; :func:`_flat_heap_search`'s FIFO-bucket
    argument only needs every step cost to be positive, so this is the
    naive Dijkstra's route (tie-breaks included) for arbitrary
    weights.  It stays one-ended: arbitrary floats are not exact sums,
    so an optimal route's forward sum plus its backward sum can round
    above the meeting bound its own forward sum set, and the prune
    would skip the answer."""
    return _flat_heap_search(
        _workspace_for(network, source, destination),
        source, destination, costs, False,
    )


def _search(
    network: Network,
    source: int,
    destination: int,
    costs: Sequence[float],
    exhaustive: bool,
) -> Optional[Route]:
    workspace = _workspace_for(network, source, destination)
    workspace.settled = 0
    route, workspace.answer = _answer(
        workspace, source, destination, costs, exhaustive
    )
    return route


def _answer(
    workspace: SearchWorkspace,
    source: int,
    destination: int,
    costs: Sequence[float],
    exhaustive: bool,
) -> Tuple[Optional[Route], str]:
    """The route and which step produced it (see the module
    docstring); each step runs only when the one before it observed
    that it cannot answer."""
    hops = workspace.hops_to(destination)
    bound = hops[source]
    if bound == len(hops):
        return None, NONE  # not even the bare topology connects them
    costs = _shift_endpoints(workspace, source, destination, costs)
    if costs is None:
        return None, NONE
    route = _bounded_unit_bfs(
        workspace, source, destination, costs, hops, bound
    )
    if route is not None:
        return route, PROBE
    distance = _unit_distance(workspace, source, destination, costs)
    if distance is not None:
        return _bounded_unit_bfs(
            workspace, source, destination, costs, hops, distance
        ), BOUNDED
    if exhaustive:
        route = _flat_heap_search(
            workspace, source, destination, costs, True
        )
        if route is not None:
            return route, EXHAUSTIVE
    return None, NONE


def _shift_endpoints(
    workspace: SearchWorkspace,
    source: int,
    destination: int,
    costs: Sequence[float],
) -> Optional[Sequence[float]]:
    """``costs`` with the cheapest allowed link out of ``source`` and
    the cheapest allowed link into ``destination`` priced down to
    ``1.0`` — a float64 copy when anything moves, ``costs`` itself
    when both already are, ``None`` when either end has no allowed
    link (no route exists; only the two endpoints' entries have been
    read).

    A link from ``source`` straight to ``destination`` is in both
    sets: the destination's floor is taken over the costs the source's
    shift leaves, so it too stays at or above ``1.0``."""
    leaving = workspace.flat_adjacency()[source]
    entering = workspace.reverse_adjacency()[destination]
    floor = -1.0
    for _dst, link_id in leaving:
        cost = costs[link_id]
        if cost >= 0.0 and (cost < floor or floor < 0.0):
            floor = cost
    if floor < 0.0:
        return None
    out_shift = floor - 1.0
    floor = -1.0
    for src, link_id in entering:
        cost = costs[link_id]
        if cost < 0.0:
            continue
        if src == source:
            cost -= out_shift
        if cost < floor or floor < 0.0:
            floor = cost
    if floor < 0.0:
        return None
    in_shift = floor - 1.0
    if not out_shift and not in_shift:
        return costs
    shifted = array("d", costs)
    for pairs, shift in ((leaving, out_shift), (entering, in_shift)):
        if shift:
            for _node, link_id in pairs:
                if shifted[link_id] >= 0.0:
                    shifted[link_id] -= shift
    return shifted


def _bounded_unit_bfs(
    workspace: SearchWorkspace,
    source: int,
    destination: int,
    costs: Sequence[float],
    hops: Sequence[int],
    bound: int,
) -> Optional[Route]:
    """FIFO breadth-first search over unit links that refuses to
    discover ``v`` when ``depth(v) + hops[v] > bound`` and returns at
    the destination's discovery: the reference's route when the unit
    distance is at most ``bound``, ``None`` otherwise.

    Why BFS *is* the reference on unit links: with unit steps the
    heap orders entries by ``(depth, insertion counter)``; every
    depth-``d`` push happens while popping depth-``d−1`` entries,
    which all precede any depth-``d`` pop, so heap order is FIFO push
    order.  Each node is pushed at most once (a second relaxation at
    equal depth fails the strict ``<`` test) and keeps the parent of
    its first discovery.  Growing one whole level per round from a
    list visits nodes in that same FIFO order; why pruning changes
    nothing for the nodes it keeps is in the module docstring.
    """
    workspace.epoch += 1
    epoch = workspace.epoch
    pairs = workspace.flat_adjacency()
    parent = workspace.parent
    # dist_stamp doubles as the discovered marker, matching what
    # _unwind asserts along the returned route.
    seen = workspace.dist_stamp
    seen[source] = epoch
    frontier = [source]
    budget = bound  # hops a node discovered this round may still need
    while frontier and budget:
        budget -= 1
        level: List[int] = []
        for node in frontier:
            for dst, link_id in pairs[node]:
                if (
                    hops[dst] > budget
                    or seen[dst] == epoch
                    or costs[link_id] != 1.0
                ):
                    continue
                seen[dst] = epoch
                parent[dst] = link_id
                if dst == destination:
                    return _unwind(workspace, epoch, source, destination)
                level.append(dst)
        frontier = level
    return None


def _unit_distance(
    workspace: SearchWorkspace,
    source: int,
    destination: int,
    costs: Sequence[float],
) -> Optional[int]:
    """Exact hop distance from ``source`` to ``destination`` over unit
    links, or ``None`` when there is no such path.

    Two level-synchronous searches, forward from the source and
    backward from the destination; each round grows whichever frontier
    is smaller by one whole level.  The first scanned link that lands
    on the other side's territory closes a shortest path (module
    docstring), and an empty frontier on either side proves there is
    none — a destination whose in-links are all taken costs its
    in-degree, not the source's whole reachable set."""
    workspace.epoch += 1
    epoch = workspace.epoch
    # The side about to grow (frontier, its adjacency, its marks) and
    # the side waiting; they trade places whenever the other is smaller.
    frontier, pairs, mine = (
        [source], workspace.flat_adjacency(), workspace.dist_stamp
    )
    waiting, waiting_pairs, theirs = (
        [destination], workspace.reverse_adjacency(), workspace.visited_stamp
    )
    mine[source] = theirs[destination] = epoch
    distance = 0
    while frontier and waiting:
        if len(waiting) < len(frontier):
            frontier, pairs, mine, waiting, waiting_pairs, theirs = (
                waiting, waiting_pairs, theirs, frontier, pairs, mine
            )
        distance += 1
        level: List[int] = []
        for node in frontier:
            for peer, link_id in pairs[node]:
                if mine[peer] == epoch or costs[link_id] != 1.0:
                    continue
                if theirs[peer] == epoch:
                    return distance
                mine[peer] = epoch
                level.append(peer)
        frontier = level
    return None


def _flat_heap_search(
    workspace: SearchWorkspace,
    source: int,
    destination: int,
    costs: Sequence[float],
    exact: bool,
) -> Optional[Route]:
    """Scalar-cost Dijkstra with a *bucket* priority queue — two-ended
    and pruned when ``exact`` says every path sum is an exact integer
    (a builder-made array; module docstring, "The two-ended exhaustive
    step"), one-ended otherwise.

    The tuple heap's entries are ``(cost, counter, node)`` where the
    counter realizes first-pushed-wins tie-breaking.  Here entries
    sharing a cost live in one list keyed by the exact cost float, in
    push order, and a small heap orders only the *distinct* cost
    values.  Draining the minimum bucket front-to-back pops entries in
    exactly ``(cost, counter)`` order: push order within a bucket *is*
    global push-counter order, and every step cost is strictly
    positive, so a node expanded at cost ``c`` only ever pushes into
    buckets ``> c`` — the bucket being drained never grows, and is
    taken out of the map and iterated as a plain list.  Path costs that
    are equal as real numbers collide as float keys because the
    encoded sums are exact (see the module docstring), so this is
    bit-identical to the tuple heap while doing one heap operation
    per distinct cost instead of per push.

    ``costs`` is read one entry per relaxed link and never scanned
    whole: the builders' float64 buffer, or any float sequence (the
    ``random`` scheme's and reactive recovery's lists).
    """
    workspace.epoch += 1
    epoch = workspace.epoch
    pairs = workspace.flat_adjacency()
    dist = workspace.dist
    parent = workspace.parent
    dist_stamp = workspace.dist_stamp
    visited_stamp = workspace.visited_stamp
    back_dist = workspace.back_dist
    back_dist_stamp = workspace.back_dist_stamp
    back_visited_stamp = workspace.back_visited_stamp

    dist[source] = 0.0
    dist_stamp[source] = epoch
    # Each heap ends in an ``inf`` sentinel no bucket holds, so its
    # minimum key is always ``heap[0]``: ``inf`` once it is drained.
    buckets = {0.0: [source]}
    cost_heap = [0.0, _INF]
    get_bucket = buckets.get
    take_bucket = buckets.pop
    if exact:
        back_dist[destination] = 0.0
        back_dist_stamp[destination] = epoch
        back_buckets = {0.0: [destination]}
        back_heap = [0.0, _INF]
        get_back = back_buckets.get
        take_back = back_buckets.pop
        back_pairs = workspace.reverse_adjacency()
    push = heappush
    pop = heappop
    settled = back_settled = 0
    # ``best`` is the meeting bound mu, ``top`` the backward side's
    # lower bound on every node it has not settled, ``limit`` their
    # difference: the most a forward label may cost unless the backward
    # side knows better.  One-ended, none of them ever prunes.
    best = limit = _INF
    top = 0.0
    two_ended = exact
    while True:
        cost = pop(cost_heap)
        if cost == _INF:
            break
        for node in take_bucket(cost):
            if visited_stamp[node] == epoch:
                continue
            visited_stamp[node] = epoch
            if cost > limit:
                if back_dist_stamp[node] != epoch:
                    continue
                rest = back_dist[node]
                if cost + (rest if rest < top else top) > best:
                    continue
            settled += 1
            if node == destination:
                workspace.settled = settled + back_settled
                return _unwind(workspace, epoch, source, destination)
            for dst, link_id in pairs[node]:
                if visited_stamp[dst] == epoch:
                    continue
                step = costs[link_id]
                if step < 0.0:
                    continue
                new_cost = cost + step
                if dist_stamp[dst] != epoch or new_cost < dist[dst]:
                    if back_dist_stamp[dst] == epoch:
                        rest = back_dist[dst]
                        if new_cost + rest < best:
                            best = new_cost + rest
                            limit = best - top
                        if new_cost + (rest if rest < top else top) > best:
                            continue
                    elif new_cost > limit:
                        continue
                    dist[dst] = new_cost
                    dist_stamp[dst] = epoch
                    parent[dst] = link_id
                    target = get_bucket(new_cost)
                    if target is None:
                        buckets[new_cost] = [dst]
                        push(cost_heap, new_cost)
                    else:
                        target.append(dst)
        # The backward side catches up, one whole bucket at a time,
        # until the two minimum keys certify ``best``.
        while two_ended and back_settled <= settled:
            if cost_heap[0] + back_heap[0] >= best:
                two_ended = False
                if best == _INF:  # a side ran dry without a meeting
                    workspace.settled = settled + back_settled
                    return None
                break
            cost = pop(back_heap)
            for node in take_back(cost):
                if back_visited_stamp[node] == epoch:
                    continue
                back_visited_stamp[node] = epoch
                back_settled += 1
                for src, link_id in back_pairs[node]:
                    if back_visited_stamp[src] == epoch:
                        continue
                    step = costs[link_id]
                    if step < 0.0:
                        continue
                    new_cost = cost + step
                    if (
                        back_dist_stamp[src] != epoch
                        or new_cost < back_dist[src]
                    ):
                        if dist_stamp[src] == epoch and (
                            new_cost + dist[src] < best
                        ):
                            best = new_cost + dist[src]
                        back_dist[src] = new_cost
                        back_dist_stamp[src] = epoch
                        target = get_back(new_cost)
                        if target is None:
                            back_buckets[new_cost] = [src]
                            push(back_heap, new_cost)
                        else:
                            target.append(src)
            top = back_heap[0]
            limit = best - top
    workspace.settled = settled + back_settled
    return None


def _unwind(
    workspace: SearchWorkspace, epoch: int, source: int, destination: int
) -> Route:
    nodes = [destination]
    links = []
    node = destination
    parent = workspace.parent
    link_src = workspace._link_src
    while node != source:
        assert workspace.dist_stamp[node] == epoch
        link_id = parent[node]
        node = link_src[link_id]
        nodes.append(node)
        links.append(link_id)
    nodes.reverse()
    links.reverse()
    return Route(nodes=tuple(nodes), link_ids=tuple(links))


def flat_bounded_shortest_path(
    network: Network,
    source: int,
    destination: int,
    costs: Sequence[float],
    max_hops: int,
) -> Optional[Route]:
    """Minimum-cost path using at most ``max_hops`` links — the
    delay-QoS constraint of DR-connections (Section 2: a backup whose
    "QoS requirement (e.g., end-to-end delay) is too tight to use the
    longer path" cannot take it).  Dijkstra over the layered state
    space ``(node, hops_used)``, so a cheaper-but-longer route never
    shadows a compliant one; the scalar-cost mirror of
    :func:`repro.testing.reference.naive_bounded_shortest_path`, and
    like it correct for any non-negative costs.  The layered space is
    keyed by dict (its size depends on the hop bound) and costs
    ``O(max_hops · E · log(max_hops · V))`` — the bound is small
    (network diameter plus slack), so this stays cheap."""
    pairs = _workspace_for(network, source, destination).flat_adjacency()
    if max_hops < 1:
        return None

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
        # The layered search could thread a node twice at different
        # hop counts only if revisiting were cheaper; unreachable with
        # non-negative costs, kept for parity with the reference.
        return None
    return Route(nodes=tuple(nodes), link_ids=tuple(links))
