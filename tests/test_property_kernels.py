"""Property-based tests for the array-kernel primitives.

Four layers, each diffed against a deliberately-naive oracle:

* the bitset primitives of :mod:`repro.kernels.bitset` (popcount,
  AND/OR folds, packed little-endian serialization) against their
  ``*_naive`` counterparts and against explicit position sets;
* the incrementally-maintained ledger aggregates the kernel tables
  sync from — APLV support masks and the (group-)demand maxima that
  size spare bandwidth — against rebuild-from-registry recomputation;
* the batch cost builders of
  :class:`~repro.kernels.arrays.CompiledLinkArrays` against the
  per-link cost closures of :mod:`repro.testing.link_state`, element
  for element;
* the flat searches of :mod:`repro.kernels.search` — endpoint shift,
  hop-bounded unit BFS, two-ended distance, the two-ended exhaustive
  fall-through —
  against :func:`repro.testing.reference.naive_shortest_path` over
  the equivalent closure, ``Route`` for ``Route``.

Bandwidths are drawn from dyadic rationals so every running sum is
exactly representable — the equality assertions are bitwise, never
approximate, matching the kernel's bit-exactness contract.
"""

import random
from array import array
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.arrays import CONFLICT_KINDS, _row_popcounts, _word_padded
from repro.kernels.bitset import (
    and_popcount,
    and_popcount_naive,
    bits_of,
    from_packed_bytes,
    mask_from_ids,
    or_fold,
    or_fold_naive,
    packed_width,
    popcount,
    popcount_naive,
    to_packed_bytes,
)
from repro.core import DRTPService
from repro.experiments import make_scheme
from repro.kernels.search import (
    ANSWERS,
    encode_scale,
    flat_min_hop_path,
    flat_shortest_path,
    search_workspace,
)
from repro.network.state import BW_EPSILON, LinkLedger
from repro.routing import Q_PENALTY
from repro.testing.link_state import backup_cost, primary_link_cost
from repro.testing.reference import naive_shortest_path
from repro.topology import mesh_network, waxman_network
from repro.topology.graph import Network, Route
from repro.topology.srlg import RiskGroupSet
from repro.topology.waxman import WaxmanParameters

masks = st.integers(min_value=0, max_value=(1 << 160) - 1)

NUM_LINKS = 24

positions = st.frozensets(
    st.integers(min_value=0, max_value=NUM_LINKS - 1),
    min_size=0, max_size=10,
)

#: Dyadic-rational bandwidths: running sums stay exactly representable,
#: so incremental and rebuilt aggregates must agree to the last bit.
bandwidths = st.sampled_from((0.25, 0.5, 1.0, 1.5, 2.0))


# ----------------------------------------------------------------------
# Bitset primitives vs naive oracles
# ----------------------------------------------------------------------
@given(masks)
def test_popcount_matches_naive(mask):
    assert popcount(mask) == popcount_naive(mask)


@given(masks, masks)
def test_and_popcount_matches_naive(a, b):
    assert and_popcount(a, b) == and_popcount_naive(a, b)
    assert and_popcount(a, b) == len(bits_of(a) & bits_of(b))


@given(st.lists(masks, max_size=8))
def test_or_fold_matches_naive(mask_list):
    assert or_fold(mask_list) == or_fold_naive(mask_list)


@given(positions)
def test_mask_bits_round_trip(ids):
    mask = mask_from_ids(ids)
    assert bits_of(mask) == ids
    assert popcount(mask) == len(ids)


@given(positions)
def test_packed_bytes_round_trip(ids):
    mask = mask_from_ids(ids)
    row = to_packed_bytes(mask, NUM_LINKS)
    assert len(row) == packed_width(NUM_LINKS)
    assert from_packed_bytes(row) == mask


@given(positions)
def test_packed_layout_is_little_endian(ids):
    """Bit ``j`` must land in byte ``j // 8`` at weight ``1 << (j % 8)``
    — the layout contract the numpy bit-matrix rows rely on."""
    row = to_packed_bytes(mask_from_ids(ids), NUM_LINKS)
    for j in range(NUM_LINKS):
        bit = (row[j // 8] >> (j % 8)) & 1
        assert bit == (1 if j in ids else 0)


@given(st.lists(positions, min_size=1, max_size=12))
def test_numpy_row_popcounts_match_stdlib(id_sets):
    """The numpy packed-matrix per-row popcount equals the stdlib int
    popcount of the same masks, including across word padding."""
    width = _word_padded(packed_width(NUM_LINKS))
    buf = bytearray(len(id_sets) * width)
    for row_index, ids in enumerate(id_sets):
        row = mask_from_ids(ids).to_bytes(width, "little")
        buf[row_index * width:(row_index + 1) * width] = row
    matrix = np.frombuffer(buf, dtype=np.uint64).reshape(
        len(id_sets), width // 8
    )
    assert _row_popcounts(matrix).tolist() == [
        popcount(mask_from_ids(ids)) for ids in id_sets
    ]


# ----------------------------------------------------------------------
# Ledger aggregates vs rebuild-from-registry
# ----------------------------------------------------------------------
nonempty_positions = st.frozensets(
    st.integers(min_value=0, max_value=NUM_LINKS - 1),
    min_size=1, max_size=10,
)

registrations = st.lists(
    st.tuples(nonempty_positions, bandwidths), min_size=0, max_size=12
)


def _naive_max_demand(ledger, key_of):
    demand = {}
    for connection_id, lset in ledger.backups().items():
        bw = ledger.backup_bw(connection_id)
        for key in key_of(lset):
            demand[key] = demand.get(key, 0.0) + bw
    return max(demand.values()) if demand else 0.0


@given(registrations, st.data())
def test_ledger_demand_max_matches_rebuild(regs, data):
    """The O(1)-updated ``max_demand`` equals a full rebuild from the
    backup registry after any register/release interleaving."""
    ledger = LinkLedger(0, capacity=1000.0, num_links=NUM_LINKS)
    live = []
    for connection_id, (lset, bw) in enumerate(regs):
        ledger.register_backup(connection_id, lset, bw)
        live.append(connection_id)
    for connection_id in data.draw(
        st.lists(st.sampled_from(live), unique=True) if live
        else st.just([])
    ):
        ledger.release_backup(connection_id)
        # Reading clears the stale flag, so the next release starts
        # from an exact maximum; not reading leaves it to stack up.
        if data.draw(st.booleans()):
            assert ledger.max_demand == _naive_max_demand(
                ledger, key_of=lambda lset: lset
            )
        ledger.check_invariants()
    assert ledger.max_demand == _naive_max_demand(
        ledger, key_of=lambda lset: lset
    )
    assert ledger.support_mask() == mask_from_ids(ledger.aplv.support())


def _partition(data, num_links):
    """Draw a random partition of link ids into risk groups."""
    order = data.draw(st.permutations(range(num_links)))
    members = []
    index = 0
    while index < num_links:
        size = data.draw(st.integers(min_value=1, max_value=4))
        members.append(frozenset(order[index:index + size]))
        index += size
    return members


@settings(max_examples=40)
@given(registrations, st.data())
def test_ledger_group_demand_max_matches_rebuild(regs, data):
    """Group-aggregated demand (bandwidth counted once per group,
    however many of its links the primary crosses) — incremental vs
    rebuild, across a random risk-group partition."""
    net = mesh_network(2, 3, capacity=1000.0)
    groups = RiskGroupSet(
        net.num_links, _partition(data, net.num_links)
    )
    ledger = LinkLedger(0, capacity=1000.0, num_links=net.num_links)
    ledger.install_risk_groups(groups)
    link_ids = st.frozensets(
        st.integers(min_value=0, max_value=net.num_links - 1),
        min_size=1, max_size=6,
    )
    live = []
    for connection_id, (_lset, bw) in enumerate(regs):
        # Redraw the LSET against this network's (smaller) link range.
        ledger.register_backup(connection_id, data.draw(link_ids), bw)
        live.append(connection_id)
    for connection_id in data.draw(
        st.lists(st.sampled_from(live), unique=True) if live
        else st.just([])
    ):
        ledger.release_backup(connection_id)
        if data.draw(st.booleans()):
            assert ledger.max_group_demand == _naive_max_demand(
                ledger, key_of=groups.groups_of
            )
        ledger.check_invariants()
    assert ledger.max_group_demand == _naive_max_demand(
        ledger, key_of=groups.groups_of
    )
    assert ledger.group_support_mask() == mask_from_ids(
        ledger.group_support()
    )


#: Mixed bandwidths, non-dyadic ones included: sums drift and near-tie
#: (0.1 + 0.2 != 0.3) while equal registrations tie exactly.
mixed_bandwidths = st.one_of(
    bandwidths, st.sampled_from((0.1, 0.2, 0.3, 1.0))
)

#: Few positions, so registrations overlap and peaks are shared.
crowded_positions = st.frozensets(
    st.integers(min_value=0, max_value=5), min_size=1, max_size=4
)

ledger_scripts = st.lists(
    st.one_of(
        st.tuples(st.just("register"), crowded_positions, mixed_bandwidths),
        st.tuples(st.just("release"), st.integers(min_value=0, max_value=63)),
        st.tuples(st.just("read")),
    ),
    max_size=30,
)


@pytest.mark.parametrize("srlg", (False, True), ids=("links", "groups"))
@settings(max_examples=60)
@given(ledger_scripts, st.data())
def test_peak_holders_match_a_recount_under_mixed_bandwidths(
    srlg, script, data
):
    """Whatever the interleaving of registrations, releases and reads,
    a running maximum that is not stale equals its map's maximum and
    its peak-holder count equals a recount (``check_invariants``), and
    a read agrees with a rebuild from the registry up to the drift of
    non-dyadic sums."""
    net = mesh_network(2, 3, capacity=1000.0)
    ledger = LinkLedger(0, capacity=1000.0, num_links=net.num_links)
    if srlg:
        groups = RiskGroupSet(net.num_links, _partition(data, net.num_links))
        ledger.install_risk_groups(groups)
    live = []
    for step, (kind, *args) in enumerate(script):
        if kind == "register":
            ledger.register_backup(step, *args)
            live.append(step)
        elif kind == "release" and live:
            ledger.release_backup(live.pop(args[0] % len(live)))
        elif kind == "read":
            assert abs(ledger.max_demand - _naive_max_demand(
                ledger, key_of=lambda lset: lset
            )) <= BW_EPSILON
            if srlg:
                assert abs(ledger.max_group_demand - _naive_max_demand(
                    ledger, key_of=groups.groups_of
                )) <= BW_EPSILON
        ledger.check_invariants()


# ----------------------------------------------------------------------
# Batch cost builders vs the reference cost closures
# ----------------------------------------------------------------------
def _encoded(cost, network, scale):
    """A closure evaluated link by link, in the builders' encoding."""
    encoded = []
    for link_id in range(network.num_links):
        value = cost(network.link(link_id))
        if value is None:
            encoded.append(-1.0)
        elif len(value) == 1:
            encoded.append(value[0])
        else:
            encoded.append(value[0] * scale + value[1])
    return encoded


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_cost_arrays_match_the_reference_closures(data):
    """One batch build emits, for every link, exactly what the cost
    closure answers for that link — primary and every conflict kind,
    with a failed link and an avoid set beyond the primary's."""
    net = mesh_network(3, 3, capacity=12.0)
    service = DRTPService(net, make_scheme("D-LSR"), live_database=True)
    num_requests = data.draw(st.integers(min_value=0, max_value=12))
    for _ in range(num_requests):
        src = data.draw(st.integers(0, net.num_nodes - 1))
        dst = data.draw(
            st.integers(0, net.num_nodes - 1).filter(lambda n: n != src)
        )
        service.request(src, dst, bw_req=1.0)
    if data.draw(st.booleans()):
        service.fail_link(data.draw(st.integers(0, net.num_links - 1)))
    database = service.database
    arrays = database.kernel_arrays()
    bw_req = data.draw(bandwidths)
    lset = data.draw(
        st.frozensets(
            st.integers(0, net.num_links - 1), min_size=1, max_size=6
        )
    )
    avoid = lset | data.draw(
        st.frozensets(st.integers(0, net.num_links - 1), max_size=4)
    )
    scale = float(net.num_nodes)
    # The builders return ``array("d")`` buffers, which never compare
    # equal to a list: compare element by element.
    assert list(arrays.primary_costs(bw_req)) == _encoded(
        primary_link_cost(database, bw_req), net, scale
    )
    for kind in CONFLICT_KINDS:
        assert list(arrays.backup_costs(
            kind, bw_req, lset, avoid, scale
        )) == _encoded(
            backup_cost(kind, database, bw_req, lset, avoid), net, scale
        )
    service.check_invariants()


# ----------------------------------------------------------------------
# Flat searches vs the naive reference search
# ----------------------------------------------------------------------
def _directed_network(rng):
    """A small directed topology: mixed one-way / two-way links in
    shuffled insertion order (the tie-breaking order), sometimes over
    a one-way ring, sometimes cut into pieces no link crosses."""
    num_nodes = rng.randint(2, 9)
    links = set()
    shape = rng.choice(("mixed", "ring", "pieces"))
    if shape == "ring":
        links.update((n, (n + 1) % num_nodes) for n in range(num_nodes))
    density = rng.uniform(0.05, 0.5)
    for u in range(num_nodes):
        for v in range(num_nodes):
            if u != v and rng.random() < density:
                links.add((u, v))
                if rng.random() < 0.5:
                    links.add((v, u))
    if shape == "pieces":
        cut = rng.randint(1, num_nodes - 1)
        links = {(u, v) for u, v in links if (u < cut) == (v < cut)}
    net = Network(num_nodes)
    for u, v in rng.sample(sorted(links), len(links)):
        net.add_directed_link(u, v, 1.0)
    return net.freeze()


#: Cost-array styles: (share excluded, share unit); the rest draws a
#: conflict or ``Q`` charge.  All unit with exclusions (a primary
#: array), sparse conflicts, dense conflicts, nothing unit (P-LSR on a
#: loaded network).
COST_STYLES = ((0.3, 0.7), (0.1, 0.75), (0.1, 0.2), (0.05, 0.0))


def _cost_array(rng, num_links, scale, style):
    excluded, unit = style
    costs = []
    for _ in range(num_links):
        draw = rng.random()
        if draw < excluded:
            costs.append(-1.0)
        elif draw < excluded + unit:
            costs.append(1.0)
        else:
            charge = rng.choice((1, 2, 3, Q_PENALTY, Q_PENALTY + 2))
            costs.append(charge * scale + 1.0)
    return costs


def _reference_route(net, source, destination, costs, scale):
    """The naive search over the closure ``costs`` encodes."""
    def closure(link):
        cost = costs[link.link_id]
        return None if cost < 0.0 else ((cost - 1.0) / scale, 1.0)

    return naive_shortest_path(net, source, destination, closure)


@pytest.mark.oracle
@settings(max_examples=50, deadline=None)
@given(st.randoms(use_true_random=False))
def test_flat_searches_return_the_reference_route(rng):
    """Every (source, destination) of a random directed topology under
    each cost style, handed as a list and as the builders' float64
    buffer: the flat searches return the naive Dijkstra's ``Route`` —
    same nodes, same links, so same tie-breaks — whichever step
    answers, and never write to the caller's buffer."""
    net = _directed_network(rng)
    scale = encode_scale(net)
    workspace = search_workspace(net)
    for style in COST_STYLES:
        drawn = _cost_array(rng, net.num_links, scale, style)
        for costs in (list(drawn), array("d", drawn)):
            for source in net.nodes():
                for destination in net.nodes():
                    if source == destination:
                        continue
                    want = _reference_route(
                        net, source, destination, drawn, scale
                    )
                    assert flat_shortest_path(
                        net, source, destination, costs
                    ) == want
                    assert workspace.answer in ANSWERS
                    assert (workspace.answer == "none") == (want is None)
                    if style is COST_STYLES[0]:
                        assert flat_min_hop_path(
                            net, source, destination, costs
                        ) == want
                        assert workspace.answer in (
                            "probe", "bounded", "none"
                        )
            assert list(costs) == drawn


def _sized_network(rng, kind):
    """A 20–80-node graph: Waxman (every link both ways) or directed
    (random one- and two-way links over a one-way ring, in shuffled
    insertion order)."""
    num_nodes = rng.randint(20, 80)
    if kind == "waxman":
        return waxman_network(
            num_nodes, capacity=10.0,
            parameters=WaxmanParameters(target_degree=rng.choice((3.0, 4.0))),
            rng=rng,
        )
    links = {(n, (n + 1) % num_nodes) for n in range(num_nodes)}
    for _ in range(2 * num_nodes):
        u, v = rng.sample(range(num_nodes), 2)
        links.add((u, v))
        if rng.random() < 0.5:
            links.add((v, u))
    net = Network(num_nodes)
    for u, v in rng.sample(sorted(links), len(links)):
        net.add_directed_link(u, v, 1.0)
    return net.freeze()


#: Cost styles that leave the unit phase nothing to find, so the
#: exhaustive step and its backward side do the work.
WALL_STYLES = ("walled destination", "walled source", "equal charges")


def _walled_costs(net, rng, scale, style, source, destination):
    """Unit links except charged links *into* the ring of the
    destination's in-neighbours (or *out of* the ring of the source's
    out-neighbours), or every link charged alike; a tenth excluded."""
    workspace = search_workspace(net)
    if style == "walled destination":
        ring = {src for src, _ in workspace.reverse_adjacency()[destination]}
    else:
        ring = {dst for dst, _ in workspace.flat_adjacency()[source]}
    equal = rng.choice((1, 2, Q_PENALTY))
    costs = []
    for link in net.links():
        if rng.random() < 0.1:
            costs.append(-1.0)
        elif style == "equal charges":
            costs.append(equal * scale + 1.0)
        elif (
            style == "walled destination"
            and link.dst in ring
            and link.src not in ring | {destination}
        ) or (
            style == "walled source"
            and link.src in ring
            and link.dst not in ring | {source}
        ):
            costs.append(rng.choice((1, 2)) * scale + 1.0)
        else:
            costs.append(1.0)
    return costs


@pytest.mark.oracle
@settings(max_examples=15, deadline=None)
@given(
    st.integers(0, 2**32 - 1), st.sampled_from(("waxman", "directed"))
)
def test_two_ended_exhaustive_step_returns_the_reference_route(seed, kind):
    """Walls around either end and ties everywhere: whatever the
    backward side settles and the forward side prunes, the route is
    the naive Dijkstra's, and the caller's buffer is never written.
    (A seed, not drawn randoms: a graph this size would exhaust
    Hypothesis' data budget.)"""
    rng = random.Random(seed)
    net = _sized_network(rng, kind)
    scale = encode_scale(net)
    for style in WALL_STYLES:
        for _ in range(3):
            source, destination = rng.sample(range(net.num_nodes), 2)
            drawn = _walled_costs(net, rng, scale, style, source, destination)
            costs = array("d", drawn)
            assert flat_shortest_path(
                net, source, destination, costs
            ) == _reference_route(net, source, destination, drawn, scale)
            assert list(costs) == drawn


class _CountingCosts(Sequence):
    """A cost array that counts its element reads."""

    def __init__(self, costs):
        self._costs = list(costs)
        self.reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return self._costs[index]

    def __len__(self):
        return len(self._costs)


def _diamond():
    """``0 -> 3`` directly, over ``1`` and over ``2``; ``4`` hangs off
    ``3`` one way, so nothing leads from ``4`` back."""
    net = Network(5)
    ids = {
        (u, v): net.add_directed_link(u, v, 1.0)
        for u, v in ((0, 3), (0, 1), (1, 3), (0, 2), (2, 3), (3, 4))
    }
    return net.freeze(), ids


@pytest.mark.parametrize("search", (flat_shortest_path, flat_min_hop_path))
def test_flat_search_endpoint_cases(search):
    net, ids = _diamond()
    workspace = search_workspace(net)
    unit = [1.0] * net.num_links

    # The topology itself has no path: not one cost entry is read.
    costs = _CountingCosts(unit)
    assert search(net, 4, 0, costs) is None
    assert (workspace.answer, costs.reads) == ("none", 0)

    # Source with no allowed out-link: its out-degree is all it costs.
    costs = _CountingCosts(unit)
    for pair in ((0, 3), (0, 1), (0, 2)):
        costs._costs[ids[pair]] = -1.0
    assert search(net, 0, 3, costs) is None
    assert (workspace.answer, costs.reads) == ("none", 3)

    # Destination with every in-link excluded: out-degree + in-degree
    # reads, however much of the network the source could reach.
    costs = _CountingCosts(unit)
    for pair in ((0, 3), (1, 3), (2, 3)):
        costs._costs[ids[pair]] = -1.0
    assert search(net, 0, 3, costs) is None
    assert workspace.answer == "none"
    assert costs.reads <= net.degree(0) + len(net.in_links(3))


def test_flat_shortest_path_direct_link_is_in_both_endpoint_sets():
    """``0 -> 3`` leaves the source *and* enters the destination, so
    the endpoint shift prices it twice; it must still stay at or
    above ``1.0`` and every route must keep its rank."""
    net, ids = _diamond()
    scale = encode_scale(net)
    workspace = search_workspace(net)

    def costs_with(**charges):
        costs = [3 * scale + 1.0] * net.num_links
        for name, charge in charges.items():
            u, v = int(name[1]), int(name[2])
            costs[ids[(u, v)]] = charge * scale + 1.0
        return costs

    # Everything charged alike: the one-hop route wins on hops, and
    # after the shift it is a unit route the first pass finds.
    costs = costs_with()
    assert flat_shortest_path(net, 0, 3, costs) == Route(
        nodes=(0, 3), link_ids=(ids[(0, 3)],)
    )
    assert workspace.answer == "probe"
    # The direct link is Q-charged, the detour over 2 is cheapest.
    costs = costs_with(l03=Q_PENALTY, l02=1, l23=2)
    for source, destination in ((0, 3), (0, 4)):
        assert flat_shortest_path(
            net, source, destination, costs
        ) == _reference_route(net, source, destination, costs, scale)
    assert flat_shortest_path(net, 0, 3, costs).nodes == (0, 2, 3)
    # The direct link is the only allowed one at either end.
    costs = [-1.0] * net.num_links
    costs[ids[(0, 3)]] = (Q_PENALTY + 5) * scale + 1.0
    assert flat_shortest_path(net, 0, 3, costs).nodes == (0, 3)


def test_encode_scale_refuses_networks_too_large_to_stay_exact():
    net = mesh_network(2, 2, capacity=1.0)
    assert encode_scale(net) == 4.0
    assert encode_scale(net, max_hops=9) == 10.0
    with pytest.raises(ValueError, match="2\\*\\*53"):
        encode_scale(net, max_hops=1 << 40)


def test_walled_destination_is_searched_from_both_ends():
    """Did the fast path run: with the destination walled in by
    charged links, the one-ended Dijkstra settled the whole
    zero-conflict region around the source — 548 of the 960 entries
    read, every link pair about once — while the two-ended step meets
    the backward side at the wall (255 reads)."""
    net = waxman_network(
        240, capacity=10.0, parameters=WaxmanParameters(target_degree=4.0),
        rng=random.Random(41),
    )
    scale = encode_scale(net)
    workspace = search_workspace(net)
    destination = 0
    hops = workspace.hops_to(destination)
    source = max(net.nodes(), key=lambda node: hops[node])
    drawn = _walled_costs(
        net, random.Random(3), scale, "walled destination", source,
        destination,
    )
    costs = _CountingCosts(drawn)
    route = flat_shortest_path(net, source, destination, costs)
    assert workspace.answer == "exhaustive"
    assert route == _reference_route(net, source, destination, drawn, scale)
    assert costs.reads < net.num_links / 2
