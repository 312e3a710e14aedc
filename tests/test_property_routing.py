"""Property-based tests for routing and flooding invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.search import (
    encode_scale,
    flat_bounded_shortest_path,
    flat_min_hop_path,
)
from repro.network import NetworkState
from repro.routing import (
    BoundedFloodingScheme,
    DLSRScheme,
    PLSRScheme,
    RouteQuery,
    RoutingContext,
)
from repro.routing.flooding import BFParameters
from repro.topology import all_pairs_hop_counts, waxman_network

# A pool of reproducible networks for the property tests.
_NETWORKS = {
    seed: waxman_network(20, 10.0, rng=random.Random(seed))
    for seed in range(3)
}
_PAIRS = {seed: all_pairs_hop_counts(net) for seed, net in _NETWORKS.items()}
_UNIT = {seed: [1.0] * net.num_links for seed, net in _NETWORKS.items()}


def _bound(scheme, network):
    scheme.bind(RoutingContext(network, NetworkState(network)))
    return scheme


pairs = st.tuples(
    st.sampled_from(sorted(_NETWORKS)),
    st.integers(min_value=0, max_value=19),
    st.integers(min_value=0, max_value=19),
).filter(lambda t: t[1] != t[2])


@given(pairs)
@settings(max_examples=60, deadline=None)
def test_dijkstra_route_valid_and_optimal(case):
    seed, src, dst = case
    net = _NETWORKS[seed]
    route = flat_min_hop_path(net, src, dst, _UNIT[seed])
    assert route is not None
    # Route validity: consecutive links exist in the topology.
    for u, v in zip(route.nodes, route.nodes[1:]):
        assert net.has_link(u, v)
    # Optimality against independent BFS.
    assert route.hop_count == _PAIRS[seed][src][dst]


@given(pairs, st.sampled_from([PLSRScheme, DLSRScheme]))
@settings(max_examples=40, deadline=None)
def test_lsr_plans_well_formed(case, scheme_cls):
    seed, src, dst = case
    net = _NETWORKS[seed]
    scheme = _bound(scheme_cls(), net)
    plan = scheme.plan(RouteQuery(src, dst, 1.0))
    assert plan.primary is not None
    assert plan.primary.source == src
    assert plan.primary.destination == dst
    # Empty network + survivable topology -> disjoint backup exists.
    assert plan.backup is not None
    assert plan.backup_overlap == 0
    # Primary is min-hop on an empty network.
    assert plan.primary.hop_count == _PAIRS[seed][src][dst]


@given(pairs)
@settings(max_examples=25, deadline=None)
def test_flood_invariants(case):
    seed, src, dst = case
    net = _NETWORKS[seed]
    scheme = _bound(BoundedFloodingScheme(), net)
    result = scheme.flood(RouteQuery(src, dst, 1.0))
    limit = BFParameters().hop_limit(_PAIRS[seed][src][dst])
    assert result.candidates, "flood must reach the destination"
    seen_paths = set()
    for entry in result.candidates:
        # loop-free
        assert len(set(entry.route.nodes)) == len(entry.route.nodes)
        # within the flood bound
        assert entry.hop_count <= limit
        # correct endpoints
        assert entry.route.source == src
        assert entry.route.destination == dst
        # no duplicates
        assert entry.route.nodes not in seen_paths
        seen_paths.add(entry.route.nodes)
    # Empty network: the shortest candidate is the true shortest path
    # and must carry primary_flag.
    best = min(result.candidates, key=lambda e: e.hop_count)
    assert best.hop_count == _PAIRS[seed][src][dst]
    assert best.primary_flag


@given(
    pairs,
    st.integers(min_value=1, max_value=8),
)
@settings(max_examples=50, deadline=None)
def test_bounded_search_properties(case, max_hops):
    """flat_bounded_shortest_path: respects the bound, agrees with the
    unbounded search when slack allows, and never misses a feasible
    route (cross-checked against BFS distance)."""
    seed, src, dst = case
    net = _NETWORKS[seed]
    min_dist = _PAIRS[seed][src][dst]
    route = flat_bounded_shortest_path(net, src, dst, _UNIT[seed], max_hops)
    if max_hops < min_dist:
        assert route is None
    else:
        assert route is not None
        assert route.hop_count <= max_hops
        assert route.hop_count == min_dist  # hop cost: bound is slack
        for u, v in zip(route.nodes, route.nodes[1:]):
            assert net.has_link(u, v)


@given(pairs, st.integers(min_value=0, max_value=3))
@settings(max_examples=30, deadline=None)
def test_bounded_search_with_conflict_costs(case, slack):
    """With two-component (conflict, hop) costs the bounded route must
    never exceed bound nor be beaten by another compliant route the
    plain search finds."""
    seed, src, dst = case
    net = _NETWORKS[seed]
    weight_rng = random.Random(seed * 1000 + src * 20 + dst)
    weights = [float(weight_rng.randrange(3)) for _ in net.links()]
    bound_hops = int(_PAIRS[seed][src][dst]) + slack
    scale = encode_scale(net, bound_hops)
    costs = [weight * scale + 1.0 for weight in weights]
    route = flat_bounded_shortest_path(net, src, dst, costs, bound_hops)
    assert route is not None
    assert route.hop_count <= bound_hops
    # Sanity: route cost is no worse than the direct min-hop path's.
    direct = flat_min_hop_path(net, src, dst, _UNIT[seed])
    if direct.hop_count <= bound_hops:
        route_cost = sum(weights[l] for l in route.link_ids)
        direct_cost = sum(weights[l] for l in direct.link_ids)
        assert (route_cost, route.hop_count) <= (
            direct_cost, direct.hop_count
        )


@given(pairs)
@settings(max_examples=25, deadline=None)
def test_bf_plan_matches_lsr_primary_length(case):
    """On an empty network BF's primary must be min-hop too."""
    seed, src, dst = case
    net = _NETWORKS[seed]
    scheme = _bound(BoundedFloodingScheme(), net)
    plan = scheme.plan(RouteQuery(src, dst, 1.0))
    assert plan.primary is not None
    assert plan.primary.hop_count == _PAIRS[seed][src][dst]
