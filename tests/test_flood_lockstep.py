"""Lockstep of the flat-table bounded flood against the object flood.

``BoundedFloodingScheme`` floods over flat tables (tuple CDPs, link
tests judged once per flood, bitmask overlap);
``repro.testing.ReferenceFloodingScheme`` is the flood it replaced, one
object per CDP / PCT row / candidate and ``LSET``-set selection.  Bound
to the *same* routing context they must agree on every flood — the
candidates in arrival order, the four counters — and on every plan
built from one.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DRTPService
from repro.network import NetworkState
from repro.routing import (
    BFParameters,
    BoundedFloodingScheme,
    RouteQuery,
    RoutingContext,
    flooding,
)
from repro.testing import ReferenceFloodingScheme
from repro.topology import Route, mesh_network, waxman_network
from repro.topology.graph import Network
from repro.topology.srlg import RiskGroupSet


def _one_way_ring():
    """A ring with chords where some links have no reverse twin, so
    ``D[k][j] != D[j][k]`` and the per-destination column is not a row."""
    net = Network(7)
    for node in range(7):
        net.add_directed_link(node, (node + 1) % 7, 3.0)
    for u, v in ((0, 3), (2, 5), (4, 1), (6, 2)):
        net.add_edge(u, v, 3.0)
    return net.freeze()


_NETWORKS = (
    mesh_network(3, 3, 3.0),
    mesh_network(3, 4, 3.0),
    waxman_network(12, 3.0, rng=random.Random(1)),
    waxman_network(16, 4.0, rng=random.Random(2)),
    _one_way_ring(),
)

_PARAMETERS = (
    BFParameters(),
    BFParameters(p=0, beta=0),
    BFParameters(rho=1.5, p=1, alpha=1.25, beta=1),
    BFParameters(rho=2.0, p=3, alpha=2.0, beta=3),
)


def _random_groups(net, rng):
    link_ids = list(range(net.num_links))
    rng.shuffle(link_ids)
    groups = []
    while len(link_ids) > net.num_links // 2:
        size = rng.randint(2, 4)
        groups.append(link_ids[:size])
        del link_ids[:size]
    return RiskGroupSet.from_groups(net, groups)


def _loaded_service(net, scheme, rng, database_mode, srlg):
    """A service carrying random connections (primary reservations and
    the spare their backups sized), with failed links, whose database
    serves what ``database_mode`` says: ``live`` ledgers, a ``snapshot``
    lagging them, or a ``stale`` window frozen over a live database."""
    service = DRTPService(
        net,
        scheme,
        live_database=database_mode != "snapshot",
        risk_groups=_random_groups(net, rng) if srlg else None,
    )

    def admit(count):
        for _ in range(count):
            source, destination = rng.sample(range(net.num_nodes), 2)
            service.request(source, destination, rng.choice((1.0, 1.0, 2.0)))

    admit(rng.randint(0, 25))
    for link_id in rng.sample(range(net.num_links), rng.randint(0, 2)):
        service.fail_link(link_id)
    if database_mode == "snapshot":
        service.refresh_database()
    elif database_mode == "stale":
        service.database.inject_staleness()
    admit(rng.randint(0, 10))
    return service


def _rows(result):
    return [
        (entry.primary_flag, entry.hop_count, entry.nodes, entry.link_ids)
        for entry in result.candidates
    ]


def _counters(result):
    return (
        result.cdp_transmissions,
        result.deliveries,
        result.nodes_reached,
        result.hc_limit,
    )


@pytest.mark.oracle
@given(
    network=st.sampled_from(_NETWORKS),
    parameters=st.sampled_from(_PARAMETERS),
    num_backups=st.sampled_from((1, 2)),
    database_mode=st.sampled_from(("live", "snapshot", "stale")),
    srlg=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_flat_flood_equals_object_flood(
    network, parameters, num_backups, database_mode, srlg, seed
):
    rng = random.Random(seed)
    scheme = BoundedFloodingScheme(parameters, num_backups=num_backups)
    service = _loaded_service(network, scheme, rng, database_mode, srlg)
    reference = ReferenceFloodingScheme.shadowing(scheme)
    reference.bind(scheme.context)
    for _ in range(6):
        source, destination = rng.sample(range(network.num_nodes), 2)
        query = RouteQuery(
            source,
            destination,
            rng.choice((0.5, 1.0, 2.0)),
            max_hops=rng.choice((None, None, 1, 2, 3, 4, 6)),
        )
        flat = scheme.flood(query)
        naive = reference.flood(query)
        assert _rows(flat) == _rows(naive)
        assert _counters(flat) == _counters(naive)
        for entry in flat.candidates:
            assert entry.route == Route.from_nodes(network, entry.nodes)
        plan = scheme.plan(query)
        assert plan == reference.plan(query)
        established = plan.primary or (
            flat.candidates[0].route if flat.candidates else None
        )
        if established is not None:
            assert scheme.plan_backup(query, established) == (
                reference.plan_backup(query, established)
            )
    service.check_invariants()


def test_flood_builds_routes_only_for_the_selected(monkeypatch):
    net = mesh_network(3, 3, 10.0)
    scheme = BoundedFloodingScheme()
    scheme.bind(RoutingContext(net, NetworkState(net)))
    built = []

    def counting_route(nodes, link_ids):
        built.append(nodes)
        return Route(nodes, link_ids)

    monkeypatch.setattr(flooding, "Route", counting_route)
    query = RouteQuery(0, 8, 1.0)
    result = scheme.flood(query)
    assert len(result.candidates) > 2
    assert built == []
    plan = scheme.plan(query)
    assert sorted(built) == sorted([plan.primary.nodes, plan.backup.nodes])
