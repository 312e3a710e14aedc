"""The activation race against its reference, on arbitrary floats.

:func:`repro.core.recovery.assess_failed_links` races the affected
connections on a copy of a column of activation pools;
:func:`repro.testing.reference_assess_failed_links` is the race as
first written (pools read lazily into a dict, the bandwidth test made
link by link with ``all()``).  The service state machine diffs the two
on the pools its dyadic bandwidths produce; here hypothesis draws the
pools, the bandwidths and the connections themselves — several backups,
inactive connections, a dead switch, arbitrary link sets — with floats
that are not multiples of a power of two, and pools that sit exactly on
the ``residual + BW_EPSILON == bw`` edge of the test.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.channel import Channel, ChannelRole
from repro.core.connection import ConnectionRequest, ConnectionState, DRConnection
from repro.core.recovery import activation_pools, assess_failed_links
from repro.network.state import BW_EPSILON, NetworkState
from repro.testing import reference_assess_failed_links
from repro.topology import mesh_network
from repro.topology.graph import Route

NETWORK = mesh_network(2, 3, 1000.0)
NODES = NETWORK.num_nodes
LINKS = NETWORK.num_links

#: Bandwidths and pools: arbitrary positive floats, dyadic or not.
amounts = st.floats(min_value=0.001, max_value=12.0, allow_nan=False)
walks = st.lists(st.integers(0, 3), min_size=1, max_size=6)


def walk_route(start, choices):
    """A loop-free route from ``start``: each choice picks among the
    unvisited neighbours, and the walk stops where there are none."""
    nodes = [start]
    for choice in choices:
        onward = [
            link.dst for link in NETWORK.out_links(nodes[-1])
            if link.dst not in nodes
        ]
        if not onward:
            break
        nodes.append(onward[choice % len(onward)])
    return Route.from_nodes(NETWORK, nodes)


def edge_below(bw):
    """A pool ``p`` with ``p + BW_EPSILON == bw`` exactly, when one is
    found within a few ulps of ``bw - BW_EPSILON``: the residual on
    which ``>=`` and ``>`` disagree."""
    pool = bw - BW_EPSILON
    for _ in range(64):
        total = pool + BW_EPSILON
        if total == bw:
            return pool
        pool = math.nextafter(pool, math.inf if total < bw else -math.inf)
    return None


@st.composite
def connections(draw, count):
    """``count`` DR-connections on random routes: 0-2 backups, a
    random state and a random establishment order."""
    order = draw(st.permutations(range(count)))
    made = []
    for connection_id in range(count):
        primary = walk_route(draw(st.integers(0, NODES - 1)), draw(walks))
        backups = [
            Channel(
                role=ChannelRole.BACKUP,
                route=walk_route(draw(st.integers(0, NODES - 1)), draw(walks)),
                registration_index=index,
            )
            for index in range(draw(st.sampled_from((1, 2, 1, 0))))
        ]
        made.append(DRConnection(
            connection_id=connection_id,
            request=ConnectionRequest(
                connection_id, primary.source, primary.destination,
                draw(amounts),
            ),
            primary=Channel(role=ChannelRole.PRIMARY, route=primary),
            backup=backups[0] if backups else None,
            extra_backups=backups[1:],
            established_seq=order[connection_id],
            state=draw(st.sampled_from([
                ConnectionState.ACTIVE,
                ConnectionState.ACTIVE,
                ConnectionState.ACTIVE,
                ConnectionState.UNPROTECTED,
                ConnectionState.RECOVERING,
                ConnectionState.FAILED,
            ])),
        ))
    return made


@st.composite
def races(draw):
    """A state, a population and one failure to race over."""
    population = draw(connections(draw(st.integers(4, 16))))
    bws = [conn.bw_req for conn in population]
    # Room for everyone on most links, so that several win; a few hot
    # links (on backups, mostly) get a pool that the activations
    # crossing them fill exactly — the sum of some of their
    # bandwidths, or just below one of them — or any float.
    crossing = {}
    for conn in population:
        for channel in conn.all_backups:
            for link_id in channel.route.link_ids:
                crossing.setdefault(link_id, []).append(conn.bw_req)
    hot = draw(st.sets(
        st.sampled_from(sorted(crossing)) if crossing
        else st.integers(0, LINKS - 1),
        min_size=1, max_size=4,
    ) | st.just(frozenset(range(LINKS))))
    state = NetworkState(NETWORK)
    for ledger in state.ledgers():
        primary = draw(st.floats(0.0, 40.0))
        if primary > BW_EPSILON:  # what a ledger accepts
            ledger.reserve_primary(primary)
        pool = sum(bws)
        if ledger.link_id in hot:
            near = crossing.get(ledger.link_id, bws)
            kind = draw(st.sampled_from(("sum", "edge", "float")))
            if kind == "sum":
                pool = sum(draw(st.lists(
                    st.sampled_from(near), min_size=1, max_size=len(near)
                )))
            elif kind == "edge":
                pool = edge_below(draw(st.sampled_from(near))) or 0.0
            else:
                pool = draw(st.floats(0.0, 2.0 * max(bws)))
        ledger.set_spare(max(0.0, pool))
    # Failures aimed at primaries (most of them), so that many race.
    crossed = sorted({
        link_id for conn in population
        for link_id in conn.primary.route.link_ids
    })
    links = st.sampled_from(crossed) | st.integers(0, LINKS - 1)
    shape = draw(st.sampled_from(("link", "set", "node")))
    dead_node = None
    if shape == "link":
        failed = frozenset({draw(links)})
    elif shape == "set":
        failed = frozenset(draw(st.sets(links, min_size=1, max_size=8)))
    else:
        dead_node = draw(st.integers(0, NODES - 1))
        failed = frozenset(
            link.link_id
            for link in NETWORK.out_links(dead_node)
            + NETWORK.in_links(dead_node)
        )
    return state, population, failed, dead_node, draw(
        st.sampled_from((False, False, True))
    )


@settings(max_examples=400, deadline=None)
@given(race=races(), shared_column=st.booleans())
def test_column_race_equals_the_reference(race, shared_column):
    """Same victims in the same order, same reasons and backups; a
    column handed in is raced on a copy and comes back untouched."""
    state, population, failed, dead_node, use_free_bandwidth = race
    column = activation_pools(state, use_free_bandwidth)
    handed = list(column) if shared_column else None
    fast = assess_failed_links(
        state, population, failed, use_free_bandwidth,
        dead_node=dead_node, pools=handed,
    )
    reference = reference_assess_failed_links(
        state, population, failed, use_free_bandwidth, dead_node=dead_node,
    )
    assert fast.link_id == reference.link_id
    assert fast.outcomes == reference.outcomes
    if shared_column:
        assert handed == column


def test_edge_pools_exist():
    """The edge strategy is not vacuous: ``p + BW_EPSILON == bw`` has
    a solution for non-dyadic bandwidths."""
    for bw in (0.1, 1.0 / 3.0, 2.7, 9.99):
        pool = edge_below(bw)
        assert pool is not None and pool + BW_EPSILON == bw
        assert not pool + BW_EPSILON > bw
