"""Metamorphic property tests for the fast-path routing engine.

Three incremental mechanisms carry the fast path — delta-maintained
APLVs, support-versioned CV caches, dirty-set database refreshes, and
the cached-workspace searches — and each has a rebuild-from-scratch
twin in :mod:`repro.testing.reference`.  The metamorphic relations:

* ``teardown(setup(x))`` is the identity on every observable piece of
  state (fingerprints, APLVs, CV caches, snapshot records);
* a delta-maintained APLV equals the vector rebuilt from the surviving
  registrations under *arbitrary* register/release interleavings;
* the incremental (dirty-set) snapshot refresh equals a full rebuild;
* the cached-workspace searches return bit-identical routes to the
  naive dict-based searches, under arbitrary link-cost censoring.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DRTPService
from repro.kernels.search import (
    encode_scale,
    flat_bounded_shortest_path,
    flat_dijkstra,
    flat_min_hop_path,
    flat_shortest_path,
    search_workspace,
)
from repro.metrics import ServiceMetrics
from repro.network import APLV, LinkStateDatabase, NetworkState
from repro.routing import PLSRScheme
from repro.testing import (
    naive_bounded_shortest_path,
    naive_shortest_path,
    rebuilt_aplv,
)
from repro.topology import mesh_network, waxman_network

NET = mesh_network(3, 3, 10.0)
NUM_LINKS = NET.num_links

lsets = st.frozensets(
    st.integers(min_value=0, max_value=NUM_LINKS - 1), min_size=1, max_size=5
)

#: One register/release step: a connection id and its primary LSET.
ops = st.lists(
    st.tuples(st.integers(min_value=0, max_value=7), lsets),
    min_size=1,
    max_size=20,
)


def _apply_interleaving(ledger, steps):
    """Register/release connections on one ledger: a step whose id is
    unregistered registers it, a step whose id is live releases it —
    an arbitrary interleaving of setups and teardowns."""
    live = {}
    for conn_id, lset in steps:
        if conn_id in live:
            ledger.release_backup(conn_id)
            del live[conn_id]
        else:
            ledger.register_backup(conn_id, lset, 1.0)
            live[conn_id] = lset
    return live


@given(ops)
@settings(max_examples=60, deadline=None)
def test_incremental_aplv_equals_rebuilt_under_interleavings(steps):
    state = NetworkState(NET)
    ledger = state.ledger(0)
    _apply_interleaving(ledger, steps)
    assert ledger.aplv == rebuilt_aplv(ledger)
    assert ledger.aplv.to_dense() == rebuilt_aplv(ledger).to_dense()
    assert ledger.aplv.l1_norm == rebuilt_aplv(ledger).l1_norm


@given(ops)
@settings(max_examples=60, deadline=None)
def test_teardown_of_setup_is_identity(steps):
    state = NetworkState(NET)
    ledger = state.ledger(0)
    pristine = state.fingerprint()
    live = _apply_interleaving(ledger, steps)
    for conn_id in list(live):
        ledger.release_backup(conn_id)
    assert state.fingerprint() == pristine
    assert ledger.aplv.is_zero()
    assert ledger.conflict_vector().popcount() == 0


@given(ops)
@settings(max_examples=60, deadline=None)
def test_cached_cv_tracks_support_exactly(steps):
    state = NetworkState(NET)
    ledger = state.ledger(0)
    for conn_id, lset in steps:
        if ledger.has_backup(conn_id):
            ledger.release_backup(conn_id)
        else:
            ledger.register_backup(conn_id, lset, 1.0)
        # After *every* mutation the cached CV must equal the support
        # of the rebuilt vector — a stale support_version would show
        # up here immediately.
        assert ledger.conflict_vector().bits == rebuilt_aplv(ledger).support()
    # Unchanged support ⇒ the cache returns the same snapshot object.
    assert ledger.conflict_vector() is ledger.conflict_vector()


@given(ops, st.lists(st.booleans(), min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_incremental_snapshot_refresh_equals_full_rebuild(steps, refresh_plan):
    """Interleave mutations with snapshot refreshes; after each
    refresh every record must match a freshly-built database's."""
    state = NetworkState(NET)
    incremental = LinkStateDatabase(state, live=False)
    step_iter = iter(steps)
    for _ in refresh_plan:
        for conn_id, lset in list(step_iter)[:4]:
            ledger = state.ledger(min(lset))
            if ledger.has_backup(conn_id):
                ledger.release_backup(conn_id)
            else:
                ledger.register_backup(conn_id, lset, 1.0)
        incremental.refresh()
        fresh = LinkStateDatabase(state, live=False)
        for link_id in range(NUM_LINKS):
            assert incremental.aplv_l1(link_id) == fresh.aplv_l1(link_id)
            assert incremental.conflict_vector(link_id) == (
                fresh.conflict_vector(link_id)
            )
            assert incremental.primary_headroom(link_id) == (
                fresh.primary_headroom(link_id)
            )
            assert incremental.backup_headroom(link_id) == (
                fresh.backup_headroom(link_id)
            )
        assert not incremental.dirty_links()


def test_live_database_has_nothing_awaiting_readvertisement():
    """A database serving live advertises every change at once: its
    dirty set (and the gauge scraping it) reads 0 however much churn
    went by, and fills only while reads are frozen — with exactly the
    links touched since the freeze — until the next refresh."""
    metrics = ServiceMetrics()
    service = DRTPService(
        mesh_network(8, 8, 30.0), PLSRScheme(), metrics=metrics
    )
    rng = random.Random(3)
    for _ in range(400):
        src, dst = rng.sample(range(64), 2)
        decision = service.request(src, dst, 1.0)
        assert decision.accepted
        service.release(decision.connection.connection_id)
    assert service.active_connection_count == 0
    assert service.database.dirty_links() == frozenset()
    assert metrics.db_dirty_links.value() == 0.0

    service.database.inject_staleness()
    assert service.database.dirty_links() == frozenset()
    connection = service.request(0, 63, 1.0).connection
    touched = frozenset(
        connection.primary_route.link_ids + connection.backup_route.link_ids
    )
    assert service.database.dirty_links() == touched
    assert metrics.db_dirty_links.value() == len(touched)
    rescanned = service.database.links_rescanned
    service.database.refresh()
    assert service.database.dirty_links() == frozenset()
    assert service.database.links_rescanned == rescanned + len(touched)
    service.check_invariants()


# ----------------------------------------------------------------------
# Fast search vs naive search
# ----------------------------------------------------------------------
_SEARCH_NETS = [
    mesh_network(3, 3, 10.0),
    mesh_network(4, 4, 10.0),
    waxman_network(18, 10.0, rng=random.Random(11)),
]


@given(
    st.integers(min_value=0, max_value=len(_SEARCH_NETS) - 1),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_fast_search_bit_identical_to_naive(net_index, data):
    """Same route — node for node, link for link — from the cached
    workspace search and the dict-based reference, under arbitrary
    per-link censoring and weights (ties included)."""
    net = _SEARCH_NETS[net_index]
    src = data.draw(
        st.integers(min_value=0, max_value=net.num_nodes - 1), label="src"
    )
    dst = data.draw(
        st.integers(min_value=0, max_value=net.num_nodes - 1), label="dst"
    )
    if src == dst:
        dst = (dst + 1) % net.num_nodes
    weights = data.draw(
        st.lists(
            st.one_of(
                st.none(),
                st.integers(min_value=0, max_value=3),
            ),
            min_size=net.num_links,
            max_size=net.num_links,
        ),
        label="weights",
    )

    def cost(link):
        w = weights[link.link_id]
        if w is None:
            return None
        return (float(w), 1.0)

    def encoded(scale):
        return [-1.0 if w is None else w * scale + 1.0 for w in weights]

    fast = flat_shortest_path(net, src, dst, encoded(encode_scale(net)))
    naive = naive_shortest_path(net, src, dst, cost)
    # The exhaustive step alone answers the same, unit phase or not.
    assert flat_dijkstra(net, src, dst, encoded(encode_scale(net))) == naive
    if naive is None:
        assert fast is None
    else:
        assert fast is not None
        assert fast.nodes == naive.nodes
        assert fast.link_ids == naive.link_ids

    max_hops = data.draw(st.integers(min_value=1, max_value=8), label="hops")
    fast_bounded = flat_bounded_shortest_path(
        net, src, dst, encoded(encode_scale(net, max_hops)), max_hops
    )
    naive_bounded = naive_bounded_shortest_path(net, src, dst, cost, max_hops)
    if naive_bounded is None:
        assert fast_bounded is None
    else:
        assert fast_bounded is not None
        assert fast_bounded.nodes == naive_bounded.nodes
        assert fast_bounded.link_ids == naive_bounded.link_ids


def test_workspace_is_cached_and_reused():
    net = mesh_network(4, 4, 10.0)
    ws = search_workspace(net)
    assert search_workspace(net) is ws
    epoch_before = ws.epoch
    flat_min_hop_path(net, 0, 15, [1.0] * net.num_links)
    assert search_workspace(net) is ws
    assert ws.epoch > epoch_before  # arrays were reused, not rebuilt
