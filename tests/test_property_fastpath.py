"""Metamorphic property tests for the fast-path routing engine.

Three incremental mechanisms carry the fast path — delta-maintained
APLVs, support-versioned CV caches, dirty-set database refreshes, and
the cached-workspace searches — and each has a rebuild-from-scratch
twin in :mod:`repro.testing.reference`.  The metamorphic relations:

* ``teardown(setup(x))`` is the identity on every observable piece of
  state (fingerprints, APLVs, CV caches, snapshot records);
* a delta-maintained APLV, and its cached CV, equal the vector rebuilt
  from the surviving registrations under arbitrary register/release
  interleavings — the oracle's ledger sweep, after every rule of the
  service machine (the first three tests are slices of it);
* the incremental (dirty-set) snapshot refresh equals a full rebuild;
* the cached-workspace searches return bit-identical routes to the
  naive dict-based searches (a slice too).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DRTPService
from repro.kernels.search import flat_min_hop_path, search_workspace
from repro.metrics import ServiceMetrics
from repro.network import LinkStateDatabase, NetworkState
from repro.routing import PLSRScheme
from repro.topology import mesh_network

from .test_service_machine import Config, drive

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


def test_incremental_aplv_equals_rebuilt_under_interleavings():
    """Slice: two backups per connection over the conduit groups; the
    oracle rebuilds every ledger's APLV from its registry after each
    rule."""
    drive(Config(backups=2, srlg=True), 60, seed=41, preload=20).teardown()


def test_teardown_of_setup_is_identity():
    """Slice: whatever a walk set up, releasing every connection and
    repairing every link returns the pristine fingerprint, with every
    APLV zero and every CV empty."""
    machine = drive(Config(scheme="P-LSR", backups=2), 60, seed=42,
                    preload=20)
    machine.teardown()
    for ledger in machine.state.ledgers():
        assert ledger.aplv.is_zero()
        assert ledger.conflict_vector().popcount() == 0


def test_cached_cv_tracks_support_exactly():
    """Slice: the oracle diffs every cached CV against the rebuilt
    support after each rule; an unchanged support then returns the same
    cached snapshot object."""
    machine = drive(Config(policy="dedicated"), 60, seed=43, preload=20)
    for ledger in machine.state.ledgers():
        assert ledger.conflict_vector() is ledger.conflict_vector()
    machine.teardown()


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


def test_fast_search_bit_identical_to_naive():
    """Slice: hop-bounded planning on a Waxman network and unbounded
    P-LSR on the mesh — every route the flat searches return is diffed,
    node for node and link for link, against the naive searches of the
    shadow's planner.  Arbitrary cost arrays are
    ``tests/test_property_kernels.py``'s."""
    drive(Config(qos_slack=1, waxman=(16, 42)), 60, seed=44,
          preload=20).teardown()
    drive(Config(scheme="P-LSR"), 60, seed=45, preload=20).teardown()


def test_workspace_is_cached_and_reused():
    net = mesh_network(4, 4, 10.0)
    ws = search_workspace(net)
    assert search_workspace(net) is ws
    epoch_before = ws.epoch
    flat_min_hop_path(net, 0, 15, [1.0] * net.num_links)
    assert search_workspace(net) is ws
    assert ws.epoch > epoch_before  # arrays were reused, not rebuilt
