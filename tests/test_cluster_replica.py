"""Tests for the cluster's replicated link-state layer.

Read-API equivalence against the live database, the ingest verdict
state machine (in-order, duplicate, gap, blocked, resync), and the
hypothesis property the whole replication design leans on: replaying
any prefix of the delta stream — optionally finished off by a snapshot
resync — lands on exactly the image a fresh capture would produce.  A
second property holds the planning input itself: a delta-fed replica's
kernel table builds the cost arrays the authority's builds at the same
epoch.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    DatabaseSnapshot,
    DeltaTracker,
    ReplicaDatabase,
)
from repro.cluster.replica import (
    INGEST_APPLIED,
    INGEST_BLOCKED,
    INGEST_DUPLICATE,
    INGEST_GAP,
)
from repro.core import DRTPService
from repro.network.database import LinkStateDatabase
from repro.network.state import ResourceError
from repro.routing import DLSRScheme
from repro.topology import mesh_network
from repro.topology.srlg import mesh_conduit_groups

ROWS = COLS = 4
CAPACITY = 8.0


def _loaded_service(seed=3, ops=60, risk_groups=None):
    """A service whose state carries reservations, releases and a
    couple of failed links — realistic ledgers to replicate."""
    network = mesh_network(ROWS, COLS, CAPACITY)
    groups = (
        mesh_conduit_groups(network, ROWS, COLS) if risk_groups else None
    )
    service = DRTPService(network, DLSRScheme(), risk_groups=groups)
    rng = random.Random(seed)
    live = []
    for _ in range(ops):
        roll = rng.random()
        if roll < 0.6 or not live:
            src, dst = rng.sample(range(network.num_nodes), 2)
            decision = service.request(src, dst, 1.0)
            if decision.accepted:
                live.append(decision.connection.connection_id)
        elif roll < 0.85:
            # A link failure below may already have torn the
            # connection down; only live ids can be released.
            cid = live.pop(rng.randrange(len(live)))
            if service.has_connection(cid):
                service.release(cid)
        elif roll < 0.95:
            service.fail_link(rng.randrange(network.num_links))
        else:
            for link in list(service.state.failed_links()):
                service.repair_link(link)
    return service


class TestReadEquivalence:
    def test_replica_answers_like_the_live_database(self):
        service = _loaded_service(risk_groups=True)
        state = service.state
        live = LinkStateDatabase(state)
        replica = ReplicaDatabase(
            DatabaseSnapshot.capture(state, 0),
            risk_groups=service.risk_groups,
        )
        probe = [0, 1, 5, 17]  # an arbitrary primary for the cost terms
        for link in range(state.network.num_links):
            assert replica.aplv_l1(link) == live.aplv_l1(link)
            assert replica.is_failed(link) == live.is_failed(link)
            assert replica.conflict_count(link, probe) == \
                live.conflict_count(link, probe)
            assert replica.group_aplv_l1(link) == live.group_aplv_l1(link)
            assert replica.group_conflict_count(link, probe) == \
                live.group_conflict_count(link, probe)
            assert replica.primary_headroom(link) == \
                pytest.approx(live.primary_headroom(link))
            assert replica.backup_headroom(link) == \
                pytest.approx(live.backup_headroom(link))
            assert replica.conflict_vector(link) == \
                live.conflict_vector(link)

    def test_replica_is_never_live_and_bounds_checked(self):
        service = _loaded_service(ops=5)
        replica = ReplicaDatabase(DatabaseSnapshot.capture(service.state, 0))
        assert not replica.live
        assert not replica.stale
        assert not replica.has_risk_groups
        with pytest.raises(ResourceError):
            replica.aplv_l1(service.state.network.num_links)
        with pytest.raises(ResourceError):
            replica.group_conflict_count(0, [1])  # no groups installed


def _delta_stream(seed=5, epochs=6, ops_per_epoch=12):
    """One authoritative run: epoch-0 snapshot, one delta per epoch
    boundary, and an independent full capture at every epoch."""
    network = mesh_network(ROWS, COLS, CAPACITY)
    service = DRTPService(network, DLSRScheme())
    tracker = DeltaTracker(service.state)
    rng = random.Random(seed)
    snapshots = [DatabaseSnapshot.capture(service.state, 0)]
    deltas = {}
    live = []
    for epoch in range(1, epochs + 1):
        for _ in range(ops_per_epoch):
            roll = rng.random()
            if roll < 0.65 or not live:
                src, dst = rng.sample(range(network.num_nodes), 2)
                decision = service.request(src, dst, 1.0)
                if decision.accepted:
                    live.append(decision.connection.connection_id)
            elif roll < 0.9:
                cid = live.pop(rng.randrange(len(live)))
                if service.has_connection(cid):
                    service.release(cid)
            else:
                service.fail_link(rng.randrange(network.num_links))
        deltas[epoch] = tracker.capture(epoch)
        snapshots.append(DatabaseSnapshot.capture(service.state, epoch))
    tracker.close()
    return snapshots, deltas


class TestDeltaStream:
    def test_in_order_replay_matches_fresh_capture(self):
        snapshots, deltas = _delta_stream()
        replica = ReplicaDatabase(snapshots[0])
        for epoch in sorted(deltas):
            assert replica.ingest(deltas[epoch]) == INGEST_APPLIED
            assert replica.fingerprint() == snapshots[epoch].fingerprint()
        assert replica.deltas_applied == len(deltas)

    def test_duplicate_is_ignored_without_corruption(self):
        snapshots, deltas = _delta_stream()
        replica = ReplicaDatabase(snapshots[0])
        assert replica.ingest(deltas[1]) == INGEST_APPLIED
        before = replica.fingerprint()
        assert replica.ingest(deltas[1]) == INGEST_DUPLICATE
        assert replica.fingerprint() == before
        assert replica.duplicates_ignored == 1

    def test_gap_freezes_replica_until_snapshot_resync(self):
        snapshots, deltas = _delta_stream()
        replica = ReplicaDatabase(snapshots[0])
        assert replica.ingest(deltas[1]) == INGEST_APPLIED
        # Epoch 2 lost in transit; 3 arrives first.
        assert replica.ingest(deltas[3]) == INGEST_GAP
        assert replica.needs_resync and replica.stale
        frozen = replica.fingerprint()
        # Even the *right* next delta is refused now: epoch 2's changes
        # are gone, so applying 2 would silently skip nothing — but the
        # replica cannot know that delta 2 equals the one it missed.
        assert replica.ingest(deltas[2]) == INGEST_BLOCKED
        assert replica.fingerprint() == frozen
        replica.resync(snapshots[4])
        assert not replica.needs_resync
        assert replica.fingerprint() == snapshots[4].fingerprint()
        # And the stream continues incrementally from the resync point.
        assert replica.ingest(deltas[5]) == INGEST_APPLIED
        assert replica.fingerprint() == snapshots[5].fingerprint()

    def test_resync_rejects_wrong_topology(self):
        snapshots, _ = _delta_stream()
        replica = ReplicaDatabase(snapshots[0])
        alien = DatabaseSnapshot.capture(
            DRTPService(mesh_network(2, 2, 4.0), DLSRScheme()).state, 9
        )
        with pytest.raises(ResourceError):
            replica.resync(alien)

    def test_clone_is_independent(self):
        snapshots, deltas = _delta_stream()
        replica = ReplicaDatabase(snapshots[0])
        replica.ingest(deltas[1])
        twin = replica.clone()
        assert twin.fingerprint() == replica.fingerprint()
        replica.ingest(deltas[2])
        assert twin.epoch == 1 and replica.epoch == 2
        assert twin.fingerprint() == snapshots[1].fingerprint()


class TestReplayProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        prefix=st.integers(min_value=0, max_value=6),
        resync_at=st.integers(min_value=0, max_value=6),
    )
    def test_any_delta_prefix_plus_resync_equals_fresh_rebuild(
        self, seed, prefix, resync_at
    ):
        """Replaying deltas 1..k and then resyncing at any m >= k is
        indistinguishable from building a fresh replica at m."""
        snapshots, deltas = _delta_stream(seed=seed)
        replica = ReplicaDatabase(snapshots[0])
        for epoch in range(1, prefix + 1):
            assert replica.ingest(deltas[epoch]) == INGEST_APPLIED
        assert replica.fingerprint() == snapshots[prefix].fingerprint()
        m = max(prefix, resync_at)
        replica.resync(snapshots[m])
        fresh = ReplicaDatabase(snapshots[m])
        assert replica.fingerprint() == fresh.fingerprint()
        # And both continue identically on the remaining live stream.
        for epoch in range(m + 1, max(deltas) + 1):
            assert replica.ingest(deltas[epoch]) == INGEST_APPLIED
            assert fresh.ingest(deltas[epoch]) == INGEST_APPLIED
        assert replica.fingerprint() == fresh.fingerprint()
        assert replica.fingerprint() == snapshots[max(deltas)].fingerprint()


_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["admit", "admit", "admit", "release", "fail", "repair",
             "epoch", "epoch"]
        ),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
    ),
    min_size=8,
    max_size=40,
)


class TestKernelTableLockstep:
    @settings(max_examples=30, deadline=None)
    @given(
        ops=_OPS,
        srlg=st.booleans(),
        lost=st.integers(min_value=1, max_value=6),
    )
    def test_replica_cost_arrays_equal_the_authoritys_at_the_same_epoch(
        self, ops, srlg, lost
    ):
        """Admit / release / fail / repair on the authority, one delta
        per epoch boundary (delta ``lost`` never arrives, so the next
        one reports a gap and the replica resyncs): whenever the
        replica reaches the authority's epoch, its table rows and every
        cost array built from them equal the authority's."""
        network = mesh_network(ROWS, COLS, CAPACITY)
        groups = mesh_conduit_groups(network, ROWS, COLS) if srlg else None
        service = DRTPService(network, DLSRScheme(), risk_groups=groups)
        tracker = DeltaTracker(service.state)
        replica = ReplicaDatabase(
            DatabaseSnapshot.capture(service.state, 0), risk_groups=groups
        )
        authority = service.database.kernel_arrays()
        num_nodes, num_links = network.num_nodes, network.num_links
        live = []
        epoch = 0
        for kind, a, b in ops:
            if kind == "admit":
                if a % num_nodes != b % num_nodes:
                    decision = service.request(
                        a % num_nodes, b % num_nodes, 1.0
                    )
                    if decision.accepted:
                        live.append(decision.connection.connection_id)
            elif kind == "release" and live:
                cid = live.pop(a % len(live))
                if service.has_connection(cid):
                    service.release(cid)
            elif kind == "fail":
                service.fail_link(a % num_links)
            elif kind == "repair":
                for link in sorted(service.state.failed_links())[:1]:
                    service.repair_link(link)
            if kind != "epoch":
                continue
            epoch += 1
            delta = tracker.capture(epoch)
            if epoch == lost:
                continue
            if replica.ingest(delta) != INGEST_APPLIED:
                assert replica.needs_resync
                replica.resync(DatabaseSnapshot.capture(service.state, epoch))
            assert replica.epoch == epoch
            authority.flush()
            tables = replica.kernel_arrays()
            columns = 6 if srlg else 4
            assert tables.rows(columns) == authority.rows(columns)
            bw = (1.0, 2.5, 9.0)[b % 3]
            lset = frozenset({a % num_links, b % num_links})
            avoid = lset | {(a + b) % num_links}
            scale = float(num_nodes)
            assert tables.primary_costs(bw) == authority.primary_costs(bw)
            for conflict in ("plsr", "dlsr", "disjoint"):
                assert tables.backup_costs(
                    conflict, bw, lset, avoid, scale
                ) == authority.backup_costs(conflict, bw, lset, avoid, scale)
        tracker.close()
        service.check_invariants()
