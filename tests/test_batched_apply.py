"""The fused commit vs. the hop-by-hop walk — seeded regression scripts.

:mod:`repro.kernels.apply` promises *bit-identical* observable
behavior to the hop-by-hop register / release / reserve loops it
replaced: same decisions, same ``rejected_link``, same
``hops_signaled``, same resize outcomes, same ``NetworkState``
fingerprints — and, wherever nothing is rejected, the same ledger
``version`` counters, which the compiled cost caches key on.  These
tests replay fixed seeded scripts through production
(:mod:`repro.core.signaling` / :mod:`repro.kernels.apply`) and through
the reference spelling (:mod:`repro.testing.commit`) and compare; the
randomized function-level lockstep, fault injection included, is
``tests/test_commit_lockstep.py``.
"""

import random
from types import SimpleNamespace

import pytest

from repro.core import (
    BackupRegisterPacket,
    DedicatedSparePolicy,
    DRTPService,
    SharedSparePolicy,
    register_backup_path,
)
from repro.core.multiplexing import GroupAwareSparePolicy
from repro.core.signaling import release_backup_path
from repro.kernels.apply import batch_reserve_primary
from repro.network import NetworkState, ResourceError
from repro.routing import DLSRScheme
from repro.testing import commit
from repro.topology import Route, mesh_conduit_groups, mesh_network

from .scripted import ScriptedInjector

ROWS, COLS = 4, 4


#: The two spellings of the commit, behind one shape.
FUSED = SimpleNamespace(
    register=register_backup_path,
    release=release_backup_path,
    reserve=batch_reserve_primary,
)
HOP_BY_HOP = SimpleNamespace(
    register=commit.register_backup_path,
    release=lambda state, policy, pkt: commit.release_walk(
        state, policy, pkt.registration_key, pkt.backup_route.link_ids
    ),
    reserve=commit.reserve_primary,
)


def _random_packet(net, rng, conn_id, bw=1.0):
    """A register packet whose backup route is a random simple walk."""
    nodes = [rng.randrange(net.num_nodes)]
    seen = {nodes[0]}
    for _ in range(rng.randint(2, 6)):
        neighbors = [
            n for n in net.neighbors(nodes[-1]) if n not in seen
        ]
        if not neighbors:
            break
        nxt = rng.choice(neighbors)
        nodes.append(nxt)
        seen.add(nxt)
    if len(nodes) < 2:
        nodes = [0, 1]
    backup = Route.from_nodes(net, nodes)
    # Primary LSET: a couple of random links elsewhere in the network.
    lset = frozenset(
        rng.randrange(net.num_links) for _ in range(rng.randint(1, 4))
    )
    return BackupRegisterPacket(
        connection_id=conn_id,
        backup_route=backup,
        primary_lset=lset,
        bw_req=bw,
    )


def _versions(state):
    return [ledger.version for ledger in state.ledgers()]


def _run_script(net, policy_factory, script, walks, busy_links=()):
    """Replay a register/release script against a fresh state; returns
    the per-step results plus the final fingerprint and versions.
    ``busy_links`` carry a primary reservation that starves backups."""
    state = NetworkState(net)
    policy = policy_factory()
    for link_id in busy_links:
        assert walks.reserve(state, (link_id,), 2.0)
    outcomes = []
    rejected = set()
    for op, pkt in script:
        if op == "register":
            result = walks.register(state, policy, pkt)
            outcomes.append(
                (
                    result.success,
                    result.rejected_link,
                    result.hops_signaled,
                    tuple(result.resizes),
                )
            )
            if not result.success:
                rejected.add(pkt.connection_id)
        elif pkt.connection_id not in rejected:
            outcomes.append(tuple(walks.release(state, policy, pkt)))
    return outcomes, state.fingerprint(), _versions(state)


def _script(net, num_ops, capacity_pressure_bw=1.0, seed=11):
    """A seeded churn script: registrations interleaved with releases
    of still-live packets."""
    rng = random.Random(seed)
    script = []
    live = []
    for conn_id in range(num_ops):
        pkt = _random_packet(net, rng, conn_id, bw=capacity_pressure_bw)
        script.append(("register", pkt))
        live.append(pkt)
        if live and rng.random() < 0.35:
            victim = live.pop(rng.randrange(len(live)))
            script.append(("release", victim))
    return script


class TestWalkEquivalence:
    @pytest.mark.parametrize(
        "policy_factory",
        [SharedSparePolicy, DedicatedSparePolicy],
        ids=["shared", "dedicated"],
    )
    def test_register_release_script_lockstep(self, policy_factory):
        """Every step outcome (success flag, rejected hop, signaled
        hops, resize list) and the final fingerprint + version vector
        match between the fused and hop-by-hop spellings."""
        net = mesh_network(ROWS, COLS, 8.0)
        script = _script(net, 40)
        fused = _run_script(net, policy_factory, script, FUSED)
        assert fused == _run_script(net, policy_factory, script, HOP_BY_HOP)

    def test_rejection_script_lockstep(self):
        """Under capacity pressure rejections appear mid-walk; the
        rejecting hop and the state left behind must match exactly.
        (Versions are not compared: the hop-by-hop walk registers and
        unwinds the hops before the rejection, the fused one never
        touches them.)"""
        net = mesh_network(ROWS, COLS, 3.0)
        script = _script(net, 60, capacity_pressure_bw=2.0)
        busy = range(0, net.num_links, 5)
        fused = _run_script(net, SharedSparePolicy, script, FUSED, busy)
        per_hop = _run_script(
            net, SharedSparePolicy, script, HOP_BY_HOP, busy
        )
        assert fused[:2] == per_hop[:2]
        rejected = [
            step for step in fused[0] if step[0] is False and step[2] > 1
        ]
        assert rejected, "pressure script must actually reject mid-walk"

    def test_rejection_mutates_nothing(self):
        """A rejection is validate-only: fingerprint and versions are
        byte-identical to before the attempt."""
        net = mesh_network(ROWS, COLS, 1.0)
        state = NetworkState(net)
        policy = SharedSparePolicy()
        route = Route.from_nodes(net, [0, 1, 2, 3])
        blocker = BackupRegisterPacket(
            connection_id=1,
            backup_route=route,
            primary_lset=frozenset([20]),
            bw_req=1.0,
        )
        doomed_route = Route.from_nodes(net, [4, 5, 6, 2, 1])
        # A primary reservation mid-route starves the third hop:
        # backup headroom there drops to 0.5 < 0.75.
        state.ledger(doomed_route.link_ids[2]).reserve_primary(0.5)
        assert register_backup_path(state, policy, blocker).success
        before = (state.fingerprint(), _versions(state))
        doomed = BackupRegisterPacket(
            connection_id=2,
            backup_route=doomed_route,
            primary_lset=frozenset([21]),
            bw_req=0.75,
        )
        result = register_backup_path(state, policy, doomed)
        assert not result.success
        assert result.rejected_link == doomed_route.link_ids[2]
        assert result.hops_signaled == 3
        assert (state.fingerprint(), _versions(state)) == before

    def test_duplicate_key_raises_the_per_hop_error(self):
        """An already-registered key is a caller bug: both spellings
        surface the identical exception — the fused one before
        mutating anything."""
        net = mesh_network(ROWS, COLS, 8.0)
        outcomes = []
        for walks in (FUSED, HOP_BY_HOP):
            state = NetworkState(net)
            policy = SharedSparePolicy()
            pkt = BackupRegisterPacket(
                connection_id=1,
                backup_route=Route.from_nodes(net, [0, 1, 2]),
                primary_lset=frozenset([30]),
                bw_req=1.0,
            )
            assert walks.register(state, policy, pkt).success
            with pytest.raises(ResourceError) as excinfo:
                walks.register(state, policy, pkt)
            outcomes.append((type(excinfo.value), str(excinfo.value)))
        assert outcomes[0] == outcomes[1]


class TestGroupAccounting:
    def test_srlg_script_lockstep(self):
        """With risk groups installed the fused loop also maintains the
        per-group APLV/demand tables; lockstep over a churn script."""
        net = mesh_network(ROWS, COLS, 8.0)
        groups = mesh_conduit_groups(net, ROWS, COLS)
        script = _script(net, 40, seed=13)

        def run(walks):
            state = NetworkState(net)
            state.install_risk_groups(groups)
            policy = GroupAwareSparePolicy()
            outcomes = []
            for op, pkt in script:
                if op == "register":
                    result = walks.register(state, policy, pkt)
                    outcomes.append(
                        (result.success, tuple(result.resizes))
                    )
                else:
                    outcomes.append(
                        tuple(walks.release(state, policy, pkt))
                    )
            tables = [
                (
                    ledger.group_aplv_l1(),
                    ledger.group_support(),
                    ledger.max_group_demand,
                )
                for ledger in state.ledgers()
            ]
            return outcomes, state.fingerprint(), tables

        assert run(FUSED) == run(HOP_BY_HOP)


class TestServiceLockstep:
    def test_admission_churn_fingerprints_match(self):
        """Full-service lockstep: every admission and release the
        service commits (primary reservation and release ride the
        fused path here too) is mirrored hop by hop onto a twin state,
        which must match after each request; a fail / repair cycle
        then runs recovery's fused releases over that state."""
        net = mesh_network(5, 5, 6.0)
        service = DRTPService(net, DLSRScheme())
        twin = NetworkState(net)
        policy = service.spare_policy
        rng = random.Random(23)
        live = []
        for _ in range(80):
            src, dst = rng.sample(range(net.num_nodes), 2)
            conn = service.request(src, dst, 1.0).connection
            if conn is not None:
                live.append(conn)
                primary = conn.primary_route
                assert commit.reserve_primary(twin, primary.link_ids, 1.0)
                assert commit.register_backup_path(
                    twin,
                    policy,
                    BackupRegisterPacket(
                        conn.connection_id, conn.backup.route,
                        primary.lset, 1.0,
                    ),
                ).success
            if live and rng.random() < 0.3:
                conn = live.pop(0)
                service.release(conn.connection_id)
                commit.release_primary(
                    twin, policy, conn.primary_route.link_ids, 1.0
                )
                commit.release_walk(
                    twin, policy, conn.connection_id,
                    conn.backup.route.link_ids,
                )
            assert service.state.fingerprint() == twin.fingerprint()
        assert service.counters.accepted > 40
        impact = service.fail_link(0)
        assert impact.affected
        service.check_invariants()
        service.repair_link(0)
        service.check_invariants()


class TestFaultInterop:
    def test_crash_unwinds_batched_survivor_intact(self):
        """A crash/unwind cycle must coexist with registrations other
        walks committed: the survivor's state is untouched and the
        crashed walk leaves the fingerprint where it started."""
        net = mesh_network(3, 3, 10.0)
        state = NetworkState(net)
        policy = SharedSparePolicy()
        survivor = BackupRegisterPacket(
            connection_id=1,
            backup_route=Route.from_nodes(net, [0, 3, 4, 5, 2]),
            primary_lset=Route.from_nodes(net, [0, 1, 2]).lset,
            bw_req=1.0,
        )
        result = register_backup_path(state, policy, survivor)
        assert result.success
        with_survivor = state.fingerprint()
        doomed = BackupRegisterPacket(
            connection_id=2,
            backup_route=Route.from_nodes(net, [0, 3, 4, 5, 2]),
            primary_lset=Route.from_nodes(net, [0, 1, 2]).lset,
            bw_req=1.0,
        )
        last_hop = len(doomed.backup_route.link_ids) - 1
        injector = ScriptedInjector(crash_script=[last_hop])
        crashed = register_backup_path(
            state, policy, doomed, injector, retry_policy=None
        )
        assert not crashed.success and crashed.crashes == 1
        # Fingerprints exclude version counters, so the unwound
        # state must land exactly back on the survivor-only print.
        assert state.fingerprint() == with_survivor
        for link_id in survivor.backup_route.link_ids:
            assert state.ledger(link_id).has_backup(1)
        # And the release still tears the survivor down to the
        # pristine fingerprint.
        pristine_state = NetworkState(net)
        release_backup_path(state, policy, survivor)
        assert state.fingerprint() == pristine_state.fingerprint()

    def test_mid_walk_fault_then_batched_retry_equivalence(self):
        """A drop mid-walk (prefix committed, then unwound) followed
        by a clean retry lands on the same fingerprint and the same
        version counters in both spellings."""

        def run(walks):
            net = mesh_network(3, 3, 10.0)
            state = NetworkState(net)
            policy = SharedSparePolicy()
            first = BackupRegisterPacket(
                connection_id=1,
                backup_route=Route.from_nodes(net, [0, 1, 4, 7]),
                primary_lset=frozenset([0]),
                bw_req=1.0,
            )
            assert walks.register(state, policy, first).success
            faulty = BackupRegisterPacket(
                connection_id=2,
                backup_route=Route.from_nodes(net, [0, 3, 4, 5, 2]),
                primary_lset=frozenset([1]),
                bw_req=1.0,
            )
            injector = ScriptedInjector(
                hop_events=[(None, 0.0), (None, 0.0), ("drop", 0.0)]
            )
            dropped = walks.register(
                state, policy, faulty, injector, retry_policy=None
            )
            assert not dropped.success and dropped.drops == 1
            retry = walks.register(state, policy, faulty)
            assert retry.success
            return state.fingerprint(), _versions(state)

        assert run(FUSED) == run(HOP_BY_HOP)
