"""Batched signaling apply vs. the per-hop walk — exact equivalence.

The batched commit path (:mod:`repro.kernels.apply`) promises
*bit-identical* observable behavior to the legacy per-hop register /
release / reserve loops: same decisions, same ``rejected_link``, same
``hops_signaled``, same resize outcomes, same ``NetworkState``
fingerprints — and same ledger ``version`` counters, which the
compiled cost caches key on.  These tests run both in lockstep and
compare after every operation; the per-hop reference is reached the
way production reaches it — a batched entry point answering "fall
back" — by patching the four names the callers import to always say
so (:func:`per_hop`).

The fault-injected walk intentionally stays per-hop; the mid-walk
fault cases here pin the interop instead: registrations committed by
the batched path must unwind through the legacy
``repro.faults``-driven crash/unwind machinery to the pristine
fingerprint.
"""

import random
from contextlib import contextmanager, nullcontext

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
from repro.network import NetworkState
from repro.routing import DLSRScheme
from repro.topology import Route, mesh_conduit_groups, mesh_network

ROWS, COLS = 4, 4


class ScriptedInjector:
    """Deterministic injector (same shape as the one in
    ``test_signaling_unwind``): per-hop events and per-attempt crashes
    come from scripts instead of random draws."""

    def __init__(self, hop_events=(), crash_script=()):
        self._hop_events = list(hop_events)
        self._crash_script = list(crash_script)
        self.retry_rng = random.Random(0)

    def sample_hop(self):
        if self._hop_events:
            return self._hop_events.pop(0)
        return (None, 0.0)

    def crash_hop(self, hops):
        if self._crash_script:
            crash_at = self._crash_script.pop(0)
            if crash_at is not None and crash_at >= hops:
                raise AssertionError("crash scripted past route end")
            return crash_at
        return None


#: The batched entry points, at the names their callers resolve.
BATCH_ENTRY_POINTS = (
    "repro.core.signaling.batch_register_walk",
    "repro.core.signaling.batch_release_walk",
    "repro.core.admission.batch_reserve_primary",
    "repro.core.admission.batch_release_primary",
)


@contextmanager
def per_hop():
    """Every batched entry point reports "fall back" (``None``), so
    each walk inside the block takes the per-hop loop."""
    asked = []

    def fall_back(*args, **kwargs):
        asked.append(args)
        return None

    with pytest.MonkeyPatch.context() as patch:
        for target in BATCH_ENTRY_POINTS:
            patch.setattr(target, fall_back)
        yield
    assert asked, "the per-hop arm never reached a batched entry point"


def batching(flag):
    return nullcontext() if flag else per_hop()


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


def _run_script(net, policy_factory, script, batched):
    """Replay a register/release script against a fresh state; returns
    the per-step results plus the final fingerprint and versions."""
    state = NetworkState(net)
    policy = policy_factory()
    outcomes = []
    with batching(batched):
        for op, pkt in script:
            if op == "register":
                result = register_backup_path(state, policy, pkt)
                outcomes.append(
                    (
                        result.success,
                        result.rejected_link,
                        result.hops_signaled,
                        tuple(result.resizes),
                    )
                )
            else:
                outcomes.append(
                    tuple(release_backup_path(state, policy, pkt))
                )
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
        match between the batched and per-hop modes."""
        net = mesh_network(ROWS, COLS, 8.0)
        script = _script(net, 40)
        batched = _run_script(net, policy_factory, script, True)
        per_hop = _run_script(net, policy_factory, script, False)
        assert batched == per_hop

    def test_rejection_script_lockstep(self):
        """Under capacity pressure rejections appear mid-walk; the
        rejecting hop and the untouched state must match exactly."""
        net = mesh_network(ROWS, COLS, 3.0)
        script = _script(net, 60, capacity_pressure_bw=2.0)
        batched = _run_script(net, SharedSparePolicy, script, True)
        per_hop = _run_script(net, SharedSparePolicy, script, False)
        assert batched == per_hop
        rejected = [
            step
            for step in batched[0]
            if len(step) == 4 and step[1] is not None
        ]
        assert rejected, "pressure script must actually reject"

    def test_rejection_mutates_nothing(self):
        """A batched rejection is validate-only: fingerprint and
        versions are byte-identical to before the attempt."""
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
        with batching(True):
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

    def test_duplicate_key_falls_back_to_per_hop_error(self):
        """An already-registered key voids the batch precondition; both
        modes must surface the identical per-hop exception."""
        net = mesh_network(ROWS, COLS, 8.0)
        outcomes = []
        for flag in (True, False):
            state = NetworkState(net)
            policy = SharedSparePolicy()
            pkt = BackupRegisterPacket(
                connection_id=1,
                backup_route=Route.from_nodes(net, [0, 1, 2]),
                primary_lset=frozenset([30]),
                bw_req=1.0,
            )
            with batching(flag):
                assert register_backup_path(state, policy, pkt).success
                with pytest.raises(Exception) as excinfo:
                    register_backup_path(state, policy, pkt)
            outcomes.append((type(excinfo.value), str(excinfo.value)))
        assert outcomes[0] == outcomes[1]


class TestGroupAccounting:
    def test_srlg_script_lockstep(self):
        """With risk groups installed the fused loop also maintains the
        per-group APLV/demand tables; lockstep over a churn script."""
        net = mesh_network(ROWS, COLS, 8.0)
        groups = mesh_conduit_groups(net, ROWS, COLS)
        script = _script(net, 40, seed=13)

        def run(batched):
            state = NetworkState(net)
            state.install_risk_groups(groups)
            policy = GroupAwareSparePolicy()
            outcomes = []
            with batching(batched):
                for op, pkt in script:
                    if op == "register":
                        result = register_backup_path(state, policy, pkt)
                        outcomes.append(
                            (result.success, tuple(result.resizes))
                        )
                    else:
                        outcomes.append(
                            tuple(release_backup_path(state, policy, pkt))
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

        assert run(True) == run(False)


class TestServiceLockstep:
    def test_admission_churn_fingerprints_match(self):
        """Full-service lockstep: admissions, releases and a fail /
        repair cycle produce the same decisions, counters and
        fingerprints in both modes (primary reservation and release
        ride the batched path here too)."""

        def run(batched):
            net = mesh_network(5, 5, 6.0)
            service = DRTPService(net, DLSRScheme())
            rng = random.Random(23)
            log = []
            live = []
            with batching(batched):
                for _ in range(80):
                    src, dst = rng.sample(range(net.num_nodes), 2)
                    decision = service.request(src, dst, 1.0)
                    log.append((decision.accepted, decision.reason))
                    if decision.connection is not None:
                        live.append(decision.connection.connection_id)
                    if live and rng.random() < 0.3:
                        service.release(live.pop(0))
                    log.append(service.state.fingerprint())
                impact = service.fail_link(0)
                log.append(
                    tuple(
                        (o.connection_id, o.success, o.reason)
                        for o in impact.outcomes
                    )
                )
                service.repair_link(0)
                log.append(service.state.fingerprint())
            return (
                log,
                service.counters.accepted,
                service.counters.rejected,
            )

        assert run(True) == run(False)


class TestFaultInterop:
    def test_crash_unwinds_batched_survivor_intact(self):
        """A per-hop crash/unwind cycle (the fault path never batches)
        must coexist with registrations committed by the batched path:
        the survivor's state is untouched and the crashed walk leaves
        the fingerprint where it started."""
        net = mesh_network(3, 3, 10.0)
        state = NetworkState(net)
        policy = SharedSparePolicy()
        survivor = BackupRegisterPacket(
            connection_id=1,
            backup_route=Route.from_nodes(net, [0, 3, 4, 5, 2]),
            primary_lset=Route.from_nodes(net, [0, 1, 2]).lset,
            bw_req=1.0,
        )
        with batching(True):
            result = register_backup_path(state, policy, survivor)
            assert result.success
            with_survivor = (state.fingerprint(), _versions(state))
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
            assert state.fingerprint() == with_survivor[0]
            for link_id in survivor.backup_route.link_ids:
                assert state.ledger(link_id).has_backup(1)
            # And the batched release still tears the survivor down to
            # the pristine fingerprint.
            pristine_state = NetworkState(net)
            release_backup_path(state, policy, survivor)
            assert state.fingerprint() == pristine_state.fingerprint()

    def test_mid_walk_fault_then_batched_retry_equivalence(self):
        """A drop mid-walk (per-hop unwind) followed by a clean retry
        lands on the same fingerprint whether the clean walks around it
        committed batched or per-hop."""

        def run(batched):
            net = mesh_network(3, 3, 10.0)
            state = NetworkState(net)
            policy = SharedSparePolicy()
            with batching(batched):
                first = BackupRegisterPacket(
                    connection_id=1,
                    backup_route=Route.from_nodes(net, [0, 1, 4, 7]),
                    primary_lset=frozenset([0]),
                    bw_req=1.0,
                )
                assert register_backup_path(state, policy, first).success
                faulty = BackupRegisterPacket(
                    connection_id=2,
                    backup_route=Route.from_nodes(net, [0, 3, 4, 5, 2]),
                    primary_lset=frozenset([1]),
                    bw_req=1.0,
                )
                injector = ScriptedInjector(
                    hop_events=[(None, 0.0), (None, 0.0), ("drop", 0.0)]
                )
                dropped = register_backup_path(
                    state, policy, faulty, injector, retry_policy=None
                )
                assert not dropped.success and dropped.drops == 1
                # Clean (fault-free) retry takes the batched path again.
                retry = register_backup_path(state, policy, faulty)
                assert retry.success
            return state.fingerprint(), _versions(state)

        assert run(True) == run(False)
