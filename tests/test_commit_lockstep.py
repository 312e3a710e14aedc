"""The fused commit vs the hop-by-hop reference — function-level lockstep.

Production mutates ledgers along a route only through the four walks
of :mod:`repro.kernels.apply` (and, for the register walk, the
prefix replay in :mod:`repro.core.signaling`); the spelling they
replaced — one public ``LinkLedger`` mutator per hop, the injector
consulted *while* mutating — lives on in :mod:`repro.testing.commit`.
These tests run random scripts of register / release / reserve-primary
/ release-primary / unwind / activate on twin ``NetworkState``s, one
per spelling, and demand after every step: equal results (every
``RegistrationResult`` field, resize lists, booleans), equal
fingerprints and group tables, clean invariants, and — with two
identically seeded ``FaultInjector``s — equal stream positions, i.e.
the draws were consumed one for one.

Bandwidths are dyadic so the reference's register/unwind cycle on a
rejection is exact in floating point (the fused rejection mutates
nothing at all).  Mixed bandwidths — non-dyadic ones, whose sums drift
and near-tie — run on links wide enough that nothing is ever rejected.
The twins are only comparable on valid inputs; what a broken
precondition does is pinned at the bottom: a ``ResourceError`` (an
activation's missing spare a ``RecoveryError``) and an untouched
state.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BackupRegisterPacket,
    BackupReleasePacket,
    DedicatedSparePolicy,
    SharedSparePolicy,
)
from repro.core import signaling
from repro.core.errors import RecoveryError
from repro.core.multiplexing import GroupAwareSparePolicy
from repro.faults import FaultInjector, FaultPlan, RetryPolicy
from repro.faults.plan import SignalingFaults
from repro.kernels import apply
from repro.network import NetworkState, ResourceError
from repro.testing import commit
from repro.topology import Route, mesh_conduit_groups, mesh_network

from .scripted import ScriptedInjector

ROWS = COLS = 4
NET = mesh_network(ROWS, COLS, 2.0)
#: The same mesh with links no 30-step script can fill.
WIDE_NET = mesh_network(ROWS, COLS, 64.0)
GROUPS = mesh_conduit_groups(NET, ROWS, COLS)
POLICIES = {
    "shared": SharedSparePolicy,
    "dedicated": DedicatedSparePolicy,
    "group-aware": GroupAwareSparePolicy,
}
LOSSY = FaultPlan(
    signaling=SignalingFaults(
        drop_prob=0.12, duplicate_prob=0.1, crash_prob=0.25,
        delay_prob=0.4, delay_min=0.01, delay_max=0.3,
    )
)
RETRY = RetryPolicy(max_attempts=3)


def _route_pool(count, rng):
    routes = []
    while len(routes) < count:
        path = [rng.randrange(NET.num_nodes)]
        for _ in range(rng.randint(1, 6)):
            steps = [n for n in NET.neighbors(path[-1]) if n not in path]
            if not steps:
                break
            path.append(rng.choice(steps))
        if len(path) >= 2:
            routes.append(Route.from_nodes(NET, path))
    return routes


ROUTES = _route_pool(48, random.Random(15))


def scripted(kind, hop):
    """The fault shapes the issue names, each aimed at hop ``hop``."""
    clean = [(None, 0.0)] * hop
    if kind == "drop":
        return ScriptedInjector(hop_events=clean + [("drop", 0.125)])
    if kind == "crash":
        return ScriptedInjector(crash_script=[hop])
    assert kind == "duplicate-then-crash"
    return ScriptedInjector(
        hop_events=clean + [("duplicate", 0.0)], crash_script=[hop]
    )


def _result_fields(result):
    return (
        result.success, result.rejected_link, result.hops_signaled,
        result.attempts, result.drops, result.duplicates, result.crashes,
        result.delay, result.gave_up, tuple(result.resizes),
    )


def _streams(injector):
    return tuple(
        rng.getstate()
        for rng in (injector._hop_rng, injector._crash_rng, injector.retry_rng)
    )


def _versions(state):
    return [ledger.version for ledger in state.ledgers()]


def _group_tables(state):
    return [
        (ledger.group_aplv_l1(), ledger.group_support(), ledger.max_group_demand)
        for ledger in state.ledgers()
    ]


class Twins:
    """One state per spelling, driven in lockstep."""

    def __init__(self, policy, srlg, seed=0, network=NET):
        self.fused = NetworkState(network)
        self.reference = NetworkState(network)
        if srlg:
            self.fused.install_risk_groups(GROUPS)
            self.reference.install_risk_groups(GROUPS)
        self.policy = POLICIES[policy]()
        self.injectors = (FaultInjector(LOSSY, seed), FaultInjector(LOSSY, seed))
        self.registered = []
        self.primaries = []
        self._seen = self._ledger_view()

    def _ledger_view(self):
        return [(l.fingerprint(), l.version) for l in self.fused.ledgers()]

    def check(self):
        assert self.fused.fingerprint() == self.reference.fingerprint()
        assert _group_tables(self.fused) == _group_tables(self.reference)
        self.fused.check_invariants()
        self.reference.check_invariants()
        # The kernel caches key on ledger versions: a ledger whose
        # contents moved must have bumped its counter.
        now = self._ledger_view()
        for (was, was_version), (is_, version) in zip(self._seen, now):
            assert was == is_ or version != was_version
        self._seen = now

    def register(self, packet, fault=None, retry=None):
        if fault is None:
            injectors = (None, None)
        elif fault == "seeded":
            injectors = self.injectors
        else:
            injectors = (scripted(*fault), scripted(*fault))
        fused = signaling.register_backup_path(
            self.fused, self.policy, packet, injectors[0], retry
        )
        reference = commit.register_backup_path(
            self.reference, self.policy, packet, injectors[1], retry
        )
        assert _result_fields(fused) == _result_fields(reference)
        assert _streams(self.injectors[0]) == _streams(self.injectors[1])
        if fused.success:
            self.registered.append(packet)
        self.check()
        return fused

    def release(self, index):
        packet = self.registered.pop(index % len(self.registered))
        fused = signaling.release_backup_path(
            self.fused,
            self.policy,
            BackupReleasePacket(
                packet.connection_id, packet.backup_route, packet.primary_lset
            ),
        )
        assert fused == commit.release_walk(
            self.reference, self.policy, packet.registration_key,
            packet.backup_route.link_ids,
        )
        self.check()

    def unwind(self, packet):
        released = signaling.unwind_backup_path(self.fused, self.policy, packet)
        assert released == commit.unwind(self.reference, self.policy, packet)
        self.check()
        return released

    def reserve(self, route, bw):
        fused = apply.batch_reserve_primary(self.fused, route.link_ids, bw)
        assert fused is commit.reserve_primary(
            self.reference, route.link_ids, bw
        )
        if fused:
            self.primaries.append((route, bw))
        self.check()
        return fused

    def release_primary(self, index):
        route, bw = self.primaries.pop(index % len(self.primaries))
        assert apply.batch_release_primary(
            self.fused, self.policy, route.link_ids, bw
        ) is True
        commit.release_primary(self.reference, self.policy, route.link_ids, bw)
        self.check()

    def activate(self, index):
        """Switch a registered backup to primary.  A walk whose spare
        falls short raises before mutating anything, so the reference
        — which would strand a prefix — only runs when it succeeds."""
        packet = self.registered.pop(index % len(self.registered))
        route, bw = packet.backup_route, packet.bw_req
        before = self._ledger_view()
        versions = (_versions(self.fused), _versions(self.reference))
        try:
            apply.batch_activate_walk(
                self.fused, self.policy, packet.registration_key,
                route.link_ids, bw,
            )
        except RecoveryError:
            assert self._ledger_view() == before
            self.registered.append(packet)
            return False
        commit.activate(
            self.reference, self.policy, packet.registration_key,
            route.link_ids, bw,
        )
        # Every hop bumps its version exactly as the four mutators do.
        fused, reference = (
            [now - was for now, was in zip(_versions(state), old)]
            for state, old in zip((self.fused, self.reference), versions)
        )
        assert fused == reference
        self.primaries.append((route, bw))
        self.check()
        return True


routes = st.integers(min_value=0, max_value=len(ROUTES) - 1)
bandwidths = st.sampled_from((0.5, 0.75, 1.0, 2.0))
mixed_bandwidths = st.sampled_from((0.1, 0.2, 0.3, 0.5, 1.0))
picks = st.integers(min_value=0, max_value=63)
faults = st.one_of(
    st.none(),
    st.just("seeded"),
    st.tuples(
        st.sampled_from(("drop", "crash", "duplicate-then-crash")),
        st.integers(min_value=0, max_value=6),
    ),
)


def operations(bandwidths):
    return st.lists(
        st.one_of(
            st.tuples(
                st.just("register"), routes, routes, bandwidths, faults,
                st.sampled_from((None, RETRY)),
            ),
            st.tuples(st.just("reserve"), routes, bandwidths),
            st.tuples(st.just("release"), picks),
            st.tuples(st.just("unwind"), picks),
            st.tuples(st.just("release-primary"), picks),
            st.tuples(st.just("activate"), picks),
        ),
        min_size=1,
        max_size=30,
    )


@pytest.mark.oracle
@pytest.mark.parametrize("srlg", (False, True), ids=("links", "srlg"))
@pytest.mark.parametrize("policy", sorted(POLICIES))
@given(
    script=operations(bandwidths),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=60, deadline=None)
def test_fused_commit_equals_hop_by_hop(policy, srlg, script, seed):
    run_script(Twins(policy, srlg, seed), script)


@pytest.mark.oracle
@pytest.mark.parametrize("srlg", (False, True), ids=("links", "srlg"))
@pytest.mark.parametrize("policy", sorted(POLICIES))
@given(
    script=operations(mixed_bandwidths),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=30, deadline=None)
def test_fused_commit_equals_hop_by_hop_mixed_bandwidths(
    policy, srlg, script, seed
):
    """Non-dyadic sums tie and drift (0.1 + 0.2 != 0.3): the walks
    still match the reference bit for bit, and every running maximum's
    peak holders match a recount."""
    run_script(Twins(policy, srlg, seed, network=WIDE_NET), script)


def run_script(twins, script):
    for step, (kind, *args) in enumerate(script):
        if kind == "register":
            backup, primary, bw, fault, retry = args
            twins.register(
                BackupRegisterPacket(
                    connection_id=step,
                    backup_route=ROUTES[backup],
                    primary_lset=ROUTES[primary].lset,
                    bw_req=bw,
                ),
                fault,
                retry,
            )
        elif kind == "reserve":
            twins.reserve(ROUTES[args[0]], args[1])
        elif kind == "release" and twins.registered:
            twins.release(args[0])
        elif kind == "unwind" and twins.registered:
            # The source-initiated release also tears down a complete
            # registration, and a second one finds nothing.
            packet = twins.registered.pop(args[0] % len(twins.registered))
            assert twins.unwind(packet) == len(packet.backup_route.link_ids)
            assert twins.unwind(packet) == 0
        elif kind == "release-primary" and twins.primaries:
            twins.release_primary(args[0])
        elif kind == "activate" and twins.registered:
            twins.activate(args[0])


# ----------------------------------------------------------------------
# The named fault shapes, at every hop
# ----------------------------------------------------------------------
ROUTE = Route.from_nodes(NET, [0, 1, 2, 3, 7, 11])
HOPS = len(ROUTE.link_ids)


def _packet(connection_id, bw=1.0, route=ROUTE):
    return BackupRegisterPacket(
        connection_id=connection_id,
        backup_route=route,
        primary_lset=Route.from_nodes(NET, [0, 4, 8, 9, 10, 11]).lset,
        bw_req=bw,
    )


@pytest.mark.oracle
@pytest.mark.parametrize("retry", (None, RETRY), ids=("single", "retry"))
@pytest.mark.parametrize("hop", range(HOPS))
@pytest.mark.parametrize("kind", ("drop", "crash", "duplicate-then-crash"))
def test_fault_at_every_hop(kind, hop, retry):
    twins = Twins("shared", srlg=True)
    twins.register(_packet(1))
    loaded = twins.fused.fingerprint()
    result = twins.register(_packet(2), (kind, hop), retry)
    assert result.drops + result.crashes == 1
    if retry is None:
        assert result.gave_up and twins.fused.fingerprint() == loaded
    else:
        assert result.success and result.attempts == 2


@pytest.mark.oracle
@pytest.mark.parametrize("hop", range(HOPS))
def test_rejection_under_faults(hop):
    """A starved hop rejects mid-walk while the injector duplicates a
    delivery upstream and has a crash planned downstream: the crash is
    never reached, the registered prefix is released again, nothing
    retries."""
    twins = Twins("shared", srlg=False)
    assert twins.reserve(Route.from_nodes(NET, ROUTE.nodes[hop:hop + 2]), 1.5)
    before = twins.fused.fingerprint()
    events = [("duplicate", 0.25)] + [(None, 0.0)] * HOPS
    fused = signaling.register_backup_path(
        twins.fused, twins.policy, _packet(3),
        ScriptedInjector(events, [HOPS - 1]), RETRY,
    )
    reference = commit.register_backup_path(
        twins.reference, twins.policy, _packet(3),
        ScriptedInjector(events, [HOPS - 1]), RETRY,
    )
    assert _result_fields(fused) == _result_fields(reference)
    assert not fused.success and not fused.gave_up and fused.attempts == 1
    assert fused.rejected_link == ROUTE.link_ids[hop]
    assert fused.hops_signaled == hop + 2 and fused.crashes == 0
    assert fused.resizes == []
    twins.check()
    assert twins.fused.fingerprint() == before


# ----------------------------------------------------------------------
# Broken preconditions: an error, and nothing moved
# ----------------------------------------------------------------------
def _loaded_state():
    state = NetworkState(NET)
    policy = SharedSparePolicy()
    assert signaling.register_backup_path(state, policy, _packet(1)).success
    assert apply.batch_reserve_primary(state, ROUTE.link_ids, 1.0)
    return state, policy


LSET = _packet(0).primary_lset
#: ``kind -> call(state, policy)``; each breaks its precondition on the
#: *last* hop it can, so a hop-by-hop walk would have mutated a prefix.
BROKEN = {
    "non-positive bandwidth": lambda state, policy: (
        apply.batch_reserve_primary(state, ROUTE.link_ids, 0.0)),
    "unknown link id": lambda state, policy: (
        apply.batch_register_walk(
            state, policy, 9, ROUTE.link_ids + (NET.num_links,), LSET, 1.0)),
    "out-of-range LSET position": lambda state, policy: (
        apply.batch_register_walk(
            state, policy, 9, ROUTE.link_ids, LSET | {NET.num_links}, 1.0)),
    "key already registered": lambda state, policy: (
        apply.batch_register_walk(
            state, policy, 1,
            Route.from_nodes(NET, [8, 9, 10, 11, 7, 3]).link_ids[:3]
            + ROUTE.link_ids[-1:], LSET, 1.0)),
    "key not registered": lambda state, policy: (
        apply.batch_release_walk(
            state, policy, 1,
            ROUTE.link_ids + Route.from_nodes(NET, [11, 15]).link_ids)),
    "primary over-release": lambda state, policy: (
        apply.batch_release_primary(
            state, policy,
            ROUTE.link_ids + Route.from_nodes(NET, [11, 15]).link_ids, 1.0)),
    "activation of an unregistered hop": lambda state, policy: (
        apply.batch_activate_walk(
            state, policy, 1,
            ROUTE.link_ids + Route.from_nodes(NET, [11, 15]).link_ids, 0.5)),
}


@pytest.mark.parametrize("kind", sorted(BROKEN))
def test_precondition_error_mutates_nothing(kind):
    state, policy = _loaded_state()
    before = (state.fingerprint(), [l.version for l in state.ledgers()])
    changed = []
    state.subscribe(changed.append)
    with pytest.raises(ResourceError):
        BROKEN[kind](state, policy)
    assert (state.fingerprint(), [l.version for l in state.ledgers()]) == before
    assert changed == []
    state.check_invariants()


@pytest.mark.oracle
@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("hop", range(HOPS))
def test_activation_draws_on_spare(policy, hop):
    """Free bandwidth short at one hop: the spare pays the shortfall
    there, then the resize settles it for the backup that stays —
    equal to the reference, version bump for version bump."""
    twins = Twins(policy, srlg=False)
    twins.register(_packet(1))
    twins.register(BackupRegisterPacket(
        connection_id=2,
        backup_route=ROUTE,
        primary_lset=Route.from_nodes(NET, [12, 13, 14, 15]).lset,
        bw_req=0.25,
    ))
    link = ROUTE.link_ids[hop]
    assert twins.reserve(Route.from_nodes(NET, ROUTE.nodes[hop:hop + 2]), 0.5)
    ledger = twins.fused.ledger(link)
    assert ledger.free_bw < 1.0 <= ledger.free_bw + ledger.spare_bw
    assert twins.activate(0)
    assert ledger.prime_bw == 1.5 and ledger.spare_bw == 0.25
    assert not ledger.has_backup(1) and ledger.has_backup(2)


@pytest.mark.parametrize("hop", range(1, HOPS))
def test_activation_spare_miss_mutates_nothing(hop):
    """The regression: a spare pool that cannot cover an activation's
    shortfall at hop *k* used to raise with the hops before *k*
    already promoted.  The walk raises before its first mutation; the
    hop-by-hop spelling still strands the prefix, the failing hop's
    released registration included."""
    twins = Twins("shared", srlg=False)
    packet = _packet(1)
    twins.register(packet)
    for state in (twins.fused, twins.reference):
        ledger = state.ledger(ROUTE.link_ids[hop])
        ledger.set_spare(0.5)
        ledger.reserve_primary(1.5)  # no free bandwidth left
    before = (
        twins.fused.fingerprint(), [l.version for l in twins.fused.ledgers()]
    )
    changed = []
    twins.fused.subscribe(changed.append)
    with pytest.raises(RecoveryError):
        apply.batch_activate_walk(
            twins.fused, twins.policy, packet.registration_key,
            ROUTE.link_ids, 1.0,
        )
    assert (
        twins.fused.fingerprint(), [l.version for l in twins.fused.ledgers()]
    ) == before
    assert changed == []
    assert all(twins.fused.ledger(b).has_backup(1) for b in ROUTE.link_ids)
    with pytest.raises(RecoveryError):
        commit.activate(
            twins.reference, twins.policy, packet.registration_key,
            ROUTE.link_ids, 1.0,
        )
    assert [
        twins.reference.ledger(b).has_backup(1) for b in ROUTE.link_ids
    ] == [False] * (hop + 1) + [True] * (HOPS - hop - 1)


def test_aplv_underflow_on_release_is_an_error():
    """A registry entry whose LSET the APLV no longer counts (corrupt
    state) must not be decremented below zero."""
    state, policy = _loaded_state()
    ledger = state.ledger(ROUTE.link_ids[-1])
    position = next(iter(LSET))
    del ledger.aplv._counts[position]
    before = [l.version for l in state.ledgers()]
    with pytest.raises(ResourceError):
        apply.batch_release_walk(state, policy, 1, ROUTE.link_ids)
    assert [l.version for l in state.ledgers()] == before
    assert all(state.ledger(b).has_backup(1) for b in ROUTE.link_ids)


@pytest.mark.parametrize(
    "injector",
    (None, ScriptedInjector(crash_script=[HOPS - 1])),
    ids=("fault-free", "injector"),
)
def test_pre_registered_key_raises_with_or_without_injector(injector):
    """The regression: under an injector the walk used to absorb a hop
    that already held the key (no headroom test, ``success=True``) and
    a later fault's unwind then released the *earlier* walk's
    registration.  Both paths raise, before mutating."""
    state, policy = _loaded_state()
    before = state.fingerprint()
    with pytest.raises(ResourceError):
        signaling.register_backup_path(
            state, policy, _packet(1), injector, RETRY
        )
    assert state.fingerprint() == before
    assert all(state.ledger(b).has_backup(1) for b in ROUTE.link_ids)
