"""The fused commit vs. the hop-by-hop one: machine slices, and what no
rule can reach.

The oracle's shadow commits through
:class:`~repro.testing.commit.HopByHopController`, so the service
machine diffs every walk of :mod:`repro.kernels.apply` — results,
fault accounting (twin injectors drawn one for one), fingerprints —
after every rule.  Slices here: a seeded walk, and the machine's aimed
rules at every hop of a five-hop backup — a drop, a crash or a
duplicate-then-crash scripted into the register walk, free bandwidth
left short where an activation crosses.  Twin states under the two
controllers keep what the machine cannot draw: non-dyadic bandwidths,
which the oracle turns away, on links too wide to reject; a rejection
at a chosen hop, which the planner never routes into; and broken
preconditions — an error, and nothing moved.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BackupRegisterPacket, signaling
from repro.core.admission import AdmissionController
from repro.core.errors import RecoveryError
from repro.faults import FaultInjector, FaultPlan
from repro.faults.plan import SignalingFaults
from repro.kernels import apply
from repro.network import NetworkState, ResourceError
from repro.testing.commit import HopByHopController
from repro.topology import Route, mesh_conduit_groups, mesh_network

from .scripted import FAULT_KINDS, ScriptedInjector
from .test_service_machine import (
    POLICIES,
    RETRY,
    Config,
    ServiceMachine,
    drive,
    versions,
)

ROWS = COLS = 4
#: A 4x4 mesh whose links no 30-step script can fill.
NET = mesh_network(ROWS, COLS, 64.0)
GROUPS = mesh_conduit_groups(NET, ROWS, COLS)
LOSSY = FaultPlan(
    signaling=SignalingFaults(
        drop_prob=0.12, duplicate_prob=0.1, crash_prob=0.25,
        delay_prob=0.4, delay_min=0.01, delay_max=0.3,
    )
)


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


def result_fields(result):
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


class Twins:
    """One state per spelling, each committed by its controller, driven
    in lockstep; equal results, fingerprints, group tables and ledger
    versions (the compiled cost caches key on them) after every step —
    valid while no walk is rejected: the reference registers and
    undoes, the fused walk touches nothing."""

    def __init__(self, policy="shared", srlg=False, seed=0, network=NET):
        self.states = (NetworkState(network), NetworkState(network))
        policy = POLICIES[policy]()
        self.fused, self.reference = (
            controller(state, policy) for controller, state in
            zip((AdmissionController, HopByHopController), self.states)
        )
        for state in self.states:
            if srlg:
                state.install_risk_groups(GROUPS)
        self.injectors = (FaultInjector(LOSSY, seed), FaultInjector(LOSSY, seed))
        self.registered = []
        self.primaries = []

    def check(self):
        fused, reference = (
            [(state.fingerprint(), versions(state))] + [
                (ledger.group_aplv_l1(), ledger.group_support(),
                 ledger.max_group_demand) for ledger in state.ledgers()
            ] for state in self.states
        )
        assert fused == reference
        for state in self.states:
            state.check_invariants()

    def register(self, packet, fault=None, retry=None):
        injectors = self.injectors if fault == "seeded" else (
            (ScriptedInjector(*fault), ScriptedInjector(*fault))
            if fault else (None, None)
        )
        fused = self.fused.reregister(packet, injectors[0], retry)
        reference = self.reference.reregister(packet, injectors[1], retry)
        assert result_fields(fused) == result_fields(reference)
        assert _streams(self.injectors[0]) == _streams(self.injectors[1])
        if fused.success:
            self.registered.append(packet)
        self.check()
        return fused

    def both(self, method, *args):
        fused = getattr(self.fused, method)(*args)
        assert fused == getattr(self.reference, method)(*args)
        self.check()
        return fused



mixed_bandwidths = st.sampled_from((0.1, 0.2, 0.3, 0.5, 1.0))
routes = st.integers(min_value=0, max_value=len(ROUTES) - 1)
picks = st.integers(min_value=0, max_value=63)
faults = st.one_of(
    st.none(),
    st.just("seeded"),
    st.tuples(
        st.lists(st.tuples(st.sampled_from((None, "drop", "duplicate")),
                           st.just(0.125)), max_size=6),
        st.lists(st.one_of(st.none(), st.integers(0, 6)), max_size=2),
    ),
)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("register"), routes, routes, mixed_bandwidths,
                  faults, st.sampled_from((None, RETRY))),
        st.tuples(st.just("reserve"), routes, mixed_bandwidths),
        st.tuples(st.sampled_from(
            ("release", "unwind", "unreserve", "activate")), picks),
    ),
    min_size=1, max_size=30,
)


@pytest.mark.oracle
@pytest.mark.parametrize("srlg", (False, True), ids=("links", "srlg"))
@pytest.mark.parametrize("policy", sorted(POLICIES))
@given(script=operations, seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=30, deadline=None)
def test_fused_commit_equals_hop_by_hop_mixed_bandwidths(
    policy, srlg, script, seed
):
    """Non-dyadic sums tie and drift (0.1 + 0.2 != 0.3): the walks
    still match the reference bit for bit — faulted, retried, unwound
    and activated — and every running maximum's peak holders match a
    recount."""
    twins = Twins(policy, srlg, seed)
    for step, (kind, *args) in enumerate(script):
        if kind == "register":
            backup, primary, bw, fault, retry = args
            twins.register(BackupRegisterPacket(
                step, ROUTES[backup], ROUTES[primary].lset, bw
            ), fault, retry)
        elif kind == "reserve":
            if twins.both("reserve", ROUTES[args[0]].link_ids, args[1]):
                twins.primaries.append((ROUTES[args[0]], args[1]))
        elif kind == "unreserve" and twins.primaries:
            route, bw = twins.primaries.pop(args[0] % len(twins.primaries))
            twins.both("unreserve", route.link_ids, bw)
        elif twins.registered:
            packet = twins.registered.pop(args[0] % len(twins.registered))
            if kind == "release":
                twins.both("drop", packet.registration_key,
                           packet.backup_route.link_ids)
            elif kind == "activate":
                # Free bandwidth alone covers it on these links.
                twins.both("activate", packet.registration_key,
                           packet.backup_route.link_ids, packet.bw_req)
                twins.primaries.append((packet.backup_route, packet.bw_req))
            else:
                # The source's unwind also tears down a complete
                # registration, and a second one finds nothing.
                for released in (len(packet.backup_route.link_ids), 0):
                    assert signaling.unwind_backup_path(
                        twins.states[0], twins.fused.spare_policy, packet
                    ) == released == twins.reference.unwind(packet)
                twins.check()


# ----------------------------------------------------------------------
# Slices of the machine
# ----------------------------------------------------------------------
@pytest.mark.oracle
@pytest.mark.parametrize("srlg", (False, True), ids=("links", "srlg"))
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_fused_commit_equals_hop_by_hop(policy, srlg):
    """Slice: two backups per connection over lossy, retried signaling
    under each spare policy on a 5x4 mesh; failures activate backups and
    re-protection walks register new ones."""
    machine = drive(
        Config(policy=policy, srlg=srlg, backups=2, faulted=True,
               retry=True, rows=5, cols=4),
        60, seed=11, preload=20,
    )
    counters = machine.service.counters
    assert counters.signaling_retries and counters.recovery_outcomes
    machine.teardown()


# ----------------------------------------------------------------------
# Broken preconditions: an error, and nothing moved
# ----------------------------------------------------------------------
ROUTE = Route.from_nodes(NET, [0, 1, 2, 3, 7, 11])
LSET = Route.from_nodes(NET, [0, 4, 8, 9, 10, 11]).lset
#: ``ROUTE`` and one more hop.
LONGER = ROUTE.link_ids + Route.from_nodes(NET, [11, 15]).link_ids


HOPS = len(ROUTE.link_ids)
#: The 4x4 mesh with links two units wide, where one primary starves a hop.
NARROW = mesh_network(ROWS, COLS, 2.0)


def _packet(connection_id, bw=1.0):
    return BackupRegisterPacket(connection_id, ROUTE, LSET, bw)


# ----------------------------------------------------------------------
# The machine's aimed rules at every hop of a five-hop backup
# ----------------------------------------------------------------------
#: The request pick of the pair 0 -> 11 on the 4x4 mesh: five hops
#: apart, so every route between them has at least ``HOPS`` hops.
TO_11 = 160


def aimed_machine(**fields):
    """A machine on the 4x4 mesh two units wide, connection 0 -> 11
    standing."""
    machine = ServiceMachine()
    machine.configure(Config(capacity=2.0, **fields), [(TO_11, False)])
    return machine


@pytest.mark.oracle
@pytest.mark.parametrize("retry", (False, True), ids=("single", "retry"))
@pytest.mark.parametrize("hop", range(HOPS))
@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_fault_at_every_hop(kind, hop, retry):
    """Slice: a second request 0 -> 11 whose walk the fault strikes at
    hop ``hop`` — unwound, then given up or retried to success."""
    machine = aimed_machine(srlg=True)
    counters = machine.service.counters
    machine.request_under_fault(kind, hop, retry, TO_11)
    assert counters.signaling_drops + counters.signaling_crashes == 1
    machine.teardown()


@pytest.mark.oracle
@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("hop", range(HOPS))
def test_activation_draws_on_spare(policy, hop):
    """Slice: free bandwidth half a request short at hop ``hop`` of the
    connection's backup when its primary fails: it activates, the spare
    paying the shortfall there."""
    machine = aimed_machine(policy=policy)
    (conn,) = machine.service.connections()
    impact = machine.short_activation(conn, hop, 0)
    assert [o.success for o in impact.outcomes] == [True]
    machine.teardown()


# ----------------------------------------------------------------------
# A rejection aimed at one hop: the planner routes a backup only over
# hops that carry it, so no rule can
# ----------------------------------------------------------------------
@pytest.mark.oracle
@pytest.mark.parametrize("hop", range(HOPS))
def test_rejection_under_faults(hop):
    """A starved hop rejects mid-walk while the injector duplicates a
    delivery upstream and has a crash planned downstream: the crash is
    never reached, the registered prefix is released again, nothing
    retries.  The reference registers and undoes, so only contents,
    not versions, are compared."""
    twins = Twins(network=NARROW)
    twins.both("reserve", ROUTE.link_ids[hop:hop + 1], 1.5)
    before = twins.states[0].fingerprint()
    events = [("duplicate", 0.25)] + [(None, 0.0)] * HOPS
    fused, reference = (
        controller.reregister(
            _packet(3), ScriptedInjector(events, [HOPS - 1]), RETRY
        ) for controller in (twins.fused, twins.reference)
    )
    assert result_fields(fused) == result_fields(reference)
    assert not fused.success and not fused.gave_up and fused.attempts == 1
    assert fused.rejected_link == ROUTE.link_ids[hop]
    assert fused.hops_signaled == hop + 2 and fused.crashes == 0
    assert fused.resizes == []
    assert [state.fingerprint() for state in twins.states] == [before] * 2
    for state in twins.states:
        state.check_invariants()


def _loaded_state():
    state = NetworkState(NARROW)
    controller = AdmissionController(state, POLICIES["shared"]())
    assert controller.register(_packet(1)).success
    assert controller.reserve(ROUTE.link_ids, 1.0)
    return state, controller.spare_policy


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
        apply.batch_release_walk(state, policy, 1, LONGER)),
    "primary over-release": lambda state, policy: (
        apply.batch_release_primary(state, policy, LONGER, 1.0)),
    "activation of an unregistered hop": lambda state, policy: (
        apply.batch_activate_walk(state, policy, 1, LONGER, 0.5)),
}


def _untouched(state, call, error=ResourceError):
    """``call()`` raises ``error`` and leaves fingerprint, versions and
    change notifications alone."""
    before = (state.fingerprint(), versions(state))
    changed = []
    state.subscribe(changed.append)
    with pytest.raises(error):
        call()
    assert (state.fingerprint(), versions(state)) == before
    assert changed == []
    state.check_invariants()


@pytest.mark.parametrize("kind", sorted(BROKEN))
def test_precondition_error_mutates_nothing(kind):
    state, policy = _loaded_state()
    _untouched(state, lambda: BROKEN[kind](state, policy))


@pytest.mark.parametrize("hop", range(1, HOPS))
def test_activation_spare_miss_mutates_nothing(hop):
    """The regression: a spare pool that cannot cover an activation's
    shortfall at hop *k* used to raise with the hops before *k*
    already promoted.  The walk raises before its first mutation; the
    hop-by-hop spelling still strands the prefix, the failing hop's
    released registration included."""
    twins = Twins()
    twins.register(_packet(1))
    for state in twins.states:
        ledger = state.ledger(ROUTE.link_ids[hop])
        ledger.set_spare(0.5)
        ledger.reserve_primary(63.5)  # no free bandwidth left
    _untouched(twins.states[0], lambda: twins.fused.activate(
        1, ROUTE.link_ids, 1.0), RecoveryError)
    with pytest.raises(RecoveryError):
        twins.reference.activate(1, ROUTE.link_ids, 1.0)
    assert [
        twins.states[1].ledger(b).has_backup(1) for b in ROUTE.link_ids
    ] == [False] * (hop + 1) + [True] * (HOPS - hop - 1)


def test_aplv_underflow_on_release_is_an_error():
    """A registry entry whose LSET position the demand map no longer
    holds (corrupt state) must not be decremented below zero: the walk
    raises on the last hop before the first hop is touched."""
    state, policy = _loaded_state()
    del state.ledger(ROUTE.link_ids[-1])._demand[next(iter(LSET))]
    before = versions(state)
    with pytest.raises(ResourceError, match="not present in APLV"):
        apply.batch_release_walk(state, policy, 1, ROUTE.link_ids)
    assert versions(state) == before
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
