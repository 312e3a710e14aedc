"""One state machine over the DR-connection lifecycle.

:class:`ServiceMachine`'s rules are the only place a test writes a
service operation.  The system under test is the production
``DRTPService`` wrapped in :class:`~repro.testing.DifferentialOracle`,
so every rule is diffed against the naive shadow, whose every ledger
walk is committed hop by hop; a faulted configuration gives the shadow
a twin injector.  Two rules aim where seeded injectors cannot:
``arm_fault`` scripts a drop, a crash or a duplicate-then-crash at one
hop of a request's register walk in both worlds, and ``aim_shortfall``
leaves free bandwidth short at one hop of a backup that a failure then
activates.  Hypothesis explores the machine here and through the entry
points of other suites; :func:`drive` runs the same rules as a seeded
random walk — the slices other suites take of the machine — and
:func:`walk` records a long campaign's totals as well.
"""

import json
import random
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple, Optional, Tuple

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine
from hypothesis.stateful import initialize, invariant, rule

from repro.core import DRTPService, recovery
from repro.core.admission import REASON_BACKUP_REGISTRATION
from repro.core.errors import ConnectionStateError
from repro.core.multiplexing import (
    DedicatedSparePolicy,
    GroupAwareSparePolicy,
    SharedSparePolicy,
)
from repro.experiments import make_scheme
from repro.faults import FaultInjector, FaultPlan, RetryPolicy
from repro.network.state import BW_EPSILON, NetworkState
from repro.routing import NoBackupScheme, ReactiveScheme
from repro.testing import DifferentialOracle, reference_assess_failed_links
from repro.topology import (
    mesh_conduit_groups,
    mesh_network,
    proximity_groups,
    waxman_network,
)

from .scripted import FAULT_KINDS, AimedInjector

pytestmark = pytest.mark.oracle

RESULTS_PATH = (
    Path(__file__).parent.parent
    / "benchmarks" / "results" / "oracle_differential.json"
)

#: Primary-only baselines: a service under them admits on the primary.
PRIMARY_ONLY = {"no-backup": NoBackupScheme, "reactive": ReactiveScheme}
SCHEMES = ("P-LSR", "D-LSR", "disjoint", "BF") + tuple(PRIMARY_ONLY)
POLICIES = {"shared": SharedSparePolicy, "dedicated": DedicatedSparePolicy,
            "group-aware": GroupAwareSparePolicy}

#: No new failure while more links than this are down.
MAX_DOWN = 8
#: The largest regional cut ``fail_link_set`` draws.
MAX_CUT = 8
#: ``arm_fault`` and ``aim_shortfall`` aim at a hop below this, modulo
#: the route's length.
MAX_HOP = 8
#: Retransmission of a faulted register walk: three attempts.
RETRY = RetryPolicy(max_attempts=3)
#: The signaling tallies ``arm_fault`` reads, as one tuple.
SIGNALING_TALLIES = attrgetter(*(
    "signaling_" + name
    for name in ("walks", "drops", "duplicates", "crashes", "retries",
                 "gave_up")
))


class Config(NamedTuple):
    """One run's configuration, drawn once."""

    scheme: str = "D-LSR"
    policy: str = "shared"
    srlg: bool = False
    qos_slack: Optional[int] = None
    backups: int = 1
    faulted: bool = False
    #: Retransmit faulted register walks (up to three attempts).
    retry: bool = False
    rows: int = 4
    cols: int = 4
    capacity: float = 6.0
    #: ``(nodes, seed)`` of a Waxman network to run on instead of the
    #: mesh; its risk groups are the proximity conduits.
    waxman: Optional[Tuple[int, int]] = None

    @property
    def key(self) -> str:
        """Results-file key: scheme, network, backups, SRLG, QoS slack
        and, when set, the fault injection."""
        network = (
            "waxman{}/{}".format(*self.waxman) if self.waxman
            else "{0.rows}x{0.cols}".format(self)
        )
        key = (
            "{0.scheme} {1} backups={0.backups} srlg={0.srlg} "
            "qos_slack={0.qos_slack}".format(self, network)
        )
        if self.faulted:
            key += " faulted retry={}".format(self.retry)
        return key


configs = st.builds(
    Config,
    scheme=st.sampled_from(SCHEMES),
    policy=st.sampled_from(sorted(POLICIES)),
    srlg=st.booleans(),
    qos_slack=st.sampled_from((None, 1)),
    backups=st.sampled_from((1, 2)),
    faulted=st.booleans(),
    retry=st.booleans(),
    rows=st.just(4), cols=st.just(4), capacity=st.just(6.0),
    waxman=st.sampled_from((None, (16, 42))),
)

#: Every rule takes ``pick`` — a node, link, group or connection,
#: reduced modulo the population — and ``flag``, a binary option.
picks = st.integers(min_value=0, max_value=(1 << 16) - 1)
#: Admissions made before the first rule, so that every run starts
#: loaded: failures contend for spare and releases meet capped spare.
preloads = st.lists(st.tuples(picks, st.booleans()), min_size=20, max_size=40)


def versions(state):
    """Every ledger's version counter, in link order."""
    return [ledger.version for ledger in state.ledgers()]


def build(config: Config):
    """``(service, driver)``: the production service and the oracle
    wrapping it."""
    if config.waxman:
        nodes, seed = config.waxman
        network = waxman_network(
            nodes, config.capacity, rng=random.Random(seed)
        )
        groups = proximity_groups(network)
    else:
        network = mesh_network(config.rows, config.cols, config.capacity)
        groups = mesh_conduit_groups(network, config.rows, config.cols)
    if config.scheme in PRIMARY_ONLY:
        scheme = PRIMARY_ONLY[config.scheme]()
    else:
        scheme = make_scheme(config.scheme)
        scheme.num_backups = config.backups
    service = DRTPService(
        network, scheme,
        spare_policy=POLICIES[config.policy](),
        qos_slack=config.qos_slack,
        fault_injector=(
            FaultInjector(FaultPlan.everything(4.0), seed=1)
            if config.faulted else None
        ),
        retry_policy=RETRY if config.retry else None,
        risk_groups=groups if config.srlg else None,
    )
    # The per-link database sweep costs O(links) per operation: only
    # the small networks afford it, and only fault-free — a faulted run
    # is there for the commit under faults, which the fingerprint and
    # tally diffs cover, and the sweep would double its cost.
    return service, DifferentialOracle(
        service,
        check_database=network.num_nodes <= 16 and not config.faulted,
    )


class ServiceMachine(RuleBasedStateMachine):
    """The DRTP lifecycle as rules over one oracle-wrapped service;
    ``fixed`` pins configuration fields over the drawn ones."""

    def __init__(self, **fixed):
        super().__init__()
        self.fixed = fixed
        self.service = None

    @initialize(config=configs, preload=preloads)
    def configure(self, config, preload=()):
        self.config = config._replace(**self.fixed)
        self.service, self.driver = build(self.config)
        self.network = self.service.network
        self.state = self.service.state
        for pick, flag in preload:
            self.request(pick, flag)

    def endpoints(self, pick):
        """The ``(source, destination)`` pair ``pick`` names."""
        nodes = self.network.num_nodes
        source = pick % nodes
        return source, (source + 1 + pick // nodes % (nodes - 1)) % nodes

    @rule(pick=picks, flag=st.booleans())
    def request(self, pick, flag):
        self.driver.request(*self.endpoints(pick), 2.0 if flag else 1.0)

    @rule(pick=picks, flag=st.booleans())
    def release(self, pick, flag):
        live = [conn.connection_id for conn in self.service.connections()]
        if live:
            self.driver.release(live[pick % len(live)])

    @rule(pick=picks, flag=st.booleans())
    def reestablish(self, pick, flag):
        bare = self.service.unprotected_ids()
        if bare:
            self.driver.reestablish_backup(bare[pick % len(bare)])

    @rule(pick=picks, flag=st.booleans())
    def refresh_database(self, pick, flag):
        self.driver.refresh_database()

    def starved_only_on_capped_links(self, outcomes, failed):
        """Section 5's promise for one link failing: spare sized to
        ``SC_i >= max_j a_{i,j}`` covers every backup a single failure
        activates, so a backup can starve only where spare could not
        grow to its policy's target.  Every ``SPARE_EXHAUSTED`` outcome
        has, on each of its backups that avoids the failed link, a
        capped link (``spare_bw < target``)."""
        policy = self.service.spare_policy
        for outcome in outcomes:
            if outcome.reason != recovery.SPARE_EXHAUSTED:
                continue
            conn = self.service.connection(outcome.connection_id)
            for channel in conn.all_backups:
                if channel.route.lset & failed:
                    continue
                assert any(
                    ledger.spare_bw < policy.target(ledger)
                    for ledger in map(self.state.ledger,
                                      channel.route.link_ids)
                ), (outcome, channel.route.link_ids)

    def _fail(self, failed, apply, node=None):
        """Apply one failure of the links ``failed`` (those of switch
        ``node``, when it names one): its outcomes are the reference
        race's full-table assessment taken just before — same victims
        in the same order, same reasons, same backups, the connections
        ending at a dead switch included — and no surviving backup
        crosses a dead link.  The assessment never double-spends: the
        backups it activates over a link fit in the spare that link
        holds; and a single link starves backups only on capped
        links."""
        if len(self.state.failed_links()) > MAX_DOWN:
            return
        expected = reference_assess_failed_links(
            self.state, list(self.service.connections()), failed,
            dead_node=node,
        ).outcomes
        if len(failed) == 1 and node is None:
            self.starved_only_on_capped_links(expected, failed)
        claimed = {}
        for outcome in expected:
            if outcome.success:
                conn = self.service.connection(outcome.connection_id)
                backup = conn.all_backups[outcome.backup_index]
                for link_id in backup.route.link_ids:
                    claimed[link_id] = claimed.get(link_id, 0.0) + conn.bw_req
        for link_id, bw in claimed.items():
            assert bw <= self.state.ledger(link_id).spare_bw + BW_EPSILON
        impact = apply()
        assert impact.outcomes == expected
        for conn in self.service.connections():
            for channel in conn.all_backups:
                assert not channel.route.lset & failed
        return impact

    @rule(pick=picks, flag=st.booleans())
    def fail_link(self, pick, flag):
        link_id = pick % self.network.num_links
        if not self.state.is_link_failed(link_id):
            self._fail(
                frozenset({link_id}),
                lambda: self.driver.fail_link(link_id, reconfigure=flag),
            )

    @rule(pick=picks, flag=st.booleans())
    def fail_group(self, pick, flag):
        groups = self.service.risk_groups
        if groups is not None:
            group_id = pick % groups.num_groups
            self._fail(
                groups.members(group_id),
                lambda: self.driver.fail_group(group_id, reconfigure=flag),
            )

    @rule(pick=picks, flag=st.booleans())
    def fail_link_set(self, pick, flag):
        """A regional cut of up to ``MAX_CUT`` links, drawn uniformly
        with ``pick`` as the seed, in one activation round."""
        failed = frozenset(random.Random(pick).sample(
            range(self.network.num_links), 1 + pick % MAX_CUT
        ))
        self._fail(
            failed, lambda: self.driver.fail_link_set(failed, reconfigure=flag)
        )

    @rule(pick=picks, flag=st.booleans())
    def fail_node(self, pick, flag):
        node = pick % self.network.num_nodes
        self._fail(
            recovery.incident_link_ids(self.network, node),
            lambda: self.driver.fail_node(node, reconfigure=flag),
            node=node,
        )

    @rule(pick=picks, flag=st.booleans())
    def repair_link(self, pick, flag):
        down = sorted(self.state.failed_links())
        if down:
            self.driver.repair_link(down[pick % len(down)])

    @rule(pick=picks, flag=st.booleans())
    def repair_group(self, pick, flag):
        groups = self.service.risk_groups
        if groups is not None:
            self.driver.repair_group(pick % groups.num_groups)

    @rule(pick=picks, flag=st.booleans())
    def arm_fault(self, pick, flag):
        """``pick`` aims a drop, a crash or a duplicate-then-crash at a
        hop of a request's register walk, retransmitted (``flag``) or
        not: :meth:`request_under_fault`."""
        kinds = len(FAULT_KINDS)
        self.request_under_fault(
            FAULT_KINDS[pick % kinds], pick // kinds % MAX_HOP, flag,
            pick // kinds // MAX_HOP,
        )

    def request_under_fault(self, kind, hop, retry, pick):
        """Request ``pick``'s pair at bandwidth 1, both worlds' register
        walks under :class:`~tests.scripted.AimedInjector` ``(kind,
        hop)`` and, when ``retry``, three attempts.  The walk the fault
        strands is unwound, then retried or given up — the connection
        admitted unprotected; a walk rejected short of the fault is
        neither.  Releasing the connection then restores the state bit
        for bit: the unwind left nothing behind, and a retried walk
        registered exactly what a clean one does."""
        before = self.state.fingerprint()
        counters = self.service.counters
        tallied = SIGNALING_TALLIES(counters)
        sides = (self.service._admission, self.driver.shadow._admission)
        saved = [(side._injector, side._retry_policy) for side in sides]
        for side in sides:
            side._injector = AimedInjector(kind, hop)
            side._retry_policy = RETRY if retry else None
        try:
            decision = self.driver.request(*self.endpoints(pick), 1.0)
        finally:
            for side, (injector, policy) in zip(sides, saved):
                side._injector, side._retry_policy = injector, policy
        walks, drops, duplicates, crashes, retries, gave_up = (
            now - then
            for now, then in zip(SIGNALING_TALLIES(counters), tallied)
        )
        struck = drops + crashes
        assert struck <= min(1, walks)
        if struck:
            assert duplicates == (kind == "duplicate-then-crash")
        assert retries == (struck if retry else 0)
        assert gave_up == (struck and not retry) == decision.degraded
        if walks and not struck:
            assert decision.reason == REASON_BACKUP_REGISTRATION
        if decision.accepted:
            self.driver.release(decision.connection.connection_id)
        assert self.state.fingerprint() == before

    @rule(pick=picks, flag=st.booleans())
    def aim_shortfall(self, pick, flag):
        """``pick`` names a protected connection, a hop of its backup
        and a link of its primary: :meth:`short_activation`."""
        protected = [
            conn for conn in self.service.connections()
            if conn.backup is not None
        ]
        if protected:
            conn = protected[pick % len(protected)]
            pick //= len(protected)
            self.short_activation(conn, pick % MAX_HOP, pick // MAX_HOP)

    def short_activation(self, conn, hop, pick):
        """Leave free bandwidth at hop ``hop`` of ``conn``'s backup half
        a request short of ``conn``'s — a reservation by both worlds'
        admission controllers — and fail link ``pick`` of its primary
        without re-protection (counting only the links the two routes
        do not share, modulo their number): an activation over the hop
        has the spare pay the rest.  Both worlds' ledger versions move
        alike, bump for bump (the compiled cost caches key on them),
        and a sole victim that activates its first backup holds its
        bandwidth as primary at the hop; then the reservation is
        lifted.  Returns the failure's impact (``None`` when none
        applied)."""
        primary, backup = (
            [link for link in one if link not in other]
            for one, other in (
                (conn.primary_route.link_ids, conn.backup_route.lset),
                (conn.backup_route.link_ids, conn.primary_route.lset),
            )
        )
        if not primary or not backup:
            return None
        link_id = backup[hop % len(backup)]
        failed = primary[pick % len(primary)]
        ledger = self.state.ledger(link_id)
        short = ledger.free_bw - conn.bw_req / 2
        sides = (self.service, self.driver.shadow)
        if short > 0:
            for side in sides:
                assert side._admission.reserve((link_id,), short)
        prime = ledger.prime_bw
        before = [versions(side.state) for side in sides]
        impact = self._fail(
            frozenset({failed}),
            lambda: self.driver.fail_link(failed, reconfigure=False),
        )
        fast, shadow = (
            [now - then for now, then in zip(versions(side.state), bumps)]
            for side, bumps in zip(sides, before)
        )
        assert fast == shadow
        if impact is not None and [
            (o.connection_id, o.backup_index) for o in impact.outcomes
        ] == [(conn.connection_id, 0)]:
            assert ledger.prime_bw == prime + conn.bw_req
        if short > 0:
            for side in sides:
                side._admission.unreserve((link_id,), short)
        return impact

    def what_ifs(self):
        """``(kind, count)`` of every failure a what-if can ask about."""
        groups = self.service.risk_groups
        return (("link", self.network.num_links),
                ("group", groups.num_groups if groups is not None else 0),
                ("node", self.network.num_nodes))

    def what_if(self, kind, index, use_free_bandwidth=False):
        """Fail link, group or node ``index`` hypothetically: the
        index-backed answer and the reference race's over the full
        table, as outcome lists."""
        everyone = list(self.service.connections())
        if kind == "link":
            answer = self.driver.assess_link_failure(
                index, use_free_bandwidth=use_free_bandwidth
            )
            failed, node = frozenset({index}), None
        elif kind == "group":
            answer = self.driver.assess_group_failure(
                index, use_free_bandwidth=use_free_bandwidth
            )
            failed, node = self.service.risk_groups.members(index), None
        else:
            answer = self.driver.assess_node_failure(
                index, use_free_bandwidth=use_free_bandwidth
            )
            failed = recovery.incident_link_ids(self.network, index)
            node = index
        scan = reference_assess_failed_links(
            self.state, everyone, frozenset(failed), use_free_bandwidth,
            dead_node=node,
        )
        return answer.outcomes, scan.outcomes

    @rule(pick=picks, flag=st.booleans())
    def assess(self, pick, flag):
        """A what-if of a link, group or node failure (``flag``: on
        spare plus free bandwidth) equals the reference race over the
        full table, and so does every link of the ``P_act-bk`` sweep;
        a single link starves backups only on capped links; nothing
        is mutated."""
        before = self.state.fingerprint()
        kinds = [kind for kind in self.what_ifs() if kind[1]]
        kind, count = kinds[pick % len(kinds)]
        index = pick // len(kinds) % count
        answer, scan = self.what_if(kind, index, use_free_bandwidth=flag)
        assert answer == scan
        if kind == "link":
            self.starved_only_on_capped_links(answer, frozenset({index}))
            everyone = list(self.service.connections())
            for link_id, impact in self.driver.sweep_link_failures(flag):
                assert impact.outcomes == reference_assess_failed_links(
                    self.state, everyone, frozenset({link_id}), flag
                ).outcomes
                self.starved_only_on_capped_links(
                    impact.outcomes, frozenset({link_id})
                )
        assert self.state.fingerprint() == before

    def check(self):
        """Every invariant, for the seeded walk."""
        self.invariants_hold()
        self.index_answers_like_a_scan()
        self.routes_keep_the_qos_bound()

    @invariant()
    def invariants_hold(self):
        self.service.check_invariants()

    @invariant()
    def index_answers_like_a_scan(self):
        """The primary-incidence index equals a filter of the whole
        table, per link and per node (a union, still in table order)."""
        everyone = list(self.service.connections())
        crossing = [[] for _ in range(self.network.num_links)]
        carrying = set()
        for conn in everyone:
            for link_id in conn.primary_route.link_ids:
                crossing[link_id].append(conn)
            if conn.is_active:
                carrying.update(conn.primary_route.link_ids)
        assert self.service.links_carrying_primaries() == sorted(carrying)
        for link_id, expected in enumerate(crossing):
            assert self.service.connections_crossing((link_id,)) == expected
        for node in self.network.nodes():
            links = recovery.incident_link_ids(self.network, node)
            assert self.service.connections_crossing(links) == [
                conn for conn in everyone
                if not conn.primary_route.lset.isdisjoint(links)
            ]

    @invariant()
    def routes_keep_the_qos_bound(self):
        """Under a delay QoS every route of every connection stays
        within the minimum hop distance plus the slack."""
        if self.config.qos_slack is None:
            return
        hop_counts = self.service.scheme.context.hop_counts
        for conn in self.service.connections():
            bound = hop_counts[conn.source][conn.destination]
            for channel in [conn.primary] + conn.all_backups:
                assert channel.route.hop_count <= bound + self.config.qos_slack

    def teardown(self):
        """Release everything and repair every link: the state must
        equal a pristine one."""
        if self.service is None:
            return
        for conn in list(self.service.connections()):
            self.driver.release(conn.connection_id)
        for link_id in sorted(self.state.failed_links()):
            self.driver.repair_link(link_id)
        self.service.check_invariants()
        pristine = NetworkState(self.network).fingerprint()
        assert self.state.fingerprint() == pristine


TestServiceMachine = ServiceMachine.TestCase
TestServiceMachine.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
#: The budget of an entry point that runs one slice of the machine.
SLICE = settings(max_examples=10, stateful_step_count=30, deadline=None)

#: The walk checks the invariants after every this many rules.
CHECK_EVERY = 25

#: Rule weights of the seeded walk: mostly admissions and releases,
#: failures no more often than repairs.
WALK = {
    ServiceMachine.request: 11,
    ServiceMachine.release: 5,
    ServiceMachine.fail_link: 1,
    ServiceMachine.fail_group: 1,
    ServiceMachine.fail_link_set: 1,
    ServiceMachine.fail_node: 1,
    ServiceMachine.repair_link: 2,
    ServiceMachine.repair_group: 1,
    ServiceMachine.reestablish: 1,
    ServiceMachine.refresh_database: 1,
    ServiceMachine.assess: 1,
}


def drive(
    config: Config, num_ops: int, seed: int, preload: int = 0
) -> ServiceMachine:
    """Make ``preload`` admissions, then run the machine's rules in a
    seeded random order until the oracle has mirrored ``num_ops``
    operations, checking the invariants every ``CHECK_EVERY`` rules and
    at the end; return the machine, not yet torn down."""
    rng = random.Random(seed)
    machine = ServiceMachine()
    machine.configure(config, [
        (rng.randrange(1 << 16), rng.random() < 0.5) for _ in range(preload)
    ])
    steps = 0
    while machine.driver.operations < num_ops:
        (step,) = rng.choices(list(WALK), list(WALK.values()))
        step(machine, rng.randrange(1 << 16), rng.random() < 0.5)
        steps += 1
        if steps % CHECK_EVERY == 0:
            machine.check()
    machine.check()
    return machine


def walk(
    config: Config, num_ops: int, seed: int, preload: int = 0
) -> ServiceMachine:
    """:func:`drive`, then record the totals under ``config.key``, tear
    down and return the machine."""
    machine = drive(config, num_ops, seed, preload)
    results = {}
    if RESULTS_PATH.exists():
        results = json.loads(RESULTS_PATH.read_text())
    fields = config._asdict()
    if not config.faulted:  # records of fault-free walks predate it
        del fields["retry"]
    results[config.key] = dict(
        fields, seed=seed, divergences=0,
        operations=machine.driver.operations, checks=machine.driver.checks,
    )
    RESULTS_PATH.write_text(json.dumps(results, indent=2, sort_keys=True)
                            + "\n")
    machine.teardown()
    return machine


@pytest.mark.parametrize("corrupt, message", [
    (lambda ledger: ledger.set_spare(0.0), "sizes it to 1.0"),
    (lambda ledger: ledger.reserve_primary(1.0), "active primaries"),
    (lambda ledger: ledger.register_backup(999, frozenset({0}), 1.0),
     "registers 2 backups"),
], ids=["spare-sizing", "prime-conservation", "leaked-registration"])
def test_each_invariant_catches_its_corruption(corrupt, message):
    """One protected connection; corrupt its first backup link's
    ledger behind the service's back."""
    service = DRTPService(mesh_network(3, 3, 10.0), make_scheme("D-LSR"))
    connection = service.request(0, 8, 1.0).connection
    service.check_invariants()
    corrupt(service.state.ledger(connection.backup_route.link_ids[0]))
    with pytest.raises(ConnectionStateError, match=message):
        service.check_invariants()


@pytest.mark.parametrize("shape, requests, node", [
    ((2, 3), ((1, 3), (0, 5), (5, 3), (0, 5)), 1),
    ((3, 3), ((5, 6), (4, 6), (7, 0)), 4),
], ids=["endpoint-primary-caps-spare", "endpoint-backup-sizes-spare"])
def test_node_failure_races_on_the_standing_state(shape, requests, node):
    """A switch failure's activation race runs on the spare reserved at
    the moment of failure, before the connections ending at the switch
    are torn down, so ``fail_node`` reports what the what-if does.

    In the first case connections 1 and 3 (0 -> 5) back up over link
    0 -> 3, whose spare connection 0's primary (1 -> 0 -> 3) caps at 1.
    Connection 0 ends at node 1; releasing its primary first would grow
    that spare to 2 and let connection 3 activate too.

    In the second, connections 0 (5 -> 6) and 1 (4 -> 6) share primary
    links 4 -> 3 -> 6, so their backups size link 7 -> 6's spare to 2,
    and connection 2 (7 -> 0) backs up over 7 -> 6 as well.  Node 4
    cuts the primaries of 0 and 2 and ends connection 1: the spare of 2
    covers both activations.  Dropping connection 1's registration
    first would shrink it to 1 and strand connection 2."""
    service = DRTPService(mesh_network(*shape, 2.0), make_scheme("P-LSR"))
    for source, destination in requests:
        service.request(source, destination, 1.0)
    what_if = service.assess_node_failure(node).outcomes
    applied = service.fail_node(node, reconfigure=False).outcomes
    assert applied == what_if
    assert recovery.ENDPOINT_FAILED in {o.reason for o in applied}
