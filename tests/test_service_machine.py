"""One state machine over the DR-connection lifecycle.

:class:`ServiceMachine`'s rules are the only place a test writes a
service operation.  The system under test is the production
``DRTPService`` wrapped in :class:`~repro.testing.DifferentialOracle`,
so every rule is diffed against the naive shadow; a faulted
configuration runs without the oracle (it refuses injectors), against
the invariants alone.  Hypothesis explores the machine here and through
the entry points of other suites; :func:`walk` drives the same rules as
a seeded random walk for the long campaigns and records their totals.
"""

import json
import random
from pathlib import Path
from typing import NamedTuple, Optional, Tuple

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine
from hypothesis.stateful import initialize, invariant, rule

from repro.core import DRTPService, recovery
from repro.core.errors import ConnectionStateError
from repro.core.multiplexing import (
    DedicatedSparePolicy,
    GroupAwareSparePolicy,
    SharedSparePolicy,
)
from repro.experiments import make_scheme
from repro.faults import FaultInjector, FaultPlan
from repro.network.state import BW_EPSILON, NetworkState
from repro.routing import NoBackupScheme, ReactiveScheme
from repro.testing import DifferentialOracle
from repro.topology import (
    mesh_conduit_groups,
    mesh_network,
    proximity_groups,
    waxman_network,
)

pytestmark = pytest.mark.oracle

RESULTS_PATH = (
    Path(__file__).parent.parent
    / "benchmarks" / "results" / "oracle_differential.json"
)

#: Primary-only baselines: no backup may be required of them.
PRIMARY_ONLY = {"no-backup": NoBackupScheme, "reactive": ReactiveScheme}
SCHEMES = ("P-LSR", "D-LSR", "disjoint", "BF") + tuple(PRIMARY_ONLY)
POLICIES = {"shared": SharedSparePolicy, "dedicated": DedicatedSparePolicy,
            "group-aware": GroupAwareSparePolicy}

#: No new failure while more links than this are down.
MAX_DOWN = 8
#: The largest regional cut ``fail_link_set`` draws.
MAX_CUT = 8


class Config(NamedTuple):
    """One run's configuration, drawn once."""

    scheme: str = "D-LSR"
    policy: str = "shared"
    srlg: bool = False
    qos_slack: Optional[int] = None
    backups: int = 1
    faulted: bool = False
    rows: int = 4
    cols: int = 4
    capacity: float = 6.0
    #: ``(nodes, seed)`` of a Waxman network to run on instead of the
    #: mesh; its risk groups are the proximity conduits.
    waxman: Optional[Tuple[int, int]] = None

    @property
    def key(self) -> str:
        """Results-file key: scheme, network, backups, SRLG, QoS slack."""
        network = (
            "waxman{}/{}".format(*self.waxman) if self.waxman
            else "{0.rows}x{0.cols}".format(self)
        )
        return (
            "{0.scheme} {1} backups={0.backups} srlg={0.srlg} "
            "qos_slack={0.qos_slack}".format(self, network)
        )


configs = st.builds(
    Config,
    scheme=st.sampled_from(SCHEMES),
    policy=st.sampled_from(sorted(POLICIES)),
    srlg=st.booleans(),
    qos_slack=st.sampled_from((None, 1)),
    backups=st.sampled_from((1, 2)),
    faulted=st.booleans(),
    rows=st.just(4), cols=st.just(4), capacity=st.just(6.0),
    waxman=st.sampled_from((None, (16, 42))),
)

#: Every rule takes ``pick`` — a node, link, group or connection,
#: reduced modulo the population — and ``flag``, a binary option.
picks = st.integers(min_value=0, max_value=(1 << 16) - 1)
#: Admissions made before the first rule, so that every run starts
#: loaded: failures contend for spare and releases meet capped spare.
preloads = st.lists(st.tuples(picks, st.booleans()), min_size=20, max_size=40)


def build(config: Config):
    """``(service, driver)``: the production service and the oracle
    wrapping it (the service itself when faulted)."""
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
        scheme, require_backup = PRIMARY_ONLY[config.scheme](), False
    else:
        scheme, require_backup = make_scheme(config.scheme), True
        scheme.num_backups = config.backups
    service = DRTPService(
        network, scheme,
        spare_policy=POLICIES[config.policy](),
        require_backup=require_backup,
        qos_slack=config.qos_slack,
        fault_injector=(
            FaultInjector(FaultPlan.everything(), seed=1)
            if config.faulted else None
        ),
        risk_groups=groups if config.srlg else None,
    )
    if config.faulted:
        return service, service
    # The per-link database sweep costs O(links) per operation: only
    # the small mesh affords it.
    return service, DifferentialOracle(
        service, check_database=network.num_nodes <= 16
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

    @rule(pick=picks, flag=st.booleans())
    def request(self, pick, flag):
        nodes = self.network.num_nodes
        source = pick % nodes
        destination = (source + 1 + pick // nodes % (nodes - 1)) % nodes
        self.driver.request(source, destination, 2.0 if flag else 1.0)

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

    def _fail(self, failed, apply, node=None):
        """Apply one failure of the links ``failed`` (those of switch
        ``node``, when it names one): its outcomes are the full-table
        assessment taken just before — same victims in the same order,
        same reasons, same backups, the connections ending at a dead
        switch included — and no surviving backup crosses a dead link.
        The assessment never double-spends: the backups it activates
        over a link fit in the spare that link holds."""
        if len(self.state.failed_links()) > MAX_DOWN:
            return
        expected = recovery.assess_failed_links(
            self.state, list(self.service.connections()), failed,
            dead_node=node,
        ).outcomes
        claimed = {}
        for outcome in expected:
            if outcome.success:
                conn = self.service.connection(outcome.connection_id)
                backup = conn.all_backups[outcome.backup_index]
                for link_id in backup.route.link_ids:
                    claimed[link_id] = claimed.get(link_id, 0.0) + conn.bw_req
        for link_id, bw in claimed.items():
            assert bw <= self.state.ledger(link_id).spare_bw + BW_EPSILON
        assert apply().outcomes == expected
        for conn in self.service.connections():
            for channel in conn.all_backups:
                assert not channel.route.lset & failed

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

    def what_ifs(self):
        """``(kind, count)`` of every failure a what-if can ask about."""
        groups = self.service.risk_groups
        return (("link", self.network.num_links),
                ("group", groups.num_groups if groups is not None else 0),
                ("node", self.network.num_nodes))

    def what_if(self, kind, index):
        """Fail link, group or node ``index`` hypothetically: the
        index-backed answer and the full scan's, as outcome lists."""
        everyone = list(self.service.connections())
        if kind == "link":
            answer = self.driver.assess_link_failure(index)
            scan = recovery.assess_link_failure(self.state, everyone, index)
        elif kind == "group":
            answer = self.driver.assess_group_failure(index)
            scan = recovery.assess_group_failure(
                self.state, everyone, index, self.service.risk_groups
            )
        else:
            answer = self.driver.assess_node_failure(index)
            scan = recovery.assess_node_failure(
                self.state, everyone, index, self.network
            )
        return answer.outcomes, scan.outcomes

    @rule(pick=picks, flag=st.booleans())
    def assess(self, pick, flag):
        """A what-if of a link, group or node failure equals the full
        scan, and mutates nothing."""
        before = self.state.fingerprint()
        kinds = [kind for kind in self.what_ifs() if kind[1]]
        kind, count = kinds[pick % len(kinds)]
        answer, scan = self.what_if(kind, pick // len(kinds) % count)
        assert answer == scan
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


def walk(
    config: Config, num_ops: int, seed: int, preload: int = 0
) -> ServiceMachine:
    """Make ``preload`` admissions, then run the machine's rules in a
    seeded random order until the oracle has mirrored ``num_ops``
    operations; check the invariants, record the totals under
    ``config.key``, tear down and return the machine."""
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
    results = {}
    if RESULTS_PATH.exists():
        results = json.loads(RESULTS_PATH.read_text())
    results[config.key] = dict(
        config._asdict(), seed=seed, divergences=0,
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
