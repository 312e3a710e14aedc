"""Conformance campaigns for the array routing kernel.

The link-state schemes plan on flat tables
(:mod:`repro.kernels`): batch cost builds, bitset popcounts and
scalar-encoded Dijkstra.  The acceptance bar is **bit-exactness**
against the closure planner kept in :mod:`repro.testing` — per-edge
cost closures, dict Dijkstra — checked on every randomized operation:
the campaign service runs under
:class:`~repro.testing.DifferentialOracle`, which mirrors every
operation into the rebuild-from-scratch shadow
(:func:`~repro.testing.make_reference_service`: reference planner,
rebuild-per-read database) and diffs decisions, routes and state
fingerprints.

Zero divergences over ≥ 500 operations per scheme, with and without
SRLG risk groups, is the bar.  Campaign totals are recorded to
``benchmarks/results/kernel_conformance.json`` so CI archives an
auditable artifact.  Snapshot-mode and hop-bounded (``qos_slack``)
configurations — where the always-live naive shadow would diverge by
design — are covered by lockstep replays instead: the same operation
stream through the production scheme and through the reference planner
bound to the same kind of database.
"""

import json
import random
from pathlib import Path

import pytest

from repro.core import DRTPService
from repro.experiments import make_scheme
from repro.testing import DifferentialOracle, ReferenceLinkStateScheme
from repro.topology import mesh_network
from repro.topology.srlg import mesh_conduit_groups

RESULTS_PATH = (
    Path(__file__).parent.parent
    / "benchmarks"
    / "results"
    / "kernel_conformance.json"
)

#: The schemes that plan on the link tables (BF's flood has its own
#: lockstep suite, ``tests/test_flood_lockstep.py``).
SCHEMES = ("P-LSR", "D-LSR", "disjoint")

#: Randomized operations per scheme (the acceptance bar is >= 500).
CAMPAIGN_OPS = 520


def _route_key(route):
    if route is None:
        return None
    return (route.nodes, route.link_ids)


def _decision_key(decision):
    return (
        decision.accepted,
        decision.reason,
        decision.degraded,
        _route_key(decision.plan.primary),
        tuple(_route_key(r) for r in decision.plan.all_backups),
    )


def _impact_key(impact):
    return (
        impact.link_id,
        tuple(
            (o.connection_id, o.success, o.reason) for o in impact.outcomes
        ),
    )


def run_campaign(scheme_name, rows, cols, num_ops, seed, srlg=False):
    """Drive ``num_ops`` randomized operations through a service
    wrapped in the :class:`DifferentialOracle`; returns the oracle."""
    net = mesh_network(rows, cols, capacity=12.0)
    service = DRTPService(net, make_scheme(scheme_name), live_database=True)
    oracle = DifferentialOracle(service, check_database=False)
    if srlg:
        groups = mesh_conduit_groups(net, rows, cols)
        for state in (service.state, oracle.shadow.state):
            state.install_risk_groups(groups)
    # The campaign is only meaningful if the shadow plans with the
    # closure reference, not with a copy of the unit under test.
    assert isinstance(oracle.shadow.scheme, ReferenceLinkStateScheme)

    rng = random.Random(seed)
    live = []
    failed = []
    while oracle.operations < num_ops:
        roll = rng.random()
        if roll < 0.55 or not live:
            src, dst = rng.sample(range(net.num_nodes), 2)
            decision = oracle.request(src, dst, 1.0)
            if decision.accepted:
                live.append(decision.connection.connection_id)
        elif roll < 0.80:
            oracle.release(live.pop(rng.randrange(len(live))))
        elif roll < 0.90 and len(failed) < 3:
            link_id = rng.randrange(net.num_links)
            if not service.state.is_link_failed(link_id):
                oracle.fail_link(link_id)
                failed.append(link_id)
                live = [c for c in live if service.has_connection(c)]
        elif failed:
            oracle.repair_link(failed.pop(rng.randrange(len(failed))))
        else:
            oracle.refresh_database()
    service.check_invariants()
    return oracle


def _record(key, record):
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    existing = {}
    if RESULTS_PATH.exists():
        existing = json.loads(RESULTS_PATH.read_text())
    existing[key] = record
    RESULTS_PATH.write_text(
        json.dumps(existing, indent=2, sort_keys=True) + "\n"
    )


@pytest.mark.oracle
@pytest.mark.slow
@pytest.mark.parametrize("scheme_name", SCHEMES)
def test_two_way_campaign(scheme_name):
    """≥ 500 randomized operations per scheme, the array kernel diffed
    against the naive reference — zero divergences."""
    oracle = run_campaign(
        scheme_name, rows=6, cols=6, num_ops=CAMPAIGN_OPS, seed=2026
    )
    assert oracle.operations >= 500
    _record(scheme_name, {
        "scheme": scheme_name,
        "mesh": "6x6",
        "srlg": False,
        "operations": oracle.operations,
        "oracle_checks": oracle.checks,
        "divergences": 0,
    })


@pytest.mark.oracle
@pytest.mark.slow
@pytest.mark.parametrize("scheme_name", ("P-LSR", "D-LSR"))
def test_two_way_campaign_srlg(scheme_name):
    """The same bar with conduit SRLG groups installed, exercising the
    group-aggregated conflict terms and group columns of the kernel
    tables."""
    oracle = run_campaign(
        scheme_name, rows=6, cols=6, num_ops=CAMPAIGN_OPS, seed=7,
        srlg=True,
    )
    assert oracle.operations >= 500
    _record(scheme_name + "+srlg", {
        "scheme": scheme_name,
        "mesh": "6x6",
        "srlg": True,
        "operations": oracle.operations,
        "oracle_checks": oracle.checks,
        "divergences": 0,
    })


# ----------------------------------------------------------------------
# Production-vs-reference lockstep replays for configurations the
# always-live naive shadow cannot mirror (stale snapshots, hop-bounded
# planning).
# ----------------------------------------------------------------------
def run_lockstep(scheme_name, reference, seed, num_ops, live_database,
                 srlg, qos_slack):
    """Replay one randomized operation stream on a single service and
    return ``(operation log, state fingerprint)`` — the production
    scheme and the closure reference planner (``reference=True``) must
    return equal pairs."""
    net = mesh_network(6, 6, capacity=12.0)
    scheme = make_scheme(scheme_name)
    if reference:
        scheme = ReferenceLinkStateScheme.shadowing(scheme)
    service = DRTPService(
        net, scheme, live_database=live_database, qos_slack=qos_slack
    )
    if srlg:
        service.state.install_risk_groups(mesh_conduit_groups(net, 6, 6))
    if not live_database:
        service.refresh_database()
    rng = random.Random(seed)
    log = []
    active = []
    failed = []
    for _ in range(num_ops):
        roll = rng.random()
        if roll < 0.55 or not active:
            src, dst = rng.sample(range(net.num_nodes), 2)
            decision = service.request(src, dst, bw_req=1.0)
            if decision.accepted:
                active.append(decision.connection.connection_id)
                log.append(("accept", _decision_key(decision)))
            else:
                log.append(("reject", decision.reason))
        elif roll < 0.80:
            connection_id = active.pop(rng.randrange(len(active)))
            if service.has_connection(connection_id):
                service.release(connection_id)
            log.append(("release", connection_id))
        elif roll < 0.90 and len(failed) < 3:
            link_id = rng.randrange(net.num_links)
            if not service.state.is_link_failed(link_id):
                impact = service.fail_link(link_id)
                failed.append(link_id)
                active = [
                    c for c in active if service.has_connection(c)
                ]
                log.append(("fail", _impact_key(impact)))
        elif failed:
            link_id = failed.pop(rng.randrange(len(failed)))
            service.repair_link(link_id)
            log.append(("repair", link_id))
        else:
            service.refresh_database()
            log.append(("refresh",))
    return log, service.state.fingerprint()


@pytest.mark.oracle
@pytest.mark.parametrize("scheme_name", SCHEMES)
def test_lockstep_snapshot_database(scheme_name):
    """Snapshot-mode planning (periodically refreshed, stale between
    refreshes) must be bit-identical to the reference planner reading
    the same snapshot — including the decisions taken *on* stale
    data."""
    production = run_lockstep(
        scheme_name, False, seed=11, num_ops=200,
        live_database=False, srlg=False, qos_slack=None,
    )
    reference = run_lockstep(
        scheme_name, True, seed=11, num_ops=200,
        live_database=False, srlg=False, qos_slack=None,
    )
    assert production == reference


@pytest.mark.oracle
@pytest.mark.parametrize("scheme_name", ("P-LSR", "D-LSR"))
def test_lockstep_bounded_search(scheme_name):
    """Hop-bounded planning (``qos_slack``) routes through the layered
    bounded search in both planners; tie-breaks must agree."""
    production = run_lockstep(
        scheme_name, False, seed=13, num_ops=200,
        live_database=True, srlg=False, qos_slack=3,
    )
    reference = run_lockstep(
        scheme_name, True, seed=13, num_ops=200,
        live_database=True, srlg=False, qos_slack=3,
    )
    assert production == reference


@pytest.mark.oracle
def test_lockstep_snapshot_with_srlg():
    """Snapshot mode with SRLG groups installed mid-stream semantics:
    group tables come from the last refresh in both planners."""
    production = run_lockstep(
        "D-LSR", False, seed=17, num_ops=200,
        live_database=False, srlg=True, qos_slack=None,
    )
    reference = run_lockstep(
        "D-LSR", True, seed=17, num_ops=200,
        live_database=False, srlg=True, qos_slack=None,
    )
    assert production == reference
