"""Conformance campaigns for the array routing kernel.

The link-state schemes plan on flat tables (:mod:`repro.kernels`):
batch cost builds, bitset popcounts and scalar-encoded Dijkstra.  The
bar is **bit-exactness** against the closure planner kept in
:mod:`repro.testing` on every randomized operation: zero divergences
over ≥ 500 operations per scheme, with and without SRLG risk groups.
The live-database campaigns are seeded walks of the service state
machine (``tests/test_service_machine.py``), whose oracle diffs each
operation against the rebuild-from-scratch shadow; hop-bounded planning
(``qos_slack``) is one of the machine's configurations.  Snapshot mode,
which the always-live shadow would diverge from by design, is covered
by lockstep replays: one operation stream through the production
scheme and through the reference planner, each on a snapshot database.
"""

import random

import pytest
from hypothesis.stateful import run_state_machine_as_test

from repro.core import DRTPService
from repro.experiments import make_scheme
from repro.testing import (
    ReferenceLinkStateScheme,
    decision_key,
    impact_key,
)
from repro.topology import mesh_network
from repro.topology.srlg import mesh_conduit_groups

from .test_service_machine import SLICE, Config, ServiceMachine, walk

#: The schemes that plan on the link tables (BF's flood has its own
#: lockstep suite, ``tests/test_flood_lockstep.py``).
SCHEMES = ("P-LSR", "D-LSR", "disjoint")

#: Randomized operations per scheme (the acceptance bar is >= 500).
CAMPAIGN_OPS = 520


def _campaign(scheme_name, seed, srlg):
    machine = walk(
        Config(scheme_name, srlg=srlg, rows=6, cols=6, capacity=12.0),
        CAMPAIGN_OPS, seed,
    )
    # The campaign is only meaningful if the shadow plans with the
    # closure reference, not with a copy of the unit under test.
    assert isinstance(machine.driver.shadow.scheme, ReferenceLinkStateScheme)
    assert machine.driver.operations >= 500


@pytest.mark.oracle
@pytest.mark.slow
@pytest.mark.parametrize("scheme_name", SCHEMES)
def test_two_way_campaign(scheme_name):
    """≥ 500 randomized operations per scheme, the array kernel diffed
    against the naive reference — zero divergences."""
    _campaign(scheme_name, seed=2026, srlg=False)


@pytest.mark.oracle
@pytest.mark.slow
@pytest.mark.parametrize("scheme_name", ("P-LSR", "D-LSR"))
def test_two_way_campaign_srlg(scheme_name):
    """The same bar with conduit SRLG groups installed, exercising the
    group-aggregated conflict terms and group columns of the kernel
    tables."""
    _campaign(scheme_name, seed=7, srlg=True)


@pytest.mark.oracle
@pytest.mark.parametrize("scheme_name", ("P-LSR", "D-LSR"))
def test_lockstep_bounded_search(scheme_name):
    """Hop-bounded planning (``qos_slack``) routes through the layered
    bounded search in both planners; the oracle diffs every decision,
    so tie-breaks must agree."""
    run_state_machine_as_test(
        lambda: ServiceMachine(
            scheme=scheme_name, qos_slack=3, faulted=False,
            rows=6, cols=6, capacity=12.0, waxman=None,
        ),
        settings=SLICE,
    )


# ----------------------------------------------------------------------
# Production-vs-reference lockstep replays in snapshot mode, which the
# always-live naive shadow cannot mirror.
# ----------------------------------------------------------------------
def run_lockstep(scheme_name, reference, seed, num_ops, srlg):
    """Replay one randomized operation stream on a single snapshot-mode
    service and return ``(operation log, state fingerprint)`` — the
    production scheme and the closure reference planner
    (``reference=True``) must return equal pairs."""
    net = mesh_network(6, 6, capacity=12.0)
    scheme = make_scheme(scheme_name)
    if reference:
        scheme = ReferenceLinkStateScheme.shadowing(scheme)
    service = DRTPService(net, scheme, live_database=False)
    if srlg:
        service.state.install_risk_groups(mesh_conduit_groups(net, 6, 6))
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
                log.append(("accept", decision_key(decision)))
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
                log.append(("fail", impact_key(impact)))
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
        scheme_name, False, seed=11, num_ops=200, srlg=False
    )
    reference = run_lockstep(
        scheme_name, True, seed=11, num_ops=200, srlg=False
    )
    assert production == reference


@pytest.mark.oracle
def test_lockstep_snapshot_with_srlg():
    """Snapshot mode with SRLG groups installed mid-stream semantics:
    group tables come from the last refresh in both planners."""
    production = run_lockstep("D-LSR", False, seed=17, num_ops=200, srlg=True)
    reference = run_lockstep("D-LSR", True, seed=17, num_ops=200, srlg=True)
    assert production == reference
