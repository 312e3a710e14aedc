"""Differential-oracle campaigns: fast path vs naive reference.

The acceptance bar for the fast-path routing engine (incremental
APLV/CV maintenance, dirty-set database refresh, array cost builds and
searches): **zero divergences over ≥ 500 randomized operations per
scheme** on the 8x8 mesh, with every operation diffed bit-for-bit
against the rebuild-from-scratch shadow service.  Each campaign is a
seeded walk over the rules of the service state machine
(``tests/test_service_machine.py``), which records its totals to
``benchmarks/results/oracle_differential.json`` so CI keeps an
auditable artifact of the run.

Marked ``oracle`` so CI can run just this suite (``pytest -m
oracle``); the small smoke cases run with the default suite too.
"""

import pytest

from repro.cli import main
from repro.core import DRTPService
from repro.core.recovery import ActivationOutcome, FailureImpact
from repro.experiments import make_scheme
from repro.simulation import BandwidthMix, generate_scenario
from repro.simulation.workload import BandwidthClass
from repro.testing import (
    DifferentialOracle,
    OracleDivergence,
    impact_key,
    make_reference_service,
)
from repro.topology import mesh_conduit_groups, mesh_network
from repro.topology.serialize import save_network

from .test_service_machine import PRIMARY_ONLY, Config, walk

SCHEMES = ("P-LSR", "D-LSR", "BF")

#: Randomized operations per scheme (the acceptance bar is >= 500).
CAMPAIGN_OPS = 520


@pytest.mark.oracle
@pytest.mark.slow
@pytest.mark.parametrize("scheme_name", SCHEMES)
def test_oracle_campaign_8x8(scheme_name):
    """≥ 500 randomized operations per scheme on the 8x8 mesh, zero
    divergences."""
    machine = walk(
        Config(scheme_name, rows=8, cols=8, capacity=12.0),
        CAMPAIGN_OPS, seed=2026,
    )
    assert machine.driver.operations >= 500


@pytest.mark.oracle
@pytest.mark.slow
@pytest.mark.parametrize("qos_slack", (None, 1))
@pytest.mark.parametrize("scheme_name", sorted(PRIMARY_ONLY))
def test_oracle_campaign_baselines(scheme_name, qos_slack):
    """The same ≥ 500 operations for the primary-only baselines —
    array cost build + flat search against primary closure + naive
    search — unbounded and under a delay bound."""
    machine = walk(
        Config(scheme_name, qos_slack=qos_slack, rows=8, cols=8,
               capacity=12.0),
        CAMPAIGN_OPS, seed=2026,
    )
    assert machine.driver.operations >= 500
    assert not isinstance(
        machine.driver.shadow.scheme, tuple(PRIMARY_ONLY.values())
    )


@pytest.mark.oracle
@pytest.mark.parametrize("scheme_name", SCHEMES)
def test_oracle_smoke_with_database_sweep(scheme_name):
    """Small campaign with the full per-link database sweep enabled
    (every APLV, CV, headroom diffed against rebuild truth after
    every operation)."""
    machine = walk(Config(scheme_name), 60, seed=5)
    assert machine.driver.operations >= 60
    assert machine.driver.checks > machine.driver.operations


@pytest.mark.oracle
def test_oracle_diffs_a_fault_injected_service():
    """A lossy, retrying seeded walk runs under the oracle: the shadow
    draws from a twin injector, both spellings of the register walk
    consume it draw for draw, and nothing diverges."""
    machine = walk(Config("D-LSR", faulted=True, retry=True), 120, seed=5)
    fast, shadow = machine.service, machine.driver.shadow
    assert shadow.fault_injector is not fast.fault_injector
    assert [
        vars(injector)[name].getstate()
        for injector in (fast.fault_injector, shadow.fault_injector)
        for name in ("_hop_rng", "_crash_rng", "retry_rng")
    ] == 2 * [
        vars(fast.fault_injector)[name].getstate()
        for name in ("_hop_rng", "_crash_rng", "retry_rng")
    ]
    assert fast.counters.signaling_retries
    assert fast.counters.degraded_admissions


def test_impacts_differing_in_the_activated_backup_diverge():
    """Two failure impacts with the same victims, verdicts and reasons
    but a different activated backup are different impacts."""
    first, second = (
        FailureImpact(link_id=3, outcomes=[
            ActivationOutcome(7, True, "activated", backup_index=index)
        ])
        for index in (0, 1)
    )
    assert impact_key(first) != impact_key(second)


@pytest.mark.parametrize("classes", [
    (("audio", 0.1, 2.0), ("video", 0.3, 1.0)),
    (("thin", 1.0, 1.0), ("odd", 1.3, 1.0)),
], ids=["all-non-dyadic", "one-non-dyadic"])
def test_non_dyadic_bandwidths_are_turned_away(classes, tmp_path, capsys):
    """The oracle refuses a bandwidth whose sums would round — in the
    library as a ``ValueError``, at ``repro replay --oracle`` as a usage
    error — and accepts the paper's constant and dyadic mixes."""
    mix = BandwidthMix([BandwidthClass(*klass) for klass in classes])
    scenario = generate_scenario(9, 0.5, 60.0, bw_req=mix, seed=3)
    oracle = DifferentialOracle(
        DRTPService(mesh_network(3, 3, 10.0), make_scheme("D-LSR"))
    )
    odd = next(r for r in scenario.requests if r.bw_req not in (1.0,))
    with pytest.raises(ValueError, match="exact"):
        oracle.admit(odd)
    with pytest.raises(ValueError, match="exact"):
        oracle.request(0, 8, odd.bw_req)
    assert oracle.operations == 0
    for bw in (1.0, 0.25, 2.0):
        assert oracle.request(0, 8, bw).accepted

    save_network(mesh_network(3, 3, 10.0), tmp_path / "net.json")
    scenario.save(tmp_path / "scen.json")
    assert main(["replay", str(tmp_path / "net.json"),
                 str(tmp_path / "scen.json"), "--oracle"]) == 2
    assert "exact" in capsys.readouterr().err


@pytest.mark.oracle
def test_oracle_detects_seeded_divergence():
    """Sanity-check the oracle *can* fail: corrupt the fast service's
    APLV behind its back and the next comparison must raise."""
    net = mesh_network(3, 3, 10.0)
    service = DRTPService(net, make_scheme("D-LSR"))
    oracle = DifferentialOracle(service)
    decision = oracle.request(0, 8, 1.0)
    assert decision.accepted
    # Corrupt: register a phantom backup only in the fast world.
    service.state.ledger(0).register_backup(999, frozenset({1, 2}), 1.0)
    with pytest.raises(OracleDivergence):
        oracle.request(1, 7, 1.0)


@pytest.mark.oracle
def test_oracle_mirrors_correlated_failures_and_refuses_the_rest():
    """``fail_link_set`` / ``fail_group`` / ``repair_group`` reach the
    shadow too (the next request used to take the blame for a
    half-applied failure); an unmirrored mutator is refused."""
    net = mesh_network(4, 4, 10.0)
    service = DRTPService(
        net, make_scheme("D-LSR"),
        risk_groups=mesh_conduit_groups(net, 4, 4),
    )
    oracle = DifferentialOracle(service)
    assert oracle.request(0, 15, 1.0).accepted
    oracle.fail_link_set([0, 1])
    assert oracle.request(2, 13, 1.0).accepted
    oracle.fail_group(3)
    oracle.repair_group(3)
    assert oracle.operations == 5
    assert oracle.shadow.state.fingerprint() == service.state.fingerprint()
    with pytest.raises(AttributeError, match="does not mirror"):
        oracle.install_risk_groups(mesh_conduit_groups(net, 4, 4, 2))


def test_shadow_keeps_the_risk_groups():
    service = DRTPService(
        mesh_network(4, 4, 10.0), make_scheme("P-LSR"),
        risk_groups=mesh_conduit_groups(mesh_network(4, 4, 10.0), 4, 4),
    )
    assert make_reference_service(service).risk_groups is service.risk_groups
