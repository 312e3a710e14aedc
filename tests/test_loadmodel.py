"""Production-trace load model: MMPP arrivals, hot-spot drift, and the
determinism contract (fresh stream == materialized scenario)."""

import math
import random

import pytest

from repro.loadmodel import (
    DriftingHotspotTraffic,
    DriftParameters,
    MMPPArrivalProcess,
    MMPPParameters,
    ProductionTraceConfig,
    ProductionTraceGenerator,
    generate_production_scenario,
)
from repro.server import LoadGenConfig, build_timeline
from repro.simulation.rng import seeded_rng


def _process(seed=3, params=None):
    params = params or MMPPParameters(
        rates=(0.5, 2.0), sojourn_means=(40.0, 10.0)
    )
    return MMPPArrivalProcess(
        params, seeded_rng(seed, "a"), seeded_rng(seed, "p")
    )


# ----------------------------------------------------------------------
# MMPP
# ----------------------------------------------------------------------
def test_mmpp_parameter_validation():
    with pytest.raises(ValueError):
        MMPPParameters(rates=(), sojourn_means=())
    with pytest.raises(ValueError):
        MMPPParameters(rates=(1.0,), sojourn_means=(10.0, 20.0))
    with pytest.raises(ValueError):
        MMPPParameters(rates=(0.0, 1.0), sojourn_means=(10.0, 20.0))
    with pytest.raises(ValueError):
        MMPPParameters(rates=(1.0, 1.0), sojourn_means=(10.0, -1.0))
    with pytest.raises(ValueError):
        MMPPParameters.bursty(0.0)
    with pytest.raises(ValueError):
        MMPPParameters.bursty(1.0, burst_factor=0.5)
    with pytest.raises(ValueError):
        MMPPParameters.bursty(1.0, calm_mean=-1.0)


def test_mmpp_bursty_solves_long_run_mean():
    params = MMPPParameters.bursty(
        5.0, burst_factor=4.0, calm_mean=3600.0, burst_mean=600.0
    )
    assert math.isclose(params.mean_rate, 5.0)
    assert math.isclose(params.rates[1], 4.0 * params.rates[0])
    assert params.num_phases == 2


def test_mmpp_arrivals_strictly_increasing_and_phases_cycle():
    process = _process()
    previous = 0.0
    seen_phases = set()
    for _ in range(500):
        arrival = process.next_arrival()
        assert arrival > previous
        previous = arrival
        seen_phases.add(process.current_phase)
    assert seen_phases == {0, 1}  # both phases visited over 500 draws


def test_mmpp_determinism():
    a = _process()
    b = _process()
    first = [a.next_arrival() for _ in range(300)]
    assert [b.next_arrival() for _ in range(300)] == first
    assert first != [_process(seed=99).next_arrival() for _ in range(300)]


def test_mmpp_arrival_times_bounded_iterator():
    process = _process()
    times = list(process.arrival_times(until=50.0))
    assert times and all(t <= 50.0 for t in times)
    with pytest.raises(ValueError):
        next(_process().arrival_times(until=0.0))
    assert _process().expected_offered_load(10.0) == pytest.approx(
        _process().params.mean_rate * 10.0
    )


# ----------------------------------------------------------------------
# Drift
# ----------------------------------------------------------------------
def test_drift_parameter_validation():
    with pytest.raises(ValueError):
        DriftParameters(hot_count=0)
    with pytest.raises(ValueError):
        DriftParameters(hot_fraction=0.0)
    with pytest.raises(ValueError):
        DriftParameters(hot_fraction=1.5)
    with pytest.raises(ValueError):
        DriftParameters(epoch_seconds=0.0)
    with pytest.raises(ValueError):
        DriftParameters(migrate=0)
    with pytest.raises(ValueError):
        DriftParameters(hot_count=4, migrate=5)
    assert DriftParameters(
        hot_count=10, epoch_seconds=100.0, migrate=2
    ).turnover_seconds == pytest.approx(500.0)


def test_drift_needs_cold_nodes():
    with pytest.raises(ValueError):
        DriftingHotspotTraffic(10, DriftParameters(hot_count=10), seed=1)


def test_drift_membership_is_pure_function_of_seed_and_epoch():
    params = DriftParameters(hot_count=5, epoch_seconds=60.0, migrate=2)
    a = DriftingHotspotTraffic(40, params, seed=11)
    b = DriftingHotspotTraffic(40, params, seed=11)
    # Query in different orders: a walks forward, b jumps straight to
    # the late epoch and then *back* — membership must agree anyway.
    forward = [a.hot_nodes_at(t) for t in (0.0, 100.0, 500.0, 1000.0)]
    assert b.hot_nodes_at(1000.0) == forward[-1]
    assert b.hot_nodes_at(100.0) == forward[1]
    assert b.hot_nodes_at(0.0) == forward[0]
    # Exactly `migrate` members change per epoch step.
    epoch0 = set(a.hot_nodes_at(0.0))
    epoch1 = set(a.hot_nodes_at(60.0))
    assert len(epoch0 - epoch1) == params.migrate
    assert len(epoch1) == params.hot_count


def test_drift_sampling_targets_hot_set():
    params = DriftParameters(
        hot_count=3, hot_fraction=1.0, epoch_seconds=60.0
    )
    pattern = DriftingHotspotTraffic(30, params, seed=5)
    rng = random.Random(0)
    for _ in range(200):
        source, destination = pattern.sample_pair_at(rng, 30.0)
        assert destination in pattern.hot_nodes_at(30.0)
        assert source != destination
    with pytest.raises(ValueError):
        pattern.epoch_of(-1.0)
    # The time-free TrafficPattern contract samples at t=0.
    source, destination = pattern.sample_pair(rng)
    assert destination in pattern.hot_nodes_at(0.0)


# ----------------------------------------------------------------------
# Trace generator: fresh == materialized
# ----------------------------------------------------------------------
def _config(seed=7):
    return ProductionTraceConfig(
        num_nodes=24,
        mmpp=MMPPParameters(rates=(1.0, 4.0), sojourn_means=(50.0, 15.0)),
        drift=DriftParameters(hot_count=4, epoch_seconds=30.0),
        seed=seed,
    )


def _key(request):
    return (
        request.request_id,
        request.source,
        request.destination,
        request.bw_req,
        request.arrival_time,
        request.holding_time,
    )


def test_trace_three_way_determinism():
    config = _config()
    fresh = [_key(r) for r in ProductionTraceGenerator(config).take(600)]
    # Sequential reference: the materialized scenario prefix.
    scenario = generate_production_scenario(config, max_requests=600)
    assert fresh == [_key(r) for r in scenario.requests]


def test_trace_config_validation_and_metadata():
    with pytest.raises(ValueError):
        ProductionTraceConfig(num_nodes=1)
    with pytest.raises(ValueError):
        ProductionTraceConfig(num_nodes=10, bw_req=0.0)
    with pytest.raises(ValueError):
        generate_production_scenario(_config())
    with pytest.raises(ValueError):
        generate_production_scenario(_config(), max_requests=0)
    with pytest.raises(ValueError):
        generate_production_scenario(_config(), duration=-1.0)
    with pytest.raises(ValueError):
        ProductionTraceGenerator(_config()).take(-1)

    config = _config()
    scenario = generate_production_scenario(config, duration=120.0)
    assert scenario.metadata["workload"] == "production"
    assert scenario.metadata["seed"] == config.seed
    assert scenario.metadata["hot_count"] == 4
    assert scenario.duration == 120.0
    assert all(r.arrival_time <= 120.0 for r in scenario.requests)
    assert config.expected_offered_load() == pytest.approx(
        config.mmpp.mean_rate * config.holding.mean
    )


def test_trace_seed_sensitivity():
    a = [_key(r) for r in ProductionTraceGenerator(_config(seed=1)).take(50)]
    b = [_key(r) for r in ProductionTraceGenerator(_config(seed=2)).take(50)]
    assert a != b


# ----------------------------------------------------------------------
# Load-generator integration (repro loadtest --workload production)
# ----------------------------------------------------------------------
def test_loadgen_production_timeline_deterministic():
    config = LoadGenConfig(
        arrival_rate=5.0, duration=60.0, master_seed=13,
        workload="production",
    )
    first = build_timeline(config, 30, 60)
    second = build_timeline(config, 30, 60)
    assert first == second
    assert first != build_timeline(
        LoadGenConfig(
            arrival_rate=5.0, duration=60.0, master_seed=14,
            workload="production",
        ),
        30, 60,
    )


def test_loadgen_config_validation():
    with pytest.raises(ValueError):
        LoadGenConfig(arrival_rate=5.0, duration=10.0, workload="nope")
    with pytest.raises(ValueError):
        LoadGenConfig(arrival_rate=5.0, duration=10.0, hold_min=0.0)
    with pytest.raises(ValueError):
        LoadGenConfig(
            arrival_rate=5.0, duration=10.0, hold_min=9.0, hold_max=3.0
        )
