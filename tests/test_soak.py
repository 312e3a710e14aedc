"""Soak engine: deterministic decision fingerprints, bounded window
accounting, and the population counters a long run archives."""

import random

import pytest

from repro.core import DRTPService
from repro.loadmodel import (
    DriftParameters,
    MMPPParameters,
    ProductionTraceConfig,
    ProductionTraceGenerator,
    SoakEngine,
)
from repro.routing import PLSRScheme
from repro.simulation.arrivals import HoldingTimeDistribution
from repro.topology import waxman_network


def _engine(window=200, seed=3, progress=None):
    network = waxman_network(30, 5.0, rng=random.Random(1))
    service = DRTPService(network, PLSRScheme())
    config = ProductionTraceConfig(
        num_nodes=network.num_nodes,
        mmpp=MMPPParameters(rates=(4.0, 16.0), sojourn_means=(30.0, 10.0)),
        drift=DriftParameters(hot_count=5, epoch_seconds=20.0),
        holding=HoldingTimeDistribution(4.0, 12.0),  # fast churn
        seed=seed,
    )
    return SoakEngine(
        service,
        ProductionTraceGenerator(config),
        window=window,
        progress=progress,
    )


def test_soak_run_is_deterministic():
    first = _engine().run(1000)
    # Pinned: any reordering of same-time events in the replay loop
    # changes these.
    assert first.decision_checksum == (
        "cd2d5ccd8dffc7bcbd60968e01b35acb1771a4df4c9302eb81c3252b149f8aca"
    )
    assert (first.releases, first.final_active) == (491, 25)
    assert first.sim_time == 146.33274807657378
    second = _engine().run(1000)
    assert first.decision_checksum == second.decision_checksum
    assert first.accepted == second.accepted
    assert first.releases == second.releases
    assert first.sim_time == second.sim_time
    # A different trace seed must change the fingerprint.
    assert _engine(seed=4).run(1000).decision_checksum \
        != first.decision_checksum


def test_soak_report_shape_and_windows():
    seen = []
    report = _engine(window=250, progress=seen.append).run(1000)
    assert report.admissions == 1000
    assert len(report.windows) == 4
    assert [w.index for w in seen] == [0, 1, 2, 3]
    assert sum(w["admissions"] for w in report.windows) == 1000
    assert sum(w["accepted"] for w in report.windows) == report.accepted
    assert report.accepted == report.releases + report.final_active
    assert 0.0 < report.acceptance_ratio <= 1.0
    assert report.admissions_per_second > 0
    assert len(report.decision_checksum) == 64
    # The store's high water mark is the peak concurrent population,
    # far below total churn.
    assert report.connections["high_water"] < report.accepted
    assert report.connections["live"] == report.final_active
    # Streaming latency stats cover every admission without retention.
    assert report.latency["count"] == 1000
    assert report.latency_quantiles["seen"] == 1000
    assert report.latency_quantiles["p50"] <= report.latency_quantiles["p99"]

    payload = report.to_dict()
    assert payload["admissions"] == 1000
    assert payload["windows"][0]["index"] == 0
    assert payload["decision_checksum"] == report.decision_checksum


def test_soak_validation():
    with pytest.raises(ValueError):
        _engine(window=0)
    with pytest.raises(ValueError):
        _engine().run(0)


def test_soak_window_throughput_guards():
    report = _engine(window=500).run(500)
    stats = report.windows[0]
    assert stats["admissions_per_second"] > 0
    # WindowStats guards division by zero on degenerate clocks.
    from repro.loadmodel.soak import WindowStats

    zero = WindowStats(
        index=0, admissions=10, accepted=5, sim_time=1.0, active=5,
        rss_bytes=0, wall_seconds=0.0,
    )
    assert zero.admissions_per_second == 0.0
