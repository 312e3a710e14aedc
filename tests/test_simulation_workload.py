"""Tests for traffic patterns and scenario generation/replay."""

import random

import pytest

from repro.simulation import (
    HotspotTraffic,
    Scenario,
    UniformTraffic,
    generate_scenario,
    make_pattern,
)


class TestUniformTraffic:
    def test_pairs_distinct_and_in_range(self):
        pattern = UniformTraffic(10)
        rng = random.Random(0)
        for _ in range(500):
            src, dst = pattern.sample_pair(rng)
            assert src != dst
            assert 0 <= src < 10
            assert 0 <= dst < 10

    def test_roughly_uniform_destinations(self):
        pattern = UniformTraffic(5)
        rng = random.Random(1)
        counts = [0] * 5
        for _ in range(5000):
            _, dst = pattern.sample_pair(rng)
            counts[dst] += 1
        assert min(counts) > 0.8 * max(counts)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            UniformTraffic(1)


class TestHotspotTraffic:
    def test_hot_fraction_respected(self):
        pattern = HotspotTraffic(
            60, hot_count=10, hot_fraction=0.5,
            selection_rng=random.Random(0),
        )
        rng = random.Random(2)
        hot = set(pattern.hot_nodes)
        assert len(hot) == 10
        hits = sum(
            1 for _ in range(4000)
            if pattern.sample_pair(rng)[1] in hot
        )
        # 50% aimed at hot + uniform traffic also lands there sometimes:
        # expected ~ 0.5 + 0.5 * (10/60) = 0.583
        assert hits / 4000 == pytest.approx(0.583, abs=0.04)

    def test_explicit_hot_nodes(self):
        pattern = HotspotTraffic(10, hot_nodes=[2, 4], hot_fraction=1.0)
        rng = random.Random(0)
        for _ in range(100):
            _, dst = pattern.sample_pair(rng)
            assert dst in (2, 4)

    def test_source_never_equals_destination(self):
        pattern = HotspotTraffic(5, hot_nodes=[0], hot_fraction=1.0)
        rng = random.Random(3)
        for _ in range(200):
            src, dst = pattern.sample_pair(rng)
            assert src != dst

    def test_validation(self):
        with pytest.raises(ValueError):
            HotspotTraffic(10, hot_fraction=0.0)
        with pytest.raises(ValueError):
            HotspotTraffic(10, hot_nodes=[99])
        with pytest.raises(ValueError):
            HotspotTraffic(10, hot_count=0)

    def test_factory(self):
        assert make_pattern("UT", 10).name == "UT"
        assert make_pattern("NT", 30).name == "NT"
        with pytest.raises(ValueError):
            make_pattern("XX", 10)


class TestScenario:
    def test_generation_deterministic(self):
        a = generate_scenario(20, 0.5, 600.0, seed=4)
        b = generate_scenario(20, 0.5, 600.0, seed=4)
        assert a.num_requests == b.num_requests
        assert [r.source for r in a.requests] == [r.source for r in b.requests]
        assert [r.arrival_time for r in a.requests] == [
            r.arrival_time for r in b.requests
        ]

    def test_different_seed_differs(self):
        a = generate_scenario(20, 0.5, 600.0, seed=4)
        b = generate_scenario(20, 0.5, 600.0, seed=5)
        assert [r.arrival_time for r in a.requests] != [
            r.arrival_time for r in b.requests
        ]

    def test_rate_changes_only_arrivals(self):
        """Independent streams: endpoints of the first requests match
        across arrival rates (paper methodology: vary lambda, keep the
        workload comparable)."""
        a = generate_scenario(20, 0.2, 600.0, seed=4)
        b = generate_scenario(20, 0.9, 600.0, seed=4)
        shared = min(a.num_requests, b.num_requests)
        assert shared > 0
        assert [(r.source, r.destination) for r in a.requests[:shared]] == [
            (r.source, r.destination) for r in b.requests[:shared]
        ]

    def test_empirical_rate(self):
        scenario = generate_scenario(20, 0.5, 10000.0, seed=1)
        assert scenario.arrival_rate == pytest.approx(0.5, rel=0.1)

    def test_round_trip_serialization(self, tmp_path):
        scenario = generate_scenario(20, 0.4, 600.0, pattern="NT", seed=9)
        path = tmp_path / "scenario.json"
        scenario.save(path)
        clone = Scenario.load(path)
        assert clone.num_requests == scenario.num_requests
        assert clone.metadata == scenario.metadata
        assert clone.requests[0] == scenario.requests[0]

    def test_sorted_requirement(self):
        # The replay checks the order as it pulls each arrival.
        from repro.core import DRTPService
        from repro.routing import DLSRScheme
        from repro.simulation import ScenarioSimulator
        from repro.topology import mesh_network

        scenario = generate_scenario(16, 0.5, 300.0, seed=0)
        requests = list(reversed(scenario.requests))
        if len(requests) > 1:
            service = DRTPService(mesh_network(4, 4, 30.0), DLSRScheme())
            with pytest.raises(ValueError):
                ScenarioSimulator(
                    service, Scenario(requests=requests, duration=300.0)
                ).run()

    def test_version_check(self):
        with pytest.raises(ValueError):
            Scenario.from_dict({"version": 9, "requests": [], "duration": 1})

    def test_metadata_recorded(self):
        scenario = generate_scenario(
            30, 0.3, 600.0, bw_req=2.0, pattern="NT", seed=3
        )
        assert scenario.metadata["pattern"] == "NT"
        assert scenario.metadata["bw_req"] == 2.0
        assert scenario.metadata["seed"] == 3
