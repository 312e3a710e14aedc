"""Tests for the discrete-event engine, arrivals and snapshots."""

import random

import pytest

from repro.simulation import (
    Engine,
    HoldingTimeDistribution,
    PoissonArrivalProcess,
    SimulationError,
    derive_seed,
    seeded_rng,
    snapshot_times,
)


class TestEngine:
    def test_events_run_in_time_order(self):
        engine = Engine()
        log = []
        engine.schedule(3.0, lambda: log.append("c"))
        engine.schedule(1.0, lambda: log.append("a"))
        engine.schedule(2.0, lambda: log.append("b"))
        engine.run()
        assert log == ["a", "b", "c"]

    def test_fifo_among_equal_times(self):
        engine = Engine()
        log = []
        for name in "abc":
            engine.schedule(1.0, lambda n=name: log.append(n))
        engine.run()
        assert log == ["a", "b", "c"]

    def test_clock_advances(self):
        engine = Engine()
        engine.schedule(5.0, lambda: None)
        engine.run()
        assert engine.now == 5.0

    def test_run_until_stops_early(self):
        engine = Engine()
        log = []
        engine.schedule(1.0, lambda: log.append(1))
        engine.schedule(10.0, lambda: log.append(10))
        engine.run(until=5.0)
        assert log == [1]
        assert engine.now == 5.0
        assert engine.pending == 1

    def test_scheduling_in_past_rejected(self):
        engine = Engine()
        engine.schedule(2.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule(1.0, lambda: None)

    def test_schedule_after(self):
        engine = Engine()
        seen = []
        engine.schedule(2.0, lambda: engine.schedule_after(3.0,
                        lambda: seen.append(engine.now)))
        engine.run()
        assert seen == [5.0]
        with pytest.raises(SimulationError):
            engine.schedule_after(-1.0, lambda: None)

    def test_events_can_schedule_events(self):
        engine = Engine()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 5:
                engine.schedule_after(1.0, tick)

        engine.schedule(0.0, tick)
        engine.run()
        assert count[0] == 5
        assert engine.processed == 5

    def test_step_returns_false_when_empty(self):
        assert Engine().step() is False

    def test_run_before_leaves_the_bound_instant(self):
        engine = Engine()
        log = []
        engine.schedule(1.0, lambda: log.append("at"))
        engine.schedule(0.5, lambda: log.append("before"))
        engine.run(until=1.0, before=True)
        assert log == ["before"] and engine.now == 1.0
        engine.run(until=1.0)
        assert log == ["before", "at"]


class TestArrivals:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            PoissonArrivalProcess(0.0, random.Random(0))

    def test_arrival_times_sorted_within_horizon(self):
        process = PoissonArrivalProcess(1.0, random.Random(1))
        times = list(process.arrival_times(100.0))
        assert times == sorted(times)
        assert all(0 < t <= 100.0 for t in times)

    def test_empirical_rate_close(self):
        process = PoissonArrivalProcess(2.0, random.Random(7))
        times = list(process.arrival_times(5000.0))
        assert len(times) / 5000.0 == pytest.approx(2.0, rel=0.05)

    def test_expected_offered_load(self):
        process = PoissonArrivalProcess(0.5, random.Random(0))
        assert process.expected_offered_load(2400.0) == pytest.approx(1200.0)

    def test_holding_distribution(self):
        dist = HoldingTimeDistribution()
        assert dist.minimum == 1200.0
        assert dist.maximum == 3600.0
        assert dist.mean == 2400.0
        rng = random.Random(3)
        samples = [dist.sample(rng) for _ in range(1000)]
        assert all(1200.0 <= s <= 3600.0 for s in samples)
        assert sum(samples) / len(samples) == pytest.approx(2400.0, rel=0.05)

    def test_holding_validation(self):
        with pytest.raises(ValueError):
            HoldingTimeDistribution(minimum=10.0, maximum=5.0)


class TestSnapshots:
    def test_count_and_bounds(self):
        times = snapshot_times(100.0, 40.0, 3)
        assert len(times) == 3
        assert times[0] > 40.0
        assert times[-1] == pytest.approx(100.0)

    def test_evenly_spaced(self):
        times = snapshot_times(100.0, 0.0, 4)
        assert times == [25.0, 50.0, 75.0, 100.0]

    def test_last_lands_on_the_horizon(self):
        # 123.4 / 51 * 51 rounds past 123.4: a replay would skip it.
        assert snapshot_times(123.4, 0.0, 51)[-1] == 123.4

    def test_validation(self):
        with pytest.raises(ValueError):
            snapshot_times(0.0, 0.0, 1)
        with pytest.raises(ValueError):
            snapshot_times(10.0, 10.0, 1)
        with pytest.raises(ValueError):
            snapshot_times(10.0, 0.0, 0)


class TestRngStreams:
    def test_derive_deterministic(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_derive_sensitive_to_names(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_streams_independent(self):
        a = seeded_rng(5, "arrivals")
        b = seeded_rng(5, "endpoints")
        assert [a.random() for _ in range(3)] != [
            b.random() for _ in range(3)
        ]

    def test_streams_reproducible(self):
        assert seeded_rng(9, "x").random() == seeded_rng(9, "x").random()

    def test_no_separator_collision(self):
        """Regression: a component containing the join separator must
        not collide with the split path (``("a|b",)`` vs ``("a", "b")``)."""
        assert derive_seed(1, "a|b") != derive_seed(1, "a", "b")
        assert derive_seed(1, "a|b", "c") != derive_seed(1, "a", "b|c")
        assert derive_seed(1, "a\\", "b") != derive_seed(1, "a", "\\b")
        assert derive_seed(1, "a\\|b") != derive_seed(1, "a|b")

    def test_separator_free_names_keep_legacy_fingerprints(self):
        """Every committed fixture (golden traces, EXPERIMENTS.md) was
        derived with the historical plain-join encoding; components
        without ``|`` or ``\\`` must keep deriving the same seeds."""
        import hashlib

        legacy = int.from_bytes(
            hashlib.sha256("7|3|UT|0.2".encode()).digest()[:8], "big"
        )
        assert derive_seed(7, 3, "UT", 0.2) == legacy
