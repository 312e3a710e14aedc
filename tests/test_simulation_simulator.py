"""Tests for the scenario simulator (replay semantics)."""

import pytest

from repro.core import DRTPService
from repro.routing import DLSRScheme, NoBackupScheme
from repro.simulation import (
    Observer,
    Scenario,
    ScenarioSimulator,
    generate_scenario,
)
from repro.topology import mesh_network


def small_scenario(lam=0.05, duration=2000.0, seed=3, num_nodes=9):
    return generate_scenario(num_nodes, lam, duration, seed=seed)


class _CountingObserver(Observer):
    def __init__(self):
        self.calls = []

    def on_snapshot(self, service, time):
        self.calls.append((time, service.active_connection_count))


class TestReplay:
    def test_counts_reconcile(self):
        net = mesh_network(3, 3, 30.0)
        service = DRTPService(net, DLSRScheme())
        scenario = small_scenario()
        result = ScenarioSimulator(
            service, scenario, warmup=1000.0, snapshot_count=2
        ).run()
        assert result.requests == scenario.num_requests
        assert result.accepted + sum(result.rejected.values()) == result.requests
        assert result.final_active <= result.accepted

    def test_departures_release_resources(self):
        net = mesh_network(3, 3, 30.0)
        service = DRTPService(net, DLSRScheme())
        # All lifetimes end before the horizon ends.
        scenario = small_scenario(duration=8000.0)
        ScenarioSimulator(service, scenario, warmup=4000.0).run()
        # Fast-forward: release everything still active.
        for conn in list(service.connections()):
            service.release(conn.connection_id)
        assert service.state.total_prime_bw() == pytest.approx(0.0)
        assert service.state.total_spare_bw() == pytest.approx(0.0)

    def test_observers_called_at_snapshots(self):
        net = mesh_network(3, 3, 30.0)
        service = DRTPService(net, DLSRScheme())
        observer = _CountingObserver()
        result = ScenarioSimulator(
            service, small_scenario(), warmup=1000.0, snapshot_count=4
        ).run(observers=(observer,))
        assert len(observer.calls) == 4
        assert [t for t, _ in observer.calls] == [
            t for t, _ in result.active_samples
        ]

    def test_streamed_scenario_without_horizon_ends_at_its_last_arrival(
        self
    ):
        requests = small_scenario(duration=8000.0).requests

        class Hooks(Observer):
            def __init__(self):
                self.admitted, self.departed = [], []

            def on_admission(self, service, request, decision, seconds):
                self.admitted.append(request.request_id)

            def on_departure(self, service, request):
                self.departed.append(request.departure_time)

        hooks = Hooks()
        service = DRTPService(mesh_network(3, 3, 30.0), DLSRScheme())
        result = ScenarioSimulator(
            service, Scenario(requests=iter(requests), duration=None)
        ).run(observers=(hooks,))
        assert hooks.admitted == [r.request_id for r in requests]
        assert max(hooks.departed) <= requests[-1].arrival_time
        assert result.active_samples == []
        assert result.final_active == service.active_connection_count > 0

    def test_invariant_checking_mode(self):
        net = mesh_network(3, 3, 30.0)
        service = DRTPService(net, DLSRScheme())
        simulator = ScenarioSimulator(
            service,
            small_scenario(duration=1000.0),
            warmup=500.0,
            check_invariants=True,
        )
        simulator.run()  # raises on any ledger inconsistency

    def test_same_scenario_same_results(self):
        scenario = small_scenario()
        results = []
        for _ in range(2):
            service = DRTPService(mesh_network(3, 3, 30.0), DLSRScheme())
            results.append(
                ScenarioSimulator(service, scenario, warmup=1000.0).run()
            )
        assert results[0].accepted == results[1].accepted
        assert results[0].active_samples == results[1].active_samples

    def test_mean_active_and_acceptance_properties(self):
        service = DRTPService(
            mesh_network(3, 3, 30.0), NoBackupScheme(), require_backup=False
        )
        result = ScenarioSimulator(
            service, small_scenario(), warmup=1000.0, snapshot_count=2
        ).run()
        assert 0.0 <= result.acceptance_ratio <= 1.0
        assert result.mean_active_connections >= 0.0

    def test_empty_scenario(self):
        service = DRTPService(mesh_network(3, 3, 30.0), DLSRScheme())
        result = ScenarioSimulator(
            service, Scenario(requests=[], duration=100.0), warmup=50.0
        ).run()
        assert result.requests == 0
        assert result.acceptance_ratio == 0.0
        assert result.mean_active_connections == 0.0
