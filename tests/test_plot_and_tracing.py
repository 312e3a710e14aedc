"""Tests for ASCII charting and structured tracing."""

import pytest

from repro.analysis import ascii_chart
from repro.core import DRTPService
from repro.routing import DLSRScheme
from repro.observability import TraceCollector
from repro.topology import line_network, mesh_network


class TestAsciiChart:
    def test_basic_render(self):
        chart = ascii_chart(
            [0.2, 0.4, 0.6],
            {"D-LSR": [0.99, 0.98, 0.97], "BF": [0.94, 0.94, 0.95]},
            title="FT",
        )
        assert "FT" in chart
        assert "legend:" in chart
        assert "o D-LSR" in chart
        assert "x BF" in chart

    def test_extreme_points_on_grid(self):
        chart = ascii_chart([0.0, 1.0], {"s": [0.0, 1.0]}, width=20,
                            height=10)
        lines = chart.splitlines()
        plot_rows = [l for l in lines if "|" in l]
        # Max lands on the top row, min on the bottom row.
        assert "o" in plot_rows[0]
        assert "o" in plot_rows[-1]

    def test_y_range_override(self):
        chart = ascii_chart([0, 1], {"s": [0.5, 0.5]}, y_min=0.0, y_max=1.0)
        assert "1" in chart.splitlines()[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            ascii_chart([], {"s": []})
        with pytest.raises(ValueError):
            ascii_chart([1], {})
        with pytest.raises(ValueError):
            ascii_chart([1, 2], {"s": [1]})
        with pytest.raises(ValueError):
            ascii_chart([1], {"s": [1]}, width=2)

    def test_flat_series_does_not_crash(self):
        ascii_chart([1, 2, 3], {"s": [5.0, 5.0, 5.0]})

    def test_many_series_cycle_markers(self):
        series = {"s{}".format(i): [i, i + 1] for i in range(10)}
        chart = ascii_chart([0, 1], series)
        assert "legend:" in chart


class TestTracingService:
    """A service's operations, as its span forest records them."""

    @pytest.fixture
    def traced(self):
        collector = TraceCollector()
        service = DRTPService(
            mesh_network(3, 3, 10.0), DLSRScheme(), trace=collector
        )
        return service, collector

    def test_admission_traced(self, traced):
        service, collector = traced
        with collector.span("step", time=10.0) as step:
            decision = service.admit(_request(0, 0, 8))
        assert decision.accepted
        (span,) = collector.spans("service.admit")
        assert span.parent_id == step.span_id
        assert step.tags["time"] == 10.0
        assert span.tags["source"] == 0
        assert span.tags["backups"] == 1

    def test_rejection_traced(self):
        collector = TraceCollector()
        service = DRTPService(
            line_network(3, 1.0), DLSRScheme(), trace=collector
        )
        service.admit(_request(0, 0, 2))   # takes the only path (no backup)
        assert [
            span.tags["accepted"] for span in collector.spans("service.admit")
        ] == [False]
        # (line network: no distinct backup route exists at all)

    def test_release_and_failure_traced(self, traced):
        service, collector = traced
        decision = service.admit(_request(0, 0, 8))
        service.fail_link(decision.connection.primary_route.link_ids[0])
        (failure,) = collector.spans("service.fail_link")
        assert failure.tags["activated"] == 1
        (outcome,) = failure.tags["outcomes"]
        assert outcome["success"] is True
        with collector.span("step", time=30.0) as step:
            service.release(decision.connection.connection_id)
        (release,) = collector.spans("service.release")
        assert release.parent_id == step.span_id
        assert release.tags["connection"] == decision.connection.connection_id


def _request(request_id, source, destination, bw=1.0):
    from repro.core import ConnectionRequest

    return ConnectionRequest(
        request_id=request_id, source=source, destination=destination,
        bw_req=bw,
    )
