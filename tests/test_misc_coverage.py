"""Coverage for small helpers not exercised elsewhere: figure
formatters, chart helpers, CLI campaign pass-through."""

import pytest

from repro.analysis.messages import SchemeOverhead
from repro.experiments.figure4 import chart_figure4, format_figure4
from repro.experiments.figure5 import chart_figure5, format_figure5


CURVES = {
    ("D-LSR", "UT"): [0.99, 0.98, 0.97],
    ("BF", "UT"): [0.94, 0.95, 0.94],
}
LAMS = (0.2, 0.3, 0.4)


class TestFigureFormatters:
    def test_format_figure4_layout(self):
        text = format_figure4(3, CURVES, lambdas=LAMS)
        assert "Figure 4(a)" in text
        assert "D-LSR, UT" in text
        assert "0.9900" in text

    def test_format_figure4_panel_b_label(self):
        text = format_figure4(4, CURVES, lambdas=LAMS)
        assert "Figure 4(b)" in text

    def test_format_figure5_layout(self):
        overhead = {key: [v * 20 for v in vals] for key, vals in CURVES.items()}
        text = format_figure5(3, overhead, lambdas=LAMS)
        assert "Figure 5(a)" in text
        assert "19.8" in text

    def test_chart_figure4_renders(self):
        chart = chart_figure4(3, CURVES, lambdas=LAMS)
        assert "P_act-bk vs lambda" in chart
        assert "legend:" in chart

    def test_chart_figure5_renders(self):
        chart = chart_figure5(4, CURVES, lambdas=LAMS)
        assert "E = 4" in chart


class TestSchemeOverheadTotals:
    def test_total_bytes_sums_components(self):
        overhead = SchemeOverhead(
            scheme="D-LSR",
            standing_database_bytes=100,
            update_bytes=50,
            discovery_bytes=0,
        )
        assert overhead.total_bytes == 150


class TestCliCampaign:
    def test_replay_rejects_multi_backup_for_unsupporting_scheme(
        self, tmp_path, monkeypatch
    ):
        import repro.cli as cli

        # no-backup scheme has no num_backups attribute.
        top = tmp_path / "n.json"
        scen = tmp_path / "s.json"
        cli.main(["topology", str(top), "--nodes", "10"])
        cli.main(["scenario", str(scen), "--nodes", "10", "--rate", "0.01",
                  "--duration", "300"])
        code = cli.main(["replay", str(top), str(scen),
                         "--scheme", "no-backup", "--num-backups", "2"])
        assert code == 2


class TestEngineRunUntilExactBoundary:
    def test_event_exactly_at_until_runs(self):
        from repro.simulation import Engine

        engine = Engine()
        fired = []
        engine.schedule(5.0, lambda: fired.append(1))
        engine.run(until=5.0)
        assert fired == [1]


class TestServiceCountersAcceptanceRatioEmpty:
    def test_zero_requests(self):
        from repro.core import ServiceCounters

        assert ServiceCounters().acceptance_ratio == 0.0
