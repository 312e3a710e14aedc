"""Tests for the experiment harness (config, sweep, figures, ablations).

Simulation-heavy paths run at SMOKE scale so the suite stays fast; the
assertions target plumbing correctness (determinism, shared scenarios,
well-formed outputs), not the paper's numbers — those live in the
benchmarks.
"""

import pytest

from repro.experiments import (
    DEFAULT_PARAMETERS,
    FIGURE_LAMBDAS,
    PAPER_SCHEMES,
    SMOKE_SCALE,
    CellSpec,
    cell_scenario,
    figure4_panel,
    figure5_panel,
    format_figure4,
    format_table1,
    make_network,
    make_scheme,
    make_traffic_pattern,
    network_property_rows,
    run_cell,
    run_cell_cached,
    table1_rows,
)


class TestConfig:
    def test_table1_parameters_match_paper_constants(self):
        params = DEFAULT_PARAMETERS
        assert params.num_nodes == 60
        assert params.average_degrees == (3, 4)
        assert params.holding.minimum == 20 * 60
        assert params.holding.maximum == 60 * 60
        assert params.lambdas[0] == 0.2 and params.lambdas[-1] == 1.0
        assert params.traffic_patterns == ("UT", "NT")
        assert params.hot_destinations == 10
        assert params.hot_fraction == 0.5

    def test_table1_rows_cover_every_parameter(self):
        labels = [label for label, _ in table1_rows()]
        for needle in ("nodes", "degree", "capacity", "lifetime",
                       "lambda", "patterns", "BF"):
            assert any(needle in label for label in labels), needle

    def test_network_cached_and_degree_correct(self):
        a = make_network(3)
        b = make_network(3)
        assert a is b
        assert a.num_nodes == 60
        assert a.average_degree() == pytest.approx(3.0, abs=0.1)
        assert make_network(4).average_degree() == pytest.approx(4.0, abs=0.1)
        assert all(make_network(d).is_connected()
                   and make_network(d).num_nodes == 60 for d in (3, 4))

    def test_network_property_rows(self):
        rows = dict(network_property_rows())
        assert "E = 3 network: diameter" in rows

    def test_figure_lambda_ranges(self):
        assert FIGURE_LAMBDAS[3][0] == 0.2
        assert FIGURE_LAMBDAS[4][-1] == 0.9

    def test_format_table1_renders(self):
        text = format_table1()
        assert "Table 1" in text
        assert "60" in text
        assert "uniform [20, 60] min" in text


class TestSchemeFactory:
    def test_known_names(self):
        for name in PAPER_SCHEMES + ("disjoint", "random", "no-backup"):
            assert make_scheme(name).name == name

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_scheme("OSPF")


class TestTrafficPatternFactory:
    def test_nt_hot_set_stable_across_rates(self):
        a = make_traffic_pattern("NT", DEFAULT_PARAMETERS, 7, 3)
        b = make_traffic_pattern("NT", DEFAULT_PARAMETERS, 7, 3)
        assert a.hot_nodes == b.hot_nodes

    def test_nt_hot_set_varies_by_degree_network(self):
        a = make_traffic_pattern("NT", DEFAULT_PARAMETERS, 7, 3)
        b = make_traffic_pattern("NT", DEFAULT_PARAMETERS, 7, 4)
        assert a.hot_nodes != b.hot_nodes


class TestCellScenario:
    def test_deterministic(self):
        spec = CellSpec(degree=3, pattern="UT", lam=0.3)
        a = cell_scenario(spec, SMOKE_SCALE)
        b = cell_scenario(spec, SMOKE_SCALE)
        assert a.num_requests == b.num_requests
        assert a.requests[0] == b.requests[0]

    def test_pattern_recorded(self):
        spec = CellSpec(degree=3, pattern="NT", lam=0.3)
        scenario = cell_scenario(spec, SMOKE_SCALE)
        assert scenario.metadata["pattern"] == "NT"


@pytest.mark.slow
class TestRunCell:
    @pytest.fixture(scope="class")
    def cell(self):
        return run_cell(
            CellSpec(degree=3, pattern="UT", lam=0.3),
            schemes=("D-LSR", "BF"),
            scale=SMOKE_SCALE,
        )

    def test_every_scheme_present(self, cell):
        assert set(cell) == {"D-LSR", "BF"}

    def test_point_fields_sane(self, cell):
        for point in cell.values():
            assert 0.0 <= point.fault_tolerance <= 1.0
            assert 0.0 <= point.acceptance_ratio <= 1.0
            assert point.overhead_percent >= 0.0
            assert point.mean_active > 0
            assert point.baseline_mean_active > 0

    def test_bf_counts_messages_lsr_does_not(self, cell):
        assert cell["BF"].messages_per_request > 0
        assert cell["D-LSR"].messages_per_request == 0

    def test_cache_returns_same_object(self):
        spec = CellSpec(degree=3, pattern="UT", lam=0.3)
        a = run_cell_cached(spec, ("D-LSR",), SMOKE_SCALE)
        b = run_cell_cached(spec, ("D-LSR",), SMOKE_SCALE)
        assert a is b


class TestCsvExport:
    CURVES = {
        ("D-LSR", "UT"): [0.99, 0.98],
        ("BF", "UT"): [0.94, 0.95],
    }

    def test_panel_rows_shape(self):
        from repro.experiments import panel_rows

        header, rows = panel_rows(self.CURVES, [0.2, 0.3])
        assert header == ["lambda", "BF UT", "D-LSR UT"]
        assert rows == [[0.2, 0.94, 0.99], [0.3, 0.95, 0.98]]

    def test_round_trip(self, tmp_path):
        from repro.experiments import read_panel_csv, write_panel_csv

        path = tmp_path / "panel.csv"
        write_panel_csv(path, self.CURVES, [0.2, 0.3])
        header, rows = read_panel_csv(path)
        assert header[0] == "lambda"
        assert rows[0][0] == 0.2
        assert rows[1][2] == 0.98

    @pytest.mark.slow
    def test_export_campaign_smoke(self, tmp_path, monkeypatch):
        """Exercise export_campaign against tiny stubbed panels (the
        real campaign is benchmarked elsewhere)."""
        from repro.experiments import export as export_module

        def fake_panel(degree, scale=None, master_seed=None):
            lams = export_module.FIGURE_LAMBDAS[degree]
            return {("D-LSR", "UT"): [0.99] * len(lams)}

        monkeypatch.setattr(export_module, "figure4_panel", fake_panel)
        monkeypatch.setattr(export_module, "figure5_panel", fake_panel)
        written = export_module.export_campaign(tmp_path)
        assert len(written) == 4
        assert all(path.exists() for path in written)


@pytest.mark.slow
class TestMultiSeedAggregation:
    def test_aggregate_fields(self):
        from repro.experiments import run_cell_seeds

        aggs = run_cell_seeds(
            CellSpec(degree=3, pattern="UT", lam=0.3),
            seeds=(1, 2),
            schemes=("D-LSR",),
            scale=SMOKE_SCALE,
        )
        point = aggs["D-LSR"]
        assert point.seeds == 2
        assert 0.0 <= point.fault_tolerance_mean <= 1.0
        assert point.fault_tolerance_std >= 0.0
        assert point.overhead_mean >= 0.0

    def test_single_seed_zero_std(self):
        from repro.experiments import run_cell_seeds

        aggs = run_cell_seeds(
            CellSpec(degree=3, pattern="UT", lam=0.3),
            seeds=(1,),
            schemes=("D-LSR",),
            scale=SMOKE_SCALE,
        )
        assert aggs["D-LSR"].fault_tolerance_std == 0.0

    def test_empty_seeds_rejected(self):
        from repro.experiments import run_cell_seeds

        with pytest.raises(ValueError):
            run_cell_seeds(
                CellSpec(degree=3, pattern="UT", lam=0.3), seeds=()
            )


@pytest.mark.slow
class TestFigurePanels:
    def test_figure4_panel_shape(self):
        curves = figure4_panel(
            3,
            lambdas=(0.3,),
            patterns=("UT",),
            schemes=("D-LSR", "BF"),
            scale=SMOKE_SCALE,
        )
        assert set(curves) == {("D-LSR", "UT"), ("BF", "UT")}
        assert all(len(v) == 1 for v in curves.values())
        text = format_figure4(3, curves, lambdas=(0.3,))
        assert "Figure 4(a)" in text

    def test_figure5_shares_campaign_with_figure4(self):
        # Same args -> served from the sweep cache, no re-simulation.
        curves = figure5_panel(
            3,
            lambdas=(0.3,),
            patterns=("UT",),
            schemes=("D-LSR", "BF"),
            scale=SMOKE_SCALE,
        )
        assert all(v[0] >= 0.0 for v in curves.values())
