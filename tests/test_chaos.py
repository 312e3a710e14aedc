"""Chaos-campaign smoke tests.

A short but hostile campaign — every fault family enabled well above
baseline, a deliberately weak retry policy — must finish with every
invariant check clean, must actually exercise each fault type, and
must leave no degraded connection in limbo: each one either regains a
backup or departs.  And running it twice from the same seed must
produce bit-for-bit identical reports.
"""

import json

import pytest

from repro.cli import main as cli_main
from repro.faults import (
    BURST_DOWN,
    FLAP_DOWN,
    REFRESH,
    REGIONAL_DOWN,
    STALENESS,
    CampaignConfig,
    FaultPlan,
    RetryPolicy,
    run_campaign,
)
from repro.observability import (
    TraceCollector,
    read_ndjson,
    validate_chrome_trace,
)

PLAN = FaultPlan.everything(intensity=5.0)
CONFIG = CampaignConfig(rows=6, cols=6, duration=150.0, arrival_rate=1.5,
                        seed=5)
#: Weak on purpose: two attempts and a tight deadline force degraded
#: admissions, so the background re-establishment loop gets exercised.
POLICY = RetryPolicy(max_attempts=2, deadline=5.0)


@pytest.fixture(scope="module")
def report():
    return run_campaign(PLAN, CONFIG, retry_policy=POLICY)


class TestSmoke:
    def test_every_fault_family_fired(self, report):
        kinds = set(report.faults_injected)
        assert FLAP_DOWN in kinds
        assert BURST_DOWN in kinds
        assert STALENESS in kinds
        assert REFRESH in kinds

    def test_signaling_faults_all_occurred(self, report):
        assert report.signaling_drops > 0
        assert report.signaling_crashes > 0
        assert report.signaling_duplicates > 0
        assert report.signaling_retries > 0

    def test_invariants_checked_after_every_fault(self, report):
        # One check per injected fault, plus the post-settle check.
        assert report.invariant_checks >= report.total_faults

    def test_no_degraded_connection_left_in_limbo(self, report):
        assert report.degraded_admissions > 0
        assert report.degraded_unresolved == 0
        assert (
            report.degraded_reprotected
            + report.degraded_departed_unprotected
            == report.degraded_admissions
        )

    def test_most_degraded_connections_reprotected(self, report):
        assert report.degraded_recovery_ratio >= 0.9
        assert report.backups_reestablished > 0
        assert report.recovery_latencies
        assert report.mean_recovery_latency > 0

    def test_workload_survived(self, report):
        assert report.requests > 0
        assert report.accepted > 0
        assert report.acceptance_ratio > 0.9


class TestDeterminism:
    def test_same_seed_is_bit_identical(self, report):
        rerun = run_campaign(PLAN, CONFIG, retry_policy=POLICY)
        assert rerun.to_dict() == report.to_dict()

    def test_report_round_trips_through_json(self, report):
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["degraded"]["unresolved"] == 0


class TestQuietPlan:
    def test_no_faults_means_no_degradation(self):
        quiet = run_campaign(FaultPlan.quiet(), CONFIG, retry_policy=POLICY)
        assert quiet.total_faults == 0
        assert quiet.degraded_admissions == 0
        assert quiet.signaling_drops == 0
        assert quiet.signaling_retries == 0
        assert quiet.mean_unprotected_ratio == 0.0


class TestConduitCampaign:
    """Regional chaos: whole row/column conduits cut at once."""

    CUT_PLAN = FaultPlan.conduit_cut(rate=0.04, down_min=5.0,
                                     down_max=20.0)
    CUT_CONFIG = CampaignConfig(rows=6, cols=6, duration=250.0,
                                arrival_rate=1.5, seed=3,
                                srlg="conduits")

    @pytest.fixture(scope="class")
    def cut_report(self):
        return run_campaign(self.CUT_PLAN, self.CUT_CONFIG,
                            retry_policy=POLICY)

    def test_conduit_cuts_fired_and_were_recorded(self, cut_report):
        assert REGIONAL_DOWN in set(cut_report.faults_injected)
        assert cut_report.srlg_mode == "conduits"
        assert cut_report.group_failures > 0
        # A 6x6 conduit bundles both directions of 5 edges.
        assert cut_report.group_links_failed >= (
            10 * cut_report.group_failures
        )
        assert 0.0 <= cut_report.p_act_bk_group <= 1.0
        assert (
            cut_report.group_activations_won
            + cut_report.group_activations_lost
        ) == sum(cut_report.group_activation_reasons.values())

    def test_report_carries_the_srlg_section(self, cut_report):
        payload = json.loads(json.dumps(cut_report.to_dict()))
        srlg = payload["srlg"]
        assert srlg["mode"] == "conduits"
        assert srlg["group_failures"] == cut_report.group_failures
        assert srlg["p_act_bk_group"] == cut_report.p_act_bk_group
        assert "correlated cuts applied" in cut_report.format()

    def test_same_seed_is_bit_identical(self, cut_report):
        rerun = run_campaign(self.CUT_PLAN, self.CUT_CONFIG,
                             retry_policy=POLICY)
        assert rerun.to_dict() == cut_report.to_dict()

    def test_srlg_mode_plan_requires_conduit_campaign(self):
        """A conduit-cut plan on an SRLG-less campaign has no groups to
        sample from and must fail loudly, not silently skip."""
        from repro.core.errors import FaultInjectionError

        config = CampaignConfig(rows=6, cols=6, duration=60.0,
                                arrival_rate=1.0, seed=1, srlg="none")
        with pytest.raises(FaultInjectionError):
            run_campaign(self.CUT_PLAN, config, retry_policy=POLICY)

    def test_blackout_plan_needs_no_srlg(self):
        config = CampaignConfig(rows=5, cols=5, duration=200.0,
                                arrival_rate=1.0, seed=2, srlg="none")
        report = run_campaign(
            FaultPlan.regional_blackout(rate=0.03, down_min=5.0,
                                        down_max=15.0),
            config, retry_policy=POLICY,
        )
        assert REGIONAL_DOWN in set(report.faults_injected)
        assert report.srlg_mode == "none"
        assert report.group_failures > 0

    def test_quiet_campaign_reports_no_group_failures(self, report):
        assert report.srlg_mode == "none"
        # The hostile default plan injects bursts but no *regional*
        # events, so the SRLG section stays empty.
        assert report.group_failures == 0
        assert "srlg" in report.to_dict()


class TestTracingAndCli:
    def test_tracer_records_faults_and_recoveries(self, report):
        """Under an open span the campaign records its faults, degraded
        admissions and re-protections, each engine action stamped with
        its simulated time — and the traced report is the untraced
        one."""
        collector = TraceCollector()
        with collector.span("chaos.campaign", "chaos") as root:
            traced = run_campaign(PLAN, CONFIG, retry_policy=POLICY)
        assert traced.to_dict() == report.to_dict()
        by_id = {span.span_id: span for span in collector}
        faults = collector.spans("chaos.fault")
        assert faults
        assert all(span.parent_id == root.span_id for span in faults)
        assert any(
            span.tags["degraded"] for span in collector.spans("service.admit")
        )
        restored = [
            span for span in collector.spans("service.reestablish")
            if span.tags["restored"]
        ]
        assert restored
        for span in collector.spans():
            if span.name.startswith("service."):
                parent = by_id[span.parent_id]
                assert parent.name.startswith("chaos."), span
                assert "time" in parent.tags, parent

    def test_cli_chaos_writes_report(self, tmp_path, capsys):
        out = tmp_path / "chaos.json"
        log = tmp_path / "chaos.log"
        code = cli_main(
            [
                "chaos",
                "--rows", "4", "--cols", "4",
                "--rate", "1.0",
                "--duration", "60",
                "--intensity", "3.0",
                "--seed", "9",
                "--report", str(out),
                "--log", str(log),
                "--verify",
                "--trace-dir", str(tmp_path / "trace"),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["seed"] == 9
        assert "degraded" in payload
        printed = capsys.readouterr().out
        assert "fault plan" in printed
        assert "reproducible" in printed
        assert "fault plan" in log.read_text()
        meta, spans = read_ndjson(tmp_path / "trace" / "chaos_trace.ndjson")
        assert meta["dropped"] == 0
        (root,) = [span for span in spans if span["parent_id"] is None]
        assert root["name"] == "chaos.campaign"
        assert root["tags"]["seed"] == 9
        validate_chrome_trace(json.loads(
            (tmp_path / "trace" / "chaos_trace.json").read_text()
        ))

    def test_cli_chaos_srlg_conduits(self, tmp_path, capsys):
        plan_path = tmp_path / "cut.json"
        FaultPlan.conduit_cut(rate=0.05, down_min=5.0,
                              down_max=20.0).save(plan_path)
        out = tmp_path / "srlg.json"
        code = cli_main(
            [
                "chaos",
                "--rows", "5", "--cols", "5",
                "--rate", "1.0",
                "--duration", "200",
                "--seed", "4",
                "--srlg", "conduits",
                "--plan", str(plan_path),
                "--log", "none",
                "--report", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["srlg"]["mode"] == "conduits"
        assert payload["srlg"]["group_failures"] > 0
        assert "correlated cuts applied" in capsys.readouterr().out
