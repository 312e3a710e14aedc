"""Unit tests for the sharded campaign subsystem
(:mod:`repro.campaign`): job model, result serialization, checkpoint
journal, the worker pool's failure handling, torn writes, and the
traced campaign.

The end-to-end equivalence and kill/resume tests live in
``tests/test_campaign_equivalence.py``.
"""

import json
import multiprocessing
import os
from collections import Counter

import pytest

from repro.analysis.fault_tolerance import FaultToleranceStats
from repro.campaign import (
    CampaignError,
    CampaignSpec,
    CampaignJournal,
    campaign_status,
    execute_job,
    point_from_dict,
    point_to_dict,
    resume_campaign,
    run_campaign_jobs,
)
from repro.campaign import orchestrator
from repro.campaign.orchestrator import (
    JOURNAL_NAME,
    MANIFEST_NAME,
    POOL_BREAKS,
)
from repro.cli import main
from repro.experiments.config import FIGURE_LAMBDAS
from repro.experiments.sweep import PointResult
from repro.observability import TraceCollector
from repro.simulation.simulator import SimulationResult


# ----------------------------------------------------------------------
# Job model
# ----------------------------------------------------------------------
class TestCampaignSpec:
    def test_default_grid_matches_figures(self):
        spec = CampaignSpec()
        jobs = spec.jobs()
        assert len(jobs) == sum(
            len(FIGURE_LAMBDAS[d]) * 2 for d in (3, 4)
        )
        assert [job.index for job in jobs] == list(range(len(jobs)))
        assert jobs[0].job_id == "E3/UT/lam0.2"

    def test_job_ids_unique_and_deterministic(self):
        spec = CampaignSpec(scale="smoke")
        ids = [job.job_id for job in spec.jobs()]
        assert len(set(ids)) == len(ids)
        assert ids == [job.job_id for job in spec.jobs()]

    def test_explicit_lambdas_override_panels(self):
        spec = CampaignSpec(degrees=(3,), patterns=("UT",),
                            lambdas=(0.2, 0.4))
        assert [job.lam for job in spec.jobs()] == [0.2, 0.4]

    def test_scenario_seed_matches_sequential_derivation(self):
        from repro.simulation.rng import derive_seed

        job = CampaignSpec(master_seed=11).jobs()[0]
        assert job.scenario_seed == derive_seed(
            11, job.degree, job.pattern, job.lam
        )

    def test_fingerprint_sensitivity(self):
        base = CampaignSpec()
        assert base.fingerprint() == CampaignSpec().fingerprint()
        assert base.fingerprint() != CampaignSpec(scale="smoke").fingerprint()
        assert base.fingerprint() != CampaignSpec(master_seed=8).fingerprint()

    def test_round_trip(self):
        spec = CampaignSpec(scale="smoke", degrees=(4,), lambdas=(0.5,))
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_scale_rejected(self):
        with pytest.raises(CampaignError):
            CampaignSpec(scale="galactic")


class TestPointSerialization:
    def _point(self):
        # Deliberately awkward floats: serialization must round-trip
        # exact bits, not pretty decimals.
        stats = FaultToleranceStats(
            attempts=7, successes=6,
            failures_by_reason={"spare-exhausted": 1},
            links_swept=30, snapshots=3,
        )
        sim = SimulationResult(
            scheme="D-LSR", duration=0.1 + 0.2, warmup=1.0 / 3.0,
            requests=10, accepted=9, rejected={"no-backup-route": 1},
            control_messages=123,
            active_samples=[(0.1, 3), (0.2, 4)], final_active=2,
        )
        return PointResult(
            scheme="D-LSR", degree=3, pattern="UT", lam=0.30000000000000004,
            fault_tolerance=6.0 / 7.0, overhead_percent=100.0 / 3.0,
            acceptance_ratio=0.9, mean_active=3.5,
            baseline_mean_active=3.7, messages_per_request=12.3,
            mean_spare_fraction=0.123456789012345678,
            ft_stats=stats, sim=sim,
        )

    def test_exact_round_trip(self):
        point = self._point()
        restored = point_from_dict(point_to_dict(point))
        assert restored == point

    def test_round_trip_through_json_text(self):
        point = self._point()
        restored = point_from_dict(
            json.loads(json.dumps(point_to_dict(point)))
        )
        assert restored == point
        assert restored.lam == point.lam
        assert restored.sim.active_samples == point.sim.active_samples


# ----------------------------------------------------------------------
# Checkpoint journal
# ----------------------------------------------------------------------
def _cell_record(job_id, index=0):
    return {"job_id": job_id, "index": index, "scenario_seed": 1,
            "points": {}}


class TestJournal:
    def test_header_and_cells_round_trip(self, tmp_path):
        spec = CampaignSpec(scale="smoke")
        journal = CampaignJournal(tmp_path / "j.jsonl")
        journal.write_header(spec)
        journal.append_cell(_cell_record("E3/UT/lam0.2"), worker=1,
                            elapsed=2.5)
        state = journal.load()
        assert state.spec == spec
        assert state.fingerprint == spec.fingerprint()
        assert state.completed_ids == ["E3/UT/lam0.2"]
        record = state.cells["E3/UT/lam0.2"]
        assert record["worker"] == 1 and record["elapsed"] == 2.5

    def test_missing_journal_is_empty(self, tmp_path):
        state = CampaignJournal(tmp_path / "absent.jsonl").load()
        assert state.spec is None and not state.cells

    def test_torn_final_line_tolerated(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j.jsonl")
        journal.write_header(CampaignSpec(scale="smoke"))
        journal.append_cell(_cell_record("a"))
        with open(journal.path, "a") as handle:
            handle.write('{"kind": "cell", "job_id": "b", "poi')
        state = journal.load()
        assert state.completed_ids == ["a"]
        assert state.dropped_tail

    def test_torn_tail_offset_is_the_last_complete_line(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j.jsonl")
        journal.write_header(CampaignSpec(scale="smoke"))
        journal.append_cell(_cell_record("a"))
        clean = journal.path.stat().st_size
        assert journal.load().end == clean
        # A whole record that lost its newline is torn too: the next
        # append would glue onto it.
        with open(journal.path, "a") as handle:
            handle.write(json.dumps(dict(_cell_record("b"), kind="cell")))
        state = journal.load()
        assert state.completed_ids == ["a"]
        assert state.dropped_tail and state.end == clean
        journal.truncate(state.end)
        journal.append_cell(_cell_record("b"))
        assert journal.load().completed_ids == ["a", "b"]

    def test_corrupt_middle_line_raises(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j.jsonl")
        journal.write_header(CampaignSpec(scale="smoke"))
        with open(journal.path, "a") as handle:
            handle.write("garbage\n")
        journal.append_cell(_cell_record("a"))
        with pytest.raises(CampaignError, match="corrupt journal"):
            journal.load()

    def test_duplicate_cell_keeps_first(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j.jsonl")
        journal.write_header(CampaignSpec(scale="smoke"))
        journal.append_cell(_cell_record("a"), worker=0)
        journal.append_cell(_cell_record("a"), worker=5)
        assert journal.load().cells["a"]["worker"] == 0

    def test_cell_before_header_raises(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j.jsonl")
        journal.append_cell(_cell_record("a"))
        with pytest.raises(CampaignError, match="before the campaign"):
            journal.load()


# ----------------------------------------------------------------------
# Orchestrator guard rails (cheap paths only; heavy paths in the
# equivalence suite)
# ----------------------------------------------------------------------
class TestOrchestratorGuards:
    def test_fresh_dir_without_spec_rejected(self, tmp_path):
        with pytest.raises(CampaignError, match="needs a spec"):
            run_campaign_jobs(None, tmp_path / "c")

    def test_existing_journal_requires_resume(self, tmp_path):
        spec = CampaignSpec(scale="smoke", degrees=(3,), patterns=("UT",),
                            lambdas=(0.2,))
        journal = CampaignJournal(tmp_path / "c" / "campaign_journal.jsonl")
        journal.write_header(spec)
        with pytest.raises(CampaignError, match="resume"):
            run_campaign_jobs(spec, tmp_path / "c")

    def test_run_all_rerun_into_a_journalled_dir_is_one_line(
        self, tmp_path, capsys
    ):
        from repro.experiments import run_all

        spec = CampaignSpec(scale="smoke", degrees=(3,), patterns=("UT",),
                            lambdas=(0.2,))
        directory = tmp_path / "c"
        journal = CampaignJournal(directory / "campaign_journal.jsonl")
        journal.write_header(spec)
        before = journal.path.read_bytes()
        assert run_all.main([
            "--scale", "smoke", "--jobs", "2",
            "--campaign-dir", str(directory),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("run_all: {} already holds a campaign "
                              "journal".format(directory))
        assert err.count("\n") == 1
        assert journal.path.read_bytes() == before

    def test_resume_with_mismatched_spec_rejected(self, tmp_path):
        spec = CampaignSpec(scale="smoke", degrees=(3,), patterns=("UT",),
                            lambdas=(0.2,))
        journal = CampaignJournal(tmp_path / "c" / "campaign_journal.jsonl")
        journal.write_header(spec)
        other = CampaignSpec(scale="smoke", degrees=(3,), patterns=("UT",),
                             lambdas=(0.3,))
        with pytest.raises(CampaignError, match="different campaign spec"):
            run_campaign_jobs(other, tmp_path / "c", resume=True)

    def test_resume_empty_dir_rejected(self, tmp_path):
        with pytest.raises(CampaignError, match="nothing to resume"):
            run_campaign_jobs(None, tmp_path / "c", resume=True)

    def test_status_on_empty_dir_rejected(self, tmp_path):
        with pytest.raises(CampaignError, match="holds no campaign"):
            campaign_status(tmp_path)

    def test_status_from_journal_without_manifest(self, tmp_path):
        spec = CampaignSpec(scale="smoke", degrees=(3,), patterns=("UT",),
                            lambdas=(0.2, 0.3))
        journal = CampaignJournal(tmp_path / "campaign_journal.jsonl")
        journal.write_header(spec)
        journal.append_cell(_cell_record("E3/UT/lam0.2"))
        status = campaign_status(tmp_path)
        assert status["status"] == "interrupted"
        assert status["cells_done"] == 1
        assert status["cells_total"] == 2


# ----------------------------------------------------------------------
# The worker pool: a dead worker, a cell that raises, an early stop; a
# traced run; torn writes.  The orchestrator reads ``execute_job`` from
# its module when it submits a cell, so these tests swap in the
# module-level stand-ins below; fork hands them (and ``_MARKERS``) to
# the workers.
# ----------------------------------------------------------------------
#: Two real smoke cells: E3/UT/lam0.4 and E3/UT/lam0.6.
SMALL = CampaignSpec(scale="smoke", degrees=(3,), patterns=("UT",),
                     lambdas=(0.4, 0.6))
OUTPUTS = ("figure4_E3.csv", "figure5_E3.csv", "campaign_points.csv")

#: Directory of the stand-ins' attempt log (set per test).
_MARKERS = None


def _attempts():
    log = os.path.join(_MARKERS, "attempts")
    if not os.path.exists(log):
        return Counter()
    with open(log) as handle:
        return Counter(handle.read().split())


def _mark(name):
    """Log one attempt of ``name``; True if it was tried before."""
    seen = _attempts()[name] > 0
    with open(os.path.join(_MARKERS, "attempts"), "a") as handle:
        handle.write(name + "\n")
    return seen


def _dies_once(job, traced):
    """Cell 0 kills its worker on its first attempt (an OOM kill)."""
    if job.index == 0 and not _mark("cell0"):
        os._exit(17)
    return execute_job(job, traced)


def _always_dies(job, traced):
    _mark("cell{}".format(job.index))
    os._exit(17)


def _instant(job, traced):
    """A payload with no points, returned at once."""
    return {"job_id": job.job_id, "index": job.index,
            "scenario_seed": job.scenario_seed, "points": {},
            "pid": os.getpid(), "elapsed": 0.0}


def _cell1_raises(job, traced):
    if job.index == 1:
        _mark("cell1")
        raise RuntimeError("cell one is broken")
    return _instant(job, traced)


def _output_bytes(directory):
    return {name: (directory / name).read_bytes() for name in OUTPUTS}


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """``SMALL`` run inline: the bytes every other run must match."""
    directory = tmp_path_factory.mktemp("reference")
    assert run_campaign_jobs(SMALL, directory, jobs=1).complete
    return directory


@pytest.fixture
def stand_in(tmp_path, monkeypatch):
    """Swap the orchestrator's ``execute_job`` for a stand-in."""
    monkeypatch.setitem(globals(), "_MARKERS", str(tmp_path))

    def install(function):
        monkeypatch.setattr(orchestrator, "execute_job", function)

    return install


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the stand-ins reach the workers by fork",
)
class TestWorkerPool:
    def test_runs_all_jobs(self, reference, tmp_path):
        result = run_campaign_jobs(SMALL, tmp_path / "c", jobs=2)
        assert result.complete and result.resumed_cells == 0
        cells = CampaignJournal(tmp_path / "c" / JOURNAL_NAME).load().cells
        assert sorted(cells) == [job.job_id for job in SMALL.jobs()]
        # Worker lanes count from 0 in the order results come in.
        assert {record["worker"] for record in cells.values()} <= {0, 1}
        assert _output_bytes(tmp_path / "c") == _output_bytes(reference)

    def test_survives_worker_death(self, reference, stand_in, tmp_path):
        stand_in(_dies_once)
        result = run_campaign_jobs(SMALL, tmp_path / "c", jobs=2)
        assert result.complete and result.resumed_cells == 0
        assert _attempts()["cell0"] == 2  # died once, then ran
        assert _output_bytes(tmp_path / "c") == _output_bytes(reference)

    def test_cell_that_always_kills_its_worker_is_named(
        self, stand_in, tmp_path
    ):
        stand_in(_always_dies)
        with pytest.raises(CampaignError, match="pool broke") as excinfo:
            run_campaign_jobs(SMALL, tmp_path / "c", jobs=2)
        assert "E3/UT/lam0.4" in str(excinfo.value)
        assert "E3/UT/lam0.6" in str(excinfo.value)
        # Each pool tries a cell once at most: the bound is the pools.
        attempts = _attempts()
        assert sum(attempts.values()) >= POOL_BREAKS
        assert max(attempts.values()) <= POOL_BREAKS

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cell_that_raises_ends_the_campaign_at_once(
        self, stand_in, tmp_path, jobs
    ):
        stand_in(_cell1_raises)
        with pytest.raises(CampaignError, match="E3/UT/lam0.6") as excinfo:
            run_campaign_jobs(SMALL, tmp_path / "c", jobs=jobs)
        # The worker's traceback comes along, and nothing retried.
        assert "cell one is broken" in str(excinfo.value)
        assert "_cell1_raises" in str(excinfo.value)
        assert _attempts()["cell1"] == 1

    def test_stop_after_limits_completions(self, stand_in, tmp_path, capsys):
        stand_in(_instant)
        spec = CampaignSpec(scale="smoke", degrees=(3, 4),
                            patterns=("UT", "NT"), lambdas=(0.4, 0.6))
        result = run_campaign_jobs(spec, tmp_path / "c", jobs=2,
                                   stop_after_cells=3)
        assert not result.complete
        assert result.manifest["cells_done"] == 3
        journal = CampaignJournal(tmp_path / "c" / JOURNAL_NAME)
        assert len(journal.load().cells) == 3
        # One stderr line per journalled cell, and none for the rest.
        lines = capsys.readouterr().err.splitlines()
        assert [line.split()[1] for line in lines] == ["1/8", "2/8", "3/8"]
        assert all(line.startswith("[campaign] ") for line in lines)

    def test_rejects_zero_workers(self, tmp_path):
        for jobs in (0, -1):
            with pytest.raises(CampaignError, match="--jobs"):
                run_campaign_jobs(SMALL, tmp_path / "c", jobs=jobs)
        assert not (tmp_path / "c").exists()


class TestTracedCampaign:
    def test_two_workers_one_span_per_cell(self, reference, tmp_path):
        trace = TraceCollector()
        result = run_campaign_jobs(SMALL, tmp_path / "c", jobs=2,
                                   trace=trace)
        assert result.complete
        spans = trace.to_dicts()
        cells = [span for span in spans if span["name"] == "campaign.cell"]
        assert sorted(span["tags"]["job"] for span in cells) == [
            job.job_id for job in SMALL.jobs()
        ]
        # Worker lanes count from 1; the orchestrator's is 0.
        assert {span["pid"] for span in cells} <= {1, 2}
        assert [span["name"] for span in spans].count("campaign.merge") == 1
        assert trace.dropped == 0
        assert _output_bytes(tmp_path / "c") == _output_bytes(reference)


class TestTornWrites:
    def test_resume_cuts_a_torn_journal_tail(self, reference, tmp_path):
        """``kill -9`` mid-append leaves a fragment; the resumed run
        must not write its first record onto it."""
        lines = (reference / JOURNAL_NAME).read_text().splitlines(True)
        directory = tmp_path / "c"
        directory.mkdir()
        (directory / JOURNAL_NAME).write_text(
            lines[0] + lines[1] + '{"kind": "cell", "job_id": "E3/UT/la'
        )
        assert resume_campaign(directory).complete
        state = CampaignJournal(directory / JOURNAL_NAME).load()
        assert state.completed_ids == [job.job_id for job in SMALL.jobs()]
        assert not state.dropped_tail
        again = resume_campaign(directory)
        assert again.complete and again.resumed_cells == len(SMALL.jobs())
        assert _output_bytes(directory) == _output_bytes(reference)

    def test_status_survives_a_damaged_manifest(
        self, reference, tmp_path, capsys
    ):
        directory = tmp_path / "c"
        directory.mkdir()
        (directory / JOURNAL_NAME).write_bytes(
            (reference / JOURNAL_NAME).read_bytes()
        )
        manifest = (reference / MANIFEST_NAME).read_text()
        (directory / MANIFEST_NAME).write_text(manifest[:len(manifest) // 2])
        status = campaign_status(directory)
        assert status["status"] == "complete"
        assert status["cells_done"] == len(SMALL.jobs())
        assert main(["campaign", "status", "--dir", str(directory)]) == 0
        assert "complete" in capsys.readouterr().out
