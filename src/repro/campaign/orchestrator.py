"""Campaign orchestration: run, resume, status.

One campaign lives in one directory:

* ``campaign_journal.jsonl`` — the append-only checkpoint journal
  (header + one record per completed cell);
* ``campaign_manifest.json`` — machine-readable telemetry, rewritten
  atomically after every checkpoint (status, progress, per-cell
  bookkeeping, merged stats and output paths once complete);
* merged CSV artifacts once every cell is in.

``jobs=1`` executes cells inline (no worker processes — the
sequential path with checkpointing); ``jobs>1`` dispatches shards to
a :class:`~repro.campaign.pool.WorkerPool`.  Either way the results
are bit-identical, because each cell is deterministic in the spec and
the merger reassembles them in grid order.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, IO, List, Optional, Union

from ..faults.retry import RetryPolicy
from ..observability import UNTRACED
from ..simulation.rng import seeded_rng
from .jobs import CampaignError, CampaignSpec, execute_job
from .journal import CampaignJournal
from .merge import (
    CellPoints,
    merged_observer_stats,
    prime_sweep_caches,
    restore_points,
    write_outputs,
)
from .pool import DEFAULT_RETRY_POLICY, PoolEvents, WorkerPool
from .progress import ProgressReporter

JOURNAL_NAME = "campaign_journal.jsonl"
MANIFEST_NAME = "campaign_manifest.json"

STATUS_RUNNING = "running"
STATUS_INTERRUPTED = "interrupted"
STATUS_COMPLETE = "complete"


@dataclass
class CampaignResult:
    """Outcome of one ``run``/``resume`` invocation."""

    spec: CampaignSpec
    campaign_dir: Path
    manifest: Dict
    complete: bool
    resumed_cells: int
    wall_clock_seconds: float
    points: Optional[CellPoints] = None
    outputs: List[Path] = field(default_factory=list)


def _write_manifest(path: Path, manifest: Dict) -> None:
    """Atomic replace so a kill never leaves a half-written manifest."""
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)


def run_campaign_jobs(
    spec: Optional[CampaignSpec],
    campaign_dir: Union[str, Path],
    jobs: int = 1,
    resume: bool = False,
    progress_stream: Optional[IO[str]] = None,
    stop_after_cells: Optional[int] = None,
    retry_policy: Optional[RetryPolicy] = None,
    prime_caches: bool = False,
    trace=None,
) -> CampaignResult:
    """Run (or resume) a sharded campaign in ``campaign_dir``.

    ``spec`` may be None only with ``resume=True`` (it is then loaded
    from the journal header).  ``stop_after_cells`` ends the run after
    that many newly completed cells — the in-process equivalent of an
    interruption, used by tests and docs.  ``trace`` (a
    :class:`~repro.observability.TraceCollector`) asks every worker to
    record per-cell spans, which the orchestrator merges into the
    collector under the worker's process lane (worker ``n`` shows up
    as ``pid n+1``, the orchestrator itself as ``pid 0``).
    """
    if jobs < 1:
        raise CampaignError("--jobs must be >= 1")
    directory = Path(campaign_dir)
    journal = CampaignJournal(directory / JOURNAL_NAME)
    manifest_path = directory / MANIFEST_NAME
    retry_policy = retry_policy or DEFAULT_RETRY_POLICY

    completed: Dict[str, Dict] = {}
    if journal.exists():
        if not resume:
            raise CampaignError(
                "{} already holds a campaign journal; resume it (repro "
                "campaign resume / --resume) or pick a fresh "
                "directory".format(directory)
            )
        state = journal.load()
        if state.spec is None:
            raise CampaignError(
                "journal {} has no campaign header".format(journal.path)
            )
        if spec is None:
            spec = state.spec
        elif spec.fingerprint() != state.fingerprint:
            raise CampaignError(
                "refusing to resume: journal {} was written for a "
                "different campaign spec (fingerprint {} != {})".format(
                    journal.path, state.fingerprint, spec.fingerprint()
                )
            )
        completed = dict(state.cells)
    else:
        if resume:
            raise CampaignError(
                "nothing to resume: {} has no campaign journal".format(
                    directory
                )
            )
        if spec is None:
            raise CampaignError("a new campaign needs a spec")
        directory.mkdir(parents=True, exist_ok=True)
        journal.write_header(spec)

    all_jobs = spec.jobs()
    known_ids = {job.job_id for job in all_jobs}
    completed = {
        job_id: record
        for job_id, record in completed.items()
        if job_id in known_ids
    }
    todo = [job for job in all_jobs if job.job_id not in completed]
    resumed_cells = len(completed)

    progress = ProgressReporter(
        total=len(all_jobs),
        workers=jobs,
        stream=progress_stream,
        initial_done=resumed_cells,
    )
    started = time.monotonic()
    cell_meta: Dict[str, Dict] = {
        job_id: {
            "status": "done",
            "worker": record.get("worker"),
            "elapsed": record.get("elapsed"),
            "attempts": record.get("attempts", 1),
            "scenario_seed": record.get("scenario_seed"),
            "resumed": True,
        }
        for job_id, record in completed.items()
    }

    def manifest_dict(status: str) -> Dict:
        cells = dict(cell_meta)
        for job in all_jobs:
            cells.setdefault(job.job_id, {
                "status": "pending",
                "scenario_seed": job.scenario_seed,
            })
        return {
            "version": 1,
            "status": status,
            "fingerprint": spec.fingerprint(),
            "spec": spec.to_dict(),
            "jobs": jobs,
            "cells_total": len(all_jobs),
            "cells_done": progress.done,
            "resumed_cells": resumed_cells,
            "progress": progress.snapshot(),
            "cells": cells,
            "journal": journal.path.name,
            "generated_at": time.strftime(
                "%Y-%m-%dT%H:%M:%S%z", time.localtime()
            ),
        }

    def on_result(job_dict, payload, worker, elapsed, attempts) -> None:
        # Spans travel in the payload but stay out of the journal (a
        # resume replays results, not timelines) — pop before writing.
        spans = payload.pop("spans", None)
        spans_dropped = payload.pop("spans_dropped", 0)
        if trace is not None and spans:
            trace.ingest(spans, pid=worker + 1, dropped=spans_dropped)
        journal.append_cell(
            payload, worker=worker, elapsed=elapsed, attempts=attempts
        )
        completed[payload["job_id"]] = payload
        cell_meta[payload["job_id"]] = {
            "status": "done",
            "worker": worker,
            "elapsed": elapsed,
            "attempts": attempts,
            "scenario_seed": payload["scenario_seed"],
            "resumed": False,
        }
        _write_manifest(manifest_path, manifest_dict(STATUS_RUNNING))

    events = PoolEvents(
        on_started=progress.on_started,
        on_completed=progress.on_completed,
        on_retry=progress.on_retry,
    )
    _write_manifest(manifest_path, manifest_dict(STATUS_RUNNING))

    job_dicts = [
        dict(job.to_dict(), job_id=job.job_id, trace=trace is not None)
        for job in todo
    ]
    if jobs == 1:
        _run_inline(
            job_dicts, on_result, events, retry_policy,
            spec.master_seed, stop_after_cells,
        )
    elif job_dicts:
        pool = WorkerPool(
            runner=execute_job,
            workers=jobs,
            retry_policy=retry_policy,
            retry_seed=spec.master_seed,
            events=events,
        )
        pool.run(job_dicts, on_result, stop_after=stop_after_cells)

    wall_clock = time.monotonic() - started
    complete = len(completed) == len(all_jobs)
    result = CampaignResult(
        spec=spec,
        campaign_dir=directory,
        manifest={},
        complete=complete,
        resumed_cells=resumed_cells,
        wall_clock_seconds=wall_clock,
    )
    if complete:
        with (
            trace.span(
                "campaign.merge", category="campaign", cells=len(completed)
            )
            if trace is not None else UNTRACED
        ):
            points = restore_points(spec, completed)
            result.points = points
            result.outputs = write_outputs(directory, spec, points)
        if prime_caches:
            prime_sweep_caches(spec, points)
        manifest = manifest_dict(STATUS_COMPLETE)
        manifest["merged"] = {
            "observer_stats": merged_observer_stats(spec, points),
            "outputs": [path.name for path in result.outputs],
        }
        manifest["wall_clock_seconds"] = wall_clock
    else:
        manifest = manifest_dict(STATUS_INTERRUPTED)
        manifest["wall_clock_seconds"] = wall_clock
    _write_manifest(manifest_path, manifest)
    result.manifest = manifest
    return result


def _run_inline(
    job_dicts, on_result, events, retry_policy, retry_seed, stop_after
) -> None:
    """Sequential execution with the same checkpoint/retry semantics
    as the pool (``--jobs 1``)."""
    rng = seeded_rng(retry_seed, "campaign", "retry")
    done = 0
    for job_dict in job_dicts:
        attempts = 0
        first_failure: Optional[float] = None
        while True:
            if events.on_started:
                events.on_started(0, job_dict)
            cell_started = time.monotonic()
            try:
                payload = execute_job(job_dict)
            except Exception as exc:
                attempts += 1
                now = time.monotonic()
                if first_failure is None:
                    first_failure = now
                if retry_policy.gives_up(attempts, now - first_failure):
                    raise CampaignError(
                        "job {} failed {} time(s), giving up: "
                        "{}".format(job_dict["job_id"], attempts, exc)
                    )
                if events.on_retry:
                    events.on_retry(job_dict, attempts, str(exc))
                time.sleep(retry_policy.backoff(attempts, rng))
                continue
            elapsed = time.monotonic() - cell_started
            on_result(job_dict, payload, 0, elapsed, attempts + 1)
            if events.on_completed:
                events.on_completed(0, job_dict, payload, elapsed,
                                    attempts + 1)
            done += 1
            break
        if stop_after is not None and done >= stop_after:
            return


def resume_campaign(
    campaign_dir: Union[str, Path],
    jobs: int = 1,
    progress_stream: Optional[IO[str]] = None,
    stop_after_cells: Optional[int] = None,
    retry_policy: Optional[RetryPolicy] = None,
    prime_caches: bool = False,
    trace=None,
) -> CampaignResult:
    """Resume the campaign journaled in ``campaign_dir`` (the spec
    comes from the journal header)."""
    return run_campaign_jobs(
        None,
        campaign_dir,
        jobs=jobs,
        resume=True,
        progress_stream=progress_stream,
        stop_after_cells=stop_after_cells,
        retry_policy=retry_policy,
        prime_caches=prime_caches,
        trace=trace,
    )


def campaign_status(campaign_dir: Union[str, Path]) -> Dict:
    """Status of a campaign directory, from the manifest (preferred)
    or reconstructed from the journal if the manifest is missing."""
    directory = Path(campaign_dir)
    manifest_path = directory / MANIFEST_NAME
    if manifest_path.exists():
        return json.loads(manifest_path.read_text())
    journal = CampaignJournal(directory / JOURNAL_NAME)
    if not journal.exists():
        raise CampaignError(
            "{} holds no campaign (no manifest, no journal)".format(
                directory
            )
        )
    state = journal.load()
    total = len(state.spec.jobs()) if state.spec is not None else None
    done = len(state.cells)
    return {
        "status": (
            STATUS_COMPLETE if total is not None and done >= total
            else STATUS_INTERRUPTED
        ),
        "fingerprint": state.fingerprint,
        "spec": state.spec.to_dict() if state.spec is not None else None,
        "cells_total": total,
        "cells_done": done,
        "cells": {
            job_id: {"status": "done"} for job_id in state.cells
        },
        "journal": journal.path.name,
    }
