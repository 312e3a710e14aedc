"""Campaign orchestration: run, resume, status.

One campaign lives in one directory:

* ``campaign_journal.jsonl`` — the append-only checkpoint journal
  (header + one record per completed cell);
* ``campaign_manifest.json`` — machine-readable status, rewritten
  atomically after every checkpoint (per-cell bookkeeping, merged
  stats and output paths once complete);
* merged CSV artifacts once every cell is in.

``jobs=1`` runs the cells inline (the sequential path with
checkpointing, and the reference the parallel path is tested
against); ``jobs>1`` submits them to a
:class:`concurrent.futures.ProcessPoolExecutor`.  Either way the
orchestrating process is the journal's only writer and the results
are bit-identical, because each cell is deterministic in the spec and
the merger reassembles them in grid order.  For the same reason a
cell that raises ends the campaign at once — a retry would only fail
again — while a worker that dies (``kill -9``, the OOM killer) breaks
the pool, which is rebuilt for the cells not yet journalled.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
import time
import traceback
from contextlib import closing
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Union

from ..durable import write_json_atomic
from ..observability import UNTRACED
from .jobs import CampaignError, CampaignSpec, CellJob, execute_job
from .journal import CampaignJournal
from .merge import (
    CellPoints,
    merged_observer_stats,
    restore_points,
    write_outputs,
)

JOURNAL_NAME = "campaign_journal.jsonl"
MANIFEST_NAME = "campaign_manifest.json"

STATUS_RUNNING = "running"
STATUS_INTERRUPTED = "interrupted"
STATUS_COMPLETE = "complete"

#: Pools in a row that may break before one of them journals a cell.
#: The first break is a worker that died; a rebuilt pool that breaks
#: again with nothing journalled means the cells left kill their
#: workers, and the campaign ends naming them.
POOL_BREAKS = 2


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


def _cell_failed(job: CellJob, exc: BaseException) -> CampaignError:
    return CampaignError("cell {} raised:\n{}".format(
        job.job_id, "".join(traceback.format_exception(exc)).rstrip()
    ))


def _run_cells(
    todo: Sequence[CellJob], jobs: int, traced: bool
) -> Iterator[Dict]:
    """Yield each cell's payload as it completes: inline in grid order
    with ``jobs == 1``, else from a process pool in completion order.

    ``execute_job`` is read from this module at call time.  Closing the
    generator early cancels the pending cells and throws away the
    results of those still in flight.
    """
    if jobs == 1:
        for job in todo:
            try:
                payload = execute_job(job, traced)
            except Exception as exc:
                raise _cell_failed(job, exc) from exc
            yield payload
        return
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )
    left = {job.job_id: job for job in todo}
    breaks = 0
    while left:
        before = len(left)
        pool = ProcessPoolExecutor(jobs, mp_context=context)
        try:
            futures = {
                pool.submit(execute_job, job, traced): job
                for job in left.values()
            }
            for future in as_completed(futures):
                job = futures[future]
                exc = future.exception()
                if isinstance(exc, BrokenProcessPool):
                    continue  # the cell stays in ``left``
                if exc is not None:
                    raise _cell_failed(job, exc) from exc
                yield future.result()
                del left[job.job_id]  # journalled by now
        finally:
            pool.shutdown(cancel_futures=True)
        if left:  # every future is back, so the pool broke
            breaks = breaks + 1 if len(left) == before else 1
            if breaks == POOL_BREAKS:
                raise CampaignError(
                    "the worker pool broke {} times in a row with no "
                    "cell completed; cells left: {}".format(
                        breaks, ", ".join(left)
                    )
                )


def run_campaign_jobs(
    spec: Optional[CampaignSpec],
    campaign_dir: Union[str, Path],
    jobs: int = 1,
    resume: bool = False,
    stop_after_cells: Optional[int] = None,
    trace=None,
) -> CampaignResult:
    """Run (or resume) a sharded campaign in ``campaign_dir``.

    ``spec`` may be None only with ``resume=True`` (it is then loaded
    from the journal header).  ``stop_after_cells`` ends the run after
    that many newly completed cells — the in-process equivalent of an
    interruption, used by tests and docs.  ``trace`` (a
    :class:`~repro.observability.TraceCollector`) asks every worker to
    record per-cell spans, which the orchestrator merges into the
    collector under one process lane per worker process (numbered from
    ``pid 1`` in the order its first cell comes in; the orchestrator
    itself is ``pid 0``).  Each completed cell prints one line on
    stderr.
    """
    if jobs < 1:
        raise CampaignError("--jobs must be >= 1")
    directory = Path(campaign_dir)
    journal = CampaignJournal(directory / JOURNAL_NAME)
    manifest_path = directory / MANIFEST_NAME

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
        # A torn tail would glue itself onto the first new record.
        journal.truncate(state.end)
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
    resumed = set(completed)
    todo = [job for job in all_jobs if job.job_id not in completed]
    started = time.monotonic()

    def manifest_dict(status: str) -> Dict:
        cells = {}
        for job in all_jobs:
            record = completed.get(job.job_id)
            if record is None:
                cells[job.job_id] = {
                    "status": "pending",
                    "scenario_seed": job.scenario_seed,
                }
                continue
            cells[job.job_id] = {
                "status": "done",
                "worker": record.get("worker"),
                "elapsed": record.get("elapsed"),
                "scenario_seed": record.get("scenario_seed"),
                "resumed": job.job_id in resumed,
            }
        return {
            "version": 1,
            "status": status,
            "fingerprint": spec.fingerprint(),
            "spec": spec.to_dict(),
            "jobs": jobs,
            "cells_total": len(all_jobs),
            "cells_done": len(completed),
            "resumed_cells": len(resumed),
            "cells": cells,
            "journal": journal.path.name,
            "generated_at": time.strftime(
                "%Y-%m-%dT%H:%M:%S%z", time.localtime()
            ),
        }

    write_json_atomic(manifest_path, manifest_dict(STATUS_RUNNING))
    lanes: Dict[int, int] = {}
    with closing(_run_cells(todo, jobs, trace is not None)) as cells:
        for count, payload in enumerate(cells, 1):
            # The record keeps the pid as the worker's lane number and
            # leaves the spans out (a resume replays results, not
            # timelines).
            worker = lanes.setdefault(payload.pop("pid"), len(lanes))
            elapsed = payload.pop("elapsed")
            spans = payload.pop("spans", None)
            spans_dropped = payload.pop("spans_dropped", 0)
            if spans:
                trace.ingest(spans, pid=worker + 1, dropped=spans_dropped)
            completed[payload["job_id"]] = journal.append_cell(
                payload, worker=worker, elapsed=elapsed
            )
            write_json_atomic(manifest_path, manifest_dict(STATUS_RUNNING))
            print("[campaign] {}/{} cells {} {:.1f}s".format(
                len(completed), len(all_jobs), payload["job_id"], elapsed
            ), file=sys.stderr)
            if stop_after_cells is not None and count >= stop_after_cells:
                break

    wall_clock = time.monotonic() - started
    complete = len(completed) == len(all_jobs)
    result = CampaignResult(
        spec=spec,
        campaign_dir=directory,
        manifest={},
        complete=complete,
        resumed_cells=len(resumed),
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
        manifest = manifest_dict(STATUS_COMPLETE)
        manifest["merged"] = {
            "observer_stats": merged_observer_stats(spec, points),
            "outputs": [path.name for path in result.outputs],
        }
    else:
        manifest = manifest_dict(STATUS_INTERRUPTED)
    manifest["wall_clock_seconds"] = wall_clock
    write_json_atomic(manifest_path, manifest)
    result.manifest = manifest
    return result


def resume_campaign(
    campaign_dir: Union[str, Path],
    jobs: int = 1,
    stop_after_cells: Optional[int] = None,
    trace=None,
) -> CampaignResult:
    """Resume the campaign journaled in ``campaign_dir`` (the spec
    comes from the journal header)."""
    return run_campaign_jobs(
        None,
        campaign_dir,
        jobs=jobs,
        resume=True,
        stop_after_cells=stop_after_cells,
        trace=trace,
    )


def campaign_status(campaign_dir: Union[str, Path]) -> Dict:
    """Status of a campaign directory, from the manifest (preferred)
    or reconstructed from the journal if the manifest is missing or
    does not decode."""
    directory = Path(campaign_dir)
    manifest_path = directory / MANIFEST_NAME
    if manifest_path.exists():
        try:
            return json.loads(manifest_path.read_text())
        except ValueError:
            pass  # damaged: the journal is the evidence
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
