"""Append-only JSONL checkpoint journal for campaign runs.

The journal is the campaign's crash-safety mechanism: the first line
records the :class:`~repro.campaign.jobs.CampaignSpec` (plus its
fingerprint), and every completed cell appends one self-contained
record.  Appends are flushed and fsynced, so a ``kill -9`` mid-run
loses at most the line being written; :meth:`CampaignJournal.load`
tolerates exactly that — a torn *final* line — while a corrupt line
anywhere else fails loudly (the journal is evidence, not a cache).

``--resume`` is then trivial: completed cells are skipped, everything
else re-runs, and the merged output is identical to an uninterrupted
campaign because every cell is deterministic in its spec.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from .jobs import CampaignError, CampaignSpec

HEADER_KIND = "campaign"
CELL_KIND = "cell"


@dataclass
class JournalState:
    """Parsed journal contents."""

    spec: Optional[CampaignSpec] = None
    fingerprint: Optional[str] = None
    cells: Dict[str, Dict] = field(default_factory=dict)
    dropped_tail: bool = False
    #: Byte offset just past the last complete record: where a resumed
    #: run's first append must start.
    end: int = 0

    @property
    def completed_ids(self) -> List[str]:
        return list(self.cells)


class CampaignJournal:
    """One campaign's checkpoint file."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    def exists(self) -> bool:
        return self.path.exists()

    def _append(self, record: Dict) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a") as handle:
            handle.write(json.dumps(record) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def write_header(self, spec: CampaignSpec) -> None:
        self._append(
            {
                "kind": HEADER_KIND,
                "version": 1,
                "fingerprint": spec.fingerprint(),
                "spec": spec.to_dict(),
            }
        )

    def append_cell(
        self,
        result: Dict,
        worker: Optional[int] = None,
        elapsed: Optional[float] = None,
    ) -> Dict:
        """Checkpoint one completed cell (``result`` as produced by
        :func:`~repro.campaign.jobs.execute_job`, minus the keys the
        orchestrator pops) and return the record written."""
        record = dict(result)
        record["kind"] = CELL_KIND
        record["worker"] = worker
        record["elapsed"] = elapsed
        self._append(record)
        return record

    def truncate(self, end: int) -> None:
        """Cut the file back to ``end`` bytes (a torn tail's start, as
        :meth:`load` reports it), so the next append starts a line."""
        with open(self.path, "r+b") as handle:
            handle.truncate(end)
            os.fsync(handle.fileno())

    def load(self) -> JournalState:
        """Parse the journal, tolerating a torn final line."""
        state = JournalState()
        if not self.exists():
            return state
        # Every complete line ends in "\n"; the last piece is the
        # unterminated tail ("" when the file ends cleanly).
        lines = self.path.read_bytes().split(b"\n")
        for number, line in enumerate(lines):
            if number == len(lines) - 1:
                state.dropped_tail = bool(line)
                break
            try:
                record = json.loads(line)
            except ValueError:
                if number == len(lines) - 2 and not lines[-1]:
                    # Torn write from an interrupted run: the cell it
                    # was checkpointing simply re-runs on resume.
                    state.dropped_tail = True
                    break
                raise CampaignError(
                    "corrupt journal {}: undecodable line {} is not the "
                    "final line".format(self.path, number + 1)
                )
            state.end += len(line) + 1
            kind = record.get("kind")
            if kind == HEADER_KIND:
                if state.spec is not None:
                    raise CampaignError(
                        "corrupt journal {}: duplicate campaign "
                        "header".format(self.path)
                    )
                state.spec = CampaignSpec.from_dict(record["spec"])
                state.fingerprint = record["fingerprint"]
            elif kind == CELL_KIND:
                if state.spec is None:
                    raise CampaignError(
                        "corrupt journal {}: cell record before the "
                        "campaign header".format(self.path)
                    )
                # A cell can legitimately appear twice (a worker died
                # after computing but the orchestrator re-ran it);
                # determinism makes the records identical, keep the
                # first.
                state.cells.setdefault(record["job_id"], record)
            else:
                raise CampaignError(
                    "corrupt journal {}: unknown record kind {!r} on "
                    "line {}".format(self.path, kind, number + 1)
                )
        return state
