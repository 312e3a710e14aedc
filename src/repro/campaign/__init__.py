"""Sharded parallel campaign orchestration with checkpoint/resume.

The paper's evaluation is one large grid of independent,
deterministic simulation cells; this package runs the grid inline or
on a :class:`concurrent.futures.ProcessPoolExecutor`, checkpoints
every completed cell to an append-only JSONL journal (one stderr line
and a ``campaign_manifest.json`` rewrite per cell), and merges the
shards back into figure panels and tables that are bit-identical to
the sequential path.

Entry points: :func:`run_campaign_jobs` / :func:`resume_campaign` /
:func:`campaign_status` (also exposed as ``repro campaign
run|resume|status`` and ``run_all --jobs N``).
"""

from .jobs import (
    CampaignError,
    CampaignSpec,
    CellJob,
    execute_job,
    point_from_dict,
    point_to_dict,
)
from .journal import CampaignJournal, JournalState
from .merge import (
    POINT_COLUMNS,
    figure_curves,
    merged_observer_stats,
    points_rows,
    prime_sweep_caches,
    restore_points,
    write_outputs,
)
from .orchestrator import (
    JOURNAL_NAME,
    MANIFEST_NAME,
    CampaignResult,
    campaign_status,
    resume_campaign,
    run_campaign_jobs,
)

__all__ = [
    "CampaignError",
    "CampaignSpec",
    "CellJob",
    "execute_job",
    "point_to_dict",
    "point_from_dict",
    "CampaignJournal",
    "JournalState",
    "POINT_COLUMNS",
    "figure_curves",
    "points_rows",
    "merged_observer_stats",
    "restore_points",
    "prime_sweep_caches",
    "write_outputs",
    "CampaignResult",
    "run_campaign_jobs",
    "resume_campaign",
    "campaign_status",
    "JOURNAL_NAME",
    "MANIFEST_NAME",
]
