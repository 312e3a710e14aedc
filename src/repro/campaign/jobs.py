"""Job model for sharded simulation campaigns.

A campaign is the paper's evaluation grid — every (average degree E,
traffic pattern, arrival rate lambda) cell, each replayed under the
no-backup baseline plus the configured schemes.  Cells are mutually
independent (each derives its own scenario seed from the master seed
via :func:`repro.simulation.rng.derive_seed`), which makes the grid
embarrassingly parallel: a :class:`CampaignSpec` enumerates the cells
as :class:`CellJob` shards in a deterministic order, and
:func:`execute_job` is the module-level entry a worker process runs.

Results cross process (and checkpoint-journal) boundaries as JSON:
:func:`point_to_dict` / :func:`point_from_dict` round-trip a
:class:`~repro.experiments.sweep.PointResult` *exactly* — Python's
JSON float encoding is shortest-round-trip, so a merged campaign is
bit-identical to the sequential path.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..analysis.fault_tolerance import FaultToleranceStats
from ..experiments.config import FIGURE_LAMBDAS, SCALES, ExperimentScale
from ..observability import TraceCollector
from ..experiments.sweep import (
    PAPER_SCHEMES,
    CellSpec,
    PointResult,
    run_cell,
)
from ..simulation.rng import derive_seed
from ..simulation.simulator import SimulationResult


class CampaignError(RuntimeError):
    """Raised on unrecoverable campaign failures (exhausted retries,
    corrupt journal, spec mismatch on resume)."""


@dataclass(frozen=True)
class CampaignSpec:
    """Everything that determines a campaign's results.

    ``lambdas=None`` means each degree uses its figure panel's x-axis
    (:data:`~repro.experiments.config.FIGURE_LAMBDAS`), exactly like
    the sequential ``run_all`` campaign.
    """

    scale: str = "quick"
    degrees: Tuple[int, ...] = (3, 4)
    patterns: Tuple[str, ...] = ("UT", "NT")
    lambdas: Optional[Tuple[float, ...]] = None
    schemes: Tuple[str, ...] = PAPER_SCHEMES
    master_seed: int = 7

    def __post_init__(self) -> None:
        if self.scale not in SCALES:
            raise CampaignError(
                "unknown scale {!r} (have {})".format(
                    self.scale, ", ".join(sorted(SCALES))
                )
            )
        if not self.degrees:
            raise CampaignError("campaign needs at least one degree")

    @property
    def experiment_scale(self) -> ExperimentScale:
        return SCALES[self.scale]

    def cell_lambdas(self, degree: int) -> Tuple[float, ...]:
        if self.lambdas is not None:
            return self.lambdas
        return FIGURE_LAMBDAS[degree]

    def jobs(self) -> List["CellJob"]:
        """The campaign's shards, in deterministic grid order."""
        out: List[CellJob] = []
        for degree in self.degrees:
            for pattern in self.patterns:
                for lam in self.cell_lambdas(degree):
                    out.append(
                        CellJob(
                            index=len(out),
                            degree=degree,
                            pattern=pattern,
                            lam=lam,
                            scale=self.scale,
                            schemes=self.schemes,
                            master_seed=self.master_seed,
                        )
                    )
        return out

    def to_dict(self) -> Dict:
        return {
            "scale": self.scale,
            "degrees": list(self.degrees),
            "patterns": list(self.patterns),
            "lambdas": None if self.lambdas is None else list(self.lambdas),
            "schemes": list(self.schemes),
            "master_seed": self.master_seed,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "CampaignSpec":
        lambdas = data.get("lambdas")
        return cls(
            scale=data["scale"],
            degrees=tuple(data["degrees"]),
            patterns=tuple(data["patterns"]),
            lambdas=None if lambdas is None else tuple(lambdas),
            schemes=tuple(data["schemes"]),
            master_seed=data["master_seed"],
        )

    def fingerprint(self) -> str:
        """Stable identity of the campaign — a resumed run refuses to
        continue a journal written for a different spec."""
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class CellJob:
    """One shard: a single sweep cell at a given scale and seed."""

    index: int
    degree: int
    pattern: str
    lam: float
    scale: str
    schemes: Tuple[str, ...]
    master_seed: int

    @property
    def job_id(self) -> str:
        return "E{}/{}/lam{:g}".format(self.degree, self.pattern, self.lam)

    @property
    def scenario_seed(self) -> int:
        """The per-shard scenario seed — derived exactly as the
        sequential sweep derives it, so sharding never perturbs the
        workload."""
        return derive_seed(self.master_seed, self.degree, self.pattern,
                           self.lam)

    @property
    def cell_spec(self) -> CellSpec:
        return CellSpec(degree=self.degree, pattern=self.pattern,
                        lam=self.lam)

    def to_dict(self) -> Dict:
        return {
            "index": self.index,
            "degree": self.degree,
            "pattern": self.pattern,
            "lam": self.lam,
            "scale": self.scale,
            "schemes": list(self.schemes),
            "master_seed": self.master_seed,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "CellJob":
        return cls(
            index=data["index"],
            degree=data["degree"],
            pattern=data["pattern"],
            lam=data["lam"],
            scale=data["scale"],
            schemes=tuple(data["schemes"]),
            master_seed=data["master_seed"],
        )


# ----------------------------------------------------------------------
# Result serialization (exact: floats round-trip bit-for-bit via JSON)
# ----------------------------------------------------------------------
def _stats_to_dict(stats: FaultToleranceStats) -> Dict:
    return {
        "attempts": stats.attempts,
        "successes": stats.successes,
        "failures_by_reason": dict(stats.failures_by_reason),
        "links_swept": stats.links_swept,
        "snapshots": stats.snapshots,
    }


def _stats_from_dict(data: Dict) -> FaultToleranceStats:
    return FaultToleranceStats(
        attempts=data["attempts"],
        successes=data["successes"],
        failures_by_reason=dict(data["failures_by_reason"]),
        links_swept=data["links_swept"],
        snapshots=data["snapshots"],
    )


def _sim_to_dict(sim: SimulationResult) -> Dict:
    return {
        "scheme": sim.scheme,
        "duration": sim.duration,
        "warmup": sim.warmup,
        "requests": sim.requests,
        "accepted": sim.accepted,
        "rejected": dict(sim.rejected),
        "control_messages": sim.control_messages,
        "active_samples": [[t, count] for t, count in sim.active_samples],
        "final_active": sim.final_active,
    }


def _sim_from_dict(data: Dict) -> SimulationResult:
    return SimulationResult(
        scheme=data["scheme"],
        duration=data["duration"],
        warmup=data["warmup"],
        requests=data["requests"],
        accepted=data["accepted"],
        rejected=dict(data["rejected"]),
        control_messages=data["control_messages"],
        active_samples=[(t, count) for t, count in data["active_samples"]],
        final_active=data["final_active"],
    )


def point_to_dict(point: PointResult) -> Dict:
    """Serialize a :class:`PointResult` for the journal / job payload
    (inverse of :func:`point_from_dict`)."""
    return {
        "scheme": point.scheme,
        "degree": point.degree,
        "pattern": point.pattern,
        "lam": point.lam,
        "fault_tolerance": point.fault_tolerance,
        "overhead_percent": point.overhead_percent,
        "acceptance_ratio": point.acceptance_ratio,
        "mean_active": point.mean_active,
        "baseline_mean_active": point.baseline_mean_active,
        "messages_per_request": point.messages_per_request,
        "mean_spare_fraction": point.mean_spare_fraction,
        "ft_stats": _stats_to_dict(point.ft_stats),
        "sim": _sim_to_dict(point.sim),
    }


def point_from_dict(data: Dict) -> PointResult:
    """Rebuild a :class:`PointResult` from its journaled dict form."""
    return PointResult(
        scheme=data["scheme"],
        degree=data["degree"],
        pattern=data["pattern"],
        lam=data["lam"],
        fault_tolerance=data["fault_tolerance"],
        overhead_percent=data["overhead_percent"],
        acceptance_ratio=data["acceptance_ratio"],
        mean_active=data["mean_active"],
        baseline_mean_active=data["baseline_mean_active"],
        messages_per_request=data["messages_per_request"],
        mean_spare_fraction=data["mean_spare_fraction"],
        ft_stats=_stats_from_dict(data["ft_stats"]),
        sim=_sim_from_dict(data["sim"]),
    )


def execute_job(job_data: Dict) -> Dict:
    """Run one shard (worker-process entry point).

    Takes and returns plain dicts so the payload crosses the work
    queue, the result queue and the checkpoint journal unchanged.
    With ``job_data["trace"]`` set the worker collects spans locally
    and ships them back in the payload (``spans``/``spans_dropped``)
    for the orchestrator to merge under its own collector.
    """
    job = CellJob.from_dict(job_data)
    cell = None
    if job_data.get("trace"):
        # Two-phase, so never the open span: the cell's services stay
        # untraced and the payload carries this one span per cell.
        trace = TraceCollector()
        cell = trace.span(
            "campaign.cell",
            category="campaign",
            job=job.job_id,
            degree=job.degree,
            pattern=job.pattern,
            lam=job.lam,
            scale=job.scale,
        ).start_now()
    points = run_cell(
        job.cell_spec,
        schemes=job.schemes,
        scale=SCALES[job.scale],
        master_seed=job.master_seed,
    )
    payload = {
        "job_id": job.job_id,
        "index": job.index,
        "scenario_seed": job.scenario_seed,
        "points": {
            name: point_to_dict(points[name]) for name in job.schemes
        },
    }
    if cell is not None:
        cell.finish(schemes=len(points))
        payload["spans"] = trace.to_dicts()
        payload["spans_dropped"] = trace.dropped
    return payload
