"""Chaos-campaign reporting.

A :class:`ChaosReport` is the structured outcome of one chaos campaign
(:mod:`repro.faults.chaos`): what adversity was injected, what the
control plane survived, how fast degraded connections regained their
protection, and how much residual unprotection the workload carried.
Reports serialize to plain dicts (JSON-safe) so two seeded runs can be
compared bit for bit — the reproducibility check chaos campaigns hang
their credibility on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from .report import format_table


@dataclass
class ChaosReport:
    """Everything one chaos campaign measured."""

    # Campaign identity
    plan_name: str = ""
    seed: int = 0
    scheme: str = ""
    duration: float = 0.0

    # Workload outcome
    requests: int = 0
    accepted: int = 0
    rejected: Dict[str, int] = field(default_factory=dict)
    released: int = 0
    final_active: int = 0

    # Injected adversity
    faults_injected: Dict[str, int] = field(default_factory=dict)
    invariant_checks: int = 0

    # Correlated (shared-risk / regional) failures
    srlg_mode: str = "none"
    group_failures: int = 0
    group_links_failed: int = 0
    group_activations_won: int = 0
    group_activations_lost: int = 0
    group_activation_reasons: Dict[str, int] = field(default_factory=dict)

    # Signaling under faults
    signaling_walks: int = 0
    signaling_retries: int = 0
    signaling_drops: int = 0
    signaling_crashes: int = 0
    signaling_duplicates: int = 0
    signaling_delay: float = 0.0

    # Degraded-mode admission and background re-protection
    degraded_admissions: int = 0
    degraded_reprotected: int = 0
    degraded_departed_unprotected: int = 0
    degraded_unresolved: int = 0
    reestablish_attempts: int = 0
    backups_reestablished: int = 0
    recovery_latencies: List[float] = field(default_factory=list)

    # Residual unprotection over time: (time, unprotected, active)
    unprotected_samples: List[Tuple[float, int, int]] = field(
        default_factory=list
    )

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    @property
    def acceptance_ratio(self) -> float:
        if self.requests == 0:
            return 0.0
        return self.accepted / self.requests

    @property
    def degraded_recovery_ratio(self) -> float:
        """Fraction of degraded-admitted connections whose backup was
        re-established before they departed (or before campaign end) —
        the headline dependability-under-adversity number."""
        if self.degraded_admissions == 0:
            return 1.0
        return self.degraded_reprotected / self.degraded_admissions

    @property
    def mean_recovery_latency(self) -> float:
        if not self.recovery_latencies:
            return 0.0
        return sum(self.recovery_latencies) / len(self.recovery_latencies)

    @property
    def max_recovery_latency(self) -> float:
        if not self.recovery_latencies:
            return 0.0
        return max(self.recovery_latencies)

    @property
    def mean_unprotected_ratio(self) -> float:
        """Time-averaged fraction of active connections running without
        a backup (residual unprotection)."""
        ratios = [
            unprotected / active
            for _time, unprotected, active in self.unprotected_samples
            if active > 0
        ]
        if not ratios:
            return 0.0
        return sum(ratios) / len(ratios)

    @property
    def total_faults(self) -> int:
        return sum(self.faults_injected.values())

    @property
    def p_act_bk_group(self) -> float:
        """Realized group-failure survivability: backups activated /
        backups contested across every correlated cut the campaign
        applied (``P_act-bk^(g)`` measured on real failures rather than
        hypothetical sweeps).  1.0 when no cut ever hit a primary."""
        contested = self.group_activations_won + self.group_activations_lost
        if contested == 0:
            return 1.0
        return self.group_activations_won / contested

    def absorb_counters(self, counted: Dict[str, Any]) -> None:
        """Take what the service counted
        (:meth:`~repro.core.service.ServiceCounters.to_dict`): every
        tally this report shares by name, and the correlated-failure
        section from the service's group tallies."""
        for name in vars(self).keys() & counted.keys():
            setattr(self, name, counted[name])
        outcomes = counted["group_recovery_outcomes"]
        self.group_links_failed = counted["group_failed_links"]
        self.group_activation_reasons = outcomes
        self.group_activations_won = outcomes.get("activated", 0)
        self.group_activations_lost = (
            sum(outcomes.values()) - self.group_activations_won
        )

    # ------------------------------------------------------------------
    # Rendering / serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "plan": self.plan_name,
            "seed": self.seed,
            "scheme": self.scheme,
            "duration": self.duration,
            "requests": self.requests,
            "accepted": self.accepted,
            "rejected": dict(sorted(self.rejected.items())),
            "released": self.released,
            "final_active": self.final_active,
            "acceptance_ratio": self.acceptance_ratio,
            "faults_injected": dict(sorted(self.faults_injected.items())),
            "invariant_checks": self.invariant_checks,
            "srlg": {
                "mode": self.srlg_mode,
                "group_failures": self.group_failures,
                "links_failed": self.group_links_failed,
                "activations_won": self.group_activations_won,
                "activations_lost": self.group_activations_lost,
                "activation_reasons": dict(
                    sorted(self.group_activation_reasons.items())
                ),
                "p_act_bk_group": self.p_act_bk_group,
            },
            "signaling": {
                "walks": self.signaling_walks,
                "retries": self.signaling_retries,
                "drops": self.signaling_drops,
                "crashes": self.signaling_crashes,
                "duplicates": self.signaling_duplicates,
                "delay": self.signaling_delay,
            },
            "degraded": {
                "admissions": self.degraded_admissions,
                "reprotected": self.degraded_reprotected,
                "departed_unprotected": self.degraded_departed_unprotected,
                "unresolved": self.degraded_unresolved,
                "recovery_ratio": self.degraded_recovery_ratio,
                "reestablish_attempts": self.reestablish_attempts,
                "backups_reestablished": self.backups_reestablished,
                "mean_recovery_latency": self.mean_recovery_latency,
                "max_recovery_latency": self.max_recovery_latency,
            },
            "unprotected_samples": [
                list(sample) for sample in self.unprotected_samples
            ],
            "mean_unprotected_ratio": self.mean_unprotected_ratio,
        }

    def format(self) -> str:
        """Human-readable campaign summary."""
        rows = [
            ("fault plan", self.plan_name),
            ("scheme", self.scheme),
            ("seed", self.seed),
            ("duration (s)", "{:.0f}".format(self.duration)),
            ("requests", self.requests),
            ("accepted", self.accepted),
            ("acceptance ratio", "{:.4f}".format(self.acceptance_ratio)),
            ("faults injected", self.total_faults),
            ("invariant checks (all clean)", self.invariant_checks),
            ("signaling walks", self.signaling_walks),
            ("signaling retries", self.signaling_retries),
            ("packets dropped / duplicated",
             "{} / {}".format(self.signaling_drops, self.signaling_duplicates)),
            ("router crashes mid-walk", self.signaling_crashes),
            ("injected signaling delay (s)",
             "{:.2f}".format(self.signaling_delay)),
            ("degraded admissions", self.degraded_admissions),
            ("  re-protected before departure", self.degraded_reprotected),
            ("  departed unprotected", self.degraded_departed_unprotected),
            ("  unresolved at campaign end", self.degraded_unresolved),
            ("degraded recovery ratio",
             "{:.1%}".format(self.degraded_recovery_ratio)),
            ("mean / max re-protection latency (s)",
             "{:.1f} / {:.1f}".format(
                 self.mean_recovery_latency, self.max_recovery_latency)),
            ("mean unprotected fraction",
             "{:.2%}".format(self.mean_unprotected_ratio)),
        ]
        if self.group_failures:
            rows.extend(
                [
                    ("srlg mode", self.srlg_mode),
                    ("correlated cuts applied", self.group_failures),
                    ("  links taken down", self.group_links_failed),
                    ("  activations won / lost",
                     "{} / {}".format(
                         self.group_activations_won,
                         self.group_activations_lost)),
                    ("P_act-bk^(g) (realized)",
                     "{:.4f}".format(self.p_act_bk_group)),
                ]
            )
        for kind, count in sorted(self.faults_injected.items()):
            rows.append(("  fault: {}".format(kind), count))
        for reason, count in sorted(self.rejected.items()):
            rows.append(("rejected: {}".format(reason), count))
        return format_table(("metric", "value"), rows)
