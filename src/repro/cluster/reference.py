"""Sequential replay of the cluster's epoch discipline.

:func:`run_cluster_reference` executes a deterministic
:class:`~repro.server.loadgen.LoadGenerator` timeline exactly the way
the sharded deployment does — every admission planned by an
:class:`~repro.cluster.authority.EpochPlanner` against the replicated
epoch view, every commit serialized through
:func:`~repro.cluster.authority.commit_admission` — but inline, in one
process, with no workers to kill.  Because the epoch schedule is a
pure function of the operation sequence number, this replay and a
live ``repro serve --workers N`` run (any N, any kill schedule) must
produce identical decision traces; the cluster differential oracle
asserts exactly that.  The replay also checks the replication itself:
whenever its planner's replica reaches an epoch, the replica's table
must equal the authority's kernel table as it stood at that boundary.

The report dict is shaped like
:func:`~repro.server.loadgen.run_sequential_reference` so the loadtest
``--verify`` plumbing can consume either reference.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from ..core.errors import ConnectionStateError
from ..core.service import DRTPService
from ..experiments.sweep import make_scheme
from ..server import ops
from ..server.loadgen import TimelineEvent
from ..topology.graph import Network
from ..topology.srlg import RiskGroupSet
from .authority import (
    DEFAULT_BATCH,
    DEFAULT_LOOKAHEAD,
    AuthorityStats,
    EpochPlanner,
    commit_admission,
    epoch_for,
)
from .replica import DatabaseSnapshot, DeltaTracker, LinkStateDelta


class ClusterOracleDivergence(AssertionError):
    """A live cluster run disagreed with the sequential replay, or a
    replica's table with the authority's at the same epoch."""


class SequentialClusterAuthority:
    """The commit authority driven inline: one live service, one epoch
    planner standing in for every shard (legitimate because all shards
    at the same epoch compute the same plan)."""

    def __init__(
        self,
        service: DRTPService,
        scheme_name: str,
        batch: int = DEFAULT_BATCH,
        lookahead: int = DEFAULT_LOOKAHEAD,
    ) -> None:
        if batch <= 0 or lookahead <= 0:
            raise ValueError("batch and lookahead must be positive")
        self.service = service
        self.batch = batch
        self.lookahead = lookahead
        self.stats = AuthorityStats()
        self.seq = 0
        self._tracker = DeltaTracker(service.state)
        self._deltas: Dict[int, LinkStateDelta] = {}
        self._planner = EpochPlanner(
            service.network,
            scheme_name,
            DatabaseSnapshot.capture(service.state, 0),
            risk_groups=service.risk_groups,
        )
        #: epoch -> the authority's kernel-table rows at that boundary,
        #: kept until the planner's replica has been checked against it.
        self._authority_rows: Dict[int, List[tuple]] = {}
        self._record_authority_rows(0)
        self._check_replica()

    def _record_authority_rows(self, epoch: int) -> None:
        tables = self.service.database.kernel_arrays()
        tables.flush()
        self._authority_rows[epoch] = tables.rows(
            6 if tables.have_group_tables else 4
        )

    def _check_replica(self) -> None:
        """The planner's delta-fed table equals the authority's at the
        epoch the replica just reached."""
        replica = self._planner.replica
        expected = self._authority_rows.get(replica.epoch)
        if expected is None:
            return  # checked on arrival, image since dropped
        stored = replica.kernel_arrays().rows(len(expected[0]))
        if stored != expected:
            raise ClusterOracleDivergence(
                "replica table at epoch {} differs from the authority's "
                "on links {}".format(
                    replica.epoch,
                    [i for i, row in enumerate(stored) if row != expected[i]],
                )
            )

    def admit(self, args: Dict[str, Any]) -> Dict[str, Any]:
        """Plan at the epoch view for this seq, commit via the authority."""
        target = epoch_for(self.seq, self.batch, self.lookahead)
        self._planner.advance_to(target, self._deltas)
        self._check_replica()
        plan = self._planner.plan(args["source"], args["destination"], args["bw"])
        result = commit_admission(self.service, args, plan, self.stats)
        self._finish_commit()
        return result

    def release(self, connection_id: int) -> Dict[str, Any]:
        result = ops.apply_release(self.service, connection_id)
        self._finish_commit()
        return result

    def fail_link(self, link: int) -> Dict[str, Any]:
        result = ops.apply_fail_link(self.service, link)
        self._finish_commit()
        return result

    def repair_link(self, link: int) -> Dict[str, Any]:
        result = ops.apply_repair_link(self.service, link)
        self._finish_commit()
        return result

    def _finish_commit(self) -> None:
        self.seq += 1
        if self.seq % self.batch == 0:
            epoch = self.seq // self.batch
            self._deltas[epoch] = self._tracker.capture(epoch)
            self._record_authority_rows(epoch)
            # Deltas (and table images) already behind the planner can
            # never be re-read.
            floor = self._planner.replica.epoch
            for retained in (self._deltas, self._authority_rows):
                for old in [e for e in retained if e <= floor]:
                    del retained[old]

    def close(self) -> None:
        """Detach the delta tracker from the service's state."""
        self._tracker.close()


def run_cluster_reference(
    network: Network,
    scheme_name: str,
    timeline: Iterable[TimelineEvent],
    batch: int = DEFAULT_BATCH,
    lookahead: int = DEFAULT_LOOKAHEAD,
    risk_groups: Optional[RiskGroupSet] = None,
    service: Optional[DRTPService] = None,
) -> Dict[str, Any]:
    """Replay a timeline under the cluster's epoch discipline.

    Returns the same report shape as
    :func:`~repro.server.loadgen.run_sequential_reference`:
    per-request decisions in request-id order plus summary counters,
    with an extra ``authority`` section recording replans/commits.
    """
    if service is None:
        service = DRTPService(
            network, make_scheme(scheme_name), risk_groups=risk_groups
        )
    authority = SequentialClusterAuthority(
        service, scheme_name, batch=batch, lookahead=lookahead
    )
    decisions: Dict[int, Dict[str, Any]] = {}
    admits = 0
    accepted = 0
    try:
        for event in timeline:
            if event.op == "admit":
                admits += 1
                result = authority.admit(event.args)
                decisions[event.args["request_id"]] = result
                if result["accepted"]:
                    accepted += 1
            elif event.op == "release":
                # Idempotent like the server path: the connection may
                # already be gone after a failure.
                try:
                    authority.release(event.args["connection"])
                except ConnectionStateError:
                    pass
            elif event.op == "fail_link":
                authority.fail_link(event.args["link"])
            elif event.op == "repair_link":
                authority.repair_link(event.args["link"])
    finally:
        authority.close()
    ordered: List[Dict[str, Any]] = [
        decisions[request_id] for request_id in sorted(decisions)
    ]
    return {
        "admits": admits,
        "accepted": accepted,
        "acceptance_ratio": accepted / admits if admits else 0.0,
        # 0/1 per request id, shaped like run_sequential_reference for
        # the loadtest --verify plumbing ...
        "decisions": [int(result["accepted"]) for result in ordered],
        # ... and the full protocol results for the hard oracle diff.
        "results": ordered,
        "counters": {
            "requests": service.counters.requests,
            "accepted": service.counters.accepted,
            "released": service.counters.released,
        },
        "authority": {
            "batch": batch,
            "lookahead": lookahead,
            "commits": authority.stats.commits,
            "replans": authority.stats.replans,
            "final_epoch": authority.seq // batch,
        },
    }
