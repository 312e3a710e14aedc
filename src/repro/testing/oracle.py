"""Differential-testing oracle for the fast-path routing engine.

:class:`DifferentialOracle` wraps a :class:`~repro.core.service.DRTPService`
— same lifecycle surface, attribute pass-through for everything
else — and mirrors every operation into a shadow service built by
:func:`make_reference_service`: the scheme's reference planner, naive
searches, rebuild-per-read database, independent ledgers, ledger walks
committed hop by hop (:mod:`repro.testing.commit`).  After each
operation the oracle asserts the two worlds are **bit-identical**:

* the admission decision (accepted/reason/degraded, the registration
  deficit) and every route in the plan, link id for link id, and the
  signaling tallies (walks, hops, retries, drops, duplicates, crashes);
* the failure-impact outcomes of ``fail_link`` / ``fail_node`` /
  ``fail_group`` / ``fail_link_set``, each in full (victim, verdict,
  reason and the backup that activated);
* the full network-state fingerprint (every ledger's reservations,
  spare pool, backup registry and APLV, plus link health);
* the incrementally-maintained APLV of every ledger against a
  rebuild-from-registry vector, and every live database record
  (``aplv_l1``, CV bits, conflict counts, headrooms) against the naive
  rebuild.

Any mismatch raises :class:`OracleDivergence` naming the operation and
the first differing component.  Zero divergences over a long random
operation stream is the acceptance bar for the fast path;
``repro replay --oracle`` runs whole scenario replays under this
wrapper, and ``tests/test_service_machine.py`` drives it as the system
under test of a hypothesis state machine.

Every state-changing :class:`~repro.core.service.DRTPService` method is
either mirrored here or refused: the attribute pass-through raises for
a mutator it does not mirror (:data:`UNMIRRORED_MUTATORS`) rather than
change the fast world alone and let the next mirrored operation take
the blame for the divergence.

A fault-injected service's shadow gets a twin injector: the two
spellings of the register walk consume draws one for one.  A
``bw_req`` whose sums may round is turned away (:func:`require_exact`).
"""

from __future__ import annotations

import copy
from typing import Optional

from ..core.service import DRTPService
from ..routing.base import RoutingContext
from ..routing.baselines import NoBackupScheme
from ..routing.flooding import BoundedFloodingScheme
from ..routing.link_state import LinkStateScheme
from ..routing.reactive import ReactiveScheme
from .commit import HopByHopController
from .flooding import ReferenceFloodingScheme
from .link_state import ReferenceLinkStateScheme
from .reference import ReferenceDatabase, rebuilt_aplv


class OracleDivergence(AssertionError):
    """The fast path and the naive reference disagreed."""


#: ``DRTPService`` mutators the oracle does not mirror; the pass-through
#: refuses them by name.
UNMIRRORED_MUTATORS = frozenset(
    {"install_risk_groups", "queue_backup_reestablishment"}
)

#: Bandwidths the oracle accepts are multiples of ``2 ** -EXACT_BITS``:
#: their sums and differences stay exact in float64.
EXACT_BITS = 16


def require_exact(bw_req: float) -> None:
    """Raise ``ValueError`` for a bandwidth whose sums may round."""
    if float(bw_req).as_integer_ratio()[1] > 1 << EXACT_BITS:
        raise ValueError(
            "bw_req {!r} is not a multiple of 2**-{}: the reference undoes "
            "a rejected walk hop by hop, exact only while bandwidth sums "
            "are, so rounding would read as a divergence".format(
                bw_req, EXACT_BITS))


class _ReferenceService(DRTPService):
    """A service whose every ledger walk goes hop by hop."""

    admission_controller = HopByHopController


def make_reference_service(service: DRTPService) -> DRTPService:
    """A shadow :class:`DRTPService` computing ground truth.

    The shadow shares nothing mutable with ``service``: it owns a
    fresh :class:`~repro.network.state.NetworkState` over the same
    (immutable) topology and risk groups, a :class:`ReferenceDatabase`,
    a copy of the spare policy, a twin of the fault injector (same
    plan, seed and stream positions), the hop-by-hop commit of
    :class:`~repro.testing.commit.HopByHopController`, and the
    *reference* planner of the routing scheme — the closure planner of
    :mod:`repro.testing.link_state` for the link-state schemes and, its
    primary half alone, for the primary-only baselines; the object
    flood of
    :mod:`repro.testing.flooding` for bounded flooding; a plain copy
    only for the random baseline, whose decisions are its generator's.
    Replaying the same operations through both must produce
    bit-identical decisions and state fingerprints.
    """
    if isinstance(service.scheme, LinkStateScheme):
        scheme = ReferenceLinkStateScheme.shadowing(service.scheme)
    elif isinstance(service.scheme, (NoBackupScheme, ReactiveScheme)):
        scheme = ReferenceLinkStateScheme(service.scheme.name, "", 0)
    elif isinstance(service.scheme, BoundedFloodingScheme):
        scheme = ReferenceFloodingScheme.shadowing(service.scheme)
    else:
        scheme = copy.copy(service.scheme)
    shadow = _ReferenceService(
        service.network,
        scheme,
        spare_policy=copy.copy(service.spare_policy),
        require_backup=service._admission._require_backup,
        live_database=True,
        qos_slack=service.qos_slack,
        fault_injector=copy.deepcopy(service.fault_injector),
        retry_policy=service.retry_policy,
        risk_groups=service.risk_groups,
    )
    shadow.database = ReferenceDatabase(shadow.state)
    scheme.bind(RoutingContext(service.network, shadow.state, shadow.database))
    return shadow


def route_key(route) -> Optional[tuple]:
    """A route as comparable data: its nodes and link ids."""
    if route is None:
        return None
    return (route.nodes, route.link_ids)


def decision_key(decision) -> tuple:
    """An admission decision as comparable data: the verdict and
    every planned route."""
    return (
        decision.accepted,
        decision.reason,
        decision.degraded,
        route_key(decision.plan.primary),
        tuple(route_key(r) for r in decision.plan.all_backups),
    )


def impact_key(impact) -> tuple:
    """A failure impact as comparable data: its label and every
    victim's full outcome, in order."""
    return (impact.link_id, tuple(impact.outcomes))


class DifferentialOracle:
    """Run a shadow naive service in lockstep and diff after every op."""

    def __init__(
        self,
        service: DRTPService,
        check_database: bool = True,
    ) -> None:
        """``check_database=False`` skips the per-link database record
        sweep (O(num_links) per operation) and keeps only the decision
        and fingerprint diffs — for long campaigns on big meshes."""
        self._service = service
        self._shadow = make_reference_service(service)
        self._check_database = check_database
        #: Mirrored operations so far.
        self.operations = 0
        #: Individual equality assertions that passed.
        self.checks = 0
        #: ``id(ledger) -> (version, fingerprint)``, emptied every eighth
        #: operation: a fast-side change without its version bump shows
        #: at once where the shadow changes that ledger too, else then.
        self._prints = {}

    @property
    def service(self) -> DRTPService:
        """The wrapped fast-path service."""
        return self._service

    @property
    def shadow(self) -> DRTPService:
        """The naive reference service (exposed for tests)."""
        return self._shadow

    # ------------------------------------------------------------------
    # Mirrored lifecycle operations
    # ------------------------------------------------------------------
    def request(
        self,
        source: int,
        destination: int,
        bw_req: float,
        arrival_time: float = 0.0,
        holding_time: float = float("inf"),
        request_id: Optional[int] = None,
    ):
        require_exact(bw_req)
        decision = self._service.request(
            source, destination, bw_req, arrival_time, holding_time,
            request_id,
        )
        # Re-admit the *same* request object so both services agree on
        # the connection id regardless of who allocated it.
        shadow_decision = self._shadow.admit(decision.request)
        self._compare_decisions("request", decision, shadow_decision)
        self._compare_state("request")
        return decision

    def admit(self, request):
        require_exact(request.bw_req)
        decision = self._service.admit(request)
        shadow_decision = self._shadow.admit(request)
        self._compare_decisions("admit", decision, shadow_decision)
        self._compare_state("admit")
        return decision

    def release(self, connection_id: int) -> None:
        self._service.release(connection_id)
        self._shadow.release(connection_id)
        self._compare_state("release")

    def _fail(self, op: str, target, reconfigure: bool):
        """Apply one failure (``op`` names the service method) to both
        worlds; the impacts must agree victim for victim."""
        impact = getattr(self._service, op)(target, reconfigure=reconfigure)
        shadow_impact = getattr(self._shadow, op)(
            target, reconfigure=reconfigure
        )
        self._expect(
            op, "impact", impact_key(impact), impact_key(shadow_impact)
        )
        self._compare_state(op)
        return impact

    def fail_link(self, link_id: int, reconfigure: bool = True):
        return self._fail("fail_link", link_id, reconfigure)

    def fail_node(self, node: int, reconfigure: bool = True):
        return self._fail("fail_node", node, reconfigure)

    def fail_group(self, group_id: int, reconfigure: bool = True):
        return self._fail("fail_group", group_id, reconfigure)

    def fail_link_set(self, link_ids, reconfigure: bool = True):
        return self._fail("fail_link_set", tuple(link_ids), reconfigure)

    def _repair(self, op: str, target) -> None:
        getattr(self._service, op)(target)
        getattr(self._shadow, op)(target)
        self._compare_state(op)

    def repair_link(self, link_id: int) -> None:
        self._repair("repair_link", link_id)

    def repair_node(self, node: int) -> None:
        self._repair("repair_node", node)

    def repair_group(self, group_id: int) -> None:
        self._repair("repair_group", group_id)

    def reestablish_backup(self, connection_id: int) -> bool:
        restored = self._service.reestablish_backup(connection_id)
        shadow_restored = self._shadow.reestablish_backup(connection_id)
        self._expect(
            "reestablish_backup", "result", restored, shadow_restored
        )
        self._compare_state("reestablish_backup")
        return restored

    def refresh_database(self) -> None:
        self._service.refresh_database()
        self._shadow.refresh_database()
        self._compare_state("refresh_database")

    # ------------------------------------------------------------------
    # Comparison machinery
    # ------------------------------------------------------------------
    def _expect(self, op: str, what: str, fast, naive) -> None:
        if fast != naive:
            raise OracleDivergence(
                "after {} (operation #{}): {} diverged\n"
                "  fast path: {!r}\n"
                "  reference: {!r}".format(
                    op, self.operations + 1, what, fast, naive
                )
            )
        self.checks += 1

    def _compare_decisions(self, op, decision, shadow_decision) -> None:
        self._expect(op, "accepted", decision.accepted,
                     shadow_decision.accepted)
        self._expect(op, "reason", decision.reason, shadow_decision.reason)
        self._expect(op, "degraded", decision.degraded,
                     shadow_decision.degraded)
        self._expect(op, "registration deficit",
                     decision.backup_registration_deficit,
                     shadow_decision.backup_registration_deficit)
        self._expect(
            op, "primary route",
            route_key(decision.plan.primary),
            route_key(shadow_decision.plan.primary),
        )
        self._expect(
            op, "backup routes",
            tuple(route_key(r) for r in decision.plan.all_backups),
            tuple(route_key(r) for r in shadow_decision.plan.all_backups),
        )

    def _compare_state(self, op: str) -> None:
        if self.operations % 8 == 0:
            self._prints.clear()
        self._expect(op, "signaling tallies", *(
            {k: v for k, v in vars(s.counters).items() if "signaling" in k}
            for s in (self._service, self._shadow)
        ))
        self._expect(
            op, "state fingerprint",
            self._fingerprint(self._service.state),
            self._fingerprint(self._shadow.state),
        )
        if self._check_database:
            self._verify_ledgers(op)
        self.operations += 1

    def _fingerprint(self, state) -> tuple:
        """``state.fingerprint()``, reusing prints of unmoved ledgers."""
        prints = []
        for ledger in state.ledgers():
            seen = self._prints.get(id(ledger))
            if seen is None or seen[0] != ledger.version:
                seen = (ledger.version, ledger.fingerprint())
                self._prints[id(ledger)] = seen
            prints.append(seen[1])
        return tuple(prints), tuple(sorted(state.failed_links()))

    def _verify_ledgers(self, op: str) -> None:
        """Diff every ledger's incremental state, and the fast
        database's records, against rebuild-from-scratch truth."""
        database = self._service.database
        for ledger in self._service.state.ledgers():
            truth = rebuilt_aplv(ledger)
            link_id = ledger.link_id
            self._expect(
                op, "APLV of link {}".format(link_id),
                ledger.aplv.to_dense(), truth.to_dense(),
            )
            self._expect(
                op, "CV of link {}".format(link_id),
                ledger.conflict_vector().bits, truth.support(),
            )
            if database.live and not database.stale:
                self._expect(
                    op, "database l1 of link {}".format(link_id),
                    database.aplv_l1(link_id), truth.l1_norm,
                )
                self._expect(
                    op, "database CV of link {}".format(link_id),
                    database.conflict_vector(link_id).bits,
                    truth.support(),
                )
                shadow_db = self._shadow.database
                self._expect(
                    op, "primary headroom of link {}".format(link_id),
                    database.primary_headroom(link_id),
                    shadow_db.primary_headroom(link_id),
                )
                self._expect(
                    op, "backup headroom of link {}".format(link_id),
                    database.backup_headroom(link_id),
                    shadow_db.backup_headroom(link_id),
                )

    # ------------------------------------------------------------------
    # Pass-through
    # ------------------------------------------------------------------
    def __getattr__(self, name: str):
        if name in UNMIRRORED_MUTATORS:
            raise AttributeError(
                "DifferentialOracle does not mirror {}(); calling it on the "
                "fast service alone would diverge the shadow".format(name)
            )
        return getattr(self._service, name)
