"""Bandwidth ledgers — the authoritative resource state of every link.

The paper assumes "a portion of network resources is set aside for
DR-connections" (Section 2.2); each link's ledger tracks how that
portion (``total_bw``, the link capacity here) is split between:

* ``prime_bw`` — bandwidth exclusively reserved by primary channels;
* ``spare_bw`` — bandwidth reserved for backup channels and shared by
  all backups registered on the link (backup multiplexing);
* free bandwidth — ``total_bw − prime_bw − spare_bw``, available to
  new primaries, to spare growth, and to best-effort traffic.

A ledger is mechanical: it enforces arithmetic invariants and keeps
the link's demand map (whose key set is the APLV's support) consistent
with its backup registry, but contains **no policy**.  Spare sizing
policy (when to grow spare, what to do on shortage) lives in
:mod:`repro.core.multiplexing`.
"""

from __future__ import annotations

import math
from operator import countOf
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..topology.graph import Network
from ..topology.srlg import RiskGroupSet
from .aplv import APLV
from .conflict_vector import ConflictVector

#: Tolerance for floating-point bandwidth comparisons.
BW_EPSILON = 1e-9


class ResourceError(RuntimeError):
    """Raised when a reservation would violate a ledger invariant."""


def require_bandwidth(bw: float, what: str) -> None:
    """Raise unless ``bw`` is finite and above ``BW_EPSILON`` (a smaller
    one vanishes from a demand map on release).  NaN fails too."""
    if not BW_EPSILON < bw < math.inf:
        raise ResourceError("{} must be finite and above {}, got {!r}"
                            .format(what, BW_EPSILON, bw))


def _peak(demand: Dict[int, float]) -> tuple:
    """A demand map's maximum and how many entries hold it (``(0.0,
    0)`` when empty) — the recount behind a ledger's running maxima."""
    if not demand:
        return 0.0, 0
    values = demand.values()
    peak = max(values)
    return peak, countOf(values, peak)


class LinkLedger:
    """Resource accounting for one unidirectional link."""

    __slots__ = (
        "link_id",
        "capacity",
        "version",
        "_num_links",
        "_prime_bw",
        "_spare_bw",
        "_backups",
        "_demand",
        "_l1",
        "_support_mask",
        "_support_version",
        "_risk_groups",
        "_group_demand",
        "_group_l1",
        "_on_change",
        "_cv_cache",
        "_cv_cache_version",
        "_gmask_cache",
        "_gmask_cache_version",
        "_demand_max",
        "_demand_max_holders",
        "_demand_max_stale",
        "_group_demand_max",
        "_group_demand_max_holders",
        "_group_demand_max_stale",
    )

    def __init__(self, link_id: int, capacity: float, num_links: int) -> None:
        if capacity <= 0:
            raise ResourceError("capacity must be positive, got {}".format(capacity))
        self.link_id = link_id
        self.capacity = capacity
        #: Bumped on every mutation; lets readers detect staleness
        #: without diffing the whole ledger.
        self.version = 0
        self._num_links = num_links
        self._prime_bw = 0.0
        self._spare_bw = 0.0
        # connection id -> (primary LSET, backup bandwidth)
        self._backups: Dict[int, tuple] = {}
        # position j -> total bandwidth of backups here whose primary
        # crosses L_j; the bandwidth-weighted APLV used to size spare.
        # Every backup bandwidth exceeds BW_EPSILON, so its key set is
        # the APLV's support: the CV (a bit set on entry, cleared on
        # exit, each move bumping the CV cache's support version) and
        # ||APLV||_1 are kept beside it.
        self._demand: Dict[int, float] = {}
        self._l1 = 0
        self._support_mask = 0
        self._support_version = 0
        # Shared-risk view (populated only when an SRLG assignment is
        # installed): group g -> total bandwidth those backups would
        # claim if the whole group failed at once, and the group L1.
        # Bandwidth counts once per group however many of the group's
        # links the primary crosses — the group failure takes them all
        # down together.
        self._risk_groups: Optional[RiskGroupSet] = None
        self._group_demand: Dict[int, float] = {}
        self._group_l1 = 0
        # Change-notification hook (set by NetworkState) feeding the
        # dirty-link sets of incremental link-state databases.
        self._on_change: Optional[Callable[[int], None]] = None
        self._cv_cache: Optional[ConflictVector] = None
        self._cv_cache_version = -1
        self._gmask_cache = 0
        self._gmask_cache_version = -1
        # Running maxima of the demand maps and their *peak holders*
        # (how many entries equal the maximum).  Registrations only
        # ever raise entries, so the maxima update in O(1) on the
        # admission fast path: passing the maximum resets the holders
        # to 1, tying it adds one.  A release that lowers a holder
        # takes one away, and only the last holder's release marks the
        # maximum stale for a lazy O(support) recompute on the next
        # read.  While stale, the maximum is an upper bound and the
        # holder count means nothing.
        self._demand_max = 0.0
        self._demand_max_holders = 0
        self._demand_max_stale = False
        self._group_demand_max = 0.0
        self._group_demand_max_holders = 0
        self._group_demand_max_stale = False

    def _touch(self) -> None:
        """Record one mutation: bump the version and notify readers."""
        self.version += 1
        if self._on_change is not None:
            self._on_change(self.link_id)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def prime_bw(self) -> float:
        return self._prime_bw

    @property
    def spare_bw(self) -> float:
        return self._spare_bw

    @property
    def free_bw(self) -> float:
        """Unallocated bandwidth: ``total_bw − prime_bw − spare_bw``."""
        return self.capacity - self._prime_bw - self._spare_bw

    @property
    def aplv(self) -> APLV:
        """The link's APLV, rebuilt from the backup registry on every
        read (tests, :meth:`fingerprint`, the oracle's truth)."""
        return APLV.from_lsets(
            self._num_links, (lset for lset, _bw in self._backups.values())
        )

    def aplv_l1(self) -> int:
        """``||APLV_i||_1`` — P-LSR's advertised scalar."""
        return self._l1

    def conflict_vector(self) -> ConflictVector:
        """The link's current CV, cached against the support version:
        repeated reads on an unchanged support (the common case
        between admissions) return the same immutable snapshot instead
        of re-materializing the bit vector."""
        version = self._support_version
        if self._cv_cache is None or self._cv_cache_version != version:
            self._cv_cache = ConflictVector(self._num_links, self._demand)
            self._cv_cache_version = version
        return self._cv_cache

    def support_mask(self) -> int:
        """The CV as one int bitset (bit ``j`` set ⟺ ``a_{i,j} > 0``)
        — the row format the compiled kernel tables
        (:mod:`repro.kernels`) sync from.  O(1): kept alongside the
        demand map's key set."""
        return self._support_mask

    def group_support_mask(self) -> int:
        """:meth:`group_support` as an int bitset over risk-group ids,
        cached against the ledger version (group accounting has no
        separate support counter)."""
        if self._gmask_cache_version != self.version:
            mask = 0
            for group in self._group_demand:
                mask |= 1 << group
            self._gmask_cache = mask
            self._gmask_cache_version = self.version
        return self._gmask_cache

    @property
    def backup_count(self) -> int:
        return len(self._backups)

    def backups(self) -> Dict[int, FrozenSet[int]]:
        """Registered backups: connection id -> its *primary* LSET."""
        return {cid: lset for cid, (lset, _bw) in self._backups.items()}

    def backup_bw(self, connection_id: int) -> float:
        """Bandwidth the given registered backup would claim on
        activation."""
        try:
            return self._backups[connection_id][1]
        except KeyError:
            raise ResourceError(
                "link {}: no backup registered for connection {}".format(
                    self.link_id, connection_id
                )
            )

    def has_backup(self, connection_id: int) -> bool:
        return connection_id in self._backups

    @property
    def max_demand(self) -> float:
        """Worst-case spare bandwidth any *single* link failure could
        demand here: ``max_j Σ {bw of backups whose primary crosses
        L_j}``.  With the paper's identical per-connection bandwidth
        this equals ``max(APLV) · bw_req`` — the Section 5 sizing rule.
        """
        if self._demand_max_stale:
            self._demand_max, self._demand_max_holders = _peak(self._demand)
            self._demand_max_stale = False
        return self._demand_max

    @property
    def total_backup_bw(self) -> float:
        """Sum of all registered backups' bandwidths (what a dedicated,
        non-multiplexed reservation would cost)."""
        return sum(bw for _lset, bw in self._backups.values())

    # ------------------------------------------------------------------
    # Shared-risk (SRLG) views
    # ------------------------------------------------------------------
    @property
    def risk_groups(self) -> Optional[RiskGroupSet]:
        return self._risk_groups

    def install_risk_groups(self, groups: Optional[RiskGroupSet]) -> None:
        """Attach (or clear) the SRLG assignment and rebuild the
        per-group accounting from the live backup registry."""
        self._risk_groups = groups
        self._group_demand_max_stale = True
        if groups is None:
            self._group_l1, self._group_demand = 0, {}
        else:
            self._group_l1, self._group_demand = self._registry_sums(
                groups.groups_of
            )
        self._touch()

    def _registry_sums(self, keys_of) -> Tuple[int, Dict[int, float]]:
        """``(L1, demand)`` rebuilt from the backup registry, with
        ``keys_of`` mapping a primary LSET to its keys (positions or
        risk groups)."""
        l1 = 0
        demand: Dict[int, float] = {}
        for lset, bw in self._backups.values():
            keys = keys_of(lset)
            l1 += len(keys)
            for key in keys:
                demand[key] = demand.get(key, 0.0) + bw
        return l1, demand

    @property
    def group_aplv(self) -> APLV:
        """Per group g, # backups here whose primary touches g, rebuilt
        from the backup registry on every read (the oracle's truth)."""
        groups = self._risk_groups
        if groups is None:
            raise ResourceError(
                "link {}: no risk groups installed".format(self.link_id)
            )
        return APLV.from_lsets(
            groups.num_groups,
            (groups.groups_of(lset) for lset, _bw in self._backups.values()),
        )

    @property
    def max_group_demand(self) -> float:
        """Worst-case spare bandwidth any single *risk-group* failure
        could demand here: ``max_g Σ {bw of backups whose primary
        touches group g}``.  With singleton groups this equals
        :attr:`max_demand`; with conduits it is at least as large,
        since one cut can strand several of a primary's links at once.
        Falls back to :attr:`max_demand` when no SRLGs are installed.
        """
        if self._risk_groups is None:
            return self.max_demand
        if self._group_demand_max_stale:
            self._group_demand_max, self._group_demand_max_holders = _peak(
                self._group_demand
            )
            self._group_demand_max_stale = False
        return self._group_demand_max

    def group_aplv_l1(self) -> int:
        """Group analog of the APLV's L1 mass: Σ_g (# backups whose
        primary touches g).  Equal to :meth:`aplv_l1` for singletons."""
        return self._group_l1

    def group_support(self) -> FrozenSet[int]:
        """Risk groups with at least one interested backup here."""
        return frozenset(self._group_demand)

    def primary_headroom(self) -> float:
        """Bandwidth a new *primary* may claim (free bandwidth only —
        primaries can never squat on reserved spare)."""
        return self.free_bw

    def backup_headroom(self) -> float:
        """Bandwidth visible to a *backup* route search: unallocated
        plus the spare already shared by backups (Section 3.1: "the sum
        of the un-allocated bandwidth and the spare bandwidth shared by
        the backup channels")."""
        return self.free_bw + self._spare_bw

    # ------------------------------------------------------------------
    # Primary reservations
    # ------------------------------------------------------------------
    def reserve_primary(self, bw: float) -> None:
        require_bandwidth(bw, "primary reservation")
        if bw > self.free_bw + BW_EPSILON:
            raise ResourceError(
                "link {}: primary needs {} but only {} free".format(
                    self.link_id, bw, self.free_bw
                )
            )
        self._prime_bw += bw
        self._touch()

    def release_primary(self, bw: float) -> None:
        require_bandwidth(bw, "primary release")
        if bw > self._prime_bw + BW_EPSILON:
            raise ResourceError(
                "link {}: releasing {} primary bw but only {} reserved".format(
                    self.link_id, bw, self._prime_bw
                )
            )
        self._prime_bw = max(0.0, self._prime_bw - bw)
        self._touch()

    # ------------------------------------------------------------------
    # Backup registration (demand bookkeeping; spare sizing is policy)
    # ------------------------------------------------------------------
    def register_backup(
        self, connection_id: int, primary_lset: Iterable[int], bw: float
    ) -> None:
        """Record a backup crossing this link, updating the
        bandwidth-weighted demand map, ``||APLV||_1`` and the CV from
        the piggybacked primary ``LSET`` (Section 2.2)."""
        if connection_id in self._backups:
            raise ResourceError(
                "link {}: backup for connection {} already registered".format(
                    self.link_id, connection_id
                )
            )
        require_bandwidth(bw, "backup bandwidth")
        lset = frozenset(primary_lset)
        if lset and not 0 <= min(lset) <= max(lset) < self._num_links:
            raise ResourceError("primary LSET {} names a link outside the "
                                "network".format(sorted(lset)))
        demand = self._demand
        fresh = 0
        for position in lset:
            held = demand.get(position)
            if held is None:
                held = 0.0
                self._support_mask |= 1 << position
                fresh += 1
            total = held + bw
            demand[position] = total
            if total >= self._demand_max:
                if total > self._demand_max:
                    self._demand_max = total
                    self._demand_max_holders = 1
                elif held != total:  # else bw vanished in the sum
                    self._demand_max_holders += 1
        self._support_version += fresh
        self._l1 += len(lset)
        if self._risk_groups is not None:
            group_demand = self._group_demand
            groups = self._risk_groups.groups_of(lset)
            self._group_l1 += len(groups)
            for group in groups:
                held = group_demand.get(group, 0.0)
                total = held + bw
                group_demand[group] = total
                if total >= self._group_demand_max:
                    if total > self._group_demand_max:
                        self._group_demand_max = total
                        self._group_demand_max_holders = 1
                    elif held != total:
                        self._group_demand_max_holders += 1
        self._backups[connection_id] = (lset, bw)
        self._touch()

    def _registered(self, connection_id) -> tuple:
        """The stored ``(LSET, bw)`` of a registration the demand map
        can release: every position present, else a release would
        underflow (corrupt state).  Raises otherwise."""
        stored = self._backups.get(connection_id)
        if stored is None:
            raise ResourceError(
                "link {}: no backup registered for connection {}".format(
                    self.link_id, connection_id
                )
            )
        if not self._demand.keys() >= stored[0]:
            position = next(p for p in stored[0] if p not in self._demand)
            raise ResourceError(
                "link {}: releasing primary link {} not present in "
                "APLV".format(self.link_id, position)
            )
        return stored

    def release_backup(self, connection_id: int) -> None:
        """Remove a backup; lowers the demand map with the stored LSET
        and drops the positions no other backup holds."""
        lset, bw = self._registered(connection_id)
        demand = self._demand
        del self._backups[connection_id]
        # A running maximum can only have dropped when the last entry
        # that held it is decremented; every other release leaves it
        # exact.
        peak = self._demand_max
        for position in lset:
            held = demand[position]
            if held >= peak:
                self._demand_max_holders -= 1
            remaining = held - bw
            if remaining <= BW_EPSILON:
                del demand[position]
                self._support_mask &= ~(1 << position)
                self._support_version += 1
            else:
                demand[position] = remaining
        self._l1 -= len(lset)
        if not self._demand_max_holders:
            self._demand_max_stale = True
        if self._risk_groups is not None:
            peak = self._group_demand_max
            groups = self._risk_groups.groups_of(lset)
            self._group_l1 -= len(groups)
            for group in groups:
                held = self._group_demand[group]
                if held >= peak:
                    self._group_demand_max_holders -= 1
                remaining = held - bw
                if remaining <= BW_EPSILON:
                    del self._group_demand[group]
                else:
                    self._group_demand[group] = remaining
            if not self._group_demand_max_holders:
                self._group_demand_max_stale = True
        self._touch()

    # ------------------------------------------------------------------
    # Spare management (called by the multiplexing policy)
    # ------------------------------------------------------------------
    def set_spare(self, spare_bw: float) -> None:
        """Resize the shared spare pool.  Growth is bounded by free
        bandwidth; shrink never fails."""
        if spare_bw < -BW_EPSILON:
            raise ResourceError("spare bandwidth cannot be negative")
        spare_bw = max(0.0, spare_bw)
        if spare_bw > self._spare_bw:
            growth = spare_bw - self._spare_bw
            if growth > self.free_bw + BW_EPSILON:
                raise ResourceError(
                    "link {}: cannot grow spare by {} with {} free".format(
                        self.link_id, growth, self.free_bw
                    )
                )
        if spare_bw != self._spare_bw:
            self._spare_bw = spare_bw
            self._touch()

    def spare_capacity_count(self, bw_per_connection: float) -> int:
        """``SC_i``: how many backups the spare pool can activate at
        once (Section 5: spare bandwidth divided by the per-connection
        bandwidth, all DR-connections being identical)."""
        if bw_per_connection <= 0:
            raise ResourceError("bw_per_connection must be positive")
        return int((self._spare_bw + BW_EPSILON) // bw_per_connection)

    def fingerprint(self) -> tuple:
        """Hashable exact snapshot of this link's resource state:
        reservations, spare pool, backup registry (keys, LSETs and
        bandwidths) and the full APLV.  Two ledgers with equal
        fingerprints are observably identical — the equality the
        fault-injection tests assert after crash/unwind cycles."""
        registry = tuple(
            sorted(
                (repr(key), tuple(sorted(lset)), bw)
                for key, (lset, bw) in self._backups.items()
            )
        )
        aplv = tuple(sorted(self.aplv.nonzero_items())) if registry else ()
        return (self.link_id, self._prime_bw, self._spare_bw, registry, aplv)

    def check_invariants(self) -> None:
        """Assert ledger arithmetic consistency, and that the demand
        maps, their L1s and the CV equal a rebuild from the backup
        registry (used by tests and the simulator's self-check mode)."""
        if self._prime_bw < -BW_EPSILON:
            raise ResourceError("negative prime_bw on link {}".format(self.link_id))
        if self._spare_bw < -BW_EPSILON:
            raise ResourceError("negative spare_bw on link {}".format(self.link_id))
        if self._prime_bw + self._spare_bw > self.capacity + BW_EPSILON:
            raise ResourceError(
                "link {} over-committed: prime {} + spare {} > capacity {}".format(
                    self.link_id, self._prime_bw, self._spare_bw, self.capacity
                )
            )
        self._check_map("demand", self._l1, self._demand, self._demand_max,
                        self._demand_max_holders, self._demand_max_stale,
                        lambda lset: lset)
        if self._support_mask != sum(1 << pos for pos in self._demand):
            raise ResourceError(
                "link {}: CV out of sync with the demand map".format(
                    self.link_id
                )
            )
        if self._risk_groups is not None:
            self._check_map(
                "group demand", self._group_l1, self._group_demand,
                self._group_demand_max, self._group_demand_max_holders,
                self._group_demand_max_stale, self._risk_groups.groups_of,
            )

    def _check_map(self, what: str, l1: int, demand: Dict[int, float],
                   peak: float, holders: int, stale: bool, keys_of) -> None:
        """A maintained map equals the registry rebuild (its L1 and keys
        exactly, values within ``BW_EPSILON``), and a running maximum
        not marked stale is the map's, with its holder count."""
        expected_l1, expected = self._registry_sums(keys_of)
        if l1 != expected_l1 or demand.keys() != expected.keys() or any(
            abs(demand[key] - value) > BW_EPSILON
            for key, value in expected.items()
        ):
            raise ResourceError("link {}: {} map out of sync with registry"
                                .format(self.link_id, what))
        if not stale and (peak, holders) != _peak(demand):
            raise ResourceError(
                "link {}: running {} maximum {} ({} holders) is not the "
                "map's".format(self.link_id, what, peak, holders)
            )


class NetworkState:
    """All link ledgers of a network plus whole-network views."""

    def __init__(self, network: Network) -> None:
        if not network.frozen:
            raise ResourceError("NetworkState requires a frozen network")
        self.network = network
        self._ledgers: List[LinkLedger] = [
            LinkLedger(link.link_id, link.capacity, network.num_links)
            for link in network.links()
        ]
        self._failed_links: set = set()
        self._subscribers: List[Callable[[int], None]] = []
        self._risk_groups: Optional[RiskGroupSet] = None
        for ledger in self._ledgers:
            ledger._on_change = self._notify_change

    # ------------------------------------------------------------------
    # Shared-risk link groups
    # ------------------------------------------------------------------
    @property
    def risk_groups(self) -> Optional[RiskGroupSet]:
        return self._risk_groups

    def install_risk_groups(self, groups: Optional[RiskGroupSet]) -> None:
        """Attach (or clear) an SRLG assignment network-wide; every
        ledger rebuilds its per-group accounting from its registry."""
        if groups is not None and groups.num_links != self.network.num_links:
            raise ResourceError(
                "risk groups cover {} links but network has {}".format(
                    groups.num_links, self.network.num_links
                )
            )
        self._risk_groups = groups
        for ledger in self._ledgers:
            ledger.install_risk_groups(groups)

    # ------------------------------------------------------------------
    # Change notification (feeds incremental database maintenance)
    # ------------------------------------------------------------------
    def subscribe(self, callback: Callable[[int], None]) -> None:
        """Register a callback invoked with a ``link_id`` on every
        ledger mutation (reservation, registration, spare resize).
        The database's kernel tables subscribe to maintain their
        dirty-link set instead of rescanning every link on refresh."""
        self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[int], None]) -> None:
        try:
            self._subscribers.remove(callback)
        except ValueError:
            pass

    def _notify_change(self, link_id: int) -> None:
        for callback in self._subscribers:
            callback(link_id)

    def publish_changes(self, link_ids: Iterable[int]) -> None:
        """Notify subscribers of a *batch* of ledger mutations at once.

        The batched apply path (:mod:`repro.kernels.apply`) mutates
        ledger fields directly and defers change notification to one
        call per admission — a single dirty-set transaction.  Every
        subscriber only records *that* a link changed (the kernel
        tables' dirty-set add, the warm-candidate cache's change
        stamp), so collapsing the per-mutation ``_touch``
        notifications into one notification per touched link leaves
        what they do next — which rows to rescan, which candidates to
        drop — exactly as the per-hop walk would."""
        subscribers = self._subscribers
        if not subscribers:
            return
        for link_id in link_ids:
            for callback in subscribers:
                callback(link_id)

    # ------------------------------------------------------------------
    # Link health (persistent failures, Section 1's fault model)
    # ------------------------------------------------------------------
    def mark_link_failed(self, link_id: int) -> None:
        """Record a persistent link failure; routing and flooding skip
        failed links until :meth:`mark_link_repaired`."""
        self.ledger(link_id)  # bounds check
        self._failed_links.add(link_id)

    def mark_link_repaired(self, link_id: int) -> None:
        self.ledger(link_id)
        self._failed_links.discard(link_id)

    def is_link_failed(self, link_id: int) -> bool:
        return link_id in self._failed_links

    def failed_links(self) -> frozenset:
        return frozenset(self._failed_links)

    def ledger(self, link_id: int) -> LinkLedger:
        try:
            return self._ledgers[link_id]
        except IndexError:
            raise ResourceError("unknown link id {}".format(link_id))

    def ledgers(self) -> List[LinkLedger]:
        return list(self._ledgers)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def total_capacity(self) -> float:
        return sum(ledger.capacity for ledger in self._ledgers)

    def total_prime_bw(self) -> float:
        return sum(ledger.prime_bw for ledger in self._ledgers)

    def total_spare_bw(self) -> float:
        return sum(ledger.spare_bw for ledger in self._ledgers)

    def utilization(self) -> float:
        """Fraction of network capacity committed (primary + spare)."""
        capacity = self.total_capacity()
        if capacity <= 0:
            return 0.0
        return (self.total_prime_bw() + self.total_spare_bw()) / capacity

    def fingerprint(self) -> tuple:
        """Hashable exact snapshot of the whole network's resource
        state (every ledger plus link health); equal fingerprints mean
        bit-identical states — used to verify that faulted signaling
        walks unwind completely and that seeded campaigns reproduce."""
        return (
            tuple(ledger.fingerprint() for ledger in self._ledgers),
            tuple(sorted(self._failed_links)),
        )

    def check_invariants(self) -> None:
        for ledger in self._ledgers:
            ledger.check_invariants()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NetworkState(links={}, util={:.1%})".format(
            len(self._ledgers), self.utilization()
        )
