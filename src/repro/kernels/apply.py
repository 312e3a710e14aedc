"""Batched admission apply — the signaling commit path as one
dirty-set transaction per walk.

The per-hop register walk (:mod:`repro.core.signaling`) and primary
reservation loop (:mod:`repro.core.admission`) mutate one ledger at a
time, paying a ``_touch`` notification, a spare resize and several
attribute lookups per hop.  Profiles after the PR 7 kernels show both
benchmark arms bottlenecked on exactly this shared bookkeeping.  The
entry points here rebuild each walk as *validate-then-apply*:

1. a read-only validation pass over the whole route decides the
   outcome (including which hop rejects) without mutating anything;
2. an apply pass fuses the APLV/CV/demand updates, backup-registry
   writes and spare-pool resizes into one tight loop over the route;
3. all change notifications are deferred to a single
   :meth:`~repro.network.state.NetworkState.publish_changes` call —
   one dirty-set transaction per admission, mirroring the kernels'
   batch-refresh discipline.

Bit-exactness contract (the same discipline as
:mod:`repro.routing.costs`): every float comparison and update copies
the ledger expressions *verbatim* — ``backup_headroom`` is
``(capacity − prime − spare) + spare``, never the algebraically equal
``capacity − prime`` — and every mutation replicates the exact
per-hop sequence of ``version`` bumps, running-maximum updates and
staleness resolutions.  Equivalence rests on per-link independence:
routes are simple paths, and each hop's headroom check and resize
read only that hop's own ledger, so no earlier hop's mutation can
change a later hop's decision.  Whenever a precondition for that
argument fails (duplicate link ids in a route, an already-registered
key, an out-of-range LSET position, a mismatched per-ledger SRLG
view), the entry point returns ``None`` and the caller falls back to
the per-hop walk, which reproduces the legacy behavior — including
its exception semantics — exactly.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..network.state import BW_EPSILON, NetworkState

#: Lazily resolved ``(ResizeOutcome, SharedSparePolicy)`` — imported at
#: first use so ``repro.kernels.apply`` can be imported before
#: ``repro.core`` finishes initializing (core.signaling imports this
#: module at its own import time).
_CORE_TYPES = None


def _core_types():
    global _CORE_TYPES
    if _CORE_TYPES is None:
        from ..core.multiplexing import ResizeOutcome, SharedSparePolicy

        _CORE_TYPES = (ResizeOutcome, SharedSparePolicy)
    return _CORE_TYPES


def _batchable_route(link_ids: Sequence[int]) -> bool:
    """Routes with repeated link ids void the per-link independence
    argument; hand them back to the per-hop walk."""
    return len(set(link_ids)) == len(link_ids)


def _uniform_groups(state: NetworkState, ledgers, link_ids) -> bool:
    """Every touched ledger must share the network-wide SRLG view for
    the fused group accounting to be exact."""
    groups = state._risk_groups
    for link_id in link_ids:
        if ledgers[link_id]._risk_groups is not groups:
            return False
    return True


# ----------------------------------------------------------------------
# Backup registration (the signaling register walk)
# ----------------------------------------------------------------------
def batch_register_walk(
    state: NetworkState,
    policy,
    key,
    link_ids: Sequence[int],
    primary_lset,
    bw: float,
) -> Optional[Tuple[Optional[int], int, list]]:
    """Fault-free register walk, batched.

    Returns ``None`` when the batched path cannot guarantee exact
    equivalence (caller falls back to the per-hop walk), else
    ``(rejected_link, hops_signaled, resizes)`` with
    ``rejected_link is None`` on success.  A rejection mutates
    nothing — observably identical to the per-hop register/unwind
    cycle, whose fingerprint is unchanged by construction.
    """
    if bw <= 0:
        return None
    n = len(link_ids)
    if n == 0:
        return (None, 0, [])
    if not _batchable_route(link_ids):
        return None
    ledgers = state._ledgers
    num_links = state.network.num_links
    lset = frozenset(primary_lset)
    if lset and (min(lset) < 0 or max(lset) >= num_links):
        return None

    # Validation pass: pure reads.  Per-link independence means each
    # hop's headroom here equals what the per-hop walk would see at
    # that hop, so the first failing hop — and therefore
    # ``hops_signaled`` — matches exactly.
    hops = 0
    try:
        for link_id in link_ids:
            ledger = ledgers[link_id]
            hops += 1
            # backup_headroom() verbatim: free_bw + spare, with
            # free_bw = capacity - prime - spare.  NOT capacity - prime.
            headroom = (
                ledger.capacity - ledger._prime_bw - ledger._spare_bw
            ) + ledger._spare_bw
            if headroom + BW_EPSILON < bw:
                return (link_id, hops, [])
            if key in ledger._backups:
                # Duplicate registration raises in the per-hop walk;
                # let it reproduce the exact error.
                return None
    except IndexError:
        return None
    if not _uniform_groups(state, ledgers, link_ids):
        return None

    ResizeOutcome, SharedSparePolicy = _core_types()
    shared = type(policy) is SharedSparePolicy
    groups = state._risk_groups
    glist = tuple(groups.groups_of(lset)) if groups is not None else ()
    llen = len(lset)
    # OR of the LSET's bits, computed once per walk: a hop's support
    # mask after registration is exactly ``mask | lset_mask`` (already
    # present positions keep their bits, fresh ones gain them).
    lset_mask = 0
    for pos in lset:
        lset_mask |= 1 << pos

    # Apply pass: fused registration + resize per hop, change
    # notifications deferred to one publish below.
    resizes: List = []
    append_resize = resizes.append
    for link_id in link_ids:
        ledger = ledgers[link_id]
        aplv = ledger._aplv
        counts = aplv._counts
        demand = ledger._demand
        demand_get = demand.get
        dmax = ledger._demand_max
        # Counter.update runs the increment loop in C; fresh positions
        # (0 -> 1 crossings) are exactly the length growth.
        before = len(counts)
        counts.update(lset)
        fresh = len(counts) - before
        if fresh:
            aplv._support_mask |= lset_mask
            aplv._support_version += fresh
        for pos in lset:
            total = demand_get(pos, 0.0) + bw
            demand[pos] = total
            if total > dmax:
                dmax = total
        aplv._l1 += llen
        ledger._demand_max = dmax
        if groups is not None:
            gaplv = ledger._group_aplv
            gdemand = ledger._group_demand
            gdmax = ledger._group_demand_max
            for group in glist:
                gaplv[group] = gaplv.get(group, 0) + 1
                gtotal = gdemand.get(group, 0.0) + bw
                gdemand[group] = gtotal
                if gtotal > gdmax:
                    gdmax = gtotal
            ledger._group_demand_max = gdmax
        ledger._backups[key] = (lset, bw)
        ledger.version += 1
        if shared:
            # SharedSparePolicy.resize inlined: target is max_demand
            # (staleness resolved exactly as the property does), the
            # clamp and the no-op-skip copy set_spare verbatim.  The
            # growth guard is provably dead here: achieved ≤ ceiling
            # means growth ≤ free_bw.
            if ledger._demand_max_stale:
                ledger._demand_max = (
                    max(demand.values()) if demand else 0.0
                )
                ledger._demand_max_stale = False
            target = ledger._demand_max
            ceiling = ledger.capacity - ledger._prime_bw
            achieved = min(target, max(0.0, ceiling))
            if achieved != ledger._spare_bw:
                ledger._spare_bw = achieved
                ledger.version += 1
            append_resize(
                ResizeOutcome(
                    link_id=link_id, target=target, achieved=achieved
                )
            )
        else:
            append_resize(policy.resize(ledger))
    state.publish_changes(link_ids)
    return (None, hops, resizes)


# ----------------------------------------------------------------------
# Backup release (teardown walk)
# ----------------------------------------------------------------------
def batch_release_walk(
    state: NetworkState,
    policy,
    key,
    link_ids: Sequence[int],
) -> Optional[list]:
    """Fused backup-release walk; ``None`` falls back to per-hop.

    Validation requires every hop to hold the registration with
    positive APLV counts on every stored LSET position, so the fused
    decrement can never underflow where the per-hop walk would have
    raised instead.
    """
    if not link_ids:
        return []
    if not _batchable_route(link_ids):
        return None
    ledgers = state._ledgers
    try:
        for link_id in link_ids:
            ledger = ledgers[link_id]
            stored = ledger._backups.get(key)
            if stored is None:
                return None
            counts = ledger._aplv._counts
            for pos in stored[0]:
                if counts.get(pos, 0) <= 0:
                    return None
    except IndexError:
        return None
    if not _uniform_groups(state, ledgers, link_ids):
        return None

    ResizeOutcome, SharedSparePolicy = _core_types()
    shared = type(policy) is SharedSparePolicy
    groups = state._risk_groups

    outcomes: List = []
    append_outcome = outcomes.append
    for link_id in link_ids:
        ledger = ledgers[link_id]
        lset, bw = ledger._backups.pop(key)
        aplv = ledger._aplv
        counts = aplv._counts
        mask = aplv._support_mask
        zeroed = 0
        for pos in lset:
            remaining = counts[pos] - 1
            if remaining:
                counts[pos] = remaining
            else:
                del counts[pos]
                mask &= ~(1 << pos)
                zeroed += 1
        if zeroed:
            aplv._support_mask = mask
            aplv._support_version += zeroed
        aplv._l1 -= len(lset)
        ledger._demand_max_stale = True
        ledger._group_demand_max_stale = True
        demand = ledger._demand
        for pos in lset:
            remaining = demand[pos] - bw
            if remaining <= BW_EPSILON:
                del demand[pos]
            else:
                demand[pos] = remaining
        if groups is not None:
            gaplv = ledger._group_aplv
            gdemand = ledger._group_demand
            for group in groups.groups_of(lset):
                count = gaplv[group] - 1
                if count <= 0:
                    del gaplv[group]
                else:
                    gaplv[group] = count
                remaining = gdemand[group] - bw
                if remaining <= BW_EPSILON:
                    del gdemand[group]
                else:
                    gdemand[group] = remaining
        ledger.version += 1
        if shared:
            if ledger._demand_max_stale:
                ledger._demand_max = (
                    max(demand.values()) if demand else 0.0
                )
                ledger._demand_max_stale = False
            target = ledger._demand_max
            ceiling = ledger.capacity - ledger._prime_bw
            achieved = min(target, max(0.0, ceiling))
            if achieved != ledger._spare_bw:
                ledger._spare_bw = achieved
                ledger.version += 1
            append_outcome(
                ResizeOutcome(
                    link_id=link_id, target=target, achieved=achieved
                )
            )
        else:
            append_outcome(policy.resize(ledger))
    state.publish_changes(link_ids)
    return outcomes


# ----------------------------------------------------------------------
# Primary reservation / release
# ----------------------------------------------------------------------
def batch_reserve_primary(
    state: NetworkState,
    link_ids: Sequence[int],
    bw: float,
) -> Optional[bool]:
    """Batched primary reservation: validate every hop's headroom,
    then apply in one fused loop.  Returns ``None`` to fall back,
    ``False`` for an infeasible route (nothing mutated — identical to
    the per-hop reserve/undo cycle), ``True`` once reserved."""
    if bw <= 0:
        return None
    if not _batchable_route(link_ids):
        return None
    ledgers = state._ledgers
    try:
        for link_id in link_ids:
            ledger = ledgers[link_id]
            # primary_headroom() verbatim: free_bw.
            headroom = (
                ledger.capacity - ledger._prime_bw - ledger._spare_bw
            )
            if headroom + BW_EPSILON < bw:
                return False
    except IndexError:
        return None
    for link_id in link_ids:
        ledger = ledgers[link_id]
        ledger._prime_bw += bw
        ledger.version += 1
    state.publish_changes(link_ids)
    return True


def batch_release_primary(
    state: NetworkState,
    policy,
    link_ids: Sequence[int],
    bw: float,
) -> bool:
    """Batched primary release with per-hop spare replenishment.
    Returns ``False`` to fall back to the per-hop loop (which
    reproduces the exact :class:`~repro.network.state.ResourceError`
    on over-release)."""
    if bw <= 0:
        return False
    if not _batchable_route(link_ids):
        return False
    ledgers = state._ledgers
    try:
        for link_id in link_ids:
            if bw > ledgers[link_id]._prime_bw + BW_EPSILON:
                return False
    except IndexError:
        return False

    ResizeOutcome, SharedSparePolicy = _core_types()
    shared = type(policy) is SharedSparePolicy
    for link_id in link_ids:
        ledger = ledgers[link_id]
        ledger._prime_bw = max(0.0, ledger._prime_bw - bw)
        ledger.version += 1
        if shared:
            if ledger._demand_max_stale:
                demand = ledger._demand
                ledger._demand_max = (
                    max(demand.values()) if demand else 0.0
                )
                ledger._demand_max_stale = False
            target = ledger._demand_max
            ceiling = ledger.capacity - ledger._prime_bw
            achieved = min(target, max(0.0, ceiling))
            if achieved != ledger._spare_bw:
                ledger._spare_bw = achieved
                ledger.version += 1
        else:
            policy.resize(ledger)
    state.publish_changes(link_ids)
    return True
