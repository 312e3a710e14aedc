"""The commit — Section 2.2's ledger walks, each one transaction.

Reserving a primary, walking the backup-path register packet,
releasing a registration, releasing a primary and activating a backup
(DRTP step 3: the backup's registration becomes a primary reservation,
drawing on the spare it was multiplexed on) all mutate one ledger per
hop of a route.  The five entry points here are the only way
production does that, each as *validate-then-apply*:

1. a read-only validation pass over the whole route decides the
   outcome (including which hop rejects) and raises
   :class:`~repro.network.state.ResourceError` for any broken
   precondition — a bandwidth that is not finite and above
   ``BW_EPSILON``, unknown link id, out-of-range LSET position, key
   already registered, key not registered / a stored LSET position
   missing from the demand map on release, primary over-release — or
   :class:`~repro.core.errors.RecoveryError` for an activation whose
   spare cannot cover it, *before the first mutation*, so an error
   never strands a prefix;
2. an apply pass fuses the demand-map updates (with ``||APLV||_1``
   and the CV bits kept beside them), backup-registry
   writes, reservations and spare-pool resizes into one tight loop
   over the route;
3. all change notifications are deferred to a single
   :meth:`~repro.network.state.NetworkState.publish_changes` call —
   one dirty-set transaction per walk, mirroring the kernels'
   batch-refresh discipline.

Fault injection replays *prefixes* of the same transaction
(:mod:`repro.core.signaling`): :func:`rejecting_hop` is the validation
pass on its own, a walk that reached hop *k* is
``batch_register_walk`` over ``link_ids[:k]``, and its unwind is
``batch_release_walk`` over the same prefix.

Bit-exactness contract (the same discipline as
:mod:`repro.kernels.arrays`): every float comparison and update copies
the ledger expressions *verbatim* — ``backup_headroom`` is
``(capacity − prime − spare) + spare``, never the algebraically equal
``capacity − prime`` — and every mutation replicates the exact
sequence of ``version`` bumps, running-maximum and peak-holder updates
and staleness resolutions of :class:`~repro.network.state.LinkLedger`'s
public mutators, whose per-hop spelling (:mod:`repro.testing.commit`)
the lockstep suite diffs these walks against.  Equivalence rests on
per-link independence: ``link_ids`` is (a slice or a subsequence of)
a :class:`~repro.topology.graph.Route`'s, which cannot repeat a link,
and each hop's headroom check and resize read only that hop's own
ledger, so no earlier hop's mutation can change a later hop's
decision.  Group accounting reads ``state.risk_groups``:
:meth:`~repro.network.state.NetworkState.install_risk_groups` is the
one installer, so every ledger shares that view.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..network.state import (
    BW_EPSILON,
    NetworkState,
    ResourceError,
    require_bandwidth,
)

#: Lazily resolved ``(ResizeOutcome, SharedSparePolicy, RecoveryError)``
#: — imported at first use so ``repro.kernels.apply`` can be imported
#: before ``repro.core`` finishes initializing (core.signaling imports
#: this module at its own import time).
_CORE_TYPES = None


def _core_types():
    global _CORE_TYPES
    if _CORE_TYPES is None:
        from ..core.errors import RecoveryError
        from ..core.multiplexing import ResizeOutcome, SharedSparePolicy

        _CORE_TYPES = (ResizeOutcome, SharedSparePolicy, RecoveryError)
    return _CORE_TYPES


def _route_ledgers(state: NetworkState, link_ids: Sequence[int]) -> list:
    """The ledgers along ``link_ids``; an unknown id is an error."""
    ledgers = state._ledgers
    try:
        if link_ids and min(link_ids) < 0:
            raise IndexError
        return [ledgers[link_id] for link_id in link_ids]
    except IndexError:
        raise ResourceError(
            "unknown link id in route {}".format(tuple(link_ids))
        ) from None


def _resize_shared(ledger) -> Tuple[float, float]:
    """``SharedSparePolicy.resize`` inlined; returns ``(target,
    achieved)``.  The target is ``max_demand`` (read through the
    property only when stale, which resolves it); the clamp and the
    no-op skip copy ``set_spare`` verbatim.  Its growth guard is
    provably dead here: achieved ≤ ceiling means growth ≤ free_bw."""
    target = (
        ledger.max_demand if ledger._demand_max_stale else ledger._demand_max
    )
    ceiling = ledger.capacity - ledger._prime_bw
    achieved = min(target, max(0.0, ceiling))
    if achieved != ledger._spare_bw:
        ledger._spare_bw = achieved
        ledger.version += 1
    return target, achieved


# ----------------------------------------------------------------------
# Backup registration (the signaling register walk)
# ----------------------------------------------------------------------
def _validate_register(
    state: NetworkState, key, link_ids: Sequence[int], lset, bw: float
) -> Tuple[list, Optional[int]]:
    """Pure reads: the route's ledgers and the index of the first hop
    whose backup headroom cannot carry ``bw`` (``None``: all accept).
    Per-link independence means each hop's headroom here equals what a
    hop-by-hop walk would see on arriving there, so the rejecting hop —
    and therefore ``hops_signaled`` — is exact.  Hops past a rejection
    are never reached, so only the hops before it are held to the
    unregistered-key precondition."""
    require_bandwidth(bw, "backup bandwidth")
    if lset and not 0 <= min(lset) <= max(lset) < state.network.num_links:
        raise ResourceError(
            "primary LSET {} names a link outside the network".format(
                sorted(lset)
            )
        )
    ledgers = _route_ledgers(state, link_ids)
    for hop, ledger in enumerate(ledgers):
        # backup_headroom() verbatim: free_bw + spare, with
        # free_bw = capacity - prime - spare.  NOT capacity - prime.
        headroom = (
            ledger.capacity - ledger._prime_bw - ledger._spare_bw
        ) + ledger._spare_bw
        if headroom + BW_EPSILON < bw:
            return ledgers, hop
        if key in ledger._backups:
            raise ResourceError(
                "link {}: backup for connection {} already registered".format(
                    ledger.link_id, key
                )
            )
    return ledgers, None


def rejecting_hop(
    state: NetworkState, key, link_ids: Sequence[int], primary_lset, bw: float
) -> Optional[int]:
    """The validation pass of :func:`batch_register_walk` on its own:
    index into ``link_ids`` of the hop that would reject the register
    packet, ``None`` when every hop accepts.  Mutates nothing."""
    return _validate_register(
        state, key, link_ids, frozenset(primary_lset), bw
    )[1]


def batch_register_walk(
    state: NetworkState,
    policy,
    key,
    link_ids: Sequence[int],
    primary_lset,
    bw: float,
) -> Tuple[Optional[int], int, list]:
    """The register walk as one transaction.

    Returns ``(rejected_link, hops_signaled, resizes)`` with
    ``rejected_link is None`` on success.  A rejection mutates nothing
    — what the hop-by-hop register/unwind cycle leaves behind.
    """
    lset = frozenset(primary_lset)
    ledgers, rejecting = _validate_register(state, key, link_ids, lset, bw)
    if rejecting is not None:
        return (link_ids[rejecting], rejecting + 1, [])
    if not ledgers:
        return (None, 0, [])

    ResizeOutcome, SharedSparePolicy, _ = _core_types()
    shared = type(policy) is SharedSparePolicy
    groups = state._risk_groups
    glist = tuple(groups.groups_of(lset)) if groups is not None else ()
    llen = len(lset)
    glen = len(glist)
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
    for ledger in ledgers:
        demand = ledger._demand
        demand_get = demand.get
        dmax = ledger._demand_max
        holders = ledger._demand_max_holders
        # Fresh positions (entering the support) are exactly the
        # demand map's length growth.
        before = len(demand)
        for pos in lset:
            held = demand_get(pos, 0.0)
            total = held + bw
            demand[pos] = total
            if total >= dmax:
                if total > dmax:
                    dmax = total
                    holders = 1
                elif held != total:
                    holders += 1
        fresh = len(demand) - before
        if fresh:
            ledger._support_mask |= lset_mask
            ledger._support_version += fresh
        ledger._l1 += llen
        ledger._demand_max = dmax
        ledger._demand_max_holders = holders
        if groups is not None:
            gdemand = ledger._group_demand
            gdmax = ledger._group_demand_max
            gholders = ledger._group_demand_max_holders
            ledger._group_l1 += glen
            for group in glist:
                gheld = gdemand.get(group, 0.0)
                gtotal = gheld + bw
                gdemand[group] = gtotal
                if gtotal >= gdmax:
                    if gtotal > gdmax:
                        gdmax = gtotal
                        gholders = 1
                    elif gheld != gtotal:
                        gholders += 1
            ledger._group_demand_max = gdmax
            ledger._group_demand_max_holders = gholders
        ledger._backups[key] = (lset, bw)
        ledger.version += 1
        if shared:
            target, achieved = _resize_shared(ledger)
            append_resize(ResizeOutcome(ledger.link_id, target, achieved))
        else:
            append_resize(policy.resize(ledger))
    state.publish_changes(link_ids)
    return (None, len(ledgers), resizes)


# ----------------------------------------------------------------------
# Backup release (teardown walk) and activation
# ----------------------------------------------------------------------
def _validate_release(ledgers: list, key):
    """Pure reads: every hop holds the registration and every stored
    LSET position is in its demand map, so the fused decrement can
    never underflow.  Returns the first hop's stored LSET."""
    for ledger in ledgers:
        ledger._registered(key)
    return ledgers[0]._backups[key][0] if ledgers else frozenset()


def _bit_pairs(lset) -> list:
    return [(pos, 1 << pos) for pos in lset]


def _unregister(ledger, key, walk_lset, walk_pairs: list, groups) -> None:
    """``release_backup``'s bookkeeping on one validated hop, minus its
    version bump: one loop lowers the demand map, dropping the
    positions no other backup holds and clearing their support bits.
    ``walk_pairs`` are the ``(position, 1 << position)`` pairs of
    ``walk_lset``, built once per walk: a walk registered the same
    stored LSET object on every hop."""
    lset, bw = ledger._backups.pop(key)
    pairs = walk_pairs if lset is walk_lset else _bit_pairs(lset)
    mask = ledger._support_mask
    demand = ledger._demand
    peak = ledger._demand_max
    holders = ledger._demand_max_holders
    zeroed = 0
    for pos, bit in pairs:
        held = demand[pos]
        if held >= peak:
            holders -= 1
        held -= bw
        if held <= BW_EPSILON:
            del demand[pos]
            mask &= ~bit
            zeroed += 1
        else:
            demand[pos] = held
    if zeroed:
        ledger._support_mask = mask
        ledger._support_version += zeroed
    ledger._l1 -= len(pairs)
    ledger._demand_max_holders = holders
    if not holders:
        ledger._demand_max_stale = True
    if groups is not None:
        gdemand = ledger._group_demand
        peak = ledger._group_demand_max
        holders = ledger._group_demand_max_holders
        glist = groups.groups_of(lset)
        ledger._group_l1 -= len(glist)
        for group in glist:
            held = gdemand[group]
            if held >= peak:
                holders -= 1
            held -= bw
            if held <= BW_EPSILON:
                del gdemand[group]
            else:
                gdemand[group] = held
        ledger._group_demand_max_holders = holders
        if not holders:
            ledger._group_demand_max_stale = True


def batch_release_walk(
    state: NetworkState,
    policy,
    key,
    link_ids: Sequence[int],
) -> list:
    """The backup-release walk as one transaction; returns the resize
    outcomes."""
    if not link_ids:
        return []
    ledgers = _route_ledgers(state, link_ids)
    lset = _validate_release(ledgers, key)

    ResizeOutcome, SharedSparePolicy, _ = _core_types()
    shared = type(policy) is SharedSparePolicy
    groups = state._risk_groups
    pairs = _bit_pairs(lset)
    outcomes: List = []
    append_outcome = outcomes.append
    for ledger in ledgers:
        _unregister(ledger, key, lset, pairs, groups)
        ledger.version += 1
        if shared:
            target, achieved = _resize_shared(ledger)
            append_outcome(ResizeOutcome(ledger.link_id, target, achieved))
        else:
            append_outcome(policy.resize(ledger))
    state.publish_changes(link_ids)
    return outcomes


def batch_activate_walk(
    state: NetworkState,
    policy,
    key,
    link_ids: Sequence[int],
    bw: float,
) -> None:
    """Backup activation as one transaction: on every hop of the
    backup route, release the registration, claim ``bw`` as primary
    bandwidth — free bandwidth first, the spare pool covering the
    shortfall (that is what the spare was reserved for) — and resize
    the spare.

    Validation holds every hop to the release preconditions and to
    ``reserve_primary``'s, and raises
    :class:`~repro.core.errors.RecoveryError` where the spare cannot
    cover the shortfall, all before the first mutation.  The
    registration release moves no reservation, so each hop's
    shortfall is computed before it.
    """
    _, SharedSparePolicy, RecoveryError = _core_types()
    require_bandwidth(bw, "primary reservation")
    ledgers = _route_ledgers(state, link_ids)
    lset = _validate_release(ledgers, key)
    spares = []  # each hop's spare once it has covered the shortfall
    for ledger in ledgers:
        # free_bw, set_spare(spare - shortfall) and reserve_primary's
        # test, verbatim.
        spare = ledger._spare_bw
        shortfall = bw - (ledger.capacity - ledger._prime_bw - spare)
        if shortfall > BW_EPSILON:
            if spare + BW_EPSILON < shortfall:
                raise RecoveryError(
                    "link {}: assessment promised spare that is "
                    "missing".format(ledger.link_id)
                )
            spare -= shortfall
            if spare < -BW_EPSILON:
                raise ResourceError("spare bandwidth cannot be negative")
            spare = max(0.0, spare)
        free = ledger.capacity - ledger._prime_bw - spare
        if bw > free + BW_EPSILON:
            raise ResourceError(
                "link {}: primary needs {} but only {} free".format(
                    ledger.link_id, bw, free
                )
            )
        spares.append(spare)

    shared = type(policy) is SharedSparePolicy
    groups = state._risk_groups
    pairs = _bit_pairs(lset)
    for ledger, spare in zip(ledgers, spares):
        _unregister(ledger, key, lset, pairs, groups)
        ledger.version += 1
        if spare != ledger._spare_bw:
            ledger._spare_bw = spare
            ledger.version += 1
        ledger._prime_bw += bw
        ledger.version += 1
        if shared:
            _resize_shared(ledger)
        else:
            policy.resize(ledger)
    state.publish_changes(link_ids)


# ----------------------------------------------------------------------
# Primary reservation / release
# ----------------------------------------------------------------------
def batch_reserve_primary(
    state: NetworkState,
    link_ids: Sequence[int],
    bw: float,
) -> bool:
    """Primary reservation as one transaction: validate every hop's
    headroom, then apply in one fused loop.  ``False`` for an
    infeasible route (nothing mutated — what the hop-by-hop
    reserve/undo cycle leaves behind), ``True`` once reserved."""
    require_bandwidth(bw, "primary reservation")
    ledgers = _route_ledgers(state, link_ids)
    for ledger in ledgers:
        # primary_headroom() verbatim: free_bw.
        headroom = ledger.capacity - ledger._prime_bw - ledger._spare_bw
        if headroom + BW_EPSILON < bw:
            return False
    for ledger in ledgers:
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
    """Primary release as one transaction, with per-hop spare
    replenishment (freed bandwidth may cover a spare deficit on the
    link).  Always ``True``; releasing more than a hop holds is an
    error."""
    require_bandwidth(bw, "primary release")
    ledgers = _route_ledgers(state, link_ids)
    for ledger in ledgers:
        if bw > ledger._prime_bw + BW_EPSILON:
            raise ResourceError(
                "link {}: releasing {} primary bw but only {} reserved".format(
                    ledger.link_id, bw, ledger._prime_bw
                )
            )

    _, SharedSparePolicy, _ = _core_types()
    shared = type(policy) is SharedSparePolicy
    for ledger in ledgers:
        ledger._prime_bw = max(0.0, ledger._prime_bw - bw)
        ledger.version += 1
        if shared:
            _resize_shared(ledger)
        else:
            policy.resize(ledger)
    state.publish_changes(link_ids)
    return True
