"""Property-based tests for the array-kernel primitives.

Three layers, each diffed against a deliberately-naive oracle:

* the bitset primitives of :mod:`repro.kernels.bitset` (popcount,
  AND/OR folds, packed little-endian serialization) against their
  ``*_naive`` counterparts and against explicit position sets;
* the incrementally-maintained ledger aggregates the kernel tables
  sync from — APLV support masks and the (group-)demand maxima that
  size spare bandwidth — against rebuild-from-registry recomputation;
* the batch cost builders of
  :class:`~repro.kernels.arrays.CompiledLinkArrays` against the
  per-link cost closures of :mod:`repro.testing.link_state`, element
  for element.

Bandwidths are drawn from dyadic rationals so every running sum is
exactly representable — the equality assertions are bitwise, never
approximate, matching the kernel's bit-exactness contract.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.arrays import CONFLICT_KINDS, _row_popcounts, _word_padded
from repro.kernels.bitset import (
    and_popcount,
    and_popcount_naive,
    bits_of,
    from_packed_bytes,
    mask_from_ids,
    or_fold,
    or_fold_naive,
    packed_width,
    popcount,
    popcount_naive,
    to_packed_bytes,
)
from repro.core import DRTPService
from repro.experiments import make_scheme
from repro.network.state import LinkLedger
from repro.routing import primary_link_cost
from repro.testing.link_state import backup_cost
from repro.topology import mesh_network
from repro.topology.srlg import RiskGroupSet

masks = st.integers(min_value=0, max_value=(1 << 160) - 1)

NUM_LINKS = 24

positions = st.frozensets(
    st.integers(min_value=0, max_value=NUM_LINKS - 1),
    min_size=0, max_size=10,
)

#: Dyadic-rational bandwidths: running sums stay exactly representable,
#: so incremental and rebuilt aggregates must agree to the last bit.
bandwidths = st.sampled_from((0.25, 0.5, 1.0, 1.5, 2.0))


# ----------------------------------------------------------------------
# Bitset primitives vs naive oracles
# ----------------------------------------------------------------------
@given(masks)
def test_popcount_matches_naive(mask):
    assert popcount(mask) == popcount_naive(mask)


@given(masks, masks)
def test_and_popcount_matches_naive(a, b):
    assert and_popcount(a, b) == and_popcount_naive(a, b)
    assert and_popcount(a, b) == len(bits_of(a) & bits_of(b))


@given(st.lists(masks, max_size=8))
def test_or_fold_matches_naive(mask_list):
    assert or_fold(mask_list) == or_fold_naive(mask_list)


@given(positions)
def test_mask_bits_round_trip(ids):
    mask = mask_from_ids(ids)
    assert bits_of(mask) == ids
    assert popcount(mask) == len(ids)


@given(positions)
def test_packed_bytes_round_trip(ids):
    mask = mask_from_ids(ids)
    row = to_packed_bytes(mask, NUM_LINKS)
    assert len(row) == packed_width(NUM_LINKS)
    assert from_packed_bytes(row) == mask


@given(positions)
def test_packed_layout_is_little_endian(ids):
    """Bit ``j`` must land in byte ``j // 8`` at weight ``1 << (j % 8)``
    — the layout contract the numpy bit-matrix rows rely on."""
    row = to_packed_bytes(mask_from_ids(ids), NUM_LINKS)
    for j in range(NUM_LINKS):
        bit = (row[j // 8] >> (j % 8)) & 1
        assert bit == (1 if j in ids else 0)


@given(st.lists(positions, min_size=1, max_size=12))
def test_numpy_row_popcounts_match_stdlib(id_sets):
    """The numpy packed-matrix per-row popcount equals the stdlib int
    popcount of the same masks, including across word padding."""
    width = _word_padded(packed_width(NUM_LINKS))
    buf = bytearray(len(id_sets) * width)
    for row_index, ids in enumerate(id_sets):
        row = mask_from_ids(ids).to_bytes(width, "little")
        buf[row_index * width:(row_index + 1) * width] = row
    matrix = np.frombuffer(buf, dtype=np.uint64).reshape(
        len(id_sets), width // 8
    )
    assert _row_popcounts(matrix).tolist() == [
        popcount(mask_from_ids(ids)) for ids in id_sets
    ]


# ----------------------------------------------------------------------
# Ledger aggregates vs rebuild-from-registry
# ----------------------------------------------------------------------
nonempty_positions = st.frozensets(
    st.integers(min_value=0, max_value=NUM_LINKS - 1),
    min_size=1, max_size=10,
)

registrations = st.lists(
    st.tuples(nonempty_positions, bandwidths), min_size=0, max_size=12
)


def _naive_max_demand(ledger, key_of):
    demand = {}
    for connection_id, lset in ledger.backups().items():
        bw = ledger.backup_bw(connection_id)
        for key in key_of(lset):
            demand[key] = demand.get(key, 0.0) + bw
    return max(demand.values()) if demand else 0.0


@given(registrations, st.data())
def test_ledger_demand_max_matches_rebuild(regs, data):
    """The O(1)-updated ``max_demand`` equals a full rebuild from the
    backup registry after any register/release interleaving."""
    ledger = LinkLedger(0, capacity=1000.0, num_links=NUM_LINKS)
    live = []
    for connection_id, (lset, bw) in enumerate(regs):
        ledger.register_backup(connection_id, lset, bw)
        live.append(connection_id)
    for connection_id in data.draw(
        st.lists(st.sampled_from(live), unique=True) if live
        else st.just([])
    ):
        ledger.release_backup(connection_id)
    assert ledger.max_demand == _naive_max_demand(
        ledger, key_of=lambda lset: lset
    )
    assert ledger.support_mask() == mask_from_ids(ledger.aplv.support())


def _partition(data, num_links):
    """Draw a random partition of link ids into risk groups."""
    order = data.draw(st.permutations(range(num_links)))
    members = []
    index = 0
    while index < num_links:
        size = data.draw(st.integers(min_value=1, max_value=4))
        members.append(frozenset(order[index:index + size]))
        index += size
    return members


@settings(max_examples=40)
@given(registrations, st.data())
def test_ledger_group_demand_max_matches_rebuild(regs, data):
    """Group-aggregated demand (bandwidth counted once per group,
    however many of its links the primary crosses) — incremental vs
    rebuild, across a random risk-group partition."""
    net = mesh_network(2, 3, capacity=1000.0)
    groups = RiskGroupSet(
        net.num_links, _partition(data, net.num_links)
    )
    ledger = LinkLedger(0, capacity=1000.0, num_links=net.num_links)
    ledger.install_risk_groups(groups)
    link_ids = st.frozensets(
        st.integers(min_value=0, max_value=net.num_links - 1),
        min_size=1, max_size=6,
    )
    live = []
    for connection_id, (_lset, bw) in enumerate(regs):
        # Redraw the LSET against this network's (smaller) link range.
        ledger.register_backup(connection_id, data.draw(link_ids), bw)
        live.append(connection_id)
    for connection_id in data.draw(
        st.lists(st.sampled_from(live), unique=True) if live
        else st.just([])
    ):
        ledger.release_backup(connection_id)
    assert ledger.max_group_demand == _naive_max_demand(
        ledger, key_of=groups.groups_of
    )
    assert ledger.group_support_mask() == mask_from_ids(
        ledger.group_support()
    )


# ----------------------------------------------------------------------
# Batch cost builders vs the reference cost closures
# ----------------------------------------------------------------------
def _encoded(cost, network, scale):
    """A closure evaluated link by link, in the builders' encoding."""
    encoded = []
    for link_id in range(network.num_links):
        value = cost(network.link(link_id))
        if value is None:
            encoded.append(-1.0)
        elif len(value) == 1:
            encoded.append(value[0])
        else:
            encoded.append(value[0] * scale + value[1])
    return encoded


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_cost_arrays_match_the_reference_closures(data):
    """One batch build emits, for every link, exactly what the cost
    closure answers for that link — primary and every conflict kind,
    with a failed link and an avoid set beyond the primary's."""
    net = mesh_network(3, 3, capacity=12.0)
    service = DRTPService(net, make_scheme("D-LSR"), live_database=True)
    num_requests = data.draw(st.integers(min_value=0, max_value=12))
    for _ in range(num_requests):
        src = data.draw(st.integers(0, net.num_nodes - 1))
        dst = data.draw(
            st.integers(0, net.num_nodes - 1).filter(lambda n: n != src)
        )
        service.request(src, dst, bw_req=1.0)
    if data.draw(st.booleans()):
        service.fail_link(data.draw(st.integers(0, net.num_links - 1)))
    database = service.database
    arrays = database.kernel_arrays()
    bw_req = data.draw(bandwidths)
    lset = data.draw(
        st.frozensets(
            st.integers(0, net.num_links - 1), min_size=1, max_size=6
        )
    )
    avoid = lset | data.draw(
        st.frozensets(st.integers(0, net.num_links - 1), max_size=4)
    )
    scale = float(net.num_nodes)
    assert arrays.primary_costs(bw_req) == _encoded(
        primary_link_cost(database, bw_req), net, scale
    )
    for kind in CONFLICT_KINDS:
        assert arrays.backup_costs(
            kind, bw_req, lset, avoid, scale
        ) == _encoded(
            backup_cost(kind, database, bw_req, lset, avoid), net, scale
        )
    service.check_invariants()
