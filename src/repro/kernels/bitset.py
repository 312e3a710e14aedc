"""Bitset primitives of the kernel tables.

A link's Conflict Vector — the support of its APLV — is held as one
arbitrary-precision Python int: bit ``j`` set means ``a_{i,j} > 0``.
D-LSR's cost term ``Σ_{L_j ∈ LSET_P} c_{i,j}`` then collapses to
``popcount(cv_i & lset_mask)``, one C-level AND and bit-count instead
of ``|LSET_P|`` dict probes.  The same layout, serialized little-endian
(bit ``j`` lives in byte ``j // 8`` at weight ``1 << (j % 8)``), is the
row format of the numpy packed bit-matrix the cost builds run over,
so ledgers and table rows agree byte for byte — the
property suite (``tests/test_property_kernels.py``) checks these
primitives against the deliberately-naive ``*_naive`` oracles kept
alongside them.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable


def mask_from_ids(ids: Iterable[int]) -> int:
    """Fold a set of bit positions into one int bitset."""
    mask = 0
    for position in ids:
        mask |= 1 << position
    return mask


def popcount(mask: int) -> int:
    """Number of set bits (C fast path: ``int.bit_count``)."""
    return mask.bit_count()


def popcount_naive(mask: int) -> int:
    """Oracle popcount: count the 1 digits of the binary expansion."""
    if mask < 0:
        raise ValueError("bitsets are non-negative")
    return bin(mask).count("1")


def and_popcount(a: int, b: int) -> int:
    """``popcount(a & b)`` — the D-LSR conflict count over bitsets."""
    return (a & b).bit_count()


def and_popcount_naive(a: int, b: int) -> int:
    """Oracle: intersect the explicit position sets and count."""
    return len(bits_of(a) & bits_of(b))


def or_fold(masks: Iterable[int]) -> int:
    """Union of bitsets — e.g. the risk groups touched by an LSET."""
    mask = 0
    for value in masks:
        mask |= value
    return mask


def or_fold_naive(masks: Iterable[int]) -> int:
    """Oracle union via explicit position sets."""
    positions: set = set()
    for value in masks:
        positions |= bits_of(value)
    return mask_from_ids(positions)


def bits_of(mask: int) -> FrozenSet[int]:
    """The explicit set of positions a bitset encodes (test helper and
    oracle inverse of :func:`mask_from_ids`)."""
    if mask < 0:
        raise ValueError("bitsets are non-negative")
    positions = []
    position = 0
    while mask:
        if mask & 1:
            positions.append(position)
        mask >>= 1
        position += 1
    return frozenset(positions)


def packed_width(num_bits: int) -> int:
    """Bytes needed for ``num_bits`` in the packed layout."""
    return (num_bits + 7) // 8


def to_packed_bytes(mask: int, num_bits: int) -> bytes:
    """Serialize a bitset to the shared little-endian packed layout
    (bit ``j`` → byte ``j // 8``, weight ``1 << (j % 8)``) — the row
    format of the numpy bit-matrix."""
    if mask < 0:
        raise ValueError("bitsets are non-negative")
    if mask.bit_length() > num_bits:
        raise ValueError(
            "bitset uses {} bits but the row holds {}".format(
                mask.bit_length(), num_bits
            )
        )
    return mask.to_bytes(packed_width(num_bits), "little")


def from_packed_bytes(row: bytes) -> int:
    """Inverse of :func:`to_packed_bytes` (test helper)."""
    return int.from_bytes(bytes(row), "little")
