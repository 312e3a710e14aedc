"""Order statistics the way the benchmark reports them.

Percentiles are nearest-rank (the value at rank ``ceil(q/100 * n)`` of
the sorted samples — always a value that was measured).  A percentile
is only *supported* when at least ten samples lie beyond it; a run
that reports an unsupported one says so next to the sample count, so a
tail read from three samples never passes for a measurement.
"""

from __future__ import annotations

import math
from typing import Sequence

#: Samples that must lie beyond a percentile for it to be reported.
BEYOND = 10


def rank(count: int, q: float) -> int:
    """1-based nearest rank of the ``q``-th percentile of ``count``
    samples."""
    if count < 1:
        raise ValueError("no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError("percentile must be in (0, 100], got {}".format(q))
    # The epsilon keeps e.g. 99.9 % of 10 000 at rank 9 990, which the
    # binary fraction 0.999 would otherwise push to 9 991.
    return max(1, math.ceil(q * count / 100.0 - 1e-9))


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return sorted_values[rank(len(sorted_values), q) - 1]


def supported(count: int, q: float) -> bool:
    """Whether at least :data:`BEYOND` samples lie beyond the ``q``-th
    percentile of ``count`` samples."""
    return count >= 1 and count - rank(count, q) >= BEYOND


def median(values: Sequence[float]) -> float:
    """Nearest-rank median of an unsorted sequence."""
    return percentile(sorted(values), 50.0)
