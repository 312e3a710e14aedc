"""Steady-state snapshot scheduling.

Connection lifetimes average 40 minutes, so the connection population
needs a warm-up of a few lifetimes before it reaches the stationary
regime the paper measures in.  Metrics are then sampled at several
evenly-spaced instants and averaged, which both reduces variance and
captures the population's churn.
"""

from __future__ import annotations

from typing import List


def snapshot_times(
    duration: float, warmup: float, count: int
) -> List[float]:
    """``count`` instants evenly spaced over ``[warmup, duration]``.

    The first snapshot lands at ``warmup`` plus one spacing step (the
    instant ``warmup`` itself is still transient-adjacent), the last at
    ``duration`` exactly (a rounded step could push it past the
    horizon, where a replay never runs it).
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    if not 0 <= warmup < duration:
        raise ValueError(
            "warmup must lie in [0, duration), got {} for duration {}".format(
                warmup, duration
            )
        )
    if count < 1:
        raise ValueError("need at least one snapshot")
    step = (duration - warmup) / count
    return [warmup + step * index for index in range(1, count)] + [duration]
