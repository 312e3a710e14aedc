"""A minimal discrete-event simulation engine.

The paper's evaluation is connection-granular: the only events are
DR-connection arrivals, departures, measurement snapshots, and (in the
failure examples) link failures.  This engine is a plain time-ordered
priority queue of callbacks — deterministic (FIFO among equal
timestamps), introspectable, and with no hidden global state, so two
engines can replay the same scenario under different schemes in the
same process.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Callable, List, Optional, Tuple

from ..core.errors import SimulationError

__all__ = ["Engine", "SimulationError"]


class Engine:
    """Time-ordered event executor."""

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = start_time
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._sequence = count()
        self._processed = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def pending(self) -> int:
        return len(self._heap)

    @property
    def processed(self) -> int:
        """Events executed so far."""
        return self._processed

    def schedule(self, time: float, action: Callable[[], None]) -> None:
        """Schedule ``action`` at absolute simulation ``time``."""
        if time < self._now:
            raise SimulationError(
                "cannot schedule at {} (now is {})".format(time, self._now)
            )
        heapq.heappush(self._heap, (time, next(self._sequence), action))

    def schedule_after(self, delay: float, action: Callable[[], None]) -> None:
        """Schedule ``action`` ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError("delay must be non-negative, got {}".format(delay))
        self.schedule(self._now + delay, action)

    def step(self) -> bool:
        """Execute the next event; returns False when none remain."""
        if not self._heap:
            return False
        time, _, action = heapq.heappop(self._heap)
        self._now = time
        self._processed += 1
        action()
        return True

    def run(self, until: Optional[float] = None, before: bool = False) -> None:
        """Run events in order; stop when the queue empties or the
        next event lies beyond ``until`` — or at it, with ``before``
        (clock then advances to ``until``)."""
        while self._heap:
            time = self._heap[0][0]
            if until is not None and (time >= until if before else time > until):
                break
            self.step()
        if until is not None and until > self._now:
            self._now = until
