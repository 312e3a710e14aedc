"""A scripted stand-in for :class:`~repro.faults.FaultInjector`, shared
by the signaling and commit suites."""

import random


class ScriptedInjector:
    """Deterministic injector: per-hop events and per-attempt crashes
    come from scripts instead of random draws.

    ``hop_events`` feeds :meth:`sample_hop` (one ``(event, delay)`` pair
    per delivery, then clean); ``crash_script`` feeds :meth:`crash_hop`
    (one entry per walk attempt, then no crash); a crash scripted past
    the route's end does not happen.
    """

    def __init__(self, hop_events=(), crash_script=()):
        self._hop_events = list(hop_events)
        self._crash_script = list(crash_script)
        self.retry_rng = random.Random(0)

    def sample_hop(self):
        if self._hop_events:
            return self._hop_events.pop(0)
        return (None, 0.0)

    def crash_hop(self, hops):
        crash_at = self._crash_script.pop(0) if self._crash_script else None
        return crash_at if crash_at is not None and crash_at < hops else None
