"""Scripted stand-ins for :class:`~repro.faults.FaultInjector`, shared
by the commit suite and the service machine."""

import random

#: The fault shapes :func:`aimed` scripts.
FAULT_KINDS = ("drop", "crash", "duplicate-then-crash")


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


def aimed(kind, hop):
    """``(hop_events, crash_script)`` of one fault of shape ``kind``
    striking hop ``hop``: a drop never reaches it, a crash strikes
    after it registered, a duplicate-then-crash delivers to it twice
    first."""
    clean = [(None, 0.0)] * hop
    if kind == "drop":
        return clean + [("drop", 0.125)], []
    if kind == "crash":
        return [], [hop]
    assert kind == "duplicate-then-crash"
    return clean + [("duplicate", 0.0)], [hop]


class AimedInjector(ScriptedInjector):
    """One :func:`aimed` fault at hop ``hop`` modulo the route's length,
    scripted onto the first attempt of the first walk once that attempt
    names the length; every later attempt and walk is clean (what a
    rejected attempt left of the script is dropped)."""

    def __init__(self, kind, hop):
        super().__init__()
        self._aim = (kind, hop)

    def crash_hop(self, hops):
        self._hop_events, self._crash_script = [], []
        if self._aim is not None:
            kind, hop = self._aim
            self._hop_events, self._crash_script = aimed(kind, hop % hops)
            self._aim = None
        return super().crash_hop(hops)
