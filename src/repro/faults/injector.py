"""Deterministic, seed-driven fault injection.

The :class:`FaultInjector` turns a declarative
:class:`~repro.faults.plan.FaultPlan` into concrete adversity:

* per-hop signaling verdicts (deliver / drop / duplicate, plus a
  sampled processing delay) consumed by the faulty register walk in
  :mod:`repro.core.signaling`;
* per-walk router-crash points that strand partial registrations;
* a pre-sampled schedule of link flaps, correlated failure bursts and
  link-state staleness windows for the campaign runner to replay.

Every stochastic choice draws from a named stream derived from one
master seed (:func:`~repro.simulation.rng.seeded_rng`), so two runs of
the same plan + seed inject byte-identical fault sequences — the
bedrock of reproducible chaos campaigns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.errors import FaultInjectionError
from ..simulation.rng import seeded_rng
from .plan import FaultPlan

#: Per-hop signaling verdicts.
DELIVER = "deliver"
DROP = "drop"
DUPLICATE = "duplicate"

#: Timed-fault kinds (the campaign schedule's vocabulary).
FLAP_DOWN = "flap-down"
FLAP_UP = "flap-up"
BURST_DOWN = "burst-down"
BURST_UP = "burst-up"
REGIONAL_DOWN = "regional-down"
REGIONAL_UP = "regional-up"
STALENESS = "staleness"
REFRESH = "refresh"


@dataclass(frozen=True)
class TimedFault:
    """One scheduled fault occurrence in a campaign.

    ``links`` carries the affected link ids; for :data:`REGIONAL_DOWN`
    events sampled in SRLG mode, ``groups`` additionally names the
    shared-risk groups that were cut (so the runner can apply the
    failure via the group-labelled recovery path)."""

    time: float
    kind: str
    links: Tuple[int, ...] = ()
    groups: Tuple[int, ...] = ()


class FaultInjector:
    """Samples concrete faults from a plan, deterministically."""

    def __init__(self, plan: FaultPlan, seed: int = 0) -> None:
        self.plan = plan
        self.seed = seed
        self._hop_rng = seeded_rng(seed, "faults", "signaling")
        self._crash_rng = seeded_rng(seed, "faults", "crash")
        self._schedule_rng = seeded_rng(seed, "faults", "schedule")
        #: Jitter stream for :meth:`RetryPolicy.backoff` — exposed so
        #: retrying callers stay on the injector's deterministic clock.
        self.retry_rng = seeded_rng(seed, "faults", "retry")

    # ------------------------------------------------------------------
    # Signaling faults (consumed hop by hop during register walks)
    # ------------------------------------------------------------------
    def sample_hop(self) -> Tuple[str, float]:
        """Verdict for one register-packet hop: ``(event, delay)``.

        ``event`` is :data:`DROP` (packet lost before this router
        processes it), :data:`DUPLICATE` (delivered twice) or
        :data:`DELIVER`; ``delay`` is extra signaling latency in
        seconds (counts against the retry policy's deadline).
        """
        spec = self.plan.signaling
        event = DELIVER
        if spec.drop_prob or spec.duplicate_prob:
            roll = self._hop_rng.random()
            if roll < spec.drop_prob:
                event = DROP
            elif roll < spec.drop_prob + spec.duplicate_prob:
                event = DUPLICATE
        delay = 0.0
        if spec.delay_prob and self._hop_rng.random() < spec.delay_prob:
            delay = self._hop_rng.uniform(spec.delay_min, spec.delay_max)
        return event, delay

    def crash_hop(self, hops: int) -> Optional[int]:
        """Hop index at which the processing router crashes mid-walk
        (having registered, before forwarding), or ``None``."""
        spec = self.plan.signaling
        if hops <= 0 or not spec.crash_prob:
            return None
        if self._crash_rng.random() < spec.crash_prob:
            return self._crash_rng.randrange(hops)
        return None

    # ------------------------------------------------------------------
    # Campaign schedule (flaps, bursts, staleness)
    # ------------------------------------------------------------------
    def schedule(
        self, network, duration: float, risk_groups=None
    ) -> List[TimedFault]:
        """Pre-sample every timed fault of a campaign, sorted by time.

        Down events carry the failed link ids; each is paired with an
        up event when the link(s) repair.  Staleness events are paired
        with the re-flood (:data:`REFRESH`) that bounds them.

        ``risk_groups`` (a :class:`~repro.topology.srlg.RiskGroupSet`)
        is required when the plan's regional family runs in ``srlg``
        mode; neighborhood mode needs only the topology.  Disabled
        families consume no randomness, so adding the regional family
        leaves every pre-existing plan's schedule bit-identical.
        """
        if duration <= 0:
            raise FaultInjectionError(
                "campaign duration must be positive, got {}".format(duration)
            )
        rng = self._schedule_rng
        faults: List[TimedFault] = []

        spec = self.plan.flaps
        if spec.enabled:
            for time in self._poisson_times(spec.rate, duration):
                link = rng.randrange(network.num_links)
                down = rng.uniform(spec.down_min, spec.down_max)
                faults.append(TimedFault(time, FLAP_DOWN, (link,)))
                faults.append(TimedFault(time + down, FLAP_UP, (link,)))

        burst = self.plan.bursts
        if burst.enabled:
            for time in self._poisson_times(burst.rate, duration):
                links = self._sample_burst(network, rng)
                if not links:
                    continue
                faults.append(TimedFault(time, BURST_DOWN, links))
                for link in links:
                    down = rng.uniform(burst.down_min, burst.down_max)
                    faults.append(TimedFault(time + down, BURST_UP, (link,)))

        stale = self.plan.staleness
        if stale.enabled:
            for time in self._poisson_times(stale.rate, duration):
                bound = rng.uniform(0.1 * stale.max_staleness,
                                    stale.max_staleness)
                faults.append(TimedFault(time, STALENESS))
                faults.append(TimedFault(time + bound, REFRESH))

        regional = self.plan.regional
        if regional.enabled:
            if regional.mode == "srlg" and risk_groups is None:
                raise FaultInjectionError(
                    "regional faults in 'srlg' mode need a RiskGroupSet; "
                    "pass risk_groups= to schedule()"
                )
            for time in self._poisson_times(regional.rate, duration):
                links, groups = self._sample_region(
                    network, rng, risk_groups
                )
                if not links:
                    continue
                down = rng.uniform(regional.down_min, regional.down_max)
                faults.append(
                    TimedFault(time, REGIONAL_DOWN, links, groups)
                )
                faults.append(
                    TimedFault(time + down, REGIONAL_UP, links, groups)
                )

        faults.sort(key=lambda fault: (fault.time, fault.kind, fault.links))
        return faults

    def _poisson_times(self, rate: float, duration: float) -> List[float]:
        times: List[float] = []
        now = 0.0
        while True:
            now += self._schedule_rng.expovariate(rate)
            if now >= duration:
                return times
            times.append(now)

    def _sample_burst(self, network, rng) -> Tuple[int, ...]:
        spec = self.plan.bursts
        size = rng.randint(spec.size_min, spec.size_max)
        if spec.correlated:
            node = rng.randrange(network.num_nodes)
            candidates = sorted(
                {link.link_id
                 for link in network.out_links(node) + network.in_links(node)}
            )
        else:
            candidates = list(range(network.num_links))
        size = min(size, len(candidates))
        if size == 0:
            return ()
        return tuple(sorted(rng.sample(candidates, size)))

    def _sample_region(
        self, network, rng, risk_groups
    ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """One regional event: ``(link_ids, group_ids)``.

        SRLG mode cuts whole risk groups; neighborhood mode fails every
        link both of whose endpoints lie within ``radius`` hops of a
        random center (``group_ids`` stays empty there — the region is
        geographic, not named)."""
        spec = self.plan.regional
        if spec.mode == "srlg":
            count = rng.randint(spec.groups_min, spec.groups_max)
            count = min(count, risk_groups.num_groups)
            groups = tuple(
                sorted(rng.sample(sorted(risk_groups.group_ids()), count))
            )
            links: set = set()
            for group_id in groups:
                links.update(risk_groups.members(group_id))
            return tuple(sorted(links)), groups
        center = rng.randrange(network.num_nodes)
        inside = {center}
        frontier = [center]
        for _hop in range(spec.radius):
            next_frontier = []
            for node in frontier:
                for link in network.out_links(node):
                    if link.dst not in inside:
                        inside.add(link.dst)
                        next_frontier.append(link.dst)
            frontier = next_frontier
        links = {
            link.link_id
            for node in sorted(inside)
            for link in network.out_links(node)
            if link.dst in inside
        }
        return tuple(sorted(links)), ()
