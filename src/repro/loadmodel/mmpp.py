"""Markov-modulated Poisson arrivals.

An MMPP generalizes the paper's Poisson process: the arrival rate is
itself a continuous-time Markov chain over *phases* (calm, bursty,
...), each with an exponential sojourn time.  Within a phase arrivals
are Poisson at that phase's rate; phase switches exploit memorylessness
(the partial interarrival beyond a phase boundary is discarded and
redrawn at the new rate, which is exactly the superposition an MMPP
defines).

Phases cycle deterministically (``0 -> 1 -> ... -> 0``) — the classic
two-phase on/off MMPP is the ``n=2`` case — so the *modulation* stream
and the *arrival* stream stay independent named RNG streams: changing
a phase rate never perturbs when phases switch, the same discipline
:mod:`repro.simulation.rng` enforces everywhere else.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple


@dataclass(frozen=True)
class MMPPParameters:
    """Per-phase arrival rates and mean sojourn times (seconds)."""

    rates: Tuple[float, ...] = (0.4, 1.6)
    sojourn_means: Tuple[float, ...] = (3600.0, 600.0)

    def __post_init__(self) -> None:
        if not self.rates:
            raise ValueError("an MMPP needs at least one phase")
        if len(self.rates) != len(self.sojourn_means):
            raise ValueError(
                "rates and sojourn_means must have equal length "
                "({} vs {})".format(len(self.rates), len(self.sojourn_means))
            )
        for rate in self.rates:
            if rate <= 0:
                raise ValueError(
                    "phase rates must be positive, got {}".format(rate)
                )
        for sojourn in self.sojourn_means:
            if sojourn <= 0:
                raise ValueError(
                    "sojourn means must be positive, got {}".format(sojourn)
                )

    @property
    def num_phases(self) -> int:
        """How many modulation phases the chain cycles through."""
        return len(self.rates)

    @property
    def mean_rate(self) -> float:
        """Long-run arrival rate: sojourn-weighted phase-rate mean."""
        weight = sum(self.sojourn_means)
        return (
            sum(r * s for r, s in zip(self.rates, self.sojourn_means))
            / weight
        )

    @classmethod
    def bursty(
        cls,
        mean_rate: float,
        burst_factor: float = 4.0,
        calm_mean: float = 3600.0,
        burst_mean: float = 600.0,
    ) -> "MMPPParameters":
        """Two-phase calm/burst parameters with a given *long-run* mean.

        The burst phase runs ``burst_factor`` times the calm rate; the
        calm rate is solved so the sojourn-weighted mean equals
        ``mean_rate`` — the knob users actually reason about.
        """
        if mean_rate <= 0:
            raise ValueError("mean_rate must be positive")
        if burst_factor < 1.0:
            raise ValueError("burst_factor must be >= 1")
        if calm_mean <= 0 or burst_mean <= 0:
            raise ValueError("sojourn means must be positive")
        calm_rate = (
            mean_rate * (calm_mean + burst_mean)
            / (calm_mean + burst_factor * burst_mean)
        )
        return cls(
            rates=(calm_rate, burst_factor * calm_rate),
            sojourn_means=(calm_mean, burst_mean),
        )


class MMPPArrivalProcess:
    """Streaming MMPP arrival generator over two named RNG streams.

    Mirrors :class:`~repro.simulation.arrivals.PoissonArrivalProcess`
    (``next`` interarrival draws, an ``arrival_times`` iterator, an
    offered-load helper) and adds phase modulation.
    """

    def __init__(
        self,
        params: MMPPParameters,
        arrival_rng: random.Random,
        phase_rng: random.Random,
    ) -> None:
        self.params = params
        self._arrival_rng = arrival_rng
        self._phase_rng = phase_rng
        self._now = 0.0
        self._phase = 0
        self._phase_end = self._draw_sojourn()

    def _draw_sojourn(self) -> float:
        mean = self.params.sojourn_means[self._phase]
        return self._now + self._phase_rng.expovariate(1.0 / mean)

    @property
    def current_phase(self) -> int:
        """The modulation phase the process is currently in."""
        return self._phase

    @property
    def now(self) -> float:
        """The virtual time of the last generated arrival (or phase
        boundary crossed while searching for one)."""
        return self._now

    def next_arrival(self) -> float:
        """Advance to and return the next arrival instant."""
        while True:
            rate = self.params.rates[self._phase]
            candidate = self._now + self._arrival_rng.expovariate(rate)
            if candidate <= self._phase_end:
                self._now = candidate
                return candidate
            # Memoryless: discard the partial draw at the boundary and
            # redraw at the next phase's rate.
            self._now = self._phase_end
            self._phase = (self._phase + 1) % self.params.num_phases
            self._phase_end = self._draw_sojourn()

    def arrival_times(self, until: Optional[float] = None) -> Iterator[float]:
        """Yield arrival instants; unbounded when ``until`` is None."""
        if until is not None and until <= 0:
            raise ValueError("horizon must be positive, got {}".format(until))
        while True:
            arrival = self.next_arrival()
            if until is not None and arrival > until:
                return
            yield arrival

    def expected_offered_load(self, mean_holding: float) -> float:
        """Little's-law mean concurrent connections at the long-run
        rate — the saturation-calibration helper, as for Poisson."""
        return self.params.mean_rate * mean_holding
