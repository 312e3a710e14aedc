"""Diurnal hot-spot drift: the NT hot set migrating over time.

The paper's NT pattern pre-selects 10 hot destinations once.  Over a
production day the popular egress points move — a different region
wakes up, a different service peaks.  :class:`DriftingHotspotTraffic`
models that as a fixed epoch clock (default: one simulated hour): at
every epoch boundary the ``migrate`` *oldest* hot nodes retire and are
replaced by cold nodes drawn from a per-epoch seeded stream, so the
set turns over FIFO (full turnover every ``hot_count / migrate``
epochs) while endpoint sampling itself stays exactly NT-shaped within
an epoch.

Every epoch's membership is a pure function of ``(seed, epoch)``, so
the hot set at any time is recomputable from scratch.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Deque, Tuple

from ..simulation.rng import seeded_rng
from ..simulation.workload import TrafficPattern


@dataclass(frozen=True)
class DriftParameters:
    """Hot-set shape plus the drift clock."""

    hot_count: int = 10
    hot_fraction: float = 0.5
    epoch_seconds: float = 3600.0
    migrate: int = 1

    def __post_init__(self) -> None:
        if self.hot_count <= 0:
            raise ValueError("hot_count must be positive")
        if not 0.0 < self.hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in (0, 1]")
        if self.epoch_seconds <= 0:
            raise ValueError("epoch_seconds must be positive")
        if not 0 < self.migrate <= self.hot_count:
            raise ValueError("migrate must be in [1, hot_count]")

    @property
    def turnover_seconds(self) -> float:
        """Time until the whole hot set has been replaced once."""
        return self.epoch_seconds * self.hot_count / self.migrate


class DriftingHotspotTraffic(TrafficPattern):
    """Time-aware NT: hot destinations migrate on the epoch clock.

    ``sample_pair_at(rng, time)`` is the primary API; the inherited
    time-free ``sample_pair`` samples at ``t=0`` so the class still
    satisfies the :class:`~repro.simulation.workload.TrafficPattern`
    contract.
    """

    name = "NT-drift"

    def __init__(
        self, num_nodes: int, params: DriftParameters, seed: int
    ) -> None:
        super().__init__(num_nodes)
        if params.hot_count >= num_nodes:
            raise ValueError(
                "hot_count {} needs cold nodes to migrate to in a "
                "{}-node network".format(params.hot_count, num_nodes)
            )
        self.params = params
        self.seed = seed
        self._epoch = 0
        init_rng = seeded_rng(seed, "drift", "init")
        #: FIFO of hot nodes, oldest first (the next to retire).
        self._hot: Deque[int] = deque(
            init_rng.sample(range(num_nodes), params.hot_count)
        )

    # ------------------------------------------------------------------
    # Epoch clock
    # ------------------------------------------------------------------
    def epoch_of(self, time: float) -> int:
        """Which drift epoch ``time`` falls in."""
        if time < 0:
            raise ValueError("time must be non-negative")
        return int(time // self.params.epoch_seconds)

    def _reset(self) -> None:
        self._epoch = 0
        init_rng = seeded_rng(self.seed, "drift", "init")
        self._hot = deque(
            init_rng.sample(range(self.num_nodes), self.params.hot_count)
        )

    def _advance_to(self, epoch: int) -> None:
        if epoch < self._epoch:
            # Time went backwards (arbitrary queries): recompute from
            # scratch — membership is a pure function of (seed, epoch).
            self._reset()
        while self._epoch < epoch:
            step_rng = seeded_rng(self.seed, "drift", self._epoch + 1)
            for _ in range(self.params.migrate):
                self._hot.popleft()
            cold = sorted(set(range(self.num_nodes)) - set(self._hot))
            for node in step_rng.sample(cold, self.params.migrate):
                self._hot.append(node)
            self._epoch += 1

    def hot_nodes_at(self, time: float) -> Tuple[int, ...]:
        """The hot destination set in ``time``'s epoch (FIFO order)."""
        self._advance_to(self.epoch_of(time))
        return tuple(self._hot)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample_pair_at(
        self, rng: random.Random, time: float
    ) -> Tuple[int, int]:
        """NT endpoint sampling against the hot set at ``time``."""
        self._advance_to(self.epoch_of(time))
        if rng.random() < self.params.hot_fraction:
            destination = self._hot[rng.randrange(len(self._hot))]
        else:
            destination = rng.randrange(self.num_nodes)
        source = rng.randrange(self.num_nodes - 1)
        if source >= destination:
            source += 1
        return source, destination

    def sample_pair(self, rng: random.Random) -> Tuple[int, int]:
        """Time-free sampling at ``t=0`` (TrafficPattern contract)."""
        return self.sample_pair_at(rng, 0.0)
