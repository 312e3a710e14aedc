"""Shared helpers for the benchmark suite.

Every benchmark regenerates one table or figure of the paper.  The
underlying simulation campaign is shared: cells are cached per process
(see ``repro.experiments.sweep.run_cell_cached``), so the Figure-4 and
Figure-5 benchmarks pay for the same runs only once.

Benchmarks run the reduced-but-shape-preserving QUICK scale with a
subset of arrival rates; the full campaign is
``python -m repro.experiments.run_all --scale paper``.  Each benchmark
writes its rendered table under ``benchmarks/results/`` so the numbers
recorded in EXPERIMENTS.md are regenerable artifacts.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Sequence, Tuple

from repro.experiments import QUICK_SCALE
from repro.loadmodel.rss import current_rss_bytes, peak_rss_bytes  # noqa: F401
# Re-exported so every benchmark records memory through one probe:
# throughput without a footprint number cannot gate a memory refactor.

#: Arrival-rate subsets per average degree (3 points per figure panel,
#: spanning light load to saturation).
BENCH_LAMBDAS: Dict[int, Tuple[float, ...]] = {
    3: (0.3, 0.5, 0.7),
    4: (0.5, 0.7, 0.9),
}

#: The scale every benchmark simulates at.
BENCH_SCALE = QUICK_SCALE

#: The master scenario seed for the benchmark campaign.
BENCH_SEED = 7

RESULTS_DIR = Path(__file__).parent / "results"


def cpu_info() -> Dict[str, int]:
    """How much parallelism this host actually offers.

    Multi-process benchmarks must archive this next to their numbers:
    a parallel-speedup gate is meaningless on a 1-CPU container, and
    silently green numbers from an unknown host are worse than a
    recorded skip.  ``available`` honours the scheduling affinity mask
    (containers often restrict it below ``os.cpu_count()``).
    """
    total = os.cpu_count() or 1
    try:
        available = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        available = total
    return {"cpu_count": total, "cpu_available": available}


def pin_process_to_one_cpu(pid: int) -> bool:
    """Pin ``pid`` to a single CPU; True when the pin actually took.

    A single-process throughput reading must not silently benefit
    from kernel threads or the asyncio event loop drifting to a second
    core — it would not compare across hosts.  Best-effort: returns
    False where affinity control is unavailable (non-Linux) so callers
    can record honest metadata.
    """
    try:
        cpus = os.sched_getaffinity(pid)
        os.sched_setaffinity(pid, {min(cpus)})
        return True
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return False


def record(name: str, text: str) -> None:
    """Print a rendered table and archive it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "{}.txt".format(name)).write_text(text + "\n")
    print()
    print(text)


def once(benchmark, fn):
    """Run an expensive deterministic function exactly once under
    pytest-benchmark (default rounds would multiply minutes-long
    simulations)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


class ArmTimer:
    """Per-arm time/iteration accumulator for paired benchmarks.

    Paired benchmarks (scaling, tracing overhead, kernel speedup) time
    two services over nominally identical workloads.  Their CI
    artifacts must record how many operations each arm *actually*
    executed: a silent iteration mismatch — one arm rejecting,
    skipping, or early-exiting differently — would corrupt the
    throughput ratio while still producing plausible-looking numbers.
    Accumulate with :meth:`add`, archive :meth:`report` per arm, and
    assert the arms' counts agree with :func:`check_paired_iterations`.
    """

    __slots__ = ("name", "elapsed_ns", "iterations")

    def __init__(self, name: str) -> None:
        self.name = name
        self.elapsed_ns = 0
        self.iterations = 0

    def add(self, elapsed_ns: int, iterations: int = 1) -> None:
        """Record ``iterations`` operations that took ``elapsed_ns``."""
        self.elapsed_ns += elapsed_ns
        self.iterations += iterations

    @property
    def elapsed_sec(self) -> float:
        return self.elapsed_ns * 1e-9

    @property
    def per_second(self) -> float:
        if self.elapsed_ns == 0:
            return 0.0
        return self.iterations / self.elapsed_sec

    def report(self) -> Dict[str, float]:
        """The arm's artifact record — iteration count included."""
        return {
            "arm": self.name,
            "iterations": self.iterations,
            "elapsed_sec": round(self.elapsed_sec, 3),
            "per_second": round(self.per_second, 1),
        }


def check_paired_iterations(*timers: ArmTimer) -> None:
    """Every arm of a paired benchmark must have executed the same
    number of operations, or the ratio being reported is meaningless."""
    counts = {timer.name: timer.iterations for timer in timers}
    if len(set(counts.values())) > 1:
        raise AssertionError(
            "paired benchmark arms executed unequal iteration counts: "
            "{}".format(counts)
        )
