"""Shared plumbing of the end-to-end benchmark: paths, the engine-gate
check, the host probes and the record every runner fills in."""

from __future__ import annotations

import os
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_DIR = REPO_ROOT / "src"

#: Environment gates that select a non-default engine.  The benchmark
#: describes the default engine only, so it refuses to run with any set.
ENGINE_GATES = ("REPRO_KERNELS_BACKEND", "REPRO_BATCH_APPLY",
                "REPRO_WARMSTART")


def require_source_tree() -> None:
    """Make ``repro`` importable from the checkout, or exit non-zero
    (a directory holding only the benchmark has nothing to measure)."""
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        sys.exit("benchmarks/e2e: no program to measure — {} is missing"
                 .format(SRC_DIR / "repro"))
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))


def refuse_engine_gates() -> None:
    gates = [name for name in ENGINE_GATES if name in os.environ]
    if gates:
        sys.exit("benchmarks/e2e: unset {} — the benchmark measures the "
                 "default engine only".format(", ".join(gates)))


def pin_to_one_cpu() -> None:
    """Keep this process — and the server it spawns — on one CPU.

    The speed of this shared host changes per virtual CPU, second by
    second; the host probe can only correct for it when it runs on the
    CPU that does the work.  Neither serve workload needs two: with
    window 1 client and server strictly alternate, and the pipelined
    client is idle 99 % of the time."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def cpu_seconds_of(pid: int) -> float:
    """User + system CPU seconds a live process has used so far."""
    with open("/proc/{}/stat".format(pid)) as handle:
        # The command name may hold spaces; fields resume after ')'.
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])  # utime, stime
    return ticks / os.sysconf("SC_CLK_TCK")


def _calibration_loop(iterations: int) -> int:
    """The fixed pure-Python work every host probe times."""
    started = time.perf_counter_ns()
    total = 0
    for value in range(iterations):
        total += value * value % 7
    return time.perf_counter_ns() - started


def calibration_seconds() -> float:
    """A fixed pure-Python loop, so absolute numbers recorded on
    different hosts can be normalised.  Best of three."""
    return min(_calibration_loop(300_000) for _ in range(3)) / 1e9


#: Host probes a runner spreads over one measured window (~1 % of it),
#: and over the warm-up that ends each set-up repetition.
PROBES_PER_RUN = 100
PROBES_PER_SETUP = 20


class HostProbe:
    """How fast the host ran *during* a measured window.

    A runner calls :meth:`tick` at every op boundary; every ``every``-th
    call times a ~1 ms calibration loop.  ``speed`` is the mean probe
    time over :data:`REFERENCE_NS`, the same loop's time on the quiet
    build host: 1.0 there, above 1 when the host is slower.  The
    end-to-end metrics are divided by it (see README, "Host
    normalisation"); the time the probes took is not part of the
    measured window."""

    ITERATIONS = 20_000
    #: Mean probe time on the 2-core build host in a quiet phase.
    REFERENCE_NS = 960_000.0

    def __init__(self, every: int) -> None:
        self.every = max(1, every)
        self.calls = 0
        self.samples_ns: List[int] = []

    def tick(self) -> None:
        self.calls += 1
        if self.calls % self.every == 0:
            self.sample()

    def sample(self) -> None:
        """One probe.  (A row of the span table, so that a probe taken
        inside a traced call is nobody's self time.)"""
        self.samples_ns.append(_calibration_loop(self.ITERATIONS))

    @property
    def spent_s(self) -> float:
        return sum(self.samples_ns) / 1e9

    @property
    def speed(self) -> float:
        if not self.samples_ns:
            return 1.0
        return sum(self.samples_ns) / len(self.samples_ns) / self.REFERENCE_NS


def host_record() -> Dict[str, Any]:
    """What the numbers were measured on — no pid, time or path."""
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "calibration_s": calibration_seconds(),
    }


@dataclass
class Run:
    """What one execution of a workload measured (traced or not)."""

    workload: str
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: Traced runs: span-table rows this workload must exercise that
    #: recorded no call (a failure at full size, expected in a smoke).
    missing: List[str] = field(default_factory=list)
    #: One sample per set-up repetition, already divided by the host
    #: speed probed during its warm-up.
    setup_s: List[float] = field(default_factory=list)
    #: The measured window, host probes excluded.
    wall_s: float = 0.0
    #: Host speed factor over the measured window (1.0 = build host).
    host_speed: float = 1.0
    ops: int = 0
    admits: int = 0
    #: Client-side latency samples of the measured ops, by op kind.
    latencies_ns: Dict[str, List[int]] = field(default_factory=dict)
    #: Peak RSS of the process that owns the DRTPService.
    peak_rss_bytes: int = 0
    #: CPU seconds over the measured window: the owner of the service,
    #: and the load-generating harness (the same process in-process).
    owner_cpu_s: float = 0.0
    client_cpu_s: float = 0.0
    #: Admit outcomes (1/0) in request order.
    decisions: List[int] = field(default_factory=list)
    #: Service-side counts (ServiceCounters, slab, observers ...).
    counters: Dict[str, float] = field(default_factory=dict)
    #: Traced runs: ``(id, parent, name, start_ns, end_ns, op)`` spans.
    spans: Optional[List[tuple]] = None

    def add_setup(self, started: float, probe: "HostProbe") -> None:
        """Record a set-up repetition that began at ``started`` (a
        ``perf_counter`` reading) and whose warm-up ``probe`` sampled."""
        elapsed = time.perf_counter() - started - probe.spent_s
        self.setup_s.append(elapsed / probe.speed)

    def sorted_ms(self, op: str) -> List[float]:
        """Latency samples of one op kind, ascending, in milliseconds."""
        return sorted(value / 1e6 for value in self.latencies_ns.get(op, ()))
