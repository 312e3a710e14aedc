"""The performance gates: each measures one claim and fails below its bound.

* scaling — the production engine admits >= 3x faster than the naive
  reference on the 16x16 mesh, with identical decisions;
* campaign parallelism — the sharded campaign runs >= 1.5x faster with 2
  workers and >= 2x with 4, each enforced only where that many CPUs are
  available, with byte-identical output;
* tracing overhead — a bound span collector costs < 15 % admission CPU;
* server throughput — ``repro serve`` pinned to one CPU sustains >= 300
  admissions/s under ``repro loadtest --verify``;
* soak — ``repro soak`` holds 10^5 admissions on a 500-node Waxman graph
  under its RSS ceiling, with flat memory and a peak population far
  below the total accepted.

The last two drive the real CLI in child processes, so the numbers are
the deployment's, not pytest's.  Each gate archives its measurement as
JSON under ``benchmarks/results/``.

Run with::

    PYTHONPATH=src python -m pytest -q benchmarks/test_gates.py
"""

import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaign import CampaignSpec, run_campaign_jobs
from repro.core import DRTPService
from repro.experiments import make_scheme
from repro.loadmodel.rss import peak_rss_bytes
from repro.observability import TraceCollector
from repro.routing import DLSRScheme
from repro.testing import make_reference_service
from repro.topology import mesh_network

RESULTS = Path(__file__).parent / "results"

#: How every CLI child runs: this checkout's source, output captured.
CHILD = dict(
    env=dict(os.environ,
             PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
    stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
)


def repro(*args):
    """The command line ``python -m repro ARGS``."""
    return [sys.executable, "-m", "repro", *map(str, args)]


def write_result(name, payload):
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / name).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


def cpus():
    """How much parallelism this host offers.  ``cpu_available``
    honours the scheduling affinity mask, which containers often
    restrict below ``os.cpu_count()``."""
    total = os.cpu_count() or 1
    try:
        available = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        available = total
    return {"cpu_count": total, "cpu_available": available}


# -- Scaling: production engine vs the naive reference --------------------
#
# The workload is admission-heavy on purpose: each accepted connection
# registers its backup LSET on every spare link, so per-link registries
# grow throughout the run and the naive rebuild-per-read cost grows with
# them — the asymptotic gap the fast path exists to close.

MESH_SIZES = (8, 12, 16, 20)
#: Admissions per mesh: enough that per-link backup registries grow
#: into the hundreds, where the naive rebuild-per-read cost dominates.
SCALING_REQUESTS = 900
#: Generous capacity keeps the workload admission-bound: rejected
#: requests register nothing and would understate registry pressure.
SCALING_CAPACITY = 32.0
SCALING_SEED = 2026


def time_admissions(service, pairs):
    """One arm over the request stream: (seconds, decision reasons)."""
    start = time.perf_counter_ns()
    reasons = [service.request(src, dst, 1.0).reason for src, dst in pairs]
    return (time.perf_counter_ns() - start) * 1e-9, reasons


def measure_mesh(rows):
    """The identical seeded workload through the fast and naive arms."""
    net = mesh_network(rows, rows, capacity=SCALING_CAPACITY)
    rng = random.Random(SCALING_SEED)
    pairs = [tuple(rng.sample(range(net.num_nodes), 2))
             for _ in range(SCALING_REQUESTS)]
    fast = DRTPService(net, make_scheme("D-LSR"))
    naive = make_reference_service(fast)
    naive_s, naive_reasons = time_admissions(naive, pairs)
    fast_s, fast_reasons = time_admissions(fast, pairs)
    # The ratio compares like with like only if both arms decided every
    # request the same way.
    assert fast_reasons == naive_reasons
    accepted = fast.counters.accepted
    assert accepted == naive.counters.accepted
    return {
        "mesh": "{0}x{0}".format(rows),
        "num_links": net.num_links,
        "requests": len(pairs),
        "accepted": accepted,
        "fast_admissions_per_sec": round(accepted / fast_s, 1),
        "naive_admissions_per_sec": round(accepted / naive_s, 1),
        "fast_elapsed_sec": round(fast_s, 3),
        "naive_elapsed_sec": round(naive_s, 3),
        "speedup": round(naive_s / fast_s, 2),
    }


def test_scaling_curve():
    meshes = [measure_mesh(rows) for rows in MESH_SIZES]
    write_result("scaling.json", {
        "scheme": "D-LSR",
        "capacity": SCALING_CAPACITY,
        "requests_per_mesh": SCALING_REQUESTS,
        "seed": SCALING_SEED,
        "meshes": meshes,
    })
    by_mesh = {entry["mesh"]: entry for entry in meshes}
    assert by_mesh["16x16"]["speedup"] >= 3.0, by_mesh["16x16"]
    # The gap widens with scale: the naive path is superlinear in
    # registry size, the fast path is not.
    assert by_mesh["16x16"]["speedup"] > by_mesh["8x8"]["speedup"] * 0.8


# -- Campaign parallelism --------------------------------------------------
#
# Parallel speedup on fewer cores than workers would measure the
# scheduler, not the orchestrator, so each gate is enforced only where
# its worker count of CPUs is available; the measurement is always
# recorded.

#: 1 degree x 2 patterns x 3 rates = 6 quick-scale cells, enough work
#: per worker that pool overhead is amortized.
CAMPAIGN = CampaignSpec(
    scale="quick", degrees=(3,), patterns=("UT", "NT"),
    lambdas=(0.3, 0.5, 0.7), master_seed=7,
)
CAMPAIGN_OUTPUTS = ("figure4_E3.csv", "figure5_E3.csv", "campaign_points.csv")


def timed_campaign(campaign_dir, jobs):
    start = time.perf_counter()
    result = run_campaign_jobs(CAMPAIGN, campaign_dir, jobs=jobs)
    elapsed = time.perf_counter() - start
    assert result.complete
    return elapsed, [(campaign_dir / name).read_bytes()
                     for name in CAMPAIGN_OUTPUTS]


def test_campaign_parallel_speedup(tmp_path):
    available = cpus()["cpu_available"]
    sequential_s, sequential = timed_campaign(tmp_path / "seq", jobs=1)
    pair_s, pair = timed_campaign(tmp_path / "pair", jobs=2)
    parallel_s, parallel = timed_campaign(tmp_path / "par", jobs=4)
    # The speedup is never bought with a results drift.
    assert pair == sequential and parallel == sequential
    pair_speedup = sequential_s / pair_s
    speedup = sequential_s / parallel_s
    write_result("campaign_parallel.json", {
        "spec": CAMPAIGN.to_dict(),
        "cells": len(CAMPAIGN.jobs()),
        "workers": 4,
        "available_cpus": available,
        "sequential_seconds": round(sequential_s, 3),
        "parallel_seconds": round(parallel_s, 3),
        "speedup": round(speedup, 3),
        "gate": ">= 2.0x with 4 workers (enforced when >= 4 CPUs)",
        "gate_enforced": available >= 4,
        "pair_workers": 2,
        "pair_seconds": round(pair_s, 3),
        "pair_speedup": round(pair_speedup, 3),
        "pair_gate": ">= 1.5x with 2 workers (enforced when >= 2 CPUs)",
        "pair_gate_enforced": available >= 2,
        "outputs_bit_identical": True,
    })
    if available >= 2:
        assert pair_speedup >= 1.5, (sequential_s, pair_s)
    if available < 4:
        pytest.skip("only {} CPU(s) available; the >= 2x gate needs 4"
                    .format(available))
    assert speedup >= 2.0, (sequential_s, parallel_s)


# -- Tracing overhead -------------------------------------------------------
#
# The same seeded admission/release workload on the serving gate's
# 16x16 mesh runs against two fresh services in lockstep — one traced,
# one not, alternating which goes first per admission — so CPU-frequency
# drift and co-tenant noise hit both arms inside the same few
# milliseconds.  The reported overhead is the median ratio of per-arm
# CPU time over several passes.  Coarser designs (ABBA trial blocks,
# min-of-trials) drifted +/-10 % between runs on a loaded box.

TRACE_ADMISSIONS = 300  # per lockstep pass
TRACE_PASSES = 5
HOLD_EVERY = 4  # release all but every 4th connection inside a pass
#: The observability target; the gate keeps headroom for shared
#: runners, whose residual noise can exceed it between two runs.
TARGET_OVERHEAD = 0.05
MAX_OVERHEAD = 0.15


class Arm:
    """One side of the lockstep: a fresh 16x16 D-LSR service and the
    CPU time and operation count spent in it."""

    def __init__(self, trace):
        self.service = DRTPService(mesh_network(16, 16, 32.0), DLSRScheme(),
                                   trace=trace)
        self.admitted = []
        self.ns = self.ops = 0

    def timed(self, operation, *args, **kwargs):
        started = time.process_time_ns()
        result = operation(*args, **kwargs)
        self.ns += time.process_time_ns() - started
        self.ops += 1
        return result

    def step(self, index, source, destination, bw):
        decision = self.timed(self.service.request, source=source,
                              destination=destination, bw_req=bw)
        if decision.accepted:
            self.admitted.append(decision.connection.connection_id)
            if index % HOLD_EVERY:
                self.timed(self.service.release, self.admitted.pop())


def lockstep_pass(requests):
    collector = TraceCollector(max_spans=500_000)
    base, traced = Arm(None), Arm(collector)
    for index, request in enumerate(requests):
        for arm in ((traced, base) if index % 2 else (base, traced)):
            arm.step(index, *request)
    # Tracing never changes behaviour, so a valid pairing ran the same
    # request/release stream on both arms.
    assert base.ops == traced.ops, (base.ops, traced.ops)
    return base, traced, collector


def test_tracing_overhead_under_target():
    rng = random.Random(11)
    requests = []
    for _ in range(TRACE_ADMISSIONS):
        source, destination = rng.randrange(256), rng.randrange(255)
        if destination >= source:
            destination += 1  # any node but the source
        requests.append((source, destination, 0.5 + rng.random()))
    lockstep_pass(requests)  # warm caches outside the measured passes
    overheads, rates = [], {"baseline": [], "traced": []}
    totals = {"baseline": [0, 0], "traced": [0, 0]}
    for _ in range(TRACE_PASSES):
        base, traced, collector = lockstep_pass(requests)
        overheads.append(traced.ns / base.ns - 1.0)
        for name, arm in (("baseline", base), ("traced", traced)):
            rates[name].append(TRACE_ADMISSIONS / (arm.ns * 1e-9))
            totals[name][0] += arm.ns
            totals[name][1] += arm.ops
    overhead = statistics.median(overheads)
    results = {
        "admissions_per_trial": TRACE_ADMISSIONS,
        "trials": TRACE_PASSES,
        "arms": {
            name: {"iterations": ops, "elapsed_sec": round(ns * 1e-9, 3),
                   "per_second": round(ops / (ns * 1e-9), 1)}
            for name, (ns, ops) in totals.items()
        },
        "baseline_admissions_per_second": round(
            statistics.median(rates["baseline"]), 1),
        "traced_admissions_per_second": round(
            statistics.median(rates["traced"]), 1),
        "overhead_fraction": round(overhead, 4),
        "target_overhead_fraction": TARGET_OVERHEAD,
        "gate_overhead_fraction": MAX_OVERHEAD,
        "spans_per_admission": round(len(collector) / TRACE_ADMISSIONS, 2),
        "spans_dropped": collector.dropped,
    }
    write_result("tracing_overhead.json", results)
    assert results["spans_dropped"] == 0  # bound sized for the workload
    assert results["spans_per_admission"] >= 3  # plan+searches+signaling
    assert results["overhead_fraction"] < MAX_OVERHEAD


# -- Server throughput: repro serve + repro loadtest -------------------------

SERVED_MESH = ("--rows", 16, "--cols", 16, "--capacity", 32,
               "--scheme", "P-LSR")
#: The serving target, recorded with every run; the gate keeps headroom
#: below it so a noisy shared runner does not flake the job.
TARGET_ADMITS_PER_SECOND = 500.0
MIN_ADMITS_PER_SECOND = 300.0


def test_admission_throughput_gate(tmp_path):
    sock, report_path = tmp_path / "bench.sock", tmp_path / "report.json"
    serve = subprocess.Popen(
        repro("serve", "--socket", sock, *SERVED_MESH), **CHILD
    )
    try:
        # The claim is single-core throughput: pin the server so a
        # multi-core host cannot quietly flatter the number.
        try:
            os.sched_setaffinity(serve.pid, {min(os.sched_getaffinity(0))})
            pinned = True
        except (AttributeError, OSError):  # pragma: no cover - non-Linux
            pinned = False
        deadline = time.monotonic() + 30
        while not sock.exists():
            assert serve.poll() is None, serve.stdout.read()
            assert time.monotonic() < deadline, "server never bound"
            time.sleep(0.05)
        # --verify replays the timeline on a sequential twin and fails
        # on any protocol error or decision that differs.
        load = subprocess.run(
            repro("loadtest", "--socket", sock, *SERVED_MESH,
                  "--rate", 50, "--duration", 60, "--seed", 7,
                  "--verify", "--report", report_path),
            **CHILD,
        )
        # Sampled while the server lives: a reaped process's peak RSS
        # is unreadable.
        server_rss = peak_rss_bytes(serve.pid)
    finally:
        serve.terminate()
        serve.communicate(timeout=30)

    assert report_path.exists(), load.stdout
    report = json.loads(report_path.read_text())
    admits_per_second = report["admits"] / report["wall_seconds"]
    write_result("server_throughput.json", {
        **cpus(),
        "server_pinned_to_one_cpu": pinned,
        "admissions": report["admits"],
        "events": report["events"],
        "wall_seconds": round(report["wall_seconds"], 3),
        "admissions_per_second": round(admits_per_second, 1),
        "target_admissions_per_second": TARGET_ADMITS_PER_SECOND,
        "meets_target": admits_per_second >= TARGET_ADMITS_PER_SECOND,
        "requests_per_second": round(report["requests_per_second"], 1),
        "acceptance_ratio": round(report["acceptance_ratio"], 4),
        "protocol_errors": report["protocol_error_total"],
        "server_peak_rss_bytes": server_rss,
    })
    assert load.returncode == 0, load.stdout
    assert report["protocol_error_total"] == 0
    assert "decisions identical" in load.stdout, load.stdout
    assert report["admits"] >= 2500  # rate * duration, minus Poisson noise
    assert admits_per_second >= MIN_ADMITS_PER_SECOND, admits_per_second


# -- Soak: memory stays flat under sustained churn -------------------------

SOAK_ADMISSIONS = 100_000
SOAK_WINDOW = 10_000
#: The ceiling handed to ``repro soak --rss-limit-mb``: the whole
#: 500-node run, interpreter included, stays under it.
RSS_LIMIT_MB = 384
#: After warm-up, a window's RSS may exceed the early-run baseline by at
#: most this factor: flat memory, not memory growing with churn.
MAX_RSS_GROWTH = 1.5


def test_soak_memory_gate(tmp_path):
    out = tmp_path / "soak.json"
    run = subprocess.run(
        repro("soak", "--nodes", 500, "--seed", 7,
              "--admissions", SOAK_ADMISSIONS, "--window", SOAK_WINDOW,
              "--rss-limit-mb", RSS_LIMIT_MB, "--out", out, "--quiet"),
        **CHILD,
    )
    assert run.returncode == 0, run.stdout
    payload = json.loads(out.read_text())
    assert payload["admissions"] == SOAK_ADMISSIONS
    assert payload["peak_rss_bytes"] < RSS_LIMIT_MB * 1024 * 1024
    assert payload["admissions_per_second"] > 0

    windows = payload["windows"]
    assert len(windows) == SOAK_ADMISSIONS // SOAK_WINDOW
    # Past warm-up (graph build, imports, the climb to steady-state
    # population) later windows must not keep growing.
    baseline = windows[1]["rss_bytes"]
    tail_peak = max(entry["rss_bytes"] for entry in windows[2:])
    assert tail_peak <= baseline * MAX_RSS_GROWTH, (baseline, tail_peak)
    # The store's high water is the peak concurrent population, far
    # below the total accepted.
    assert payload["connections"]["high_water"] < payload["accepted"] / 10

    # soak.json keeps the recorded 10^6-admission run beside this one.
    path = RESULTS / "soak.json"
    record = json.loads(path.read_text()) if path.exists() else {}
    record["ci"] = {**payload, **cpus(), "window": SOAK_WINDOW}
    write_result("soak.json", record)
