"""The in-process workloads: the harness owns the DRTPService.

`faults-mesh16-churn` replays a timeline of admits, releases, link
failures and repairs straight into a service with a fault injector;
`paper-wax60-cell` replays one evaluation cell of the paper under four
schemes through the scenario simulator.  Latencies are a stopwatch
around the service's public calls; the traced run installs the span
table after set-up, so the ledger covers exactly the measured ops.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, Optional

from repro.analysis import FaultToleranceObserver, SpareShareObserver
from repro.core import DRTPService
from repro.core.errors import ConnectionStateError
from repro.experiments import make_scheme
from repro.faults import FaultInjector, RetryPolicy
from repro.loadmodel.rss import peak_rss_bytes
from repro.simulation import Scenario, ScenarioSimulator
from repro.simulation.rng import derive_seed

import spans
from common import PROBES_PER_RUN, PROBES_PER_SETUP, HostProbe, Run
from ledger import counts_since, invariant_error, service_counts
from workloads import CELL_SCHEMES, CHURN_PLAN, NETWORKS, Inputs

#: Snapshots per cell replay (PAPER_SCALE's count).
SNAPSHOTS = 6


def _check_service(run: Run, service, counts: Dict[str, int]) -> None:
    problem = invariant_error(service)
    if problem:
        run.failed += 1
        run.errors.append("invariants: " + problem)
    decided = counts["core.accepted"] + counts["core.rejected"]
    if decided != counts["core.requests"]:
        run.failed += abs(counts["core.requests"] - decided)
        run.errors.append("{} requests but {} decisions".format(
            counts["core.requests"], decided))


def _keep_trace(run: Run, recorder: spans.Recorder, trace_path) -> None:
    run.spans = list(recorder.spans())
    run.missing = spans.missing_rows(recorder, run.workload)
    spans.write_ndjson(trace_path, recorder, {"workload": run.workload})


# ----------------------------------------------------------------------
# faults-mesh16-churn
# ----------------------------------------------------------------------
def _churn_service(inputs: Inputs) -> DRTPService:
    injector = FaultInjector(
        CHURN_PLAN, seed=derive_seed(inputs.seed, "e2e", "signaling"))
    return DRTPService(
        NETWORKS[inputs.workload.name](),
        make_scheme(inputs.workload.scheme),
        fault_injector=injector, retry_policy=RetryPolicy(),
    )


def _replay(service, events, start: int, stop: int, run: Optional[Run],
            recorder: Optional[spans.Recorder],
            probe: Optional[HostProbe] = None) -> None:
    """Apply ``events[start:stop]``; with ``run`` given, time each call
    and tally the outcomes."""
    now = time.perf_counter_ns
    latencies = run.latencies_ns if run is not None else {}
    activated = lost = 0
    for seq in range(start, stop):
        event = events[seq]
        op, args = event.op, event.args
        if recorder is not None:
            recorder.op = seq
        if probe is not None:
            probe.tick()
        began = now()
        if op == "admit":
            decision = service.request(
                args["source"], args["destination"], args["bw"],
                holding_time=args["hold"], request_id=args["request_id"])
        elif op == "release":
            try:
                service.release(args["connection"])
            except ConnectionStateError:
                pass  # torn down by a failure first: a normal outcome
        elif op == "fail_link":
            impact = service.fail_link(args["link"])
        else:
            service.repair_link(args["link"])
        elapsed = now() - began
        if run is None:
            continue
        latencies.setdefault(op, []).append(elapsed)
        if op == "admit":
            run.decisions.append(int(decision.accepted))
        elif op == "fail_link":
            activated += impact.activated
            lost += impact.failed
    if run is not None:
        run.counters["core.backups_activated"] = activated
        run.counters["core.backups_failed"] = lost


def run_churn(inputs: Inputs, *, ops: int, setup_reps: int,
              trace_path=None) -> Run:
    traced = trace_path is not None
    workload = inputs.workload
    warmup = workload.warmup_ops
    events = inputs.events[:warmup + ops]
    run = Run(workload=workload.name, attempted=ops, ops=ops)
    for _ in range(setup_reps):
        gc.collect()  # the previous repetition's service, not this one's
        started = time.perf_counter()
        service = _churn_service(inputs)
        probe = HostProbe(warmup // PROBES_PER_SETUP)
        _replay(service, events, 0, warmup, None, None, probe)
        run.add_setup(started, probe)
    before = service_counts(service)

    installed = spans.install() if traced else None
    recorder = installed.recorder if traced else None
    try:
        probe = HostProbe(ops // PROBES_PER_RUN)
        cpu = time.process_time()
        started = time.perf_counter()
        _replay(service, events, warmup, len(events), run, recorder, probe)
        run.wall_s = time.perf_counter() - started - probe.spent_s
        run.client_cpu_s = run.owner_cpu_s = (
            time.process_time() - cpu - probe.spent_s)
        run.host_speed = probe.speed
    finally:
        if installed is not None:
            installed.uninstall()
    run.peak_rss_bytes = peak_rss_bytes()
    run.admits = len(run.decisions)
    run.counters.update(counts_since(before, service_counts(service)))
    _check_service(run, service, run.counters)
    if traced:
        _keep_trace(run, recorder, trace_path)
    return run


# ----------------------------------------------------------------------
# paper-wax60-cell
# ----------------------------------------------------------------------
class _Stopwatch:
    """The simulator's view of a service, with a stopwatch on the two
    calls it issues per request; everything else passes through."""

    def __init__(self, service: DRTPService, run: Run,
                 probe: Optional[HostProbe] = None) -> None:
        self._service = service
        self._tick = probe.tick if probe is not None else (lambda: None)
        self._admit_ns = run.latencies_ns.setdefault("admit", [])
        self._release_ns = run.latencies_ns.setdefault("release", [])
        self._decisions = run.decisions

    def __getattr__(self, name):
        return getattr(self._service, name)

    def admit(self, request):
        self._tick()
        began = time.perf_counter_ns()
        decision = self._service.admit(request)
        self._admit_ns.append(time.perf_counter_ns() - began)
        self._decisions.append(int(decision.accepted))
        return decision

    def release(self, connection_id):
        began = time.perf_counter_ns()
        self._service.release(connection_id)
        self._release_ns.append(time.perf_counter_ns() - began)


def _cell_replay(network, scheme_name: str, scenario, run: Run,
                 probe: Optional[HostProbe] = None):
    """One scheme over one scenario, PAPER_SCALE-shaped: warm-up is
    half the horizon, six snapshots follow it."""
    service = DRTPService(
        network, make_scheme(scheme_name),
        require_backup=scheme_name != "no-backup",
    )
    fault_tolerance = FaultToleranceObserver()
    simulator = ScenarioSimulator(
        _Stopwatch(service, run, probe), scenario,
        warmup=scenario.duration / 2.0, snapshot_count=SNAPSHOTS,
    )
    simulator.run(observers=(fault_tolerance, SpareShareObserver()))
    return service, fault_tolerance.stats


def run_cell(inputs: Inputs, *, fraction: float, setup_reps: int,
             trace_path=None) -> Run:
    """The cell under the four schemes.  ``fraction`` < 1 replays only
    the requests arriving in that share of the horizon (the trace
    pair); set-up is the network plus a warm-up slice per scheme."""
    traced = trace_path is not None
    workload = inputs.workload
    scenario = inputs.scenario
    if fraction < 1.0:
        horizon = scenario.duration * fraction
        scenario = Scenario(
            [r for r in scenario.requests if r.arrival_time < horizon],
            horizon)
    warm_count = min(workload.warmup_ops, len(scenario.requests) - 1)
    warm = Scenario(scenario.requests[:warm_count],
                    scenario.requests[warm_count].arrival_time)
    run = Run(workload=workload.name)
    for _ in range(setup_reps):
        gc.collect()  # the previous repetition's services
        started = time.perf_counter()
        network = NETWORKS[workload.name]()
        probe = HostProbe(
            warm_count * len(CELL_SCHEMES) // PROBES_PER_SETUP)
        for scheme_name in CELL_SCHEMES:
            _cell_replay(network, scheme_name, warm, Run(workload.name),
                         probe)
        run.add_setup(started, probe)

    installed = spans.install() if traced else None
    services = []
    try:
        probe = HostProbe(
            len(scenario.requests) * len(CELL_SCHEMES) // PROBES_PER_RUN)
        cpu = time.process_time()
        started = time.perf_counter()
        for scheme_name in CELL_SCHEMES:
            services.append(
                _cell_replay(network, scheme_name, scenario, run, probe))
        run.wall_s = time.perf_counter() - started - probe.spent_s
        run.client_cpu_s = run.owner_cpu_s = (
            time.process_time() - cpu - probe.spent_s)
        run.host_speed = probe.speed
    finally:
        if installed is not None:
            installed.uninstall()
    run.peak_rss_bytes = peak_rss_bytes()
    run.admits = len(run.latencies_ns["admit"])
    run.ops = run.admits + len(run.latencies_ns["release"])
    run.attempted = run.ops
    totals: Dict[str, int] = {}
    for scheme_name, (service, ft_stats) in zip(CELL_SCHEMES, services):
        counts = service_counts(service)
        _check_service(run, service, counts)
        for name, value in counts.items():
            totals[name] = (
                max(totals.get(name, 0), value)  # a level, not a flow
                if name == "core.slab_high_water"
                else totals.get(name, 0) + value)
        if scheme_name != "no-backup":
            key = "experiments.p_act_bk_" + scheme_name.replace("-", "").lower()
            run.counters[key] = ft_stats.p_act_bk
    run.counters.update(totals)
    if traced:
        _keep_trace(run, installed.recorder, trace_path)
    return run
