#!/usr/bin/env python
"""Serve a DRTP control plane and load-test it, end to end.

Starts a :class:`~repro.server.ControlPlaneServer` on a Unix socket
inside this process's event loop, builds a deterministic workload
timeline (Poisson admissions, uniform hold times, a light link-flap
fault plan), replays it through the
:class:`~repro.server.LoadGenerator`, then proves the online run
equivalent to a sequential replay of the same timeline on a bare
:class:`~repro.core.service.DRTPService` — the property `repro
loadtest --verify` and the CI smoke job enforce.

Finishes with a graceful drain and prints the server's final
manifest summary plus a slice of the Prometheus metrics document.

Run:  python examples/serve_loadtest.py
"""

from __future__ import annotations

import asyncio
import tempfile
from pathlib import Path

from repro.core import DRTPService
from repro.faults.plan import FaultPlan, LinkFlapFaults
from repro.metrics import ServiceMetrics, parse_prometheus_text
from repro.routing import PLSRScheme
from repro.server import (
    ControlPlaneServer,
    LoadGenConfig,
    LoadGenerator,
    build_timeline,
    fetch_status,
    run_sequential_reference,
)
from repro.topology import mesh_network

ROWS = COLS = 8
CAPACITY = 20.0


async def serve_and_drive(socket_path: str) -> None:
    metrics = ServiceMetrics()
    network = mesh_network(ROWS, COLS, CAPACITY)
    service = DRTPService(network, PLSRScheme(), metrics=metrics)
    metrics.bind_service(service)
    server = ControlPlaneServer(service, metrics, socket_path=socket_path)
    await server.start()
    print("serving {} on {}".format(service.scheme.name, server.endpoint))

    # A client discovers the topology dimensions from the server.
    status = await fetch_status(socket_path=socket_path)
    print(
        "status: {} nodes, {} links, scheme {}".format(
            status["nodes"], status["links"], status["scheme"]
        )
    )

    config = LoadGenConfig(
        arrival_rate=60.0,
        duration=20.0,
        hold_min=2.0,
        hold_max=6.0,
        bw_req=2.0,
        master_seed=2001,
        fault_plan=FaultPlan(
            name="flaps",
            flaps=LinkFlapFaults(rate=0.2, down_min=1.0, down_max=4.0),
        ),
    )
    timeline = build_timeline(config, status["nodes"], status["links"])
    print(
        "timeline: {} events ({} admits, {} releases, {} link ops)".format(
            len(timeline),
            sum(1 for e in timeline if e.op == "admit"),
            sum(1 for e in timeline if e.op == "release"),
            sum(1 for e in timeline if e.op.endswith("_link")),
        )
    )

    report = await LoadGenerator(timeline, socket_path=socket_path).run()
    print(
        "load: {} responses in {:.2f}s ({:.0f} req/s), acceptance "
        "{:.3f}, {} protocol errors".format(
            report.responses,
            report.wall_seconds,
            report.requests_per_second,
            report.acceptance_ratio,
            report.protocol_error_total,
        )
    )

    # The differential check: same timeline, bare service, same answers.
    twin = DRTPService(mesh_network(ROWS, COLS, CAPACITY), PLSRScheme())
    reference = run_sequential_reference(twin, timeline)
    assert report.decisions == reference["decisions"], (
        "online decisions diverged from the sequential replay"
    )
    print(
        "verified: all {} admission decisions match the sequential "
        "replay".format(len(report.decisions))
    )

    families = parse_prometheus_text(report.prometheus)
    admitted = sum(
        s.value for s in families["drtp_admissions_total"]["samples"]
    )
    latency = families["drtp_admission_latency_seconds"]
    count = next(
        s.value for s in latency["samples"]
        if s.name.endswith("_count")
    )
    print(
        "metrics: {} families; drtp_admissions_total={:.0f}, "
        "admission latency observations={:.0f}".format(
            len(families), admitted, count
        )
    )

    server.request_shutdown("example done")
    await server._finished.wait()
    manifest = server.manifest()
    print(
        "drained: clean={}, {} requests over {} batches".format(
            manifest["server"]["drained_clean"],
            manifest["server"]["requests_total"],
            manifest["server"]["batches"],
        )
    )


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        asyncio.run(serve_and_drive(str(Path(tmp) / "drtp.sock")))


if __name__ == "__main__":
    main()
