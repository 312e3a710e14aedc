"""Differential oracle for the sharded control plane.

:func:`run_cluster_oracle` boots a real
:class:`~repro.cluster.server.ClusterControlPlaneServer` on a unix
socket, drives it with a deterministic
:class:`~repro.server.loadgen.LoadGenerator` timeline while a watchdog
SIGKILLs one shard mid-load (exercising reap → respawn → inline
requeue), then replays the *same* timeline through
:func:`~repro.cluster.reference.run_cluster_reference` and asserts the
two runs are indistinguishable:

* identical 0/1 decision traces (request-id order),
* identical service counters (requests / accepted / released),
* identical :meth:`~repro.network.state.NetworkState.fingerprint` of
  the final link state (reservations, registry, APLV — so even a
  same-decision different-route divergence is caught).

Any mismatch raises :class:`ClusterOracleDivergence`; either way the
full comparison is archived as JSON so CI keeps the evidence.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..core.service import DRTPService
from ..experiments.sweep import make_scheme
from ..server.loadgen import LoadGenConfig, LoadGenerator, build_timeline
from ..topology.mesh import mesh_network
from .authority import DEFAULT_BATCH, DEFAULT_LOOKAHEAD
from .reference import ClusterOracleDivergence, run_cluster_reference
from .server import ClusterControlPlaneServer

#: Schema version of the archived oracle report.
ORACLE_VERSION = 1


def _diff_decisions(live: List[int], reference: List[int]) -> List[int]:
    """Request ids whose admission decisions disagree."""
    diverged = [
        rid
        for rid, (a, b) in enumerate(zip(live, reference))
        if a != b
    ]
    longer = max(len(live), len(reference))
    diverged.extend(range(min(len(live), len(reference)), longer))
    return diverged


async def _kill_one_shard(engine, killed: Dict[str, Any]) -> None:
    """Wait until plans are actually in flight, then SIGKILL one shard.

    Killing while :meth:`outstanding_count` is high makes the inline
    requeue path near-certain to fire (the dead shard owns some of the
    outstanding plans); the respawn itself is guaranteed either way.
    """
    deadline = asyncio.get_event_loop().time() + 30.0
    while asyncio.get_event_loop().time() < deadline:
        pids = engine.shard_pids()
        if pids and engine.outstanding_count() >= 2:
            target = pids[0]
            try:
                os.kill(target, signal.SIGKILL)
            except ProcessLookupError:  # pragma: no cover - exited already
                await asyncio.sleep(0.01)
                continue
            killed["pid"] = target
            return
        await asyncio.sleep(0.005)
    killed["pid"] = None  # pragma: no cover - load finished too fast


async def _drive(
    server: ClusterControlPlaneServer,
    timeline,
    socket_path: str,
    kill_shard: bool,
) -> Dict[str, Any]:
    await server.start()
    killed: Dict[str, Any] = {"pid": None}
    generator = LoadGenerator(timeline, socket_path=socket_path, time_scale=0.0)
    try:
        if kill_shard:
            report, _ = await asyncio.gather(
                generator.run(), _kill_one_shard(server.engine, killed)
            )
        else:
            report = await generator.run()
    finally:
        await server.shutdown()
    return {"report": report, "killed_pid": killed["pid"]}


def _without_pids(value: Any) -> Any:
    """``value`` minus every ``"pid"`` key, at any depth."""
    if isinstance(value, dict):
        return {
            key: _without_pids(item)
            for key, item in value.items()
            if key != "pid"
        }
    if isinstance(value, list):
        return [_without_pids(item) for item in value]
    return value


def run_cluster_oracle(
    *,
    workers: int = 2,
    scheme: str = "D-LSR",
    rows: int = 6,
    cols: int = 6,
    capacity: float = 30.0,
    arrival_rate: float = 40.0,
    duration: float = 15.0,
    seed: int = 7,
    batch: int = DEFAULT_BATCH,
    lookahead: int = DEFAULT_LOOKAHEAD,
    kill_shard: bool = True,
    out_path: Optional[str] = None,
    workdir: Optional[str] = None,
) -> Dict[str, Any]:
    """Run the cluster differential campaign; return the report dict.

    Raises :class:`ClusterOracleDivergence` if the live sharded run and
    the sequential epoch replay disagree in any observable way.  The
    report (written to ``out_path`` when given, divergent or not)
    records the kill, every requeue/resync, and the per-shard totals;
    the written copy leaves out process ids, so archiving the same
    campaign twice yields the same file.
    """
    network = mesh_network(rows, cols, capacity)
    timeline = build_timeline(
        LoadGenConfig(
            arrival_rate=arrival_rate, duration=duration, master_seed=seed
        ),
        network.num_nodes,
        network.num_links,
        network=network,
    )

    def _run_in(directory: str) -> Dict[str, Any]:
        base = Path(directory)
        service = DRTPService(network, make_scheme(scheme))
        server = ClusterControlPlaneServer(
            service,
            scheme_name=scheme,
            workers=workers,
            batch=batch,
            lookahead=lookahead,
            socket_path=str(base / "oracle.sock"),
            manifest_path=str(base / "manifest.json"),
            trace_dir=str(base / "trace"),
            cluster_dir=str(base / "cluster"),
        )
        outcome = asyncio.run(
            _drive(server, timeline, str(base / "oracle.sock"), kill_shard)
        )
        outcome["cluster"] = server.engine.status()
        outcome["fingerprint"] = service.state.fingerprint()
        outcome["counters"] = {
            "requests": service.counters.requests,
            "accepted": service.counters.accepted,
            "released": service.counters.released,
        }
        return outcome

    if workdir is not None:
        Path(workdir).mkdir(parents=True, exist_ok=True)
        live = _run_in(workdir)
    else:
        with tempfile.TemporaryDirectory(prefix="cluster-oracle-") as tmp:
            live = _run_in(tmp)

    reference_service = DRTPService(network, make_scheme(scheme))
    reference = run_cluster_reference(
        network,
        scheme,
        timeline,
        batch=batch,
        lookahead=lookahead,
        service=reference_service,
    )

    report = live["report"]
    cluster = live["cluster"]
    diverged = _diff_decisions(report.decisions, reference["decisions"])
    decisions_identical = not diverged
    counters_match = live["counters"] == reference["counters"]
    fingerprint_match = (
        live["fingerprint"] == reference_service.state.fingerprint()
    )
    divergences = (
        len(diverged)
        + (0 if counters_match else 1)
        + (0 if fingerprint_match else 1)
    )

    result: Dict[str, Any] = {
        "version": ORACLE_VERSION,
        "config": {
            "workers": workers,
            "scheme": scheme,
            "rows": rows,
            "cols": cols,
            "capacity": capacity,
            "arrival_rate": arrival_rate,
            "duration": duration,
            "seed": seed,
            "batch": batch,
            "lookahead": lookahead,
            "kill_shard": kill_shard,
        },
        "ops": len(timeline),
        "admits": report.admits,
        "accepted": report.accepted,
        "acceptance_ratio": report.acceptance_ratio,
        "protocol_errors": dict(report.protocol_errors),
        "divergences": divergences,
        "decisions_identical": decisions_identical,
        "diverged_request_ids": diverged[:32],
        "counters_match": counters_match,
        "fingerprint_match": fingerprint_match,
        "counters": live["counters"],
        "reference": {
            "accepted": reference["accepted"],
            "authority": reference["authority"],
        },
        "kill": {
            "requested": kill_shard,
            "pid": live["killed_pid"],
            "worker_restarts": sum(
                shard["restarts"] for shard in cluster["shards"]
            ),
            "requeues": cluster["requeues"],
            "inline_plans": cluster["inline_plans"],
            "stale_results": cluster["stale_results"],
        },
        "replication": {
            "final_epoch": cluster["epoch"],
            "deltas_sent": cluster["deltas_sent"],
            "snapshots_sent": cluster["snapshots_sent"],
            "authority_replans": cluster["replans"],
        },
        "per_shard": cluster["shards"],
    }

    if out_path is not None:
        out = Path(out_path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(
            json.dumps(_without_pids(result), indent=2, sort_keys=True) + "\n"
        )

    if divergences:
        raise ClusterOracleDivergence(
            "cluster run diverged from sequential replay: "
            "{} decision mismatches (first: {}), counters_match={}, "
            "fingerprint_match={}".format(
                len(diverged),
                diverged[0] if diverged else None,
                counters_match,
                fingerprint_match,
            )
        )
    return result
