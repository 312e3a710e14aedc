"""The serve workloads: `repro serve` in its own process, one client.

The server is the deployment shape — a subprocess on a Unix socket that
drains on SIGTERM — and the client is one blocking connection that
keeps ``window`` requests outstanding (a closed loop: the next request
goes out only when a reply came back).  Request lines are encoded
before the clock starts and replies are parsed after it stops, so the
generator spends its core on the socket, not on JSON.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.core import DRTPService
from repro.experiments import make_scheme
from repro.loadmodel.rss import peak_rss_bytes
from repro.server import protocol
from repro.server.loadgen import run_sequential_reference
from repro.topology import load_network, save_network

from common import (
    PROBES_PER_RUN,
    PROBES_PER_SETUP,
    HostProbe,
    Run,
    SRC_DIR,
    cpu_seconds_of,
)
from ledger import status_counts
from spans import MESH8, read_ndjson
from workloads import Inputs

HERE = Path(__file__).resolve().parent
READY_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 60.0


class Server:
    """One `repro serve` subprocess; always reaped (context manager)."""

    def __init__(self, inputs: Inputs, workdir: Path, tag: str,
                 trace_path: Optional[Path] = None) -> None:
        workload = inputs.workload
        self.socket_path = os.path.relpath(workdir / (tag + ".sock"))
        self.manifest_path = workdir / (tag + ".manifest.json")
        serve_args = ["serve", "--socket", self.socket_path,
                      "--scheme", workload.scheme,
                      "--manifest", str(self.manifest_path)]
        if workload.name == MESH8:
            serve_args += ["--rows", "8", "--cols", "8", "--capacity", "32"]
        else:
            serve_args += ["--topology", str(workdir / "topology.json")]
        if trace_path is None:
            command = [sys.executable, "-m", "repro.cli"] + serve_args
        else:
            command = [sys.executable, str(HERE / "traced_serve.py"),
                       "--workload", workload.name,
                       "--trace-out", str(trace_path),
                       "--skip-ops", str(workload.warmup_ops),
                       "--"] + serve_args
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR)
        self.spawned = time.perf_counter()
        self.process = subprocess.Popen(
            command, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        self.connection: Optional[socket.socket] = None

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        if self.connection is not None:
            self.connection.close()
        if self.process.poll() is None:
            self.process.kill()
        self.process.communicate()

    def connect(self) -> socket.socket:
        """Block until the server answers ``ping`` on a fresh
        connection (which the workload then keeps using)."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        while True:
            if self.process.poll() is not None:
                raise RuntimeError("server exited before serving:\n"
                                   + self.process.stdout.read())
            try:
                conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                conn.connect(self.socket_path)
                break
            except OSError:
                conn.close()
                if time.monotonic() > deadline:
                    raise RuntimeError("server never bound its socket")
                time.sleep(0.005)
        self.connection = conn
        reply = self.ask("ping")
        if not reply.get("pong"):
            raise RuntimeError("unexpected ping reply: {!r}".format(reply))
        return conn

    def ask(self, op: str) -> dict:
        """One read op on the workload's connection (nothing may be in
        flight)."""
        conn = self.connection
        conn.sendall(protocol.encode_request(op, {}, request_id=op))
        buffer = b""
        while not buffer.endswith(b"\n"):
            chunk = conn.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed during " + op)
            buffer += chunk
        _, ok, body = protocol.decode_response(buffer.decode())
        if not ok:
            raise RuntimeError("{} failed: {!r}".format(op, body))
        return body

    def drain(self) -> dict:
        """SIGTERM, wait for exit, return the manifest; raises unless
        the server exited 0 having drained clean."""
        self.connection.close()
        self.connection = None
        self.process.send_signal(signal.SIGTERM)
        try:
            output, _ = self.process.communicate(timeout=DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            output, _ = self.process.communicate()
            raise RuntimeError("server ignored SIGTERM:\n" + output)
        if self.process.returncode != 0:
            raise RuntimeError("server exited {}:\n{}".format(
                self.process.returncode, output))
        manifest = json.loads(self.manifest_path.read_text())
        if not manifest["server"]["drained_clean"]:
            raise RuntimeError("server did not drain clean")
        return manifest


def drive(conn: socket.socket, wire: List[bytes], start: int, stop: int,
          window: int, send_ns: List[int], recv_ns: List[int],
          replies: List[bytes], probe: Optional[HostProbe] = None) -> None:
    """Closed loop over ``wire[start:stop]`` with ``window`` requests
    outstanding; returns once every one is answered.  Replies arrive in
    request order (the protocol guarantees it per connection), so the
    i-th reply line answers the i-th request."""
    now = time.perf_counter_ns
    sent = received = start
    buffer = b""
    while received < stop:
        room = window - (sent - received)
        if room > 0 and sent < stop:
            burst = min(room, stop - sent)
            stamp = now()
            conn.sendall(b"".join(wire[sent:sent + burst]))
            for index in range(sent, sent + burst):
                send_ns[index] = stamp
            sent += burst
            if probe is not None:
                probe.tick()
        chunk = conn.recv(1 << 16)
        stamp = now()
        if not chunk:
            raise ConnectionError("server closed mid-run")
        buffer += chunk
        lines = buffer.split(b"\n")
        buffer = lines.pop()
        for line in lines:
            replies.append(line)
            recv_ns[received] = stamp
            received += 1


def _check_replies(events, replies, errors: List[str]):
    """Parse the reply lines; returns ``(failed, decisions)`` with
    ``decisions`` the admit outcomes in request-id order."""
    failed = 0
    decisions: Dict[int, int] = {}
    for seq, event in enumerate(events):
        if seq >= len(replies):
            failed += 1
            continue
        reply_id, ok, body = protocol.decode_response(replies[seq].decode())
        if reply_id != seq or not ok:
            failed += 1
            if len(errors) < 5:
                errors.append("op {}: reply {!r}".format(seq, replies[seq]))
            continue
        if event.op == "admit":
            decisions[event.args["request_id"]] = int(bool(body["accepted"]))
    return failed, [decisions[rid] for rid in sorted(decisions)]


def run_serve(inputs: Inputs, workdir: Path, *, ops: int, setup_reps: int,
              trace_path: Optional[Path] = None,
              corrupt_reference: bool = False) -> Run:
    """Warm-up plus ``ops`` measured operations against a live server.

    ``setup_reps`` servers are spawned one after another; each is timed
    from spawn to the end of warm-up, all but the last are drained at
    once, and the last one serves the measured ops."""
    workload = inputs.workload
    warmup = workload.warmup_ops
    events = inputs.events[:warmup + ops]
    wire = [protocol.encode_request(event.op, event.args, request_id=seq)
            for seq, event in enumerate(events)]
    total = len(events)
    run = Run(workload=workload.name, attempted=ops)
    topology = workdir / "topology.json"
    if workload.name != MESH8 and not topology.exists():
        save_network(inputs.network, topology)

    for rep in range(setup_reps):
        send_ns, recv_ns = [0] * total, [0] * total
        replies: List[bytes] = []
        tag = "{}-{}".format("traced" if trace_path else "plain", rep)
        last = rep == setup_reps - 1
        with Server(inputs, workdir, tag,
                    trace_path if last else None) as server:
            conn = server.connect()
            probe = HostProbe(warmup // workload.window // PROBES_PER_SETUP)
            drive(conn, wire, 0, warmup, workload.window,
                  send_ns, recv_ns, replies, probe)
            run.add_setup(server.spawned, probe)
            if not last:
                server.drain()
                continue
            before = status_counts(server.ask("status"))
            server_cpu = cpu_seconds_of(server.process.pid)
            client_cpu = time.process_time()
            probe = HostProbe(ops // workload.window // PROBES_PER_RUN)
            started = time.perf_counter()
            drive(conn, wire, warmup, total, workload.window,
                  send_ns, recv_ns, replies, probe)
            run.wall_s = time.perf_counter() - started - probe.spent_s
            run.host_speed = probe.speed
            run.client_cpu_s = (
                time.process_time() - client_cpu - probe.spent_s)
            run.owner_cpu_s = cpu_seconds_of(server.process.pid) - server_cpu
            after = status_counts(server.ask("status"))
            run.peak_rss_bytes = peak_rss_bytes(server.process.pid)
            manifest = server.drain()
    run.counters.update(
        {name: after[name] - before[name] for name in after})
    run.counters["server.drained_clean"] = int(
        manifest["server"]["drained_clean"])

    for seq in range(warmup, total):
        run.latencies_ns.setdefault(events[seq].op, []).append(
            recv_ns[seq] - send_ns[seq])
    run.ops = ops
    run.admits = len(run.latencies_ns.get("admit", ()))

    run.failed, run.decisions = _check_replies(events, replies, run.errors)
    for key in ("server.protocol_errors", "server.internal_errors"):
        if after[key]:
            run.failed += after[key]
            run.errors.append("{} = {}".format(key, after[key]))
    decided = run.counters["core.accepted"] + run.counters["core.rejected"]
    if not decided == run.counters["core.requests"] == run.admits:
        run.failed += 1
        run.errors.append("{} admits sent, {} requests, {} decisions".format(
            run.admits, run.counters["core.requests"], decided))
    reference = inputs.reference.get(total)
    if reference is None:
        # The twin sees exactly what the server saw: same topology
        # file, same scheme, same ops in the same order.  Kept with the
        # inputs: the two runs of a trace pair replay the same ops.
        twin_network = (inputs.network if workload.name == MESH8
                        else load_network(topology))
        reference = inputs.reference[total] = run_sequential_reference(
            DRTPService(twin_network, make_scheme(workload.scheme)), events
        )["decisions"]
    if corrupt_reference:
        reference = [reference[0] ^ 1] + reference[1:]
    mismatches = sum(
        1 for ours, theirs in zip(run.decisions, reference) if ours != theirs
    ) + abs(len(run.decisions) - len(reference))
    if mismatches:
        run.failed += mismatches
        run.errors.append(
            "{} admission decisions differ from the sequential "
            "reference".format(mismatches))
    if trace_path is not None:
        run.spans, trailer = read_ndjson(trace_path)
        run.counters.update(trailer["service"])
        run.missing = trailer["missing"]
        if trailer["invariants"]:
            run.failed += 1
            run.errors.append("invariants: " + trailer["invariants"])
    return run
