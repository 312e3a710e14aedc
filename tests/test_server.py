"""Tests for the online control-plane server.

Protocol unit tests, in-process server round-trips over a Unix
socket, error handling for malformed input, batch counting, graceful
drain, and the SIGTERM-during-load subprocess integration test.
"""

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core import DRTPService
from repro.metrics import parse_prometheus_text
from repro.routing import DLSRScheme, PLSRScheme
from repro.server import (
    ControlPlaneServer,
    ProtocolError,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)
from repro.server import app as app_module
from repro.server import protocol
from repro.topology import mesh_network


class TestProtocol:
    def test_request_round_trip(self):
        wire = encode_request(
            "admit", {"source": 0, "destination": 5, "bw": 1.0},
            request_id=7,
        )
        assert wire.endswith(b"\n")
        request = decode_request(wire.decode())
        assert request.op == "admit"
        assert request.id == 7
        assert request.args["destination"] == 5

    def test_response_round_trip(self):
        wire = encode_response(3, True, {"accepted": True})
        rid, ok, body = decode_response(wire.decode())
        assert (rid, ok) == (3, True)
        assert body == {"accepted": True}
        wire = encode_response(3, False, error_kind=protocol.ERR_BAD_REQUEST,
                               error_message="nope")
        rid, ok, body = decode_response(wire.decode())
        assert not ok
        assert body["type"] == protocol.ERR_BAD_REQUEST

    def test_decode_errors_carry_kind(self):
        with pytest.raises(ProtocolError) as exc:
            decode_request("{not json")
        assert exc.value.kind == protocol.ERR_BAD_JSON
        with pytest.raises(ProtocolError) as exc:
            decode_request('["a", "list"]')
        assert exc.value.kind == protocol.ERR_BAD_REQUEST
        with pytest.raises(ProtocolError) as exc:
            decode_request('{"op": "explode", "id": 9}')
        assert exc.value.kind == protocol.ERR_UNKNOWN_OP
        assert exc.value.request_id == 9  # still correlatable
        with pytest.raises(ProtocolError) as exc:
            decode_request('{"op": "admit", "args": []}')
        assert exc.value.kind == protocol.ERR_BAD_REQUEST

    def test_deep_nesting_is_bad_json(self):
        # The decoder gives up on nesting with a RecursionError, which
        # is no ValueError.
        with pytest.raises(ProtocolError) as exc:
            decode_request("[" * 50000)
        assert exc.value.kind == protocol.ERR_BAD_JSON

    def test_require_int_rejects_bools_and_floats(self):
        with pytest.raises(ProtocolError):
            protocol.require_int({"n": True}, "n", None)
        with pytest.raises(ProtocolError):
            protocol.require_int({"n": 1.5}, "n", None)
        with pytest.raises(ProtocolError):
            protocol.require_int({}, "n", None)
        assert protocol.require_int({"n": 4}, "n", None) == 4

    def test_require_number_rejects_bools(self):
        with pytest.raises(ProtocolError):
            protocol.require_number({"x": False}, "x", None)
        assert protocol.require_number({"x": 2}, "x", None) == 2.0

    def test_every_op_is_classified(self):
        assert protocol.MUTATING_OPS | protocol.READ_OPS == protocol.OPS
        assert not protocol.MUTATING_OPS & protocol.READ_OPS


# ----------------------------------------------------------------------
# In-process round-trips
# ----------------------------------------------------------------------
def run_session(tmp_path, raw_lines, *, scheme=None, before_close=None):
    """Serve a 4x4 mesh on a Unix socket, write ``raw_lines`` as one
    pipelined burst, read one response per line, shut down.  Returns
    ``(responses, server)`` where responses are decoded
    ``(id, ok, body)`` tuples in order."""

    async def _run():
        net = mesh_network(4, 4, 10.0)
        service = DRTPService(
            net, scheme if scheme is not None else DLSRScheme()
        )
        sock = str(tmp_path / "ctl.sock")
        server = ControlPlaneServer(service, socket_path=sock)
        await server.start()
        reader, writer = await asyncio.open_unix_connection(sock)
        writer.write(b"".join(raw_lines))
        await writer.drain()
        responses = []
        for _ in raw_lines:
            line = await reader.readline()
            responses.append(decode_response(line.decode()))
        if before_close is not None:
            await before_close(server, reader, writer)
        writer.close()
        await server.shutdown()
        return responses, server

    return asyncio.run(_run())


class TestServerRoundTrips:
    def test_admit_release_cycle(self, tmp_path):
        responses, server = run_session(tmp_path, [
            encode_request("admit", {"source": 0, "destination": 15,
                                     "bw": 1.0}, request_id=1),
            encode_request("status", request_id=2),
            encode_request("release", {"connection": 0}, request_id=3),
            encode_request("release", {"connection": 0}, request_id=4),
        ])
        (rid1, ok1, admit), (_, ok2, status), (_, ok3, rel), \
            (_, ok4, rel_again) = responses
        assert (rid1, ok1, ok2, ok3, ok4) == (1, True, True, True, True)
        assert admit["accepted"] and admit["connection"] == 0
        assert admit["primary_hops"] >= 1
        assert status["active_connections"] == 1
        assert status["counters"]["accepted"] == 1
        assert rel == {"released": True, "connection": 0}
        # Releasing again is a domain outcome, not a protocol error.
        assert rel_again == {"released": False, "connection": 0}
        assert server.stats.protocol_errors == 0

    def test_fail_and_repair_link(self, tmp_path):
        responses, server = run_session(tmp_path, [
            encode_request("admit", {"source": 0, "destination": 15,
                                     "bw": 1.0}, request_id=1),
            encode_request("fail_link", {"link": 0}, request_id=2),
            encode_request("repair_link", {"link": 0}, request_id=3),
            encode_request("repair_link", {"link": 0}, request_id=4),
        ])
        _, (_, ok2, failed), (_, ok3, repaired), (_, ok4, again) = responses
        assert ok2 and ok3 and ok4
        assert failed["link"] == 0
        assert repaired == {"link": 0, "repaired": True, "was_failed": True}
        assert again == {"link": 0, "repaired": True, "was_failed": False}

    def test_ping_and_metrics(self, tmp_path):
        responses, _ = run_session(tmp_path, [
            encode_request("ping", request_id="p"),
            encode_request("metrics", request_id="m"),
            encode_request("metrics", {"format": "json"}, request_id="j"),
        ])
        (_, ok1, pong), (_, ok2, prom), (_, ok3, js) = responses
        assert ok1 and pong == {"pong": True, "draining": False}
        assert ok2 and prom["format"] == "prometheus"
        families = parse_prometheus_text(prom["body"])
        assert "drtp_server_requests_total" in families
        assert ok3 and js["format"] == "json"
        assert "drtp_server_requests_total" in js["metrics"]

    def test_protocol_errors_answered_not_fatal(self, tmp_path):
        responses, server = run_session(tmp_path, [
            b"this is not json\n",
            encode_request("metrics", {"format": "xml"}, request_id=2),
            b'{"op": "warp", "id": 3}\n',
            encode_request("admit", {"source": 0, "destination": 99,
                                     "bw": 1.0}, request_id=4),
            encode_request("admit", {"source": 0, "destination": 0,
                                     "bw": 1.0}, request_id=5),
            encode_request("admit", {"source": 0, "destination": 15,
                                     "bw": -1.0}, request_id=6),
            encode_request("admit", {"source": True, "destination": 15,
                                     "bw": 1.0}, request_id=7),
            encode_request("release", {}, request_id=8),
            encode_request("fail_link", {"link": 10_000}, request_id=9),
            encode_request("ping", request_id=10),  # server still alive
        ])
        kinds = [body.get("type") for _, ok, body in responses if not ok]
        assert kinds == [
            protocol.ERR_BAD_JSON,
            protocol.ERR_BAD_REQUEST,   # metrics format
            protocol.ERR_UNKNOWN_OP,
            protocol.ERR_BAD_REQUEST,   # destination out of range
            protocol.ERR_BAD_REQUEST,   # source == destination
            protocol.ERR_BAD_REQUEST,   # bw <= 0
            protocol.ERR_BAD_REQUEST,   # bool source
            protocol.ERR_BAD_REQUEST,   # missing connection
            protocol.ERR_BAD_REQUEST,   # link out of range
        ]
        rid, ok, pong = responses[-1]
        assert (rid, ok) == (10, True) and pong["pong"]
        assert server.stats.protocol_errors == 9
        assert server.stats.internal_errors == 0

    def test_oversized_line_answered_and_connection_closed(self, tmp_path):
        # A peer that never sends a newline must not make the server
        # buffer without bound: past the cap it is answered once and
        # hung up on, and nobody else notices.
        async def _run():
            net = mesh_network(4, 4, 10.0)
            sock = str(tmp_path / "ctl.sock")
            server = ControlPlaneServer(
                DRTPService(net, DLSRScheme()), socket_path=sock
            )
            await server.start()
            other_reader, other_writer = await asyncio.open_unix_connection(
                sock
            )

            def flood():
                # A blocking client: the kernel hands it the queued
                # answer before the reset its unread bytes provoke.
                received = b""
                with socket.socket(socket.AF_UNIX) as client:
                    client.settimeout(10)
                    client.connect(sock)
                    try:
                        client.sendall(b"x" * (2 * protocol.MAX_LINE_BYTES))
                    except (BrokenPipeError, ConnectionResetError):
                        pass  # the server hung up before taking it all
                    try:
                        while True:
                            data = client.recv(65536)
                            if not data:
                                break
                            received += data
                    except ConnectionResetError:
                        pass
                return received

            received = await asyncio.get_event_loop().run_in_executor(
                None, flood
            )
            # The same server still parses a long-but-legal line ...
            padded = json.dumps({
                "op": "admit", "id": 1,
                "args": {"source": 0, "destination": 15, "bw": 1.0,
                         "pad": "p" * (512 * 1024)},
            }).encode() + b"\n"
            other_writer.write(padded + encode_request("ping", request_id=2))
            await other_writer.drain()
            admit = decode_response(
                (await asyncio.wait_for(other_reader.readline(), 10)).decode()
            )
            pong = decode_response(
                (await asyncio.wait_for(other_reader.readline(), 10)).decode()
            )
            other_writer.close()
            await server.shutdown()
            return received, admit, pong, server

        received, admit, pong, server = asyncio.run(_run())
        # Closed after exactly one answer.
        assert received.count(b"\n") == 1 and received.endswith(b"\n")
        rid, ok, body = decode_response(received.decode())
        assert (rid, ok) == (None, False)
        assert body["type"] == protocol.ERR_BAD_REQUEST
        assert admit[:2] == (1, True) and admit[2]["accepted"]
        assert pong[:2] == (2, True) and pong[2]["pong"]
        assert server.stats.protocol_errors == 1
        assert server.stats.drained_clean

    def test_deeply_nested_line_answered_connection_kept(self, tmp_path):
        # A line nested past the decoder's recursion limit is answered
        # like any other bad JSON, and the same connection is served on.
        async def _run():
            net = mesh_network(4, 4, 10.0)
            sock = str(tmp_path / "ctl.sock")
            server = ControlPlaneServer(
                DRTPService(net, DLSRScheme()), socket_path=sock
            )
            await server.start()
            reader, writer = await asyncio.open_unix_connection(sock)
            writer.write(
                b"[" * 50000 + b"\n" + encode_request("ping", request_id=2)
            )
            await writer.drain()
            answers = [
                decode_response(
                    (await asyncio.wait_for(reader.readline(), 10)).decode()
                )
                for _ in range(2)
            ]
            writer.close()
            await server.shutdown()
            return answers, server

        ((rid1, ok1, error), (rid2, ok2, pong)), server = asyncio.run(_run())
        assert (rid1, ok1) == (None, False)
        assert error["type"] == protocol.ERR_BAD_JSON
        assert (rid2, ok2) == (2, True) and pong["pong"]
        assert server.stats.protocol_errors == 1
        assert server.stats.internal_errors == 0

    def test_read_op_internal_error_answered_not_fatal(self, tmp_path):
        # A failing gauge collector must surface as an ERR_INTERNAL
        # response, not kill the handler task and strand the rest of
        # the pipelined burst.
        async def _run():
            net = mesh_network(4, 4, 10.0)
            service = DRTPService(net, DLSRScheme())
            sock = str(tmp_path / "ctl.sock")
            server = ControlPlaneServer(service, socket_path=sock)

            def explode():
                raise RuntimeError("collector broke")

            server.metrics.registry.gauge(
                "broken_gauge", "always raises"
            ).collect_with(explode)
            await server.start()
            reader, writer = await asyncio.open_unix_connection(sock)
            writer.write(b"".join([
                encode_request("metrics", request_id=1),
                encode_request("ping", request_id=2),
            ]))
            await writer.drain()
            first = decode_response((await reader.readline()).decode())
            second = decode_response((await reader.readline()).decode())
            writer.close()
            await server.shutdown()
            return first, second, server

        (rid1, ok1, body1), (rid2, ok2, pong), server = asyncio.run(_run())
        assert (rid1, ok1) == (1, False)
        assert body1["type"] == protocol.ERR_INTERNAL
        assert (rid2, ok2) == (2, True) and pong["pong"]
        assert server.stats.internal_errors == 1
        assert server.stats.protocol_errors == 0

    def test_pipelined_burst_preserves_order_and_coalesces(self, tmp_path):
        lines = [
            encode_request(
                "admit",
                {"source": i, "destination": 15 - i, "bw": 0.5,
                 "request_id": i},
                request_id=i,
            )
            for i in range(8)
        ] + [encode_request("status", request_id=99)]
        responses, server = run_session(tmp_path, lines, scheme=PLSRScheme())
        rids = [rid for rid, _, _ in responses]
        assert rids == list(range(8)) + [99]
        accepted = [body for _, ok, body in responses[:-1]
                    if ok and body.get("accepted")]
        assert len(accepted) == 8
        # connection_id == request_id: pipelined clients rely on it.
        assert [body["connection"] for body in accepted] == list(range(8))
        status = responses[-1][2]
        assert status["counters"]["accepted"] == 8
        # One burst's run of eight admissions is one batch.
        assert server.stats.batches == 1

    def test_snapshot_database_is_refused(self):
        service = DRTPService(mesh_network(4, 4, 10.0), DLSRScheme(),
                              live_database=False)
        with pytest.raises(ValueError, match="live database"):
            ControlPlaneServer(service, socket_path="unused.sock")

    def test_status_reports_draining_during_shutdown(self, tmp_path):
        async def _run():
            net = mesh_network(4, 4, 10.0)
            service = DRTPService(net, DLSRScheme())
            sock = str(tmp_path / "ctl.sock")
            server = ControlPlaneServer(service, socket_path=sock)
            await server.start()
            reader, writer = await asyncio.open_unix_connection(sock)
            writer.write(encode_request("ping", request_id=1))
            await writer.drain()
            await reader.readline()
            shutdown = asyncio.ensure_future(server.shutdown())
            await shutdown
            # The drain closed our idle connection and removed the
            # socket; new connections must be refused.
            assert await reader.read() == b""
            writer.close()
            await writer.wait_closed()
            assert not (tmp_path / "ctl.sock").exists()
            with pytest.raises((ConnectionRefusedError, FileNotFoundError)):
                await asyncio.open_unix_connection(sock)
            return server

        server = asyncio.run(_run())
        assert server.stats.drained_clean

    def test_manifest_written_and_complete(self, tmp_path):
        manifest_path = tmp_path / "out" / "manifest.json"

        async def _run():
            net = mesh_network(4, 4, 10.0)
            service = DRTPService(net, DLSRScheme())
            sock = str(tmp_path / "ctl.sock")
            server = ControlPlaneServer(
                service, socket_path=sock,
                manifest_path=str(manifest_path),
            )
            await server.start()
            reader, writer = await asyncio.open_unix_connection(sock)
            writer.write(encode_request(
                "admit", {"source": 0, "destination": 15, "bw": 1.0},
                request_id=1,
            ))
            await writer.drain()
            await reader.readline()
            writer.close()
            server.request_shutdown("test")
            await server._finished.wait()

        asyncio.run(_run())
        manifest = json.loads(manifest_path.read_text())
        assert manifest["version"] == 1
        assert manifest["exit_reason"] == "test"
        assert manifest["server"]["drained_clean"]
        assert manifest["service"]["accepted"] == 1
        assert manifest["service"]["acceptance_ratio"] == 1.0
        assert "drtp_admissions_total" in manifest["metrics"]

    def test_manifest_temp_file_is_fsynced_before_replace(
        self, tmp_path, monkeypatch
    ):
        # A crash between the rename and the data reaching the disk
        # must not leave the manifest's name on an empty file: the
        # temp file's bytes are fsynced before os.replace publishes it.
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            events.append(("fsync", os.fstat(fd).st_ino))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", os.stat(src).st_ino))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        server = ControlPlaneServer(
            DRTPService(mesh_network(2, 2, 10.0), DLSRScheme()),
            socket_path=str(tmp_path / "ctl.sock"),
        )
        manifest_path = tmp_path / "manifest.json"
        server.write_manifest(str(manifest_path))
        replaced = [ino for kind, ino in events if kind == "replace"]
        assert len(replaced) == 1
        assert events.index(("fsync", replaced[0])) < events.index(
            ("replace", replaced[0])
        )
        assert json.loads(manifest_path.read_text())["version"] == 1
        assert list(tmp_path.iterdir()) == [manifest_path]

    def test_status_and_manifest_carry_what_the_harness_reads(self, tmp_path):
        # benchmarks/e2e/ledger.py:status_counts indexes these keys by
        # name on every serve-* workload; there is one server, so no
        # answer has a per-deployment section.
        responses, server = run_session(tmp_path, [
            encode_request("admit", {"source": 0, "destination": 15,
                                     "bw": 1.0}, request_id=1),
            encode_request("admit", {"source": 0, "destination": 15,
                                     "bw": 99.0}, request_id=2),
            encode_request("release", {"connection": 0}, request_id=3),
            b"not json\n",
            encode_request("status", request_id=4),
        ])
        status = responses[-1][2]
        counters = status["counters"]
        assert (
            counters["requests"], counters["accepted"],
            sum(counters["rejected"].values()), counters["released"],
            counters["degraded_admissions"],
        ) == (2, 1, 1, 1, 0)
        stats = status["server"]
        assert stats["ops"] == {"admit": 2, "release": 1, "status": 1}
        assert stats["batches"] >= 1
        assert (stats["protocol_errors"], stats["internal_errors"]) == (1, 0)
        manifest = server.manifest()
        assert manifest["server"]["drained_clean"] is True
        assert "cluster" not in status and "cluster" not in manifest

    def test_scrape_equals_status_without_a_service_registry(self, tmp_path):
        # The service was built without metrics=: its counts are still
        # kept, once, so the server's scrape and its status agree.
        responses, _ = run_session(tmp_path, [
            encode_request("admit", {"source": 0, "destination": 15,
                                     "bw": 1.0}, request_id=1),
            encode_request("admit", {"source": 0, "destination": 15,
                                     "bw": 99.0}, request_id=2),
            encode_request("admit", {"source": 1, "destination": 14,
                                     "bw": 1.0}, request_id=3),
            encode_request("release", {"connection": 0}, request_id=4),
            encode_request("metrics", request_id=5),
            encode_request("status", request_id=6),
        ])
        families = parse_prometheus_text(responses[-2][2]["body"])
        counters = responses[-1][2]["counters"]

        def scraped(name):
            return {
                tuple(sorted(sample.labels.items())): sample.value
                for sample in families[name]["samples"]
            }

        assert scraped("drtp_admissions_total") == {
            (("scheme", "D-LSR"),): counters["accepted"]
        }
        assert counters["accepted"] == 2
        assert scraped("drtp_rejections_total") == {
            (("reason", reason), ("scheme", "D-LSR")): count
            for reason, count in counters["rejected"].items()
        }
        assert sum(counters["rejected"].values()) == 1
        assert scraped("drtp_releases_total") == {
            (("scheme", "D-LSR"),): counters["released"]
        }
        assert counters["released"] == 1
        assert scraped("drtp_acceptance_ratio") == {
            (("scheme", "D-LSR"),): counters["acceptance_ratio"]
        }
        assert scraped("drtp_server_internal_errors_total") == {(): 0.0}
        assert scraped("drtp_server_batches_total")[()] >= 1.0

    def test_stale_socket_replaced_live_socket_refused(self, tmp_path):
        async def _run():
            sock = str(tmp_path / "ctl.sock")
            Path(sock).touch()  # stale non-socket leftover
            net = mesh_network(3, 3, 10.0)
            first = ControlPlaneServer(
                DRTPService(net, DLSRScheme()), socket_path=sock
            )
            await first.start()  # replaces the stale file
            second = ControlPlaneServer(
                DRTPService(net, DLSRScheme()), socket_path=sock
            )
            with pytest.raises(RuntimeError):
                await second.start()  # live socket must be refused
            await first.shutdown()

        asyncio.run(_run())

    def test_requires_exactly_one_endpoint(self):
        net = mesh_network(3, 3, 10.0)
        service = DRTPService(net, DLSRScheme())
        with pytest.raises(ValueError):
            ControlPlaneServer(service)
        with pytest.raises(ValueError):
            ControlPlaneServer(
                service, socket_path="/tmp/x.sock", host="127.0.0.1"
            )

    def test_tcp_ephemeral_port_resolved(self, tmp_path):
        async def _run():
            net = mesh_network(3, 3, 10.0)
            server = ControlPlaneServer(
                DRTPService(net, DLSRScheme()),
                host="127.0.0.1", port=0,
            )
            await server.start()
            assert server.port != 0
            assert server.endpoint == "tcp:127.0.0.1:{}".format(server.port)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(encode_request("ping", request_id=1))
            await writer.drain()
            rid, ok, body = decode_response(
                (await reader.readline()).decode()
            )
            assert ok and body["pong"]
            writer.close()
            await server.shutdown()

        asyncio.run(_run())


# ----------------------------------------------------------------------
# The hostile protocol edge: each case leaves a server that serves on
# ----------------------------------------------------------------------
def serve_hostile(tmp_path, hostile):
    """Serve a 4x4 mesh, run ``hostile(server, sock)``, then require a
    fresh client to be served with no internal error on the scrape.
    Returns ``(hostile's result, server)``."""

    async def _run():
        sock = str(tmp_path / "edge.sock")
        server = ControlPlaneServer(
            DRTPService(mesh_network(4, 4, 10.0), DLSRScheme()),
            socket_path=sock,
        )
        await server.start()
        result = await hostile(server, sock)
        reader, writer = await asyncio.open_unix_connection(sock)
        writer.write(encode_request("ping", request_id="fresh")
                     + encode_request("metrics", request_id="scrape"))
        await writer.drain()
        pong, scrape = [
            decode_response(
                (await asyncio.wait_for(reader.readline(), 10)).decode()
            )
            for _ in range(2)
        ]
        writer.close()
        await server.shutdown()
        assert pong[:2] == ("fresh", True) and pong[2]["pong"]
        families = parse_prometheus_text(scrape[2]["body"])
        (sample,) = families["drtp_server_internal_errors_total"]["samples"]
        assert sample.value == 0.0
        assert server.stats.drained_clean
        return result, server

    return asyncio.run(_run())


class TestHostileEdge:
    def test_non_utf8_line_is_bad_json(self, tmp_path):
        async def hostile(server, sock):
            reader, writer = await asyncio.open_unix_connection(sock)
            writer.write(b"\xff\xfe\x80 not text\n"
                         + encode_request("ping", request_id=2))
            await writer.drain()
            answers = [
                decode_response(
                    (await asyncio.wait_for(reader.readline(), 10)).decode()
                )
                for _ in range(2)
            ]
            writer.close()
            return answers

        ((rid1, ok1, error), (rid2, ok2, pong)), server = serve_hostile(
            tmp_path, hostile
        )
        assert (rid1, ok1) == (None, False)
        assert error["type"] == protocol.ERR_BAD_JSON
        assert (rid2, ok2) == (2, True) and pong["pong"]
        assert server.stats.protocol_errors == 1

    def test_close_mid_line_applies_complete_lines(self, tmp_path):
        admit = {"source": 0, "destination": 15, "bw": 1.0}

        async def hostile(server, sock):
            _, writer = await asyncio.open_unix_connection(sock)
            writer.write(
                encode_request("admit", admit, request_id=1)
                + encode_request("admit", admit, request_id=2)
                + encode_request("admit", admit, request_id=3)[:20]
            )
            await writer.drain()
            writer.close()  # gone mid-line, replies unread
            counters = server.service.counters
            for _ in range(200):
                if counters.requests == 2:
                    break
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.1)  # nothing more arrives
            return counters.to_dict()

        counters, server = serve_hostile(tmp_path, hostile)
        assert (counters["requests"], counters["accepted"]) == (2, 2)
        assert server.stats.ops.get("admit") == 2
        assert server.stats.protocol_errors == 0

    def test_slow_reader_stalls_then_gets_every_reply_in_order(
        self, tmp_path
    ):
        # Each request is padded to about 2 KB and each answer is a
        # full Prometheus body (about 9 KB), so the answers outgrow the
        # socket buffers long before the requests run out.
        count = 600
        pad = "p" * 2000
        burst = b"".join(
            encode_request("metrics", {"pad": pad}, request_id=i)
            for i in range(count)
        )

        async def hostile(server, sock):
            loop = asyncio.get_event_loop()
            client = socket.socket(socket.AF_UNIX)
            client.settimeout(30)
            client.connect(sock)
            sending = loop.run_in_executor(None, client.sendall, burst)
            # The server stops taking requests while its answers pile
            # up unread.
            seen, still = -1, 0
            while still < 5:
                await asyncio.sleep(0.05)
                now = server.stats.requests_total
                still = still + 1 if now == seen else 0
                seen = now
            stalled = seen

            def read_all():
                received = b""
                while received.count(b"\n") < count:
                    data = client.recv(1 << 16)
                    if not data:
                        break
                    received += data
                return received

            received = await loop.run_in_executor(None, read_all)
            await sending
            client.close()
            return stalled, received

        (stalled, received), server = serve_hostile(tmp_path, hostile)
        assert 0 < stalled < count
        answers = [
            decode_response(line.decode())
            for line in received.split(b"\n") if line
        ]
        assert [rid for rid, _, _ in answers] == list(range(count))
        assert all(ok for _, ok, _ in answers)
        assert server.stats.ops["metrics"] == count + 1  # + the scrape


    def test_stuck_reader_cannot_hold_the_drain(self, tmp_path):
        # 300 answers of about 9 KB each outgrow the socket buffers, so
        # the server still holds unread answers when the drain starts.
        count = 300
        burst = b"".join(
            encode_request("metrics", request_id=i) for i in range(count)
        )
        manifest_path = tmp_path / "manifest.json"

        async def _run():
            sock = str(tmp_path / "stuck.sock")
            server = ControlPlaneServer(
                DRTPService(mesh_network(4, 4, 10.0), DLSRScheme()),
                socket_path=sock, manifest_path=str(manifest_path),
            )
            await server.start()
            client = socket.socket(socket.AF_UNIX)
            client.connect(sock)
            client.sendall(burst)  # about 12 KB: fits the socket buffer
            try:
                while not server.stats.ops.get("metrics"):
                    await asyncio.sleep(0.01)
                started = time.monotonic()
                await asyncio.wait_for(
                    server.shutdown(), app_module.DRAIN_GRACE_S + 5
                )
                return server, time.monotonic() - started
            finally:
                client.close()

        server, took = asyncio.run(_run())
        assert took >= app_module.DRAIN_GRACE_S - 0.1  # the grace was given
        assert not server.stats.drained_clean
        manifest = json.loads(manifest_path.read_text())
        assert manifest["server"]["drained_clean"] is False


# ----------------------------------------------------------------------
# SIGTERM integration: drain under active load, exit 0, full manifest
# ----------------------------------------------------------------------
class TestSigtermDrain:
    def test_sigterm_during_load_drains_and_writes_manifest(self, tmp_path):
        sock = tmp_path / "serve.sock"
        manifest_path = tmp_path / "manifest.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parent.parent / "src"
        )
        serve = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--socket", str(sock),
                "--rows", "4", "--cols", "4",
                "--manifest", str(manifest_path),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            deadline = time.monotonic() + 20
            while not sock.exists():
                assert serve.poll() is None, serve.stdout.read()
                assert time.monotonic() < deadline, "socket never appeared"
                time.sleep(0.05)

            # Keep load flowing while the signal lands: the loadtest
            # pipelines admissions over the socket the whole time.
            load = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "loadtest",
                    "--socket", str(sock),
                    "--rate", "200", "--duration", "30", "--seed", "3",
                ],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
            )
            time.sleep(1.5)  # let admissions start
            assert serve.poll() is None
            serve.send_signal(signal.SIGTERM)
            out, _ = serve.communicate(timeout=20)
            load.communicate(timeout=30)
        finally:
            for proc in (serve, load):
                if proc.poll() is None:
                    proc.kill()
                    proc.communicate()

        assert serve.returncode == 0, out
        assert not sock.exists()  # unlinked on drain
        manifest = json.loads(manifest_path.read_text())
        assert manifest["exit_reason"] == "SIGTERM"
        assert manifest["server"]["drained_clean"]
        assert manifest["server"]["protocol_errors"] == 0
        assert manifest["service"]["accepted"] > 0
        assert "drtp_admissions_total" in manifest["metrics"]
