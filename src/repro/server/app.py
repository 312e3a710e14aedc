"""ControlPlaneServer — the online DRTP admission service.

Concurrency model
-----------------

One asyncio event loop and one :class:`asyncio.Protocol` per client
connection.  A connection's ``data_received`` answers every complete
request line of the bytes it was handed before it returns: decode,
then apply the mutation (``admit``, ``release``, ``fail_link``,
``repair_link``) or answer the read (``status``, ``metrics``,
``ping``), then encode — in arrival order, with one
``transport.write`` for the whole burst.  No callback awaits, so the
loop runs one burst at a time: the shared
:class:`~repro.core.service.DRTPService` and its
:class:`~repro.network.database.LinkStateDatabase` observe a single
serialized history and need no locks, and a read always sees every
mutation answered before it.

The server routes on a live link-state database only, so a decision
never depends on how the socket stream was split into bursts.

Backpressure is the transport's: a connection whose unread answers
pass the write buffer's high-water mark stops being read until they
drain.

Shutdown
--------

On SIGTERM/SIGINT (or :meth:`request_shutdown`) the server stops
accepting connections and closes every transport — each first flushes
the answers it holds; there is never a request in flight between
callbacks — waits for every connection to be lost, writes the final
metrics manifest, and exits cleanly: the contract the load-generator
drain test enforces.  A client that stops reading cannot hold the
drain: after :data:`DRAIN_GRACE_S` the transports still open are
aborted, their unread answers dropped, and the manifest records
``drained_clean: false``.
"""

from __future__ import annotations

import asyncio
import math
import signal
import socket as socket_module
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from ..durable import write_json_atomic
from ..metrics import ServiceMetrics
from ..network.state import BW_EPSILON
from ..observability import UNTRACED, TraceCollector, write_trace_dir
from . import ops, protocol
from .protocol import ProtocolError, Request

__all__ = ["ControlPlaneServer", "ServerStats"]

#: Manifest schema version.
MANIFEST_VERSION = 1

#: Seconds a drain waits for clients to take their last answers before
#: it aborts the connections still holding unread ones.
DRAIN_GRACE_S = 3.0


@dataclass
class ServerStats:
    """The server's own counts, kept here only: the registry collects
    its ``drtp_server_*`` families from this object when scraped, and
    ``status`` and the final manifest carry :meth:`to_dict`."""

    ops: Dict[str, int] = field(default_factory=dict)
    protocol_errors: int = 0
    internal_errors: int = 0
    connections_total: int = 0
    batches: int = 0
    drained_clean: bool = False

    def record_op(self, op: str) -> None:
        self.ops[op] = self.ops.get(op, 0) + 1

    @property
    def requests_total(self) -> int:
        return sum(self.ops.values())

    def to_dict(self) -> Dict[str, Any]:
        return dict(
            asdict(self),
            requests_total=self.requests_total,
            ops=dict(sorted(self.ops.items())),
        )


class ControlPlaneServer:
    """Serve one DRTP service over NDJSON on TCP or a Unix socket."""

    def __init__(
        self,
        service,
        metrics: Optional[ServiceMetrics] = None,
        *,
        socket_path: Optional[str] = None,
        host: Optional[str] = None,
        port: int = 0,
        manifest_path: Optional[str] = None,
        trace: Optional[TraceCollector] = None,
        trace_dir: Optional[str] = None,
    ) -> None:
        if (socket_path is None) == (host is None):
            raise ValueError(
                "exactly one of socket_path or host must be given"
            )
        if not service.database.live:
            raise ValueError("the server routes on a live database only")
        self.service = service
        if metrics is None:
            metrics = getattr(service, "metrics", None) or ServiceMetrics()
        # Every count lives on the service's counters, so whichever
        # registry this is, a scrape reads the same numbers as
        # ``status``; only the latency histograms need the service to
        # have been built with it.
        self.metrics = metrics.bind_service(service)
        if trace is None and trace_dir is not None:
            # Bounded by default: a long-lived server must not grow its
            # trace without limit (evictions are counted, not silent).
            trace = TraceCollector(max_spans=100_000)
        # Bound here and nowhere below: the service's spans nest under
        # ``server.apply`` because that span is open when the service
        # is called, whatever collector it was built with.
        self.trace = trace
        self.trace_dir = trace_dir
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.manifest_path = manifest_path
        self.stats = ServerStats()

        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()
        self._all_lost = asyncio.Event()
        self._finished = asyncio.Event()
        self._stopping = False
        self._shutdown_started = False
        self._started_monotonic = 0.0
        self._started_wall = 0.0
        self._exit_reason = ""
        self._mutation_handlers = {
            "admit": self._op_admit,
            "release": self._op_release,
            "fail_link": self._op_fail_link,
            "repair_link": self._op_repair_link,
        }
        self._bind_metrics()

    def _bind_metrics(self) -> None:
        """Declare the ``drtp_server_*`` families, each collected from
        :attr:`stats` when scraped."""
        registry, stats = self.metrics.registry, self.stats
        registry.counter(
            "drtp_server_requests_total",
            "protocol requests received", labels=("op",),
        ).collect_with(
            lambda: {(op,): count for op, count in stats.ops.items()}
        )
        for tally, name, help_text in (
            ("protocol_errors", "drtp_server_protocol_errors_total",
             "malformed or invalid protocol requests"),
            ("internal_errors", "drtp_server_internal_errors_total",
             "requests that failed inside the server"),
            ("connections_total", "drtp_server_connections_total",
             "client connections accepted"),
            ("batches", "drtp_server_batches_total",
             "runs of consecutive mutations applied from one burst"),
        ):
            registry.counter(name, help_text).collect_with(
                partial(getattr, stats, tally)
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def endpoint(self) -> str:
        """Human-readable address the server is bound to."""
        if self.socket_path is not None:
            return "unix:{}".format(self.socket_path)
        return "tcp:{}:{}".format(self.host, self.port)

    @property
    def stopping(self) -> bool:
        return self._stopping

    async def start(self) -> None:
        """Bind the listening socket."""
        if self._server is not None:
            raise RuntimeError("server already started")
        loop = asyncio.get_event_loop()
        self._started_monotonic = time.monotonic()
        self._started_wall = time.time()
        if self.socket_path is not None:
            path = Path(self.socket_path)
            if path.exists():
                # A stale socket from a crashed predecessor; a live one
                # would be connectable, so probe before unlinking.
                if _unix_socket_is_live(str(path)):
                    raise RuntimeError(
                        "socket {} is already being served".format(path)
                    )
                path.unlink()
            path.parent.mkdir(parents=True, exist_ok=True)
            self._server = await loop.create_unix_server(
                partial(_Connection, self), path=str(path)
            )
        else:
            self._server = await loop.create_server(
                partial(_Connection, self), host=self.host, port=self.port
            )
            if self.port == 0:
                self.port = self._server.sockets[0].getsockname()[1]

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_event_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    sig, self.request_shutdown, signal.Signals(sig).name
                )
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-Unix event loops

    def request_shutdown(self, reason: str = "requested") -> None:
        """Begin a graceful drain; safe to call from a signal handler
        (idempotent, returns immediately)."""
        if self._shutdown_started:
            return
        self._shutdown_started = True
        self._exit_reason = reason
        asyncio.ensure_future(self.shutdown())

    async def serve_until_shutdown(self, install_signals: bool = True) -> None:
        """Start (if needed), then block until the drain completes."""
        if self._server is None:
            await self.start()
        if install_signals:
            self.install_signal_handlers()
        await self._finished.wait()

    async def shutdown(self) -> None:
        """Graceful drain: refuse new connections, close every client
        connection once its answers are flushed, write the manifest."""
        self._shutdown_started = True
        self._stopping = True
        if self._server is not None:
            self._server.close()
        # Every request received has been answered into its transport
        # (no callback awaits), so closing is all that is left: each
        # transport flushes what it holds, then loses its connection.
        for connection in tuple(self._connections):
            connection.transport.close()
        clean = True
        if self._connections:
            try:
                await asyncio.wait_for(self._all_lost.wait(), DRAIN_GRACE_S)
            except asyncio.TimeoutError:
                clean = False
                for connection in tuple(self._connections):
                    connection.transport.abort()
                await self._all_lost.wait()
        if self._server is not None:
            # Only after the connections are gone: on Python >= 3.12.1
            # wait_closed() blocks until every client connection is
            # closed.
            await self._server.wait_closed()
        self.stats.drained_clean = clean
        if self.socket_path is not None:
            try:
                Path(self.socket_path).unlink()
            except OSError:
                pass
        if self.trace_dir is not None:
            write_trace_dir(self.trace_dir, self.trace, "server")
        if self.manifest_path is not None:
            self.write_manifest(self.manifest_path)
        self._finished.set()

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------
    def manifest(self) -> Dict[str, Any]:
        return {
            "version": MANIFEST_VERSION,
            "endpoint": self.endpoint,
            "scheme": self.service.scheme.name,
            "started_at": self._started_wall,
            "wall_seconds": time.monotonic() - self._started_monotonic,
            "exit_reason": self._exit_reason,
            "server": self.stats.to_dict(),
            "service": dict(
                self.service.counters.to_dict(),
                active_connections=self.service.active_connection_count,
                unprotected=len(self.service.unprotected_ids()),
                pending_backups=len(self.service.pending_backup_ids()),
            ),
            "metrics": self.metrics.registry.snapshot(),
        }

    def write_manifest(self, path: str) -> None:
        """Durable atomic write so a reader never sees a torn manifest."""
        write_json_atomic(path, self.manifest())

    # ------------------------------------------------------------------
    # Answering a burst
    # ------------------------------------------------------------------
    def _answer_burst(self, lines) -> bytes:
        """Answer one burst of request lines, in order, as one payload;
        each run of consecutive mutations (a read ends it) counts as
        one batch.

        With a trace collector bound the burst is a ``server.batch``
        span, each decoded request a ``server.op`` span around its
        answer, and each mutation a ``server.apply`` span inside that:
        the open span the service's own spans nest under."""
        trace = self.trace
        with (
            trace.span("server.batch", category="server", lines=len(lines))
            if trace is not None else UNTRACED
        ) as batch_span:
            out = []
            in_run = False
            for raw in lines:
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    request = protocol.decode_request(
                        raw.decode("utf-8", errors="replace")
                    )
                except ProtocolError as exc:
                    out.append(self._error_response(exc.request_id, exc))
                    continue
                self.stats.record_op(request.op)
                mutates = request.op in protocol.MUTATING_OPS
                if mutates and not in_run:
                    self.stats.batches += 1
                in_run = mutates
                # The label name ``op`` matches the
                # drtp_server_requests_total{op=} metric.
                with (
                    batch_span.child("server.op", "server", op=request.op)
                    if batch_span is not None else UNTRACED
                ) as op_span:
                    ok, encoded = self._answer(request, mutates, op_span)
                    if op_span is not None:
                        op_span.tag(ok=ok)
                out.append(encoded)
            payload = b"".join(out)
            if batch_span is not None:
                batch_span.tag(response_bytes=len(payload))
        return payload

    def _answer(self, request: Request, mutates: bool,
                op_span) -> Tuple[bool, bytes]:
        """``(ok, encoded response)`` of one request.  A failing op (a
        bad argument, a broken gauge collector, a fault inside the
        service) gets its own error answer and never takes the
        connection down: a pipelined client would wait forever for
        the rest of its answers."""
        try:
            if mutates:
                with (
                    op_span.child("server.apply", "server", op=request.op)
                    if op_span is not None else UNTRACED
                ):
                    result = self._mutation_handlers[request.op](request)
            else:
                result = self._apply_read(request)
            return True, protocol.encode_response(request.id, True, result)
        except Exception as exc:
            return False, self._error_response(request.id, exc)

    def _error_response(self, request_id, exc: Exception) -> bytes:
        """The reply to a request that raised, counted: a
        :class:`ProtocolError` is the client's doing and says what
        kind; anything else is ours — ``ERR_INTERNAL``."""
        if isinstance(exc, ProtocolError):
            self.stats.protocol_errors += 1
            return protocol.encode_response(
                request_id, False,
                error_kind=exc.kind, error_message=str(exc),
            )
        self.stats.internal_errors += 1
        return protocol.encode_response(
            request_id, False,
            error_kind=protocol.ERR_INTERNAL, error_message=repr(exc),
        )

    # -- mutating ops ---------------------------------------------------
    def _parse_admit(self, request: Request) -> Dict[str, Any]:
        """Validate an admit's arguments into the canonical args dict
        consumed by :func:`repro.server.ops.apply_admit`."""
        args = request.args
        source = protocol.require_int(args, "source", request.id)
        destination = protocol.require_int(args, "destination", request.id)
        bw = protocol.require_number(args, "bw", request.id)
        num_nodes = self.service.network.num_nodes
        for name, node in (("source", source), ("destination", destination)):
            if not 0 <= node < num_nodes:
                raise ProtocolError(
                    protocol.ERR_BAD_REQUEST,
                    "{} {} outside [0, {})".format(name, node, num_nodes),
                    request.id,
                )
        if source == destination:
            raise ProtocolError(
                protocol.ERR_BAD_REQUEST,
                "source and destination must differ", request.id,
            )
        # Written so that NaN (which JSON decoding accepts) fails.
        if not BW_EPSILON < bw < math.inf:
            raise ProtocolError(
                protocol.ERR_BAD_REQUEST,
                "bw must be finite and above {}".format(BW_EPSILON),
                request.id,
            )
        parsed: Dict[str, Any] = {
            "source": source, "destination": destination, "bw": bw,
        }
        if args.get("hold") is not None:
            parsed["hold"] = protocol.require_number(args, "hold", request.id)
            if not parsed["hold"] > 0:
                raise ProtocolError(protocol.ERR_BAD_REQUEST,
                                    "hold must be positive", request.id)
        if args.get("request_id") is not None:
            parsed["request_id"] = protocol.require_int(
                args, "request_id", request.id
            )
        return parsed

    def _op_admit(self, request: Request) -> Dict[str, Any]:
        return ops.apply_admit(self.service, self._parse_admit(request))

    def _op_release(self, request: Request) -> Dict[str, Any]:
        connection_id = protocol.require_int(
            request.args, "connection", request.id
        )
        return ops.apply_release(self.service, connection_id)

    def _require_link(self, request: Request) -> int:
        link = protocol.require_int(request.args, "link", request.id)
        if not 0 <= link < self.service.network.num_links:
            raise ProtocolError(
                protocol.ERR_BAD_REQUEST,
                "link {} outside [0, {})".format(
                    link, self.service.network.num_links
                ),
                request.id,
            )
        return link

    def _op_fail_link(self, request: Request) -> Dict[str, Any]:
        return ops.apply_fail_link(self.service, self._require_link(request))

    def _op_repair_link(self, request: Request) -> Dict[str, Any]:
        return ops.apply_repair_link(self.service, self._require_link(request))

    # -- read ops -------------------------------------------------------
    def _apply_read(self, request: Request) -> Dict[str, Any]:
        if request.op == "ping":
            return {"pong": True, "draining": self._stopping}
        if request.op == "status":
            return self._op_status()
        return self._op_metrics(request)

    def _op_status(self) -> Dict[str, Any]:
        network = self.service.network
        return {
            "protocol": protocol.PROTOCOL_VERSION,
            "scheme": self.service.scheme.name,
            "nodes": network.num_nodes,
            "links": network.num_links,
            "active_connections": self.service.active_connection_count,
            "unprotected": len(self.service.unprotected_ids()),
            "pending_backups": len(self.service.pending_backup_ids()),
            "draining": self._stopping,
            "uptime_seconds": time.monotonic() - self._started_monotonic,
            "counters": self.service.counters.to_dict(),
            "server": self.stats.to_dict(),
        }

    def _op_metrics(self, request: Request) -> Dict[str, Any]:
        fmt = request.args.get("format", "prometheus")
        if fmt == "prometheus":
            return {
                "format": "prometheus",
                "body": self.metrics.registry.render_prometheus(),
            }
        if fmt == "json":
            return {
                "format": "json",
                "metrics": self.metrics.registry.snapshot(),
            }
        raise ProtocolError(
            protocol.ERR_BAD_REQUEST,
            "metrics format must be 'prometheus' or 'json', got {!r}".format(
                fmt
            ),
            request.id,
        )


class _Connection(asyncio.Protocol):
    """One client connection: the complete lines of each read are
    answered before the callback returns, with one write."""

    def __init__(self, server: ControlPlaneServer) -> None:
        self.server = server
        self.transport = None
        self.buffer = b""

    def connection_made(self, transport) -> None:
        self.transport = transport
        server = self.server
        server._connections.add(self)
        server.stats.connections_total += 1
        if server.stopping:
            transport.close()  # accepted while the drain closed the rest

    def data_received(self, data: bytes) -> None:
        buffer = self.buffer + data
        if b"\n" in data:
            lines = buffer.split(b"\n")
            buffer = lines.pop()  # partial trailing line, if any
            payload = self.server._answer_burst(lines)
            if payload:
                self.transport.write(payload)
        self.buffer = buffer
        if len(buffer) > protocol.MAX_LINE_BYTES:
            # Still no newline: answer once and hang up rather than
            # buffer whatever else the peer sends.
            self.buffer = b""
            self.server.stats.protocol_errors += 1
            self.transport.write(protocol.encode_response(
                None, False,
                error_kind=protocol.ERR_BAD_REQUEST,
                error_message="request line exceeds {} bytes".format(
                    protocol.MAX_LINE_BYTES
                ),
            ))
            self.transport.close()

    # Answers pile up unread: take no more requests until they drain.
    def pause_writing(self) -> None:
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.transport.resume_reading()

    def connection_lost(self, exc) -> None:
        server = self.server
        server._connections.discard(self)
        if server.stopping and not server._connections:
            server._all_lost.set()


def _unix_socket_is_live(path: str) -> bool:
    """True when something is actually accepting on the socket."""
    probe = socket_module.socket(
        socket_module.AF_UNIX, socket_module.SOCK_STREAM
    )
    try:
        probe.settimeout(0.25)
        probe.connect(path)
        return True
    except OSError:
        return False
    finally:
        probe.close()
