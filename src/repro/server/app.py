"""ControlPlaneServer — the online DRTP admission service.

Concurrency model
-----------------

One asyncio event loop, one **writer task**.  Client connections are
handled concurrently, but every mutating operation (``admit``,
``release``, ``fail_link``, ``repair_link``) is enqueued onto a single
mutation queue and applied by the writer task in arrival order — the
shared :class:`~repro.core.service.DRTPService` and its
:class:`~repro.network.database.LinkStateDatabase` are only ever
touched from that one task, so the deterministic, synchronous core
needs no locks and observes a single serialized history.  Read
operations (``status``, ``metrics``, ``ping``) are answered directly
from the connection handler: the loop never yields mid-mutation, so
reads are always consistent.

The writer drains the queue in batches and performs at most **one**
link-state refresh per batch (snapshot-mode databases re-flood before
admissions route; back-to-back admissions in one batch share the
refresh instead of each paying for its own) — the
``drtp_server_db_refreshes_coalesced_total`` counter records how many
redundant re-floods this saves.

Shutdown
--------

On SIGTERM/SIGINT (or :meth:`request_shutdown`) the server stops
accepting connections, lets every in-flight request finish and be
answered, drains the mutation queue, closes client connections, writes
the final metrics manifest, and exits cleanly — the contract the
load-generator drain test enforces.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket as socket_module
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from ..metrics import ServiceMetrics
from ..observability import UNTRACED, TraceCollector, write_trace_dir
from . import ops, protocol
from .protocol import ProtocolError, Request

__all__ = ["ControlPlaneServer", "ServerStats"]

_SENTINEL = object()


class _ClientState:
    """Per-connection drain bookkeeping."""

    __slots__ = ("writer", "busy")

    def __init__(self, writer) -> None:
        self.writer = writer
        self.busy = False

#: Manifest schema version.
MANIFEST_VERSION = 1


@dataclass
class ServerStats:
    """The server's own counts, kept here only: the registry collects
    its ``drtp_server_*`` families from this object when scraped, and
    ``status`` and the final manifest carry :meth:`to_dict`."""

    ops: Dict[str, int] = field(default_factory=dict)
    protocol_errors: int = 0
    internal_errors: int = 0
    connections_total: int = 0
    refreshes: int = 0
    refreshes_coalesced: int = 0
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
        # the writer's ``server.apply`` because that span is open when
        # the service is called, whatever collector it was built with.
        self.trace = trace
        self.trace_dir = trace_dir
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.manifest_path = manifest_path
        self.stats = ServerStats()

        self._server: Optional[asyncio.AbstractServer] = None
        self._mutations: "asyncio.Queue" = asyncio.Queue()
        self._writer_task: Optional[asyncio.Task] = None
        self._client_tasks: set = set()
        self._clients: set = set()
        self._finished = asyncio.Event()
        self._stopping = False
        self._shutdown_started = False
        self._started_monotonic = 0.0
        self._started_wall = 0.0
        self._exit_reason = ""
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._mutation_handlers = {
            "admit": self._op_admit,
            "release": self._op_release,
            "fail_link": self._op_fail_link,
            "repair_link": self._op_repair_link,
        }
        self._bind_metrics()

    def _bind_metrics(self) -> None:
        """Declare the ``drtp_server_*`` families, each collected from
        :attr:`stats` (or the mutation queue) when scraped."""
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
             "mutation batches drained by the writer task"),
            ("refreshes", "drtp_server_db_refreshes_total",
             "link-state refreshes run ahead of a batch's admissions "
             "(snapshot-mode databases only)"),
            ("refreshes_coalesced",
             "drtp_server_db_refreshes_coalesced_total",
             "redundant link-state refreshes avoided by batch coalescing"),
        ):
            registry.counter(name, help_text).collect_with(
                partial(getattr, stats, tally)
            )
        registry.gauge(
            "drtp_server_mutation_queue_depth",
            "mutations queued for the writer task",
        ).collect_with(self._mutations.qsize)

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
        """Bind the listening socket and start the writer task."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._loop = asyncio.get_event_loop()
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
            self._server = await asyncio.start_unix_server(
                self._handle_client, path=str(path)
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_client, host=self.host, port=self.port
            )
            if self.port == 0:
                self.port = self._server.sockets[0].getsockname()[1]
        self._writer_task = asyncio.ensure_future(self._writer_loop())

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
        """Graceful drain: refuse new connections, finish in-flight
        requests, drain the mutation queue, write the manifest."""
        self._shutdown_started = True
        self._stopping = True
        if self._server is not None:
            self._server.close()
        # Wake handlers parked in read() by closing their (idle)
        # transports; this loop runs without awaiting, so a handler
        # cannot become busy between the check and the close.  Busy
        # handlers keep their sockets: they finish the request they
        # are processing (the still-running writer task resolves its
        # queued mutation), answer it, then exit their read loop.
        for client in list(self._clients):
            if not client.busy:
                client.writer.close()
        if self._client_tasks:
            await asyncio.gather(
                *tuple(self._client_tasks), return_exceptions=True
            )
        if self._server is not None:
            # Only after the handlers are done: on Python >= 3.12.1
            # wait_closed() blocks until every client connection is
            # closed, so awaiting it before waking idle handlers would
            # deadlock the drain on any idle-but-connected client.
            await self._server.wait_closed()
        await self._mutations.put(_SENTINEL)
        if self._writer_task is not None:
            await self._writer_task
        self.stats.drained_clean = self._mutations.empty()
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
        """Atomic write so a reader never sees a torn manifest."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        tmp = target.with_name(target.name + ".tmp")
        tmp.write_text(json.dumps(self.manifest(), indent=2, sort_keys=True))
        os.replace(tmp, target)

    # ------------------------------------------------------------------
    # Client handling
    # ------------------------------------------------------------------
    async def _handle_client(self, reader, writer) -> None:
        task = asyncio.current_task()
        state = _ClientState(writer)
        self._client_tasks.add(task)
        self._clients.add(state)
        self.stats.connections_total += 1
        buffer = b""
        try:
            # Chunked reads instead of per-line reads: a pipelined
            # burst arrives as one chunk, is dispatched as one batch
            # (whose mutations the writer task then drains — and
            # refresh-coalesces — together), and is answered with one
            # write.  Drain wake-up comes from shutdown() closing idle
            # transports (read then returns b''); a handler mid-batch
            # is left alone: it answers, loops, sees _stopping, exits.
            while not self._stopping:
                chunk = await reader.read(65536)
                if not chunk:
                    break
                buffer += chunk
                if b"\n" in chunk:
                    lines = buffer.split(b"\n")
                    buffer = lines.pop()  # partial trailing line, if any
                    state.busy = True
                    payload = await self._dispatch_batch(lines)
                    if payload:
                        writer.write(payload)
                        await writer.drain()
                    state.busy = False
                if len(buffer) > protocol.MAX_LINE_BYTES:
                    # Still no newline: answer once and hang up rather
                    # than buffer whatever else the peer sends.
                    self.stats.protocol_errors += 1
                    writer.write(protocol.encode_response(
                        None, False,
                        error_kind=protocol.ERR_BAD_REQUEST,
                        error_message="request line exceeds {} "
                        "bytes".format(protocol.MAX_LINE_BYTES),
                    ))
                    await writer.drain()
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            state.busy = False
            self._clients.discard(state)
            self._client_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch_batch(self, lines) -> bytes:
        """Decode and answer one pipelined burst, in order.

        Mutations are enqueued up front so the writer task drains
        them as one batch; read ops wait for the connection's own
        pending mutations first, preserving per-connection program
        order.

        With a trace collector bound the burst is a ``server.batch``
        span — each handler task carries its own contextvar copy, so
        concurrently dispatched batches keep their span trees separate
        — and each op a two-phase ``server.op`` span from enqueue to
        response; the writer parents its ``server.apply`` span to it
        across the task boundary."""
        trace = self.trace
        with (
            trace.span("server.batch", category="server", lines=len(lines))
            if trace is not None else UNTRACED
        ) as batch_span:
            entries = []  # (request, future, op span, encoded response)
            pending_last = None
            for raw in lines:
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    request = protocol.decode_request(
                        raw.decode("utf-8", errors="replace")
                    )
                except ProtocolError as exc:
                    entries.append((None, None, None, self._error_response(
                        exc.request_id, exc
                    )))
                    continue
                self.stats.record_op(request.op)
                op_span = None
                if batch_span is not None:
                    # Two-phase: started here, finished when the
                    # response is known — for mutations that is after
                    # the writer task resolved the future.  The label
                    # name ``op`` matches the
                    # drtp_server_requests_total{op=} metric.
                    op_span = batch_span.child(
                        "server.op", "server", op=request.op
                    ).start_now()
                if request.op in protocol.READ_OPS:
                    if pending_last is not None:
                        # FIFO writer: once the connection's most
                        # recent mutation resolved, all its earlier
                        # ones have too.
                        try:
                            await pending_last
                        except Exception:
                            pass  # reported via its own response below
                    ok, encoded = self._answer_read(request)
                    if op_span is not None:
                        op_span.finish(ok=ok)
                    entries.append((None, None, None, encoded))
                    continue
                future = self._loop.create_future()
                pending_last = future
                await self._mutations.put((request, future, op_span))
                entries.append((request, future, op_span, None))
            out = []
            for request, future, op_span, encoded in entries:
                if encoded is not None:
                    out.append(encoded)
                    continue
                ok = True
                try:
                    out.append(protocol.encode_response(
                        request.id, True, await future
                    ))
                except Exception as exc:
                    ok = False
                    out.append(self._error_response(request.id, exc))
                if op_span is not None:
                    op_span.finish(ok=ok)
            payload = b"".join(out)
            if batch_span is not None:
                batch_span.tag(response_bytes=len(payload))
        return payload

    def _answer_read(self, request: Request) -> Tuple[bool, bytes]:
        """``(ok, encoded response)`` of one read op.  A failing gauge
        collector or status counter must not kill the handler task:
        the pipelined client would wait forever for its remaining
        responses."""
        try:
            return True, protocol.encode_response(
                request.id, True, self._apply_read(request)
            )
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

    # ------------------------------------------------------------------
    # The single writer
    # ------------------------------------------------------------------
    async def _writer_loop(self) -> None:
        while True:
            item = await self._mutations.get()
            if item is _SENTINEL:
                return
            batch = [item]
            stop_after_batch = False
            while not self._mutations.empty():
                extra = self._mutations.get_nowait()
                if extra is _SENTINEL:
                    stop_after_batch = True
                    break
                batch.append(extra)
            self.stats.batches += 1
            self._coalesced_refresh(batch)
            for request, future, op_span in batch:
                if future.cancelled():  # pragma: no cover - defensive
                    continue
                try:
                    # A child of the handler task's server.op, opened
                    # on this one: the service's spans nest under it
                    # because it is the writer context's open span.
                    with (
                        op_span.child("server.apply", "server", op=request.op)
                        if op_span is not None else UNTRACED
                    ):
                        result = self._apply_mutation(request)
                    future.set_result(result)
                except Exception as exc:
                    future.set_exception(exc)
            if stop_after_batch:
                return

    def _coalesced_refresh(self, batch) -> None:
        """One re-flood serves every admission in the batch.

        Live databases converge instantly (refresh is a no-op), so
        only snapshot-mode services pay — and they pay once per batch
        instead of once per admission."""
        if self.service.database.live:
            return
        admits = sum(1 for request, _, _ in batch if request.op == "admit")
        if admits == 0:
            return
        self.service.refresh_database()
        self.stats.refreshes += 1
        if admits > 1:
            self.stats.refreshes_coalesced += admits - 1

    def _apply_mutation(self, request: Request) -> Dict[str, Any]:
        return self._mutation_handlers[request.op](request)

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
        if bw <= 0:
            raise ProtocolError(
                protocol.ERR_BAD_REQUEST, "bw must be positive", request.id,
            )
        parsed: Dict[str, Any] = {
            "source": source, "destination": destination, "bw": bw,
        }
        if args.get("hold") is not None:
            parsed["hold"] = protocol.require_number(args, "hold", request.id)
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
            "live_database": self.service.database.live,
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
