"""The control-plane wire protocol.

One JSON object per line in each direction (NDJSON).  Requests::

    {"op": "admit", "id": 7, "args": {"source": 3, "destination": 41,
                                      "bw": 1.0}}

``id`` is an optional client correlation token (any JSON scalar)
echoed verbatim in the response; clients that pipeline requests over
one connection use it to match answers.  Responses::

    {"id": 7, "ok": true, "result": {...}}
    {"id": 7, "ok": false, "error": {"type": "bad-request",
                                     "message": "..."}}

``ok: false`` means the *request* was invalid (malformed JSON, unknown
op, bad arguments, server draining) — a protocol error.  Domain
outcomes that are part of normal operation (a rejected admission, a
release of an already-departed connection) are ``ok: true`` with the
outcome in ``result``; a load test against a healthy server must see
zero protocol errors even when the network itself is saturated or
failing.

The protocol is deliberately order-preserving per connection: the
server answers each connection's requests in arrival order, so one
pipelined client observes exactly the semantics of a sequential
:class:`~repro.core.service.DRTPService` — the property the
differential load-test check relies on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "OPS",
    "MUTATING_OPS",
    "READ_OPS",
    "ProtocolError",
    "Request",
    "decode_request",
    "encode_request",
    "encode_response",
    "decode_response",
]

PROTOCOL_VERSION = 1

#: Most bytes of one request line the server buffers while waiting for
#: its newline.  A connection that sends more is answered one
#: ``bad-request`` and closed, so a peer cannot make the server hold
#: memory without bound.  (The largest legitimate request is a few
#: hundred bytes.)
MAX_LINE_BYTES = 1 << 20

#: Operations that mutate the shared service — applied in arrival order
#: inside the callback that answers their burst.
MUTATING_OPS = frozenset({"admit", "release", "fail_link", "repair_link"})

#: Operations answered directly from the event loop (consistent reads:
#: the loop is single-threaded and never yields mid-mutation).
READ_OPS = frozenset({"status", "metrics", "ping"})

OPS = MUTATING_OPS | READ_OPS

#: Error types carried in ``error.type``.
ERR_BAD_JSON = "bad-json"
ERR_BAD_REQUEST = "bad-request"
ERR_UNKNOWN_OP = "unknown-op"
ERR_DRAINING = "draining"
ERR_INTERNAL = "internal"


class ProtocolError(Exception):
    """A malformed or invalid request."""

    def __init__(self, kind: str, message: str,
                 request_id: Any = None) -> None:
        super().__init__(message)
        self.kind = kind
        self.request_id = request_id


@dataclass
class Request:
    """One decoded client request."""

    op: str
    args: Dict[str, Any] = field(default_factory=dict)
    id: Any = None


def decode_request(line: str) -> Request:
    """Parse one request line; raises :class:`ProtocolError` with the
    best-effort correlation id so the error response can still be
    matched by the client."""
    try:
        payload = json.loads(line)
    except (ValueError, RecursionError):
        # Nesting deeper than the decoder's recursion limit is as
        # undecodable as a syntax error.
        raise ProtocolError(ERR_BAD_JSON, "request is not valid JSON")
    if not isinstance(payload, dict):
        raise ProtocolError(ERR_BAD_REQUEST, "request must be a JSON object")
    request_id = payload.get("id")
    if request_id is not None and not isinstance(
        request_id, (str, int, float, bool)
    ):
        raise ProtocolError(
            ERR_BAD_REQUEST, "request id must be a JSON scalar"
        )
    op = payload.get("op")
    if not isinstance(op, str):
        raise ProtocolError(
            ERR_BAD_REQUEST, "request needs a string 'op'", request_id
        )
    if op not in OPS:
        raise ProtocolError(
            ERR_UNKNOWN_OP,
            "unknown op {!r} (valid: {})".format(op, ", ".join(sorted(OPS))),
            request_id,
        )
    args = payload.get("args", {})
    if not isinstance(args, dict):
        raise ProtocolError(
            ERR_BAD_REQUEST, "'args' must be a JSON object", request_id
        )
    return Request(op=op, args=args, id=request_id)


def encode_request(op: str, args: Optional[Dict[str, Any]] = None,
                   request_id: Any = None) -> bytes:
    """One request line, newline-terminated, ready for the socket."""
    payload: Dict[str, Any] = {"op": op}
    if request_id is not None:
        payload["id"] = request_id
    if args:
        payload["args"] = args
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode()


def encode_response(request_id: Any, ok: bool,
                    result: Optional[Dict[str, Any]] = None,
                    error_kind: Optional[str] = None,
                    error_message: Optional[str] = None) -> bytes:
    """Encode one response line: ``{"id", "ok"}`` plus either a
    ``result`` object or an ``error`` envelope, newline-terminated."""
    payload: Dict[str, Any] = {"id": request_id, "ok": ok}
    if ok:
        payload["result"] = result if result is not None else {}
    else:
        payload["error"] = {
            "type": error_kind or ERR_INTERNAL,
            "message": error_message or "",
        }
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode()


def decode_response(line: str) -> Tuple[Any, bool, Dict[str, Any]]:
    """Parse one response line into ``(id, ok, body)`` where ``body``
    is ``result`` on success and ``error`` on failure."""
    payload = json.loads(line)
    if not isinstance(payload, dict) or "ok" not in payload:
        raise ProtocolError(ERR_BAD_JSON, "malformed response line")
    ok = bool(payload["ok"])
    body = payload.get("result" if ok else "error") or {}
    return payload.get("id"), ok, body


# ----------------------------------------------------------------------
# Argument validation helpers (shared by the server's handlers)
# ----------------------------------------------------------------------
def require_int(args: Dict[str, Any], key: str, request_id: Any) -> int:
    """Extract an integer argument, raising ``bad_request`` when it is
    missing or not an int (bools are rejected, not coerced)."""
    value = args.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(
            ERR_BAD_REQUEST,
            "'{}' must be an integer, got {!r}".format(key, value),
            request_id,
        )
    return value


def require_number(args: Dict[str, Any], key: str, request_id: Any) -> float:
    """Extract a numeric argument as ``float``, raising ``bad_request``
    when it is missing or not an int/float (bools are rejected)."""
    value = args.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(
            ERR_BAD_REQUEST,
            "'{}' must be a number, got {!r}".format(key, value),
            request_id,
        )
    return float(value)
