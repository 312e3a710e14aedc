"""Online DRTP control plane: asyncio server, protocol, load generator.

The paper's model is online — DR-connection requests arrive one at a
time against live link state — but until now the reproduction was only
drivable as an in-process library.  This package turns it into
something traffic can be pointed at:

* :mod:`repro.server.protocol` — the newline-delimited JSON request/
  response framing (``admit``, ``release``, ``fail_link``,
  ``repair_link``, ``status``, ``metrics``, ``ping``);
* :mod:`repro.server.app` — :class:`ControlPlaneServer`, an asyncio
  TCP/Unix-socket server that answers each read's burst of requests
  inside one protocol callback, so every mutation of the shared
  :class:`~repro.core.service.DRTPService` is applied in arrival order
  on the one event loop against a live link-state database, with a
  graceful SIGTERM drain and a final metrics manifest;
* :mod:`repro.server.loadgen` — a deterministic async load generator
  (Poisson arrivals, hold times, fault mix via
  :class:`~repro.faults.plan.FaultPlan`) plus a sequential reference
  replay whose decisions the server's must equal exactly.

Everything is stdlib-only, like the rest of the control plane.
"""

from .protocol import (
    MUTATING_OPS,
    OPS,
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)
from .app import ControlPlaneServer, ServerStats
from .loadgen import (
    LoadGenConfig,
    LoadGenerator,
    LoadReport,
    build_timeline,
    fetch_status,
    run_sequential_reference,
)

__all__ = [
    "MUTATING_OPS",
    "OPS",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "Request",
    "decode_request",
    "decode_response",
    "encode_request",
    "encode_response",
    "ControlPlaneServer",
    "ServerStats",
    "LoadGenConfig",
    "LoadGenerator",
    "LoadReport",
    "build_timeline",
    "fetch_status",
    "run_sequential_reference",
]
