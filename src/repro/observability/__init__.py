"""End-to-end span tracing for the DRTP control plane.

The paper's evaluation hinges on understanding *why* a backup
activation succeeds or fails — which links conflicted, which
advertisements were stale, how long signaling took.  This package
turns every admission, route search, flooding round, signaling walk
and failure-recovery into an inspectable timeline:

* :mod:`repro.observability.spans` — :class:`Span` (a context manager
  with monotonic timings, tags and parent links) and
  :class:`TraceCollector` (a bounded ring buffer with drop counting);
  nesting rides on :mod:`contextvars`, so concurrent asyncio batches
  keep their span trees separate; :func:`current_span` and
  :func:`spanned` are what the instrumented layers use;
* :mod:`repro.observability.export` — Chrome ``trace_event`` JSON
  (loadable in ``chrome://tracing`` / Perfetto) and a structured
  NDJSON stream, plus :func:`validate_chrome_trace`, the schema check
  run before anything is written, and :func:`write_trace_dir`, which
  writes both for one collector.

One binding: a collector is handed to a
:class:`~repro.core.service.DRTPService`, a
:class:`~repro.server.app.ControlPlaneServer` or a campaign — the
only things that start a trace — and every layer below
(:mod:`repro.routing`, :mod:`repro.core.signaling`,
:mod:`repro.core.recovery`) extends whatever span is open, in that
span's collector, or does nothing when none is: untraced, a site
costs one ``current_span() is None`` guard.  The span taxonomy and
the "debugging a rejected DR-connection" walkthrough live in
``docs/tracing.md``.
"""

from .spans import UNTRACED, Span, TraceCollector, current_span, spanned
from .export import (
    TraceFormatError,
    chrome_trace,
    read_ndjson,
    validate_chrome_trace,
    write_chrome_trace,
    write_ndjson,
    write_trace_dir,
)

__all__ = [
    "Span",
    "TraceCollector",
    "TraceFormatError",
    "UNTRACED",
    "chrome_trace",
    "current_span",
    "read_ndjson",
    "spanned",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_ndjson",
    "write_trace_dir",
]
