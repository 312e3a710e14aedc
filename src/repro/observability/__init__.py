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
  keep their span trees separate;
* :mod:`repro.observability.export` — Chrome ``trace_event`` JSON
  (loadable in ``chrome://tracing`` / Perfetto) and a structured
  NDJSON stream, plus :func:`validate_chrome_trace`, the schema check
  run before anything is written.

Instrumented layers (:mod:`repro.core.service`,
:mod:`repro.core.signaling`, :mod:`repro.routing`,
:mod:`repro.server`, :mod:`repro.campaign`) keep tracing off unless
a collector is passed in, and the untraced path executes the exact
pre-tracing instruction stream.  The span taxonomy and the
"debugging a rejected DR-connection" walkthrough live in
``docs/tracing.md``.
"""

from .spans import Span, TraceCollector
from .export import (
    TraceFormatError,
    chrome_trace,
    read_ndjson,
    validate_chrome_trace,
    write_chrome_trace,
    write_ndjson,
)

__all__ = [
    "Span",
    "TraceCollector",
    "TraceFormatError",
    "chrome_trace",
    "read_ndjson",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_ndjson",
]
