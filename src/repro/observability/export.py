"""Trace export: Chrome ``trace_event`` JSON and NDJSON streams.

Two formats, two audiences:

* :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome
  ``trace_event`` format (complete ``"X"`` events plus ``"M"``
  process-name metadata), loadable in ``chrome://tracing`` and
  https://ui.perfetto.dev.  Span lanes map to trace ``tid`` rows and
  worker processes to ``pid`` groups, so a sharded campaign renders as
  one timeline per worker.
* :func:`write_ndjson` / :func:`read_ndjson` — a structured
  newline-delimited JSON stream (one span per line behind a ``meta``
  header) for programmatic analysis: ``jq``, pandas, or the
  walkthroughs in ``docs/tracing.md``.

:func:`write_trace_dir` writes both for one collector, side by side
(what ``serve``, ``campaign`` and ``chaos`` do with ``--trace-dir``).

:func:`validate_chrome_trace` is the schema check both the test
suite's golden fixture and ``repro trace`` run before anything touches
disk: it enforces the ``trace_event`` invariants Perfetto relies on
(event phases, required keys per phase, numeric non-negative
timestamps, JSON-able args).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Tuple, Union

from .spans import Span, TraceCollector

__all__ = [
    "TraceFormatError",
    "chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_ndjson",
    "write_trace_dir",
    "read_ndjson",
]

#: NDJSON stream schema version.
NDJSON_VERSION = 1

#: Event phases the validator accepts (the subset of the trace_event
#: spec this exporter emits, plus the common instant/duration phases a
#: hand-edited trace may contain).
_KNOWN_PHASES = frozenset("XMBEiIC")


class TraceFormatError(ValueError):
    """Raised when a payload violates the Chrome trace_event schema."""


def _jsonable(value: Any) -> Any:
    """Coerce tag values into JSON-serializable shapes."""
    if isinstance(value, (frozenset, set, tuple)):
        return sorted(value) if isinstance(value, (frozenset, set)) else list(
            value
        )
    return value


def _span_args(span: Span) -> Dict[str, Any]:
    args = {key: _jsonable(value) for key, value in span.tags.items()}
    args["span_id"] = span.span_id
    if span.parent_id is not None:
        args["parent_id"] = span.parent_id
    if span.status != "ok":
        args["status"] = span.status
    return args


def chrome_trace(
    spans: Union[TraceCollector, Iterable[Span]],
    label: str = "drtp",
    dropped: int = 0,
) -> Dict[str, Any]:
    """Render spans as a Chrome ``trace_event`` JSON object.

    Every span becomes one complete (``"ph": "X"``) event with
    microsecond timestamps; each distinct ``pid`` additionally gets a
    ``process_name`` metadata event so Perfetto labels the lanes.
    Passing the :class:`TraceCollector` itself also carries its
    :attr:`~TraceCollector.dropped` count into ``otherData``.
    """
    if isinstance(spans, TraceCollector):
        dropped = dropped or spans.dropped
        spans = spans.spans()
    events: List[Dict[str, Any]] = []
    seen_pids = set()
    for span in spans:
        if span.pid not in seen_pids:
            seen_pids.add(span.pid)
            events.append({
                "ph": "M",
                "name": "process_name",
                "pid": span.pid,
                "tid": 0,
                "args": {
                    "name": label if span.pid == 0
                    else "{} worker {}".format(label, span.pid)
                },
            })
        events.append({
            "ph": "X",
            "name": span.name,
            "cat": span.category or "drtp",
            "ts": round(span.start * 1e6, 3),
            "dur": round(span.duration * 1e6, 3),
            "pid": span.pid,
            "tid": span.tid,
            "args": _span_args(span),
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.observability",
            "label": label,
            "dropped_spans": dropped,
        },
    }


def validate_chrome_trace(payload: Any) -> int:
    """Check a payload against the ``trace_event`` schema.

    Returns the number of events validated; raises
    :class:`TraceFormatError` on the first violation.  Accepts both
    the object form (``{"traceEvents": [...]}``) and the bare array
    form the spec also allows.
    """
    if isinstance(payload, dict):
        events = payload.get("traceEvents")
        if not isinstance(events, list):
            raise TraceFormatError(
                "object-form trace needs a 'traceEvents' list"
            )
    elif isinstance(payload, list):
        events = payload
    else:
        raise TraceFormatError(
            "trace must be an object with 'traceEvents' or an event array, "
            "got {}".format(type(payload).__name__)
        )
    for index, event in enumerate(events):
        where = "traceEvents[{}]".format(index)
        if not isinstance(event, dict):
            raise TraceFormatError("{} is not an object".format(where))
        phase = event.get("ph")
        if not isinstance(phase, str) or phase not in _KNOWN_PHASES:
            raise TraceFormatError(
                "{} has unknown phase {!r}".format(where, phase)
            )
        if not isinstance(event.get("name"), str) or not event["name"]:
            raise TraceFormatError(
                "{} needs a non-empty string 'name'".format(where)
            )
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                raise TraceFormatError(
                    "{} needs an integer {!r}".format(where, key)
                )
        if "args" in event and not isinstance(event["args"], dict):
            raise TraceFormatError(
                "{} 'args' must be an object".format(where)
            )
        if phase == "X":
            for key in ("ts", "dur"):
                value = event.get(key)
                if not isinstance(value, (int, float)) or value < 0:
                    raise TraceFormatError(
                        "{} needs a non-negative numeric {!r}, got "
                        "{!r}".format(where, key, value)
                    )
            if "cat" in event and not isinstance(event["cat"], str):
                raise TraceFormatError(
                    "{} 'cat' must be a string".format(where)
                )
        # Round-trip through the JSON encoder: Perfetto only ever sees
        # the serialized form, so a non-encodable arg is a defect here.
        try:
            json.dumps(event)
        except (TypeError, ValueError) as exc:
            raise TraceFormatError(
                "{} is not JSON-serializable: {}".format(where, exc)
            )
    return len(events)


def write_chrome_trace(
    path: Union[str, Path],
    spans: Union[TraceCollector, Iterable[Span]],
    label: str = "drtp",
) -> int:
    """Validate and write a Chrome trace; returns the event count."""
    payload = chrome_trace(spans, label=label)
    count = validate_chrome_trace(payload)
    Path(path).write_text(json.dumps(payload, sort_keys=True))
    return count


# ----------------------------------------------------------------------
# NDJSON stream
# ----------------------------------------------------------------------
def write_ndjson(
    path: Union[str, Path],
    collector: TraceCollector,
    label: str = "drtp",
) -> int:
    """Write the collector as an NDJSON stream: one ``meta`` header
    line, then one ``span`` record per line.  Returns the span count."""
    spans = collector.spans()
    lines = [json.dumps({
        "record": "meta",
        "version": NDJSON_VERSION,
        "label": label,
        "spans": len(spans),
        "dropped": collector.dropped,
        "generated_at": time.strftime(
            "%Y-%m-%dT%H:%M:%S%z", time.localtime()
        ),
    }, sort_keys=True)]
    for span in spans:
        record = span.to_dict()
        record["tags"] = {
            key: _jsonable(value) for key, value in record["tags"].items()
        }
        record["record"] = "span"
        lines.append(json.dumps(record, sort_keys=True))
    Path(path).write_text("\n".join(lines) + "\n")
    return len(spans)


def write_trace_dir(
    directory: Union[str, Path],
    collector: TraceCollector,
    stem: str,
) -> Tuple[Path, Path]:
    """Write ``collector`` into ``directory`` (created if missing) as
    ``<stem>_trace.json`` (Chrome) and ``<stem>_trace.ndjson``, both
    labelled ``drtp-<stem>``; returns the two paths."""
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    chrome = target / "{}_trace.json".format(stem)
    ndjson = target / "{}_trace.ndjson".format(stem)
    label = "drtp-" + stem
    write_chrome_trace(chrome, collector, label=label)
    write_ndjson(ndjson, collector, label=label)
    return chrome, ndjson


def read_ndjson(
    path: Union[str, Path],
) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Read an NDJSON trace stream back as ``(meta, span_dicts)``."""
    meta: Dict[str, Any] = {}
    spans: List[Dict[str, Any]] = []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        kind = record.pop("record", "span")
        if kind == "meta":
            meta = record
        else:
            spans.append(record)
    return meta, spans
