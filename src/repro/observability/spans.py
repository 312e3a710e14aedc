"""Hierarchical spans: the building blocks of the trace layer.

A :class:`Span` measures one operation — an admission, a route search,
a signaling walk — with a monotonic start/duration, free-form tags and
a link to its parent span.  A :class:`TraceCollector` accumulates
finished spans in a bounded ring buffer (oldest spans are evicted and
counted in :attr:`TraceCollector.dropped`); it is the package's only
trace.

Parent tracking rides on :mod:`contextvars`, so nesting is automatic
*and* concurrency-safe: every asyncio task carries its own span stack,
which is what keeps the spans of two concurrent tasks from
interleaving their parents.  Each independent stack (task, thread of
work, worker process) gets its own ``tid`` lane so Chrome's trace
viewer renders concurrent trees on separate rows.

One binding: the *open span* carries the collector.  Only what may
start a trace — a :class:`~repro.core.service.DRTPService`, a
:class:`~repro.server.app.ControlPlaneServer`, a campaign — is handed
one.  Every layer below asks :func:`current_span` for the context's
innermost open span and opens a :meth:`Span.child` of it, recorded
into *that span's* collector, or does nothing when none is open: an
untraced site costs that one guard and never builds a tag.
Function-shaped operations say so once, with :func:`spanned`.

Synchronous usage::

    collector = TraceCollector(max_spans=100_000)
    with collector.span("service.admit", category="service") as span:
        ...
        span.tag(accepted=True)

Two-phase usage (for a span that must not become the open one, like
a campaign cell whose services stay untraced)::

    span = collector.span("campaign.cell", job=3).start_now()
    ...  # nothing below sees it as the open span
    span.finish(schemes=4)
"""

from __future__ import annotations

import contextvars
import itertools
from collections import deque
from contextlib import nullcontext
from functools import wraps
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

__all__ = ["Span", "TraceCollector", "UNTRACED", "current_span", "spanned"]

# The innermost open span per context: every asyncio task (and the
# synchronous main flow) sees its own value, so concurrent trees never
# interleave parents — whichever collectors they record into.
_OPEN: "contextvars.ContextVar[Optional[Span]]" = contextvars.ContextVar(
    "drtp_open_span", default=None
)

#: The calling context's innermost open span, or ``None`` — the one
#: question an instrumented layer asks before it opens a child.
current_span = _OPEN.get

#: What an inline site enters in place of a span when none is open
#: (``with parent.child(...) if parent is not None else UNTRACED as
#: span``); binds ``None``.
UNTRACED = nullcontext()


class Span:
    """One timed, tagged operation in a trace tree.

    Spans are created by :meth:`TraceCollector.span` — the collector
    assigns the id, resolves the parent from the calling context (or an
    explicit ``parent``) and picks the ``tid`` lane.  A span records
    itself into its collector when it finishes; unfinished spans are
    never exported.
    """

    __slots__ = (
        "name", "category", "tags", "span_id", "parent_id",
        "tid", "pid", "start", "duration", "status",
        "_collector", "_token",
    )

    def __init__(
        self,
        collector: "TraceCollector",
        name: str,
        category: str,
        tags: Dict[str, Any],
        span_id: int,
        parent_id: Optional[int],
        tid: int,
    ) -> None:
        self._collector = collector
        self.name = name
        self.category = category
        self.tags = tags
        self.span_id = span_id
        self.parent_id = parent_id
        self.tid = tid
        self.pid = 0
        self.start = 0.0
        self.duration = 0.0
        self.status = "ok"
        self._token = None

    # -- context-manager protocol (nesting via contextvars) -------------
    def __enter__(self) -> "Span":
        collector = self._collector
        self.start = collector._clock() - collector.epoch
        self._token = _OPEN.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        collector = self._collector
        self.duration = (collector._clock() - collector.epoch) - self.start
        _OPEN.reset(self._token)
        self._token = None
        if exc_type is not None:
            self.status = "error"
            self.tags.setdefault("error", exc_type.__name__)
        collector._record(self)
        return False

    # -- two-phase protocol (cross-task spans; no contextvar) -----------
    def start_now(self) -> "Span":
        """Start the clock without becoming the context's current span
        (the parent was already resolved at creation time)."""
        collector = self._collector
        self.start = collector._clock() - collector.epoch
        return self

    def finish(self, **tags: Any) -> "Span":
        """Stop the clock, absorb final tags, record the span."""
        collector = self._collector
        self.duration = (collector._clock() - collector.epoch) - self.start
        if tags:
            self.tags.update(tags)
        collector._record(self)
        return self

    # -- tagging ---------------------------------------------------------
    def tag(self, **tags: Any) -> "Span":
        """Attach or overwrite tags (chainable)."""
        self.tags.update(tags)
        return self

    # -- what the layers below a root need from the open span ------------
    def child(self, name: str, category: str = "", **tags: Any) -> "Span":
        """A span under this one, recorded into this span's collector."""
        return self._collector.span(name, category, self, **tags)

    @property
    def detail(self) -> bool:
        """Whether this span's collector asked for debug-level tags
        (:attr:`TraceCollector.detail`)."""
        return self._collector.detail

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (what NDJSON lines and worker payloads carry)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "category": self.category,
            "start": self.start,
            "duration": self.duration,
            "tid": self.tid,
            "pid": self.pid,
            "status": self.status,
            "tags": self.tags,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "Span({!r}, id={}, parent={}, dur={:.6f})".format(
            self.name, self.span_id, self.parent_id, self.duration
        )


class TraceCollector:
    """Bounded accumulator of finished spans with drop counting.

    ``max_spans`` bounds memory on long runs: the collector becomes a
    ring buffer keeping the *newest* spans and counting evictions in
    :attr:`dropped`.  ``clock`` defaults to :func:`time.perf_counter`;
    tests inject a fake counter for deterministic timings (the golden
    Chrome-trace fixture is built that way).

    ``detail`` opts into debug-level tags that cost real work to
    compute — the backup-search cost decomposition re-evaluates the
    scheme's conflict cost over the chosen route.  ``repro trace``
    turns it on (a debugging tool can afford it); the server and
    campaign collectors leave it off so production tracing stays
    within the <5 % throughput budget.
    """

    def __init__(
        self,
        max_spans: Optional[int] = None,
        clock: Callable[[], float] = perf_counter,
        detail: bool = False,
    ) -> None:
        if max_spans is not None and max_spans < 1:
            raise ValueError(
                "max_spans must be >= 1 when given, got {}".format(max_spans)
            )
        self.max_spans = max_spans
        #: Record expensive debug-level tags (cost decompositions).
        self.detail = detail
        self._clock = clock
        #: Monotonic origin; span ``start`` values are relative to it.
        self.epoch = clock()
        self._spans: "deque" = deque(maxlen=max_spans)
        #: Spans evicted from the ring buffer (0 while unbounded).
        self.dropped = 0
        self._ids = itertools.count(1)
        self._lanes = itertools.count(0)
        # Per-context lane: the roots one task (or the synchronous
        # main flow) opens here share a row of the trace viewer.
        self._lane: "contextvars.ContextVar[Optional[int]]" = (
            contextvars.ContextVar("drtp_span_lane", default=None)
        )

    # ------------------------------------------------------------------
    # Span creation
    # ------------------------------------------------------------------
    def span(
        self,
        name: str,
        category: str = "",
        parent: Optional[Span] = None,
        **tags: Any,
    ) -> Span:
        """Create a span (use as a context manager, or two-phase via
        :meth:`Span.start_now`/:meth:`Span.finish`).

        The parent is the context's open span unless ``parent``
        overrides it (cross-task correlation: a writer-task span can
        claim a handler-task span as parent), and a span with a parent
        joins *the parent's* collector — so one tree is never split
        across two, whichever collector was asked.  Only with nothing
        open does this collector start a root, on the context's own
        ``tid`` lane; children inherit their parent's.
        """
        if parent is None:
            parent = _OPEN.get()
        if parent is not None:
            collector = parent._collector
            return Span(
                collector, name, category, tags, next(collector._ids),
                parent.span_id, parent.tid,
            )
        lane = self._lane.get()
        if lane is None:
            lane = next(self._lanes)
            self._lane.set(lane)
        return Span(self, name, category, tags, next(self._ids), None, lane)

    def current(self) -> Optional[Span]:
        """The context's innermost open span, if any
        (:func:`current_span`)."""
        return _OPEN.get()

    # ------------------------------------------------------------------
    # Recording and views
    # ------------------------------------------------------------------
    def _record(self, span: Span) -> None:
        if (
            self.max_spans is not None
            and len(self._spans) == self.max_spans
        ):
            self.dropped += 1  # deque(maxlen) evicts the oldest below
        self._spans.append(span)

    def spans(self, name: Optional[str] = None) -> List[Span]:
        """Finished spans in completion order (children before their
        parents), optionally filtered by name."""
        if name is None:
            return list(self._spans)
        return [span for span in self._spans if span.name == name]

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self._spans)

    def counts(self) -> Dict[str, int]:
        """Span histogram by name."""
        histogram: Dict[str, int] = {}
        for span in self._spans:
            histogram[span.name] = histogram.get(span.name, 0) + 1
        return histogram

    def to_dicts(self) -> List[Dict[str, Any]]:
        """Every finished span as a plain dict (worker payload form)."""
        return [span.to_dict() for span in self._spans]

    # ------------------------------------------------------------------
    # Cross-process merge
    # ------------------------------------------------------------------
    def ingest(
        self,
        span_dicts: Iterable[Dict[str, Any]],
        pid: int,
        dropped: int = 0,
    ) -> int:
        """Merge spans recorded by another collector (a campaign
        worker, a subprocess) under process lane ``pid``.

        Span ids are remapped into this collector's id space so merged
        trees can never collide with local ones; parent links *within*
        the batch are preserved, parents that fell out of the worker's
        ring buffer become roots.  Returns the number of spans merged.
        """
        batch = list(span_dicts)
        mapping = {d["span_id"]: next(self._ids) for d in batch}
        for data in batch:
            span = Span(
                self,
                data["name"],
                data.get("category", ""),
                dict(data.get("tags") or {}),
                mapping[data["span_id"]],
                mapping.get(data.get("parent_id")),
                data.get("tid", 0),
            )
            span.pid = pid
            span.start = data.get("start", 0.0)
            span.duration = data.get("duration", 0.0)
            span.status = data.get("status", "ok")
            self._record(span)
        self.dropped += dropped
        return len(batch)


def spanned(
    name: str,
    category: str,
    opened: Callable[..., Dict[str, Any]],
    closed: Optional[Callable[[Any], Dict[str, Any]]] = None,
    root: Optional[Callable[[Any], Optional[TraceCollector]]] = None,
):
    """Decorator: run each call inside a span ``name`` — a child of
    the context's open span, in that span's collector.  With none open
    the call is made as is, unless the function may start a trace:
    ``root`` then reads the collector for a root off the call's first
    argument (``None``: untraced).  ``opened(*args, **kwargs)`` gives
    the tags known at opening, ``closed(result)`` those only the
    result tells; neither runs for a call that opens no span."""

    def decorate(function):
        @wraps(function)
        def traced(*args, **kwargs):
            parent = _OPEN.get()
            collector = (
                parent._collector if parent is not None
                else root and root(args[0])
            )
            if collector is None:
                return function(*args, **kwargs)
            with collector.span(
                name, category, parent, **opened(*args, **kwargs)
            ) as span:
                result = function(*args, **kwargs)
                if closed is not None:
                    span.tags.update(closed(result))
                return result

        return traced

    return decorate
