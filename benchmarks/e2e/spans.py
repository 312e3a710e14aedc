"""Outside-in spans: one table of wrapped public calls, one recorder.

The traced run of every workload measures layers *from outside*: each
row of :data:`SPAN_TABLE` names a public callable of ``repro`` (by the
module or class that owns the binding the callers actually use) and
the ledger metric its time feeds.  :func:`install` replaces every
binding with a timing wrapper, :func:`uninstall` puts the originals
back; nothing under ``src/`` changes.  A row whose attribute is gone is
a hard error, and a row that a workload is declared to exercise
(``on``) but that recorded no call fails the run — when a later PR
moves a function it updates the table instead of silently losing the
layer.

A span is ``(id, parent id, name, start_ns, end_ns, op)``: ``parent``
is the innermost span open on the same thread (-1 for a root), ``op``
identifies the client request the span served.  Spans stay in memory in
one flat ``array('q')`` and are written once, at exit, as NDJSON.  A
span's *self time* is its duration minus the durations of its direct
children (children of one parent nest and never overlap on a thread).

Adding a span is one row here plus, when it should feed a metric, one
line in ``ledger.py``.
"""

from __future__ import annotations

import importlib
import json
import threading
from array import array
from collections import deque
from dataclasses import dataclass
from time import perf_counter_ns
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

MESH8 = "serve-mesh8-pipelined"
WAX500 = "serve-wax500-serial"
CELL = "paper-wax60-cell"
CHURN = "faults-mesh16-churn"
SERVE = (MESH8, WAX500)
ALL = (MESH8, WAX500, CELL, CHURN)

_FIELDS = 6  # id, parent, name index, start_ns, end_ns, op

#: Span of the harness's host probe; its time is outside every measured
#: window, so the ledger leaves it out of the time the layers cover.
PROBE_SPAN = "host.probe_us"


# ----------------------------------------------------------------------
# How a wrapper learns which client request it serves.  ``at_open``
# hooks see the call's positional arguments, ``at_close`` hooks its
# result; both return an int or -1.  They only matter where no enclosing
# span or driving loop already knows the op (server wrappers, and the
# simulator-driven cell, where the request id is the identifier).
# ----------------------------------------------------------------------
def _as_op(value) -> int:
    return value if type(value) is int else -1


def _op_from_decoded(recorder: "Recorder", result) -> int:
    """``decode_request`` result: the wire id is the client's sequence
    number.  Mutations are applied later, on the writer task, in the
    same FIFO order — queue the id for the matching ``apply_*`` span."""
    op = _as_op(getattr(result, "id", None))
    if getattr(result, "op", None) in ("admit", "release"):
        recorder.apply_queue.append(op)
    return op


def _op_from_queue(recorder: "Recorder", args) -> int:
    return recorder.apply_queue.popleft() if recorder.apply_queue else -1


def _op_from_arg0(recorder: "Recorder", args) -> int:
    return _as_op(args[0]) if args else -1


def _op_from_request(recorder: "Recorder", args) -> int:
    # DRTPService.admit(self, req)
    return _as_op(getattr(args[1], "request_id", None))


def _op_from_arg1(recorder: "Recorder", args) -> int:
    # DRTPService.release(self, connection_id): ids equal request ids.
    return _as_op(args[1]) if len(args) > 1 else -1


@dataclass(frozen=True)
class SpanRow:
    """One wrapped binding.

    ``name`` is the ledger metric the span's time feeds; ``owner`` is
    ``"package.module"`` or ``"package.module:Class"`` — the namespace
    whose attribute ``attr`` the callers resolve at call time (so a
    function imported *by name* into another module is wrapped at that
    importing module).  ``on`` lists the workloads that must record at
    least one call.  ``counts`` pairs a counter name with a predicate
    over the call's result (fallbacks, cache hits)."""

    name: str
    owner: str
    attr: str
    on: Tuple[str, ...] = ()
    at_open: Optional[Callable[["Recorder", tuple], int]] = None
    at_close: Optional[Callable[["Recorder", Any], int]] = None
    counts: Tuple[Tuple[str, Callable[[Any], bool]], ...] = ()


def _is_none(result) -> bool:
    return result is None


def _is_not_none(result) -> bool:
    return result is not None


_SERVICE = "repro.core.service:DRTPService"
_LINK_STATE = "repro.routing.link_state:LinkStateScheme"
_FLOODING = "repro.routing.flooding:BoundedFloodingScheme"
_ARRAYS = "repro.kernels.arrays:CompiledLinkArrays"

SPAN_TABLE: Tuple[SpanRow, ...] = (
    # -- server: the protocol edge and the single-writer commit --------
    SpanRow("server.decode_us", "repro.server.protocol", "decode_request",
            on=SERVE, at_close=_op_from_decoded),
    SpanRow("server.encode_us", "repro.server.protocol", "encode_response",
            on=SERVE, at_open=_op_from_arg0),
    SpanRow("server.apply_admit_us", "repro.server.ops", "apply_admit",
            on=SERVE, at_open=_op_from_queue),
    SpanRow("server.apply_release_us", "repro.server.ops", "apply_release",
            on=SERVE, at_open=_op_from_queue),
    # -- metrics: always on under `repro serve` ------------------------
    SpanRow("metrics.observe_us", "repro.metrics.instruments:ServiceMetrics",
            "observe_admission", on=SERVE),
    # -- core ----------------------------------------------------------
    SpanRow("core.admit_us", _SERVICE, "admit", on=ALL,
            at_open=_op_from_request),
    SpanRow("core.release_us", _SERVICE, "release", on=ALL,
            at_open=_op_from_arg1),
    SpanRow("core.fail_link_us", _SERVICE, "fail_link", on=(CHURN,)),
    SpanRow("core.repair_link_us", _SERVICE, "repair_link", on=(CHURN,)),
    SpanRow("core.commit_us", "repro.core.admission:AdmissionController",
            "admit", on=ALL),
    # register_backup_path is imported by name: one row per binding.
    SpanRow("core.signal_register_us", "repro.core.admission",
            "register_backup_path", on=ALL),
    SpanRow("core.signal_register_us", "repro.core.service",
            "register_backup_path"),
    # The defining module's binding is the one recovery's reconfigure
    # step imports at call time; it serves nobody else.
    SpanRow("core.signal_register_us", "repro.core.signaling",
            "register_backup_path", on=(CHURN,),
            counts=(("core.reconfigured", lambda walk: walk.success),)),
    SpanRow("core.recovery_activate_us", "repro.core.service",
            "apply_link_failure", on=(CHURN,)),
    SpanRow("core.recovery_reconfigure_us", "repro.core.service",
            "reconfigure_unprotected", on=(CHURN,)),
    # -- routing -------------------------------------------------------
    SpanRow("routing.plan_us", _LINK_STATE, "plan", on=ALL),
    SpanRow("routing.plan_us", _FLOODING, "plan", on=(CELL,)),
    SpanRow("routing.plan_us", "repro.routing.baselines:NoBackupScheme",
            "plan", on=(CELL,)),
    SpanRow("routing.plan_backup_us", _LINK_STATE, "plan_backup",
            on=(CHURN,)),
    SpanRow("routing.plan_backup_us", _FLOODING, "plan_backup"),
    SpanRow("routing.warm_probe_us", "repro.routing.warmstart:WarmstartCache",
            "probe", on=ALL,
            counts=(("routing.warm_hits", lambda probe: probe.hit),)),
    SpanRow("routing.bf_flood_us", _FLOODING, "flood", on=(CELL,)),
    SpanRow("routing.bf_select_us", _FLOODING, "select_routes", on=(CELL,)),
    # -- kernels: wrapped where routing/core import them by name -------
    SpanRow("kernels.flush_us", _ARRAYS, "flush", on=ALL),
    SpanRow("kernels.primary_cost_us", _ARRAYS, "primary_costs", on=ALL),
    SpanRow("kernels.backup_cost_us", _ARRAYS, "backup_costs", on=ALL),
    SpanRow("kernels.primary_search_us", "repro.routing.link_state",
            "flat_min_hop_path", on=ALL),
    SpanRow("kernels.backup_search_us", "repro.routing.link_state",
            "flat_shortest_path", on=ALL),
    # Only reached under a hop bound (qos_slack), which no workload sets.
    SpanRow("kernels.backup_search_us", "repro.routing.link_state",
            "flat_bounded_shortest_path"),
    SpanRow("kernels.apply_us", "repro.core.signaling", "batch_register_walk",
            on=(MESH8, WAX500, CELL),
            counts=(("kernels.apply_fallbacks", _is_none),
                    ("kernels.register_fastpath", _is_not_none))),
    SpanRow("kernels.apply_us", "repro.core.signaling", "batch_release_walk",
            on=ALL, counts=(("kernels.apply_fallbacks", _is_none),)),
    SpanRow("kernels.apply_us", "repro.core.admission",
            "batch_reserve_primary", on=ALL,
            counts=(("kernels.apply_fallbacks", _is_none),)),
    SpanRow("kernels.apply_us", "repro.core.admission",
            "batch_release_primary", on=ALL,
            counts=(("kernels.apply_fallbacks", lambda done: not done),)),
    # -- network -------------------------------------------------------
    SpanRow("network.publish_us", "repro.network.state:NetworkState",
            "publish_changes", on=ALL),
    SpanRow("network.db_refresh_us",
            "repro.network.database:LinkStateDatabase", "refresh"),
    # -- simulation / analysis ----------------------------------------
    SpanRow("simulation.run_us",
            "repro.simulation.simulator:ScenarioSimulator", "run",
            on=(CELL,)),
    SpanRow("analysis.ft_assess_us", "repro.core.service",
            "assess_link_failure", on=(CELL,)),
    # -- faults --------------------------------------------------------
    SpanRow("faults.sample_hop_us", "repro.faults.injector:FaultInjector",
            "sample_hop", on=(CHURN,)),
    # -- the harness's own host probe: the simulator-driven cell takes
    # it inside ScenarioSimulator.run, whose self time must not own it.
    SpanRow(PROBE_SPAN, "common:HostProbe", "sample", on=(CELL, CHURN)),
)


class Recorder:
    """In-memory span store with a per-thread stack of open spans."""

    def __init__(self) -> None:
        #: Name per index: first one entry per installed row in table
        #: order (rows feeding one metric repeat its name, so calls can
        #: still be counted per binding), then the counter names.
        self.names: List[str] = []
        self.data = array("q")
        #: Set by an in-process driving loop before each call; -1 lets
        #: the rows' own hooks decide.
        self.op = -1
        self.apply_queue: deque = deque()
        self._next_id = 0
        self._local = threading.local()

    def add_name(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def calls_by_index(self) -> List[int]:
        calls = [0] * len(self.names)
        data = self.data
        for base in range(2, len(data), _FIELDS):
            calls[data[base]] += 1
        return calls

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def open(self, name_index: int, op: int = -1) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
            parent_id = parent[0]
            if parent[3] >= 0:
                op = parent[3]
        else:
            parent_id = -1
            if self.op >= 0:
                op = self.op
        frame = [self._next_id, parent_id, name_index, op, 0]
        self._next_id += 1
        stack.append(frame)
        frame[4] = perf_counter_ns()
        return frame

    def close(self, frame: list) -> None:
        end = perf_counter_ns()
        self._local.stack.pop()
        self.data.extend(
            (frame[0], frame[1], frame[2], frame[4], end, frame[3])
        )

    def mark(self, name_index: int, frame: list) -> None:
        """A count at a span boundary: a zero-length child of ``frame``,
        so counts are filtered and aggregated exactly like times."""
        now = perf_counter_ns()
        self.data.extend(
            (self._next_id, frame[0], name_index, now, now, frame[3])
        )
        self._next_id += 1

    def __len__(self) -> int:
        return len(self.data) // _FIELDS

    def drop_before(self, first_op: int) -> None:
        """Forget spans of ops below ``first_op`` (the warm-up, and
        everything that served no timeline op)."""
        data = self.data
        kept = array("q")
        for base in range(0, len(data), _FIELDS):
            if data[base + 5] >= first_op:
                kept.extend(data[base:base + _FIELDS])
        self.data = kept

    def spans(self) -> Iterable[Tuple[int, int, str, int, int, int]]:
        data, names = self.data, self.names
        for base in range(0, len(data), _FIELDS):
            yield (data[base], data[base + 1], names[data[base + 2]],
                   data[base + 3], data[base + 4], data[base + 5])


def _wrap(function, row: SpanRow, index: int, recorder: Recorder):
    open_span, close_span, mark = recorder.open, recorder.close, recorder.mark
    at_open, at_close = row.at_open, row.at_close
    counts = tuple(
        (recorder.add_name(counter), predicate)
        for counter, predicate in row.counts
    )
    if at_open is None and at_close is None and not counts:
        def wrapper(*args, **kwargs):
            frame = open_span(index)
            try:
                return function(*args, **kwargs)
            finally:
                close_span(frame)
    else:
        def wrapper(*args, **kwargs):
            frame = open_span(
                index, -1 if at_open is None else at_open(recorder, args)
            )
            try:
                result = function(*args, **kwargs)
                if at_close is not None and frame[3] < 0:
                    frame[3] = at_close(recorder, result)
                for counter_index, predicate in counts:
                    if predicate(result):
                        mark(counter_index, frame)
                return result
            finally:
                close_span(frame)
    wrapper.__wrapped__ = function
    wrapper.__name__ = getattr(function, "__name__", row.attr)
    return wrapper


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    namespace = importlib.import_module(module_name)
    if class_name:
        namespace = getattr(namespace, class_name)
    return namespace


class Installed:
    """Handle returned by :func:`install`; :meth:`uninstall` restores
    every original binding."""

    def __init__(self, recorder: Recorder, originals: list) -> None:
        self.recorder = recorder
        self._originals = originals

    def uninstall(self) -> None:
        while self._originals:
            namespace, attr, original = self._originals.pop()
            setattr(namespace, attr, original)

    def __enter__(self) -> "Installed":
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


def install(recorder: Optional[Recorder] = None,
            table: Iterable[SpanRow] = SPAN_TABLE) -> Installed:
    """Wrap every binding of ``table``; raises :class:`AttributeError`
    (after undoing the partial install) when one is missing."""
    recorder = recorder if recorder is not None else Recorder()
    table = tuple(table)
    if recorder.names:
        raise ValueError("recorder already carries an installed table")
    recorder.names = [row.name for row in table]
    installed = Installed(recorder, [])
    try:
        for index, row in enumerate(table):
            namespace = _resolve(row.owner)
            if row.attr not in vars(namespace):
                raise AttributeError(
                    "span table row {!r}: {} has no attribute {!r} of its "
                    "own — update benchmarks/e2e/spans.py".format(
                        row.name, row.owner, row.attr)
                )
            original = vars(namespace)[row.attr]
            function = (
                original.__func__
                if isinstance(original, staticmethod) else original
            )
            wrapped = _wrap(function, row, index, recorder)
            if isinstance(original, staticmethod):
                wrapped = staticmethod(wrapped)
            setattr(namespace, row.attr, wrapped)
            installed._originals.append((namespace, row.attr, original))
    except Exception:
        installed.uninstall()
        raise
    return installed


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
@dataclass
class SpanTotals:
    """Per-name totals over one traced run (times in nanoseconds)."""

    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0

    @property
    def mean_us(self) -> float:
        return self.total_ns / self.calls / 1e3 if self.calls else 0.0

    @property
    def self_mean_us(self) -> float:
        return self.self_ns / self.calls / 1e3 if self.calls else 0.0


def aggregate(
    spans: Sequence[Tuple[int, int, str, int, int, int]]
) -> Dict[str, SpanTotals]:
    """Fold spans into per-name call counts, total and self time."""
    child_ns: Dict[int, int] = {}
    for _, parent, _, start, end, _ in spans:
        if parent >= 0:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    totals: Dict[str, SpanTotals] = {}
    for span_id, _, name, start, end, _ in spans:
        entry = totals.get(name)
        if entry is None:
            entry = totals[name] = SpanTotals()
        duration = end - start
        entry.calls += 1
        entry.total_ns += duration
        entry.self_ns += duration - child_ns.get(span_id, 0)
    return totals


def root_ns(spans: Sequence[Tuple[int, int, str, int, int, int]]) -> int:
    """Time covered by root spans — what the layers account for — less
    every host probe, root or nested: the measured window excludes
    them."""
    covered = 0
    for _, parent, name, start, end, _ in spans:
        if name == PROBE_SPAN:
            covered -= (end - start) if parent >= 0 else 0
        elif parent < 0:
            covered += end - start
    return covered


def missing_rows(recorder: Recorder, workload: str,
                 table: Iterable[SpanRow] = SPAN_TABLE) -> List[str]:
    """Rows the table says ``workload`` exercises that recorded no call
    (``table`` must be the one the recorder was installed with)."""
    calls = recorder.calls_by_index()
    return [
        "no call recorded for {} ({}.{})".format(
            row.name, row.owner, row.attr)
        for index, row in enumerate(table)
        if workload in row.on and calls[index] == 0
    ]


# ----------------------------------------------------------------------
# NDJSON
# ----------------------------------------------------------------------
def write_ndjson(path, recorder: Recorder, extra: Optional[dict] = None
                 ) -> None:
    """One ``[id, parent, name, start_ns, end_ns, op]`` line per span
    (times relative to the first span, so the file holds no clock
    reading), then one object line holding ``extra``."""
    data = recorder.data
    origin = min(
        (data[base + 3] for base in range(0, len(data), _FIELDS)),
        default=0,
    )
    with open(path, "w") as handle:
        for span_id, parent, name, start, end, op in recorder.spans():
            handle.write('[%d,%d,"%s",%d,%d,%d]\n' % (
                span_id, parent, name, start - origin, end - origin, op))
        handle.write(json.dumps(extra or {}, sort_keys=True) + "\n")


def read_ndjson(path) -> Tuple[List[tuple], dict]:
    """Inverse of :func:`write_ndjson`: ``(spans, trailer)``."""
    spans: List[tuple] = []
    trailer: dict = {}
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            if isinstance(record, list):
                spans.append(tuple(record))
            else:
                trailer = record
    return spans, trailer
