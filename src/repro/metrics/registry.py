"""Counters, gauges, histograms and the registry that renders them.

Design constraints, in order:

1. **No dependencies** — the server must run on the bare toolchain.
2. **No count kept twice** — a value another object already owns is
   *collected* from it at every read (``collect_with``); only
   distributions, which nobody else keeps, are written at event time.
3. **Prometheus-compatible exposition** — ``render_prometheus``
   produces the text format (``# HELP`` / ``# TYPE`` / sample lines)
   so the ``metrics`` endpoint can be scraped by standard tooling, and
   ``snapshot`` produces the equivalent JSON document for humans and
   tests.

Everything is single-threaded by design: the control-plane server
serializes all mutation onto one event loop, so metrics never race.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsError", "MetricsRegistry"]


class MetricsError(Exception):
    """Invalid metric definition or use."""


#: Default latency buckets (seconds): sub-millisecond admissions up to
#: multi-second outliers, roughly log-spaced like Prometheus defaults.
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)

_NAME_OK = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:"


def _check_name(name: str) -> None:
    if not name or name[0].isdigit() or any(c not in _NAME_OK for c in name):
        raise MetricsError("invalid metric name {!r}".format(name))


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and math.isnan(value):
        return "NaN"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _labels_to_text(names: Sequence[str], values: Tuple[str, ...]) -> str:
    if not names:
        return ""
    return "{" + ",".join(
        '{}="{}"'.format(name, _escape_label_value(value))
        for name, value in zip(names, values)
    ) + "}"


class _Metric:
    """Shared bookkeeping for every metric family."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str,
                 labels: Sequence[str] = ()) -> None:
        _check_name(name)
        for label in labels:
            _check_name(label)
        self.name = name
        self.help = help_text
        self.label_names = tuple(labels)

    def _key(self, label_values: Tuple[str, ...]) -> Tuple[str, ...]:
        if len(label_values) != len(self.label_names):
            raise MetricsError(
                "{} expects labels {}, got {!r}".format(
                    self.name, self.label_names, label_values
                )
            )
        return tuple(str(value) for value in label_values)

    # Subclasses provide ``_samples() -> List[(labels, suffix, value)]``.
    def render(self) -> List[str]:
        lines = [
            "# HELP {} {}".format(self.name, self.help),
            "# TYPE {} {}".format(self.name, self.kind),
        ]
        for label_values, suffix, value in self._samples():
            lines.append("{}{} {}".format(
                suffix, _labels_to_text(*label_values), _format_value(value)
            ))
        return lines

    def _samples(self):  # pragma: no cover - abstract
        raise NotImplementedError


class _Keyed(_Metric):
    """What counters and gauges share: one value per label tuple, kept
    by the family's own mutators — or *collected* at scrape time from
    a callback, for values another object already owns (the service's
    counters, queue depths, database tallies), so no count is kept
    twice."""

    def __init__(self, name, help_text, labels=()):
        super().__init__(name, help_text, labels)
        self._values: Dict[Tuple[str, ...], float] = {}
        self._collector: Optional[Callable[[], Any]] = None

    def collect_with(self, collector: Callable[[], Any]):
        """Source the family from ``collector`` at every read.

        For an unlabeled family the callback returns a number; for a
        labeled one it returns ``{label_values_tuple: number}``.
        """
        self._collector = collector
        return self

    def inc(self, amount: float = 1.0, *label_values: object) -> None:
        key = self._key(tuple(str(v) for v in label_values))
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, *label_values: object) -> float:
        self._collect()
        key = self._key(tuple(str(v) for v in label_values))
        return self._values.get(key, 0.0)

    def total(self) -> float:
        """Sum over every label combination."""
        self._collect()
        return sum(self._values.values())

    def _collect(self) -> None:
        if self._collector is None:
            return
        collected = self._collector()
        if isinstance(collected, dict):
            self._values = {
                self._key(tuple(str(v) for v in key)): float(value)
                for key, value in collected.items()
            }
        else:
            self._values = {self._key(()): float(collected)}

    def _samples(self):
        self._collect()
        if not self._values and not self.label_names:
            return [((self.label_names, ()), self.name, 0.0)]
        return [
            ((self.label_names, key), self.name, value)
            for key, value in sorted(self._values.items())
        ]

    def snapshot(self) -> Dict[str, Any]:
        self._collect()
        values = self._values
        if not self.label_names:
            return {
                "type": self.kind,
                "help": self.help,
                "value": values.get((), 0.0),
            }
        return {
            "type": self.kind,
            "help": self.help,
            "values": [
                {"labels": dict(zip(self.label_names, key)), "value": value}
                for key, value in sorted(values.items())
            ],
        }


class Counter(_Keyed):
    """Monotonically increasing value, optionally labeled."""

    kind = "counter"

    def inc(self, amount: float = 1.0, *label_values: object) -> None:
        if amount < 0:
            raise MetricsError(
                "counter {} cannot decrease (inc {})".format(self.name, amount)
            )
        super().inc(amount, *label_values)


class Gauge(_Keyed):
    """A value that can go up and down."""

    kind = "gauge"

    def set(self, value: float, *label_values: object) -> None:
        key = self._key(tuple(str(v) for v in label_values))
        self._values[key] = float(value)

    def dec(self, amount: float = 1.0, *label_values: object) -> None:
        self.inc(-amount, *label_values)


class Histogram(_Metric):
    """Cumulative-bucket histogram (Prometheus semantics).

    Unlabeled only — the control plane's latency distributions do not
    need per-label fan-out, and keeping histograms flat keeps both the
    exposition and the snapshot simple.
    """

    kind = "histogram"

    def __init__(self, name, help_text,
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        super().__init__(name, help_text, ())
        if not buckets or sorted(buckets) != list(buckets):
            raise MetricsError(
                "histogram {} buckets must be sorted and non-empty".format(name)
            )
        self.buckets = tuple(float(b) for b in buckets)
        self._counts = [0] * len(self.buckets)
        self._count = 0
        self._sum = 0.0

    def observe(self, value: float) -> None:
        self._count += 1
        self._sum += value
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self._counts[index] += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (upper bound of the
        first bucket whose cumulative count reaches ``q``)."""
        if not 0.0 <= q <= 1.0:
            raise MetricsError("quantile must be in [0, 1], got {}".format(q))
        if self._count == 0:
            return 0.0
        threshold = q * self._count
        for bound, cumulative in zip(self.buckets, self._counts):
            if cumulative >= threshold:
                return bound
        return math.inf

    def _samples(self):
        samples = []
        for bound, cumulative in zip(self.buckets, self._counts):
            samples.append(
                ((("le",), (_format_value(bound),)),
                 self.name + "_bucket", float(cumulative))
            )
        samples.append(
            ((("le",), ("+Inf",)), self.name + "_bucket", float(self._count))
        )
        samples.append((((), ()), self.name + "_sum", self._sum))
        samples.append((((), ()), self.name + "_count", float(self._count)))
        return samples

    def snapshot(self) -> Dict[str, Any]:
        return {
            "type": self.kind,
            "help": self.help,
            "count": self._count,
            "sum": self._sum,
            "buckets": [
                {"le": bound, "count": cumulative}
                for bound, cumulative in zip(self.buckets, self._counts)
            ],
        }


class MetricsRegistry:
    """Ordered collection of metrics with get-or-create semantics."""

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def get(self, name: str) -> _Metric:
        try:
            return self._metrics[name]
        except KeyError:
            raise MetricsError("no metric named {!r}".format(name))

    def _register(self, factory, name, help_text, **kwargs):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, factory):
                raise MetricsError(
                    "{} already registered as {}".format(name, existing.kind)
                )
            labels = kwargs.get("labels")
            if labels is not None and tuple(labels) != existing.label_names:
                raise MetricsError(
                    "{} already registered with labels {}, got {}".format(
                        name, existing.label_names, tuple(labels)
                    )
                )
            buckets = kwargs.get("buckets")
            if buckets is not None and (
                tuple(float(b) for b in buckets) != existing.buckets
            ):
                raise MetricsError(
                    "{} already registered with buckets {}, got {}".format(
                        name, existing.buckets, tuple(buckets)
                    )
                )
            return existing
        metric = factory(name, help_text, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help_text: str,
                labels: Sequence[str] = ()) -> Counter:
        return self._register(Counter, name, help_text, labels=labels)

    def gauge(self, name: str, help_text: str,
              labels: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge, name, help_text, labels=labels)

    def histogram(self, name: str, help_text: str,
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._register(Histogram, name, help_text, buckets=buckets)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def render_prometheus(self) -> str:
        """The text exposition format, one family after another."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            lines.extend(self._metrics[name].render())
        return "\n".join(lines) + "\n" if lines else ""

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able view of every metric's current value."""
        return {
            name: metric.snapshot()
            for name, metric in sorted(self._metrics.items())
        }
