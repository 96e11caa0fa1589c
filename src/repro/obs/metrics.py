"""A small, deterministic metrics registry.

Three instrument kinds — :class:`Counter`, :class:`Gauge`,
:class:`Histogram` — registered by name on a :class:`MetricsRegistry`.
Everything is chosen for reproducibility:

- Histogram bucket boundaries are **declared at registration** and
  immutable, so two runs over the same workload render byte-identical
  exposition text.
- Series iterate in sorted order (metric name, then label values), so
  rendering never depends on insertion order.
- All mutations are lock-protected; instruments are safe to share
  across the service's request threads.

Label support is positional-by-declaration: a metric declares its
label *names* once, and ``metric.labels("cve", "200")`` binds a series
for those values.  Children are cached, so ``labels(...)`` with the
same values returns the same series object.
"""

from __future__ import annotations

import math
import re
import threading
from collections.abc import Callable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class MetricError(ValueError):
    """Invalid metric name, labels, buckets, or conflicting registration."""


def _signature(
    kind: str,
    name: str,
    help_text: str,
    label_names: tuple[str, ...],
    buckets: tuple[float, ...] | None = None,
) -> tuple[object, ...]:
    """A metric's identity for conflict detection on re-registration:
    kind, name, help text with whitespace folded, label names and (for a
    histogram) the bucket bounds as floats."""
    signature = (kind, name, " ".join(help_text.split()), tuple(label_names))
    if buckets is None:
        return signature
    return (*signature, tuple(float(b) for b in buckets))


class _Series:
    """One labelled time series of a counter or gauge."""

    __slots__ = ("_lock", "labels", "value")

    def __init__(self, labels: tuple[str, ...], lock: threading.Lock) -> None:
        self.labels = labels
        self.value = 0.0
        self._lock = lock

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError("counters can only increase; use a gauge")
        with self._lock:
            self.value += amount

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)


class _HistogramSeries:
    """One labelled series of a histogram: bucket counts + sum + count."""

    __slots__ = ("_lock", "bucket_counts", "count", "labels", "total", "upper_bounds")

    def __init__(
        self, labels: tuple[str, ...], upper_bounds: tuple[float, ...], lock: threading.Lock
    ) -> None:
        self.labels = labels
        self.upper_bounds = upper_bounds
        self.bucket_counts = [0] * len(upper_bounds)
        self.total = 0.0
        self.count = 0
        self._lock = lock

    def observe(self, value: float) -> None:
        with self._lock:
            for i, bound in enumerate(self.upper_bounds):
                if value <= bound:
                    self.bucket_counts[i] += 1
                    break
            self.total += value
            self.count += 1

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ending at +Inf."""
        out: list[tuple[float, int]] = []
        running = 0
        with self._lock:
            for bound, n in zip(self.upper_bounds, self.bucket_counts):
                running += n
                out.append((bound, running))
            out.append((math.inf, self.count))
        return out


class _Metric:
    """Base class: name/help/label-name validation plus series storage."""

    kind = "untyped"
    #: bucket bounds, part of a histogram's identity (None otherwise).
    upper_bounds: tuple[float, ...] | None = None

    def __init__(self, name: str, help_text: str, label_names: tuple[str, ...]) -> None:
        if not _NAME_RE.match(name):
            raise MetricError(f"illegal metric name: {name!r}")
        for label in label_names:
            if not _LABEL_RE.match(label) or label.startswith("__"):
                raise MetricError(f"illegal label name: {label!r}")
        if len(set(label_names)) != len(label_names):
            raise MetricError(f"duplicate label names: {label_names!r}")
        self.name = name
        self.help_text = " ".join(help_text.split())
        self.label_names = label_names
        self._lock = threading.Lock()
        self._series: dict[tuple[str, ...], object] = {}
        self._signature = _signature(
            self.kind, name, help_text, label_names, self.upper_bounds
        )

    def _new_series(self, values: tuple[str, ...]) -> object:
        return _Series(values, self._lock)

    def labels(self, *values: object) -> object:
        """The series for these label values (created on first use)."""
        if len(values) != len(self.label_names):
            raise MetricError(
                f"{self.name}: expected {len(self.label_names)} label values, got {len(values)}"
            )
        key = tuple(str(v) for v in values)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._new_series(key)
                self._series[key] = series
            return series

    def _default(self) -> object:
        """The unlabelled series (only valid when no labels declared)."""
        if self.label_names:
            raise MetricError(f"{self.name} has labels {self.label_names}; use .labels(...)")
        return self.labels()

    def series(self) -> list[object]:
        """All series, sorted by label values — the rendering order."""
        with self._lock:
            return [self._series[key] for key in sorted(self._series)]

    def signature(self) -> tuple[object, ...]:
        """Identity for conflict detection on re-registration."""
        return self._signature


class Counter(_Metric):
    """A monotonically increasing count."""

    kind = "counter"

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    def value(self, *label_values: object) -> float:
        series = self.labels(*label_values) if label_values else self._default()
        return series.value


class Gauge(_Metric):
    """A value that can go up and down."""

    kind = "gauge"

    def set(self, value: float) -> None:
        self._default().set(value)

    def inc(self, amount: float = 1.0) -> None:
        series = self._default()
        with self._lock:
            series.value += amount

    def value(self, *label_values: object) -> float:
        series = self.labels(*label_values) if label_values else self._default()
        return series.value


class Histogram(_Metric):
    """Observations bucketed into fixed, declared boundaries.

    Buckets follow Prometheus ``le`` semantics: an observation lands in
    the first bucket whose upper bound is >= the value; the implicit
    ``+Inf`` bucket catches the rest.  Boundaries must be finite and
    strictly increasing — declared once, never derived from data, so
    exposition output is deterministic.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        buckets: tuple[float, ...],
        label_names: tuple[str, ...] = (),
    ) -> None:
        if not buckets:
            raise MetricError(f"{name}: histogram needs at least one bucket boundary")
        bounds = tuple(float(b) for b in buckets)
        for prev, cur in zip(bounds, bounds[1:]):
            if cur <= prev:
                raise MetricError(f"{name}: bucket boundaries must be strictly increasing")
        if any(math.isinf(b) or math.isnan(b) for b in bounds):
            raise MetricError(f"{name}: bucket boundaries must be finite (+Inf is implicit)")
        self.upper_bounds = bounds
        super().__init__(name, help_text, label_names)

    def _new_series(self, values: tuple[str, ...]) -> object:
        return _HistogramSeries(values, self.upper_bounds, self._lock)

    def observe(self, value: float) -> None:
        self._default().observe(value)


class MetricsRegistry:
    """Named metrics with conflict-checked registration.

    Registering the same name twice with an identical signature returns
    the existing instrument (so modules can idempotently declare what
    they record); any mismatch — kind, help, labels, buckets — raises.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def _register(self, metric: _Metric) -> _Metric:
        with self._lock:
            existing = self._metrics.get(metric.name)
            if existing is not None:
                if existing.signature() != metric.signature():
                    raise MetricError(f"conflicting re-registration of {metric.name!r}")
                return existing
            self._metrics[metric.name] = metric
            return metric

    def _declare(
        self,
        name: str,
        make: Callable[[], _Metric],
        signature: tuple[object, ...],
    ) -> _Metric:
        """The metric registered as ``name``, built by ``make()`` on a
        miss.  A hit builds no instrument, so declaring
        a metric at every use (as ``repro.perf``'s recorder does) stays
        cheap; it must still match the registered signature."""
        metric = self._metrics.get(name)
        if metric is None:
            return self._register(make())
        if metric.signature() != signature:
            raise MetricError(f"conflicting re-registration of {name!r}")
        return metric

    def counter(self, name: str, help_text: str, labels: tuple[str, ...] = ()) -> Counter:
        return self._declare(
            name,
            lambda: Counter(name, help_text, tuple(labels)),
            _signature(Counter.kind, name, help_text, labels),
        )

    def gauge(self, name: str, help_text: str, labels: tuple[str, ...] = ()) -> Gauge:
        return self._declare(
            name,
            lambda: Gauge(name, help_text, tuple(labels)),
            _signature(Gauge.kind, name, help_text, labels),
        )

    def histogram(
        self,
        name: str,
        help_text: str,
        buckets: tuple[float, ...],
        labels: tuple[str, ...] = (),
    ) -> Histogram:
        return self._declare(
            name,
            lambda: Histogram(name, help_text, tuple(buckets), tuple(labels)),
            _signature(Histogram.kind, name, help_text, labels, buckets),
        )

    def metrics(self) -> list[_Metric]:
        """All registered metrics, sorted by name — the rendering order."""
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def as_dict(self) -> dict[str, object]:
        """A JSON-serialisable snapshot (used by tests and debugging)."""
        out: dict[str, object] = {}
        for metric in self.metrics():
            series_out = []
            for series in metric.series():
                labels = dict(zip(metric.label_names, series.labels))
                if isinstance(series, _HistogramSeries):
                    series_out.append(
                        {
                            "labels": labels,
                            "buckets": [
                                [bound, count]
                                for bound, count in zip(
                                    series.upper_bounds, series.bucket_counts
                                )
                            ],
                            "sum": series.total,
                            "count": series.count,
                        }
                    )
                else:
                    series_out.append({"labels": labels, "value": series.value})
            out[metric.name] = {
                "type": metric.kind,
                "help": metric.help_text,
                "series": series_out,
            }
        return out
