"""Prometheus text exposition (format 0.0.4) for the metrics registry.

:func:`render_prometheus` turns a :class:`MetricsRegistry` into the
classic text format: a ``# HELP`` / ``# TYPE`` pair per family, one
sample line per series, histogram families expanded into cumulative
``_bucket{le=...}`` samples plus ``_sum`` and ``_count``.  Output is
deterministic — families sort by name, series by label values, and
numbers format through one shared function — so golden tests can pin
exact bytes.

:func:`registry_from_perf` bridges the pipeline's ad-hoc
:class:`~repro.perf.PerfRecorder` counters and phase timers into
registry form.  Naming convention: a dotted perf counter
``dates.fetch_failed`` becomes ``repro_dates_fetch_failed_total``;
phase timers fold into two labelled families,
``repro_phase_seconds_total{phase="..."}`` and
``repro_phase_calls_total{phase="..."}``.
"""

from __future__ import annotations

import math
import re

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.perf import PerfRecorder

__all__ = [
    "PROMETHEUS_CONTENT_TYPE",
    "registry_from_perf",
    "render_prometheus",
]

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_INVALID_NAME_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def _format_value(value: float) -> str:
    """One deterministic number format for samples and ``le`` bounds."""
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_help(text: str) -> str:
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _escape_label_value(text: str) -> str:
    return text.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _label_block(names: tuple[str, ...], values: tuple[str, ...], extra: str = "") -> str:
    parts = [
        f'{name}="{_escape_label_value(value)}"' for name, value in zip(names, values)
    ]
    if extra:
        parts.append(extra)
    if not parts:
        return ""
    return "{" + ",".join(parts) + "}"


def render_prometheus(*registries: MetricsRegistry) -> str:
    """Render one or more registries as Prometheus text format 0.0.4.

    Multiple registries concatenate in argument order; callers are
    responsible for keeping family names disjoint across them.
    """
    lines: list[str] = []
    for registry in registries:
        for metric in registry.metrics():
            lines.append(f"# HELP {metric.name} {_escape_help(metric.help_text)}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            if isinstance(metric, Histogram):
                for series in metric.series():
                    for bound, cumulative in series.cumulative_buckets():
                        block = _label_block(
                            metric.label_names,
                            series.labels,
                            extra=f'le="{_format_value(bound)}"',
                        )
                        lines.append(f"{metric.name}_bucket{block} {cumulative}")
                    block = _label_block(metric.label_names, series.labels)
                    lines.append(f"{metric.name}_sum{block} {_format_value(series.total)}")
                    lines.append(f"{metric.name}_count{block} {series.count}")
            else:
                for series in metric.series():
                    block = _label_block(metric.label_names, series.labels)
                    lines.append(f"{metric.name}{block} {_format_value(series.value)}")
    return "\n".join(lines) + "\n"


def counter_metric_name(perf_name: str) -> str:
    """Map a dotted perf counter name onto the Prometheus convention.

    ``dates.fetch_failed`` → ``repro_dates_fetch_failed_total``.
    """
    sanitised = _INVALID_NAME_CHARS.sub("_", perf_name.replace(".", "_"))
    return f"repro_{sanitised}_total"


def registry_from_perf(
    recorder: PerfRecorder, registry: MetricsRegistry | None = None
) -> MetricsRegistry:
    """Snapshot a perf recorder's counters and phases into a registry."""
    registry = registry or MetricsRegistry()
    for name in sorted(recorder.counters):
        metric = registry.counter(counter_metric_name(name), f"Pipeline counter {name}.")
        metric.inc(recorder.counters[name])
    phases = recorder.phases
    if phases:
        seconds = registry.counter(
            "repro_phase_seconds_total", "Accumulated wall seconds per pipeline phase.",
            labels=("phase",),
        )
        calls = registry.counter(
            "repro_phase_calls_total", "Accumulated calls per pipeline phase.",
            labels=("phase",),
        )
        for name in sorted(phases):
            seconds.labels(name).inc(phases[name].seconds)
            calls.labels(name).inc(phases[name].calls)
    return registry
