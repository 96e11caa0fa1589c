"""Unified telemetry plane: metrics registry, exposition, span tracing.

Three pieces, all stdlib, none depending on the pipeline:

- :mod:`repro.obs.metrics` — a deterministic metrics registry
  (:class:`Counter` / :class:`Gauge` / :class:`Histogram` with fixed,
  declared bucket boundaries and label support).
- :mod:`repro.obs.exposition` — Prometheus text-format rendering
  (``# HELP`` / ``# TYPE``, histogram ``_bucket``/``_sum``/``_count``).
- :mod:`repro.obs.trace` — the :class:`Span` record and its Chrome
  trace-event export, loadable in Perfetto with one lane per process.

:class:`repro.perf.PerfRecorder` builds on these: it records phase
timers and counters into a registry of its own and collects spans when
``REPRO_TRACE`` / ``--trace`` is set (:func:`repro.perf.maybe_trace`).
The service (:mod:`repro.service.http`) feeds its request, cache,
breaker, and supervisor stats into a second registry and serves both
at ``/metrics``.
"""

from repro.obs.exposition import PROMETHEUS_CONTENT_TYPE, render_prometheus
from repro.obs.metrics import Counter, Gauge, Histogram, MetricError, MetricsRegistry
from repro.obs.trace import (
    TRACE_ENV,
    TraceWriter,
    load_trace,
    span_event,
    trace_target,
    write_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "PROMETHEUS_CONTENT_TYPE",
    "TRACE_ENV",
    "TraceWriter",
    "load_trace",
    "render_prometheus",
    "span_event",
    "trace_target",
    "write_trace",
]
