"""Unified telemetry plane: metrics registry, exposition, span tracing.

Three coupled pieces, all stdlib:

- :mod:`repro.obs.metrics` — a deterministic metrics registry
  (:class:`Counter` / :class:`Gauge` / :class:`Histogram` with fixed,
  declared bucket boundaries and label support).
- :mod:`repro.obs.exposition` — Prometheus text-format rendering
  (``# HELP`` / ``# TYPE``, histogram ``_bucket``/``_sum``/``_count``)
  plus the bridge that maps :class:`~repro.perf.PerfRecorder` counters
  and phase timers onto the ``repro_*`` naming convention.
- :mod:`repro.obs.trace` — Chrome trace-event export of the spans the
  recorder collects when ``REPRO_TRACE`` / ``--trace`` is set,
  loadable in Perfetto with one lane per process.

The service (:mod:`repro.service.http`) feeds its request, cache,
breaker, and supervisor stats into a registry and serves it at
``/metrics``.
"""

from repro.obs.exposition import (
    PROMETHEUS_CONTENT_TYPE,
    counter_metric_name,
    registry_from_perf,
    render_prometheus,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricError, MetricsRegistry
from repro.obs.trace import (
    TRACE_ENV,
    TraceWriter,
    load_trace,
    maybe_trace,
    span_event,
    trace_session,
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
    "counter_metric_name",
    "load_trace",
    "maybe_trace",
    "registry_from_perf",
    "render_prometheus",
    "span_event",
    "trace_session",
    "trace_target",
    "write_trace",
]
