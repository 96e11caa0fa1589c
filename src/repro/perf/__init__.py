"""Lightweight performance instrumentation.

The pipeline's phases (§4.1–§4.4) are timed through a process-wide
:class:`PerfRecorder`; ``tools/bench.py`` reads the recorder after a
cleaning run to emit the per-phase wall-time JSON trajectory in
``BENCH_pipeline.json``.  Instrumentation is always on — a phase is a
``time.perf_counter()`` pair and two counter increments, far below the
noise floor of the phases it wraps.

Counters sit alongside the timers: ``clean()`` records population
sizes, and the §4.1 crawl records its per-outcome counters (including
crawl-cache hits/misses) under ``dates.*`` — so one bench record
explains both *how long* a phase took and *how much work* it did.

Timers and counters live in one store, the recorder's
:class:`~repro.obs.metrics.MetricsRegistry`: ``/metrics`` renders it
as is, and :attr:`PerfRecorder.counters` /
:meth:`PerfRecorder.phase_seconds` are read views over it.  When a
trace is active (``REPRO_TRACE`` / ``--trace``, via
:func:`maybe_trace` or :func:`trace_session`), every phase is also a
:class:`Span` with trace/span ids, written as a Chrome trace-event file
loadable in Perfetto.
"""

from repro.obs.trace import Span
from repro.perf.recorder import (
    PerfRecorder,
    add_counter,
    counter_metric_name,
    get_recorder,
    maybe_trace,
    new_span_id,
    new_trace_id,
    peak_rss_mb,
    phase,
    reset,
    trace_session,
)

__all__ = [
    "PerfRecorder",
    "Span",
    "add_counter",
    "counter_metric_name",
    "get_recorder",
    "maybe_trace",
    "new_span_id",
    "new_trace_id",
    "peak_rss_mb",
    "phase",
    "reset",
    "trace_session",
]
