"""Lightweight performance instrumentation.

The pipeline's phases (§4.1–§4.4) are timed through a process-wide
:class:`PerfRecorder`; ``tools/bench.py`` reads the recorder after a
cleaning run to emit the per-phase wall-time JSON trajectory in
``BENCH_pipeline.json``.  Instrumentation is always on — a phase is a
``time.perf_counter()`` pair and a dict update, far below the noise
floor of the phases it wraps.

Counters sit alongside the timers: ``clean()`` records population
sizes, and the §4.1 crawl records its per-outcome counters (including
crawl-cache hits/misses) under ``dates.*`` — so one bench record
explains both *how long* a phase took and *how much work* it did.

When a trace is active (``REPRO_TRACE`` / ``--trace``), every phase is
also a :class:`Span` with trace/span ids; :mod:`repro.obs` renders the
counters as Prometheus metrics and the spans as a Chrome trace-event
file loadable in Perfetto.
"""

from repro.perf.recorder import (
    PerfRecorder,
    PhaseStats,
    Span,
    add_counter,
    get_recorder,
    new_span_id,
    new_trace_id,
    peak_rss_mb,
    phase,
    reset,
)

__all__ = [
    "PerfRecorder",
    "PhaseStats",
    "Span",
    "add_counter",
    "get_recorder",
    "new_span_id",
    "new_trace_id",
    "peak_rss_mb",
    "phase",
    "reset",
]
