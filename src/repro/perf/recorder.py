"""Phase timers, counters, and spans for the cleaning pipeline.

A :class:`PerfRecorder` records named phase timings (wall seconds, via
:func:`time.perf_counter`) and integer counters straight into its own
:class:`~repro.obs.metrics.MetricsRegistry` — the one store that
``/metrics`` renders and the bench harness reads.  Phases nest: a
phase entered while another is open records under a dotted path
(``severity.fit``), so the phase list reads like a call tree without
any tracing machinery.

Naming: a dotted counter ``dates.fetch_failed`` is the registry
counter ``repro_dates_fetch_failed_total`` (:func:`counter_metric_name`)
with HELP ``Pipeline counter dates.fetch_failed.``; phase timers fold
into two labelled counters, ``repro_phase_seconds_total{phase="..."}``
and ``repro_phase_calls_total{phase="..."}``.

When a trace is active (:meth:`PerfRecorder.start_trace`), every phase
additionally records a :class:`~repro.obs.trace.Span` — name,
trace/span/parent ids, start and duration in microseconds, and the
recording pid/tid — which :mod:`repro.obs.trace` exports as Chrome
trace-event JSON.  Tracing is opt-in; with no trace active a phase is a
``perf_counter`` pair and two counter increments.

The module keeps one process-wide default recorder; library code uses
the module-level :func:`phase` / :func:`add_counter` helpers, and
:func:`trace_session` / :func:`maybe_trace` trace it to a file.
"""

from __future__ import annotations

import contextlib
import os
import re
import secrets
import sys
import threading
import time
from collections.abc import Iterator
from pathlib import Path

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, trace_target, write_trace

__all__ = [
    "PerfRecorder",
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

_PHASE_SECONDS = "repro_phase_seconds_total"
_COUNTER_HELP_PREFIX = "Pipeline counter "
_INVALID_NAME_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def new_trace_id() -> str:
    """A 16-hex-digit trace id."""
    return secrets.token_hex(8)


def new_span_id() -> str:
    """An 8-hex-digit span id."""
    return secrets.token_hex(4)


def counter_metric_name(perf_name: str) -> str:
    """Map a dotted perf counter name onto the Prometheus convention.

    ``dates.fetch_failed`` → ``repro_dates_fetch_failed_total``.
    """
    sanitised = _INVALID_NAME_CHARS.sub("_", perf_name.replace(".", "_"))
    return f"repro_{sanitised}_total"


class PerfRecorder:
    """Records phase timings and counters into :attr:`registry`, and
    (optionally) spans.

    The registry's series locks make counter and phase updates safe
    from the threaded HTTP server's request threads; the phase *stack*
    stays main-thread-only (documented limit).
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self._stack: list[str] = []
        self.trace_id: str | None = None
        self._span_stack: list[str] = []
        self._spans: list[Span] = []

    # -- recording -----------------------------------------------------------

    @contextlib.contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a named phase; nested phases record under dotted paths."""
        path = f"{self._stack[-1]}.{name}" if self._stack else name
        self._stack.append(path)
        span_id: str | None = None
        if self.trace_id is not None:
            span_id = new_span_id()
            self._span_stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            registry = self.registry
            registry.counter(
                _PHASE_SECONDS, "Accumulated wall seconds per pipeline phase.",
                labels=("phase",),
            ).labels(path).inc(elapsed)
            registry.counter(
                "repro_phase_calls_total", "Accumulated calls per pipeline phase.",
                labels=("phase",),
            ).labels(path).inc()
            if span_id is not None:
                self._span_stack.pop()
                parent = self._span_stack[-1] if self._span_stack else None
                self._spans.append(
                    Span(
                        name=path,
                        trace_id=self.trace_id or "",
                        span_id=span_id,
                        parent_id=parent,
                        start_us=int(start * 1e6),
                        dur_us=int(elapsed * 1e6),
                        pid=os.getpid(),
                        tid=threading.get_ident() & 0x7FFFFFFF,
                    )
                )

    def add_counter(self, name: str, value: int = 1) -> None:
        """Bump an integer counter (e.g. entries processed)."""
        self.registry.counter(
            counter_metric_name(name), f"{_COUNTER_HELP_PREFIX}{name}."
        ).inc(value)

    def reset(self) -> None:
        """Drop everything recorded: a fresh registry, no spans, no trace."""
        self.registry = MetricsRegistry()
        self._stack.clear()
        self.trace_id = None
        self._span_stack.clear()
        self._spans.clear()

    # -- tracing -------------------------------------------------------------

    def start_trace(self, trace_id: str | None = None) -> str:
        """Begin collecting spans; returns the (possibly generated) trace id."""
        self.trace_id = trace_id or new_trace_id()
        self._spans.clear()
        return self.trace_id

    def stop_trace(self) -> list[Span]:
        """End the trace and drain every collected span."""
        spans, self._spans = self._spans, []
        self.trace_id = None
        return spans

    # -- reading -------------------------------------------------------------

    @property
    def counters(self) -> dict[str, int]:
        """Dotted counter name → count.  The name is read back from the
        HELP text :meth:`add_counter` registered."""
        return {
            metric.help_text[len(_COUNTER_HELP_PREFIX):-1]: int(metric.value())
            for metric in self.registry.metrics()
            if metric.help_text.startswith(_COUNTER_HELP_PREFIX)
        }

    def phase_seconds(self) -> dict[str, float]:
        """Phase path → accumulated wall seconds."""
        family = self.registry.get(_PHASE_SECONDS)
        if family is None:
            return {}
        return {series.labels[0]: series.value for series in family.series()}


_DEFAULT = PerfRecorder()


def get_recorder() -> PerfRecorder:
    """The process-wide default recorder."""
    return _DEFAULT


def phase(name: str) -> contextlib.AbstractContextManager[None]:
    """Time a phase on the default recorder."""
    return _DEFAULT.phase(name)


def add_counter(name: str, value: int = 1) -> None:
    """Bump a counter on the default recorder."""
    _DEFAULT.add_counter(name, value)


def reset() -> None:
    """Clear the default recorder (bench harness calls this per run)."""
    _DEFAULT.reset()


@contextlib.contextmanager
def trace_session(path: str | Path) -> Iterator[str]:
    """Collect spans on the default recorder; write the file on exit."""
    trace_id = _DEFAULT.start_trace()
    try:
        yield trace_id
    finally:
        write_trace(path, _DEFAULT.stop_trace())


@contextlib.contextmanager
def maybe_trace(path: str | Path | None = None) -> Iterator[str | None]:
    """Trace if ``path`` or ``REPRO_TRACE`` names a target and no trace
    is already active; otherwise a no-op (so nesting never re-enters)."""
    target = str(path) if path else trace_target()
    if not target or _DEFAULT.trace_id is not None:
        yield None
        return
    with trace_session(target) as trace_id:
        yield trace_id


def peak_rss_mb(children: bool = True) -> float:
    """Peak resident set size in MiB (0.0 if unknown).

    With ``children=True`` (the default) this is the max of the
    process's own peak and the peak of any waited-for child
    (``RUSAGE_CHILDREN``).  The max — not the sum — is reported because
    children run concurrently with the parent and each other; summing
    maxima would overstate any single process's footprint.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return 0.0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        rss = max(rss, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    # ru_maxrss is kilobytes on Linux but bytes on macOS.
    divisor = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return round(rss / divisor, 2)
