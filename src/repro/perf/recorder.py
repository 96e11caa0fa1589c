"""Phase timers, counters, and spans for the cleaning pipeline.

A :class:`PerfRecorder` accumulates named phase timings (wall seconds,
via :func:`time.perf_counter`) and integer counters.  Phases nest: a
phase entered while another is open records under a dotted path
(``severity.fit``), so a report reads like a call tree without any
tracing machinery.

When a trace is active (:meth:`PerfRecorder.start_trace`), every phase
additionally records a :class:`Span` — name, trace/span/parent ids,
start and duration in microseconds, and the recording pid/tid — which
:mod:`repro.obs.trace` exports as Chrome trace-event JSON.  Tracing is
opt-in; with no trace active a phase stays a ``perf_counter`` pair and
a dict update.

The module keeps one process-wide default recorder; library code uses
the module-level :func:`phase` / :func:`add_counter` helpers so callers
that never look at the recorder pay only a dict update per phase.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import secrets
import sys
import threading
import time
from collections.abc import Iterator

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


def new_trace_id() -> str:
    """A 16-hex-digit trace id."""
    return secrets.token_hex(8)


def new_span_id() -> str:
    """An 8-hex-digit span id."""
    return secrets.token_hex(4)


@dataclasses.dataclass(frozen=True)
class Span:
    """One completed phase occurrence inside a trace.

    Timestamps are microseconds on the ``time.perf_counter`` clock,
    which on Linux is system-wide monotonic.
    """

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None
    start_us: int
    dur_us: int
    pid: int
    tid: int
    category: str = "phase"


@dataclasses.dataclass
class PhaseStats:
    """Accumulated wall time for one named phase."""

    seconds: float = 0.0
    calls: int = 0

    def add(self, seconds: float) -> None:
        self.seconds += seconds
        self.calls += 1


class PerfRecorder:
    """Accumulates phase timings, counters, and (optionally) spans."""

    def __init__(self) -> None:
        self._phases: dict[str, PhaseStats] = {}
        self._counters: dict[str, int] = {}
        self._stack: list[str] = []
        # Counter/phase updates may arrive from the threaded HTTP
        # server's request threads; the phase *stack* stays
        # main-thread-only (documented limit).
        self._lock = threading.Lock()
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
            with self._lock:
                self._phases.setdefault(path, PhaseStats()).add(elapsed)
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
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def reset(self) -> None:
        """Clear all recorded phases, counters, spans, and trace state."""
        with self._lock:
            self._phases.clear()
            self._counters.clear()
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

    def take_spans(self) -> list[Span]:
        """Drain collected spans without ending the trace."""
        spans, self._spans = self._spans, []
        return spans

    # -- reading -------------------------------------------------------------

    @property
    def phases(self) -> dict[str, PhaseStats]:
        return dict(self._phases)

    @property
    def counters(self) -> dict[str, int]:
        return dict(self._counters)

    def phase_seconds(self) -> dict[str, float]:
        """Phase path → accumulated wall seconds."""
        return {name: stats.seconds for name, stats in self._phases.items()}

    def report(self) -> dict[str, object]:
        """A JSON-serialisable summary of everything recorded."""
        return {
            "phases": {
                name: {"seconds": round(stats.seconds, 6), "calls": stats.calls}
                for name, stats in self._phases.items()
            },
            "counters": dict(self._counters),
        }


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
