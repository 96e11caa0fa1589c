"""Chrome trace-event export for :class:`Span` records.

A :class:`Span` is one completed phase occurrence;
:class:`~repro.perf.PerfRecorder` collects them while a trace is active.
Spans render as Chrome trace-event JSON — the ``[{...},{...}]`` array
format that Perfetto and ``chrome://tracing`` load directly.  Each
process gets its own pid lane, named via ``"M"`` metadata events; spans
are ``"X"`` complete events with microsecond timestamps.

:class:`TraceWriter` streams events one JSON object per line.  The
file is a strictly valid JSON array after :meth:`TraceWriter.close`,
but the trace-event format tolerates a missing ``]`` — a crashed run
still loads (and :func:`load_trace` repairs it the same way).

This module is the file format only; :func:`repro.perf.trace_session`
and :func:`repro.perf.maybe_trace` drive the default recorder and write
its spans here.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
from collections.abc import Sequence
from pathlib import Path

__all__ = [
    "TRACE_ENV",
    "Span",
    "TraceWriter",
    "load_trace",
    "span_event",
    "trace_target",
    "write_trace",
]

TRACE_ENV = "REPRO_TRACE"


def trace_target() -> str | None:
    """The trace output path from ``REPRO_TRACE``, if set."""
    return os.environ.get(TRACE_ENV) or None


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


def span_event(span: Span) -> dict[str, object]:
    """One span as a Chrome trace-event ``"X"`` (complete) event."""
    return {
        "name": span.name,
        "cat": span.category,
        "ph": "X",
        "ts": span.start_us,
        "dur": span.dur_us,
        "pid": span.pid,
        "tid": span.tid,
        "args": {
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "parent_span_id": span.parent_id,
        },
    }


def process_name_event(pid: int, name: str) -> dict[str, object]:
    """A ``"M"`` metadata event naming one pid lane."""
    return {
        "name": "process_name",
        "ph": "M",
        "pid": pid,
        "tid": 0,
        "args": {"name": name},
    }


class TraceWriter:
    """Streams trace events to disk as a JSON array, one event per line.

    Thread-safe; every event is flushed so a killed process leaves a
    readable (Perfetto-tolerant) prefix of the trace.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._handle = self.path.open("w", encoding="utf-8")
        self._handle.write("[")
        self._first = True
        self._lock = threading.Lock()
        self._closed = False

    def add_event(self, event: dict[str, object]) -> None:
        line = json.dumps(event, separators=(",", ":"), sort_keys=True)
        with self._lock:
            if self._closed:
                return
            prefix = "\n" if self._first else ",\n"
            self._first = False
            self._handle.write(prefix + line)
            self._handle.flush()

    def add_span(self, span: Span) -> None:
        self.add_event(span_event(span))

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._handle.write("\n]\n")
            self._handle.close()

    def __enter__(self) -> TraceWriter:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def write_trace(path: str | Path, spans: Sequence[Span]) -> Path:
    """Write a complete trace file: pid-lane metadata, then spans.

    Spans sort by ``(start_us, pid, span_id)`` so output order is
    deterministic regardless of recording order.
    """
    with TraceWriter(path) as writer:
        for pid in sorted({span.pid for span in spans}):
            writer.add_event(process_name_event(pid, f"repro (pid {pid})"))
        for span in sorted(spans, key=lambda s: (s.start_us, s.pid, s.span_id)):
            writer.add_span(span)
    return Path(path)


def load_trace(path: str | Path) -> list[dict[str, object]]:
    """Load a trace file, repairing a missing ``]`` from a crashed run."""
    text = Path(path).read_text(encoding="utf-8").strip()
    if not text.startswith("["):
        raise ValueError(f"{path}: not a trace-event array")
    if not text.endswith("]"):
        text = text.rstrip().rstrip(",") + "\n]"
    events = json.loads(text)
    if not isinstance(events, list):
        raise ValueError(f"{path}: trace root is not an array")
    return events

