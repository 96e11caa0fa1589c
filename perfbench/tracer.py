"""Spans around the program's public entry points, recorded from outside.

The traced run wraps each entry point named in :data:`LAYERS` — no
instrumentation lives in the program itself.  A span records its name,
start, end, the span that was open on the same thread when it began
(its parent), and the request trace id it belongs to.  Spans stay in
memory and are written once, with :func:`repro.obs.trace.write_trace`,
when the run ends.

A layer's self time is its span's duration minus the time its child
spans cover, so the self times of every span under a root add up to the
root's duration.  An entry point that no longer exists is reported as
absent instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import threading
import time
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

#: (layer, "module:attribute") for every wrapped entry point.  A
#: module-level function is replaced in every ``repro`` module that
#: imported it by name; a method is replaced on its class.
LAYERS: tuple[tuple[str, str], ...] = (
    ("synth.generate", "repro.synth.generator:generate"),
    ("core.dates.estimate_all", "repro.core.dates:estimate_all"),
    ("core.vendors.analyze", "repro.core.vendors:analyze_vendors"),
    ("core.products.analyze", "repro.core.products:analyze_products"),
    ("core.severity.fit", "repro.core.severity:SeverityPredictionEngine.fit"),
    ("core.severity.fit.nn", "repro.ml.nn:fit"),
    ("core.severity.fit.svr", "repro.ml.svr:SupportVectorRegressor.fit"),
    ("core.severity.fit.lr", "repro.ml.linear:LinearRegression.fit"),
    ("core.severity.select", "repro.core.severity:SeverityPredictionEngine.best_model"),
    ("core.severity.predict", "repro.core.severity:SeverityPredictionEngine.predict_scores"),
    ("core.cwefix.extract", "repro.core.cwefix:extract_cwe_fixes"),
    ("ml.nn.conv1d.forward", "repro.ml.nn:Conv1D.forward"),
    ("ml.nn.conv1d.backward", "repro.ml.nn:Conv1D.backward"),
    ("ml.nn.dense.forward", "repro.ml.nn:Dense.forward"),
    ("ml.nn.dense.backward", "repro.ml.nn:Dense.backward"),
    ("ml.nn.adam.step", "repro.ml.nn:Adam.step"),
    ("artifacts.load", "repro.artifacts.store:load_artifacts"),
    ("artifacts.recover", "repro.artifacts.recovery:recover_store"),
    ("artifacts.export", "repro.artifacts.store:export_run"),
    ("nvd.merge", "repro.nvd.store:NvdSnapshot.merge"),
    ("service.handle", "repro.service.http:NvdService.handle"),
    ("service.cache.get", "repro.service.http:ResponseCache.get"),
    ("service.cache.put", "repro.service.http:ResponseCache.put"),
    ("service.state.cve", "repro.service.state:ServiceState.cve_payload"),
    ("service.state.vendor", "repro.service.state:ServiceState.vendor_payload"),
    ("service.state.product", "repro.service.state:ServiceState.product_payload"),
    ("service.state.stats", "repro.service.state:ServiceState.stats_payload"),
    ("service.state.predict", "repro.service.state:ServiceState.predict_payloads"),
)


def _nn_fit_name(args: tuple, kwargs: dict) -> str:
    """``ml.nn.fit`` trains both networks; the first layer tells them
    apart (the CNN opens with a convolution)."""
    model = args[0] if args else kwargs["model"]
    first = type(model.layers[0]).__name__
    return "core.severity.fit." + ("cnn" if first == "Conv1D" else "dnn")


def _request_trace_id(args: tuple, kwargs: dict) -> str:
    """The client's ``X-Repro-Trace-Id`` as handed to ``NvdService.handle``."""
    trace_id = kwargs.get("trace_id", args[4] if len(args) > 4 else None)
    return trace_id or ""


_NAMERS: dict[str, Callable[[tuple, dict], str]] = {
    "core.severity.fit.nn": _nn_fit_name,
}
_TRACE_IDS: dict[str, Callable[[tuple, dict], str]] = {
    "service.handle": _request_trace_id,
}


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int = 0
    parent: int = -1
    tid: int = 0
    trace_id: str = ""


class Tracer:
    """Records spans in memory; patches and restores the entry points."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, trace_id: str = "") -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if not trace_id and parent >= 0:
            trace_id = self.spans[parent].trace_id
        span = Span(
            name,
            time.perf_counter_ns(),
            parent=parent,
            tid=threading.get_ident(),
            trace_id=trace_id,
        )
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end_ns = time.perf_counter_ns()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code (a root)."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn: Callable) -> Callable:
        namer = _NAMERS.get(name)
        trace_ids = _TRACE_IDS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open(
                namer(args, kwargs) if namer else name,
                trace_ids(args, kwargs) if trace_ids else "",
            )
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)

        return traced

    # -- patching ------------------------------------------------------------

    def install(self, layers: Iterable[tuple[str, str]] = LAYERS) -> None:
        for name, target in layers:
            module_name, _, attr_path = target.partition(":")
            try:
                owner: object = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(name)
                continue
            *owners, attr = attr_path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            traced = self.wrap(name, original)
            if owners:
                self._patch(owner, attr, original, traced)
                continue
            for module in list(sys.modules.values()):
                module_vars = getattr(module, "__dict__", {})
                if (
                    getattr(module, "__name__", "").startswith("repro")
                    and module_vars.get(attr) is original
                ):
                    self._patch(module, attr, original, traced)

    def _patch(self, owner: object, attr: str, original: object, traced: object) -> None:
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def repro_spans(self) -> list:
        """The spans as :class:`repro.perf.Span` records for the trace writer."""
        from repro.perf import Span as ReproSpan

        pid = os.getpid()
        return [
            ReproSpan(
                name=span.name,
                trace_id=span.trace_id or "-",
                span_id=str(index),
                parent_id=str(span.parent) if span.parent >= 0 else None,
                start_us=span.start_ns // 1000,
                dur_us=round((span.end_ns - span.start_ns) / 1000),
                pid=pid,
                tid=span.tid & 0x7FFFFFFF,
                category="layer",
            )
            for index, span in enumerate(self.spans)
            if span.end_ns
        ]

    def write(self, path: str | os.PathLike[str]) -> None:
        from repro.obs.trace import write_trace

        write_trace(path, self.repro_spans())


def spans_from_trace(events: list[dict]) -> list[Span]:
    """Rebuild spans from a trace file another process wrote."""
    index_of: dict[str, int] = {}
    spans: list[Span] = []
    parents: list[str | None] = []
    # The writer sorts by start time; span ids are the recording order,
    # in which every parent precedes its children.
    layer_events = sorted(
        (e for e in events if e.get("ph") == "X" and e.get("cat") == "layer"),
        key=lambda e: int(e["args"]["span_id"]),
    )
    for event in layer_events:
        args = event["args"]
        start_ns = int(event["ts"]) * 1000
        index_of[str(args.get("span_id"))] = len(spans)
        parents.append(args.get("parent_span_id"))
        trace_id = args.get("trace_id", "")
        spans.append(
            Span(
                name=event["name"],
                start_ns=start_ns,
                end_ns=start_ns + int(event["dur"]) * 1000,
                tid=int(event.get("tid", 0)),
                trace_id="" if trace_id == "-" else trace_id,
            )
        )
    for span, parent in zip(spans, parents):
        span.parent = index_of.get(parent, -1) if parent is not None else -1
    return spans


#: which spans an aggregate covers: called with a span and its
#: outermost ancestor.
Keep = Callable[[Span, Span], bool]


def under(*roots: str) -> Keep:
    """Keep the spans whose outermost ancestor is named in ``roots``."""
    return lambda span, root: root.name in roots


def _self_ns(spans: list[Span], keep: Keep | None) -> Iterator[tuple[Span, int]]:
    """``(span, self ns)`` for every kept span.  Parents always precede
    their children in ``spans``."""
    child_ns = [0] * len(spans)
    root_of: list[int] = []
    for index, span in enumerate(spans):
        if span.parent >= 0:
            child_ns[span.parent] += span.end_ns - span.start_ns
            root_of.append(root_of[span.parent])
        else:
            root_of.append(index)
    for span, children, root in zip(spans, child_ns, root_of):
        if keep is None or keep(span, spans[root]):
            yield span, span.end_ns - span.start_ns - children


def self_times(spans: list[Span], keep: Keep | None = None) -> dict[str, list[float]]:
    """``name → [calls, total_s, self_s]``."""
    table: dict[str, list[float]] = {}
    for span, own_ns in _self_ns(spans, keep):
        row = table.setdefault(span.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += (span.end_ns - span.start_ns) / 1e9
        row[2] += own_ns / 1e9
    return table


def self_by_parent(
    spans: list[Span], keep: Keep | None = None
) -> dict[tuple[str, str], float]:
    """Self seconds of each ``(layer, enclosing wrapped call)`` pair —
    how the layer timers split between training and prediction."""
    table: dict[tuple[str, str], float] = {}
    for span, own_ns in _self_ns(spans, keep):
        key = (span.name, spans[span.parent].name if span.parent >= 0 else "-")
        table[key] = table.get(key, 0.0) + own_ns / 1e9
    return table


def layer_metrics(
    table: dict[str, list[float]], n_ops: int, root: str
) -> tuple[dict[str, float], list[tuple[str, int, float, float]]]:
    """Per-operation layer metrics and table rows for a run whose
    operations are spans named ``root``.

    Each wrapped layer reports its total seconds per operation; the
    root reports its self time as ``<root>.self_s`` (the operation
    minus every wrapped call inside it); Adam also reports its step
    count.
    """
    metrics = {
        f"{name}_s": row[1] / n_ops for name, row in table.items() if name != root
    }
    if root in table:
        metrics[f"{root}.self_s"] = table[root][2] / n_ops
    if "ml.nn.adam.step" in table:
        metrics["ml.nn.adam.steps"] = table["ml.nn.adam.step"][0] / n_ops
    rows = [
        (name, int(row[0]), row[1] / n_ops, row[2] / n_ops)
        for name, row in table.items()
    ]
    return metrics, rows


def format_table(
    rows: Iterable[tuple[str, int, float, float]], total_s: float, unit_scale: float = 1.0, unit: str = "s"
) -> list[str]:
    """Self-time table lines: layer, calls, self per operation, share of
    the end-to-end total.  ``rows`` carry seconds per operation."""
    rows = sorted(rows, key=lambda row: -row[3])
    lines = [f"  {'layer':<34}{'calls':>9}{'total ' + unit:>14}{'self ' + unit:>14}{'share':>8}"]
    covered = 0.0
    for name, calls, total, own in rows:
        covered += own
        share = own / total_s if total_s else 0.0
        lines.append(
            f"  {name:<34}{calls:>9}{total * unit_scale:>14.3f}"
            f"{own * unit_scale:>14.3f}{share:>8.1%}"
        )
    lines.append(
        f"  {'(sum of self times)':<34}{'':>9}{'':>14}{covered * unit_scale:>14.3f}"
        f"{(covered / total_s if total_s else 0.0):>8.1%}"
    )
    return lines
