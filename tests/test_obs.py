"""The unified telemetry plane: registry, exposition, recorder, tracing.

The contracts pinned here:

- the metrics registry renders **byte-identical** exposition text
  regardless of registration or observation order (fixed buckets,
  sorted families/series);
- the Prometheus text output always passes the
  ``tools/check_metrics.py`` lint — the same linter CI runs against the
  live service;
- ``--trace`` produces Chrome trace-event JSON with one lane per
  process, correct parentage, and a crash-tolerant file format.
"""

from __future__ import annotations

import importlib.util
import json
import math
import pathlib
import re
import subprocess
import sys

import pytest

from repro import perf
from repro.obs import (
    PROMETHEUS_CONTENT_TYPE,
    MetricError,
    MetricsRegistry,
    TraceWriter,
    load_trace,
    render_prometheus,
    span_event,
    write_trace,
)
from repro.perf import PerfRecorder, Span, counter_metric_name, maybe_trace, trace_session

TOOLS = pathlib.Path(__file__).parent.parent / "tools"


def _load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_metrics = _load_tool("check_metrics")


# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_inc_and_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_x_total", "X.")
        counter.inc()
        counter.inc(2)
        assert counter.value() == 3

    def test_counter_rejects_negative(self):
        counter = MetricsRegistry().counter("repro_x_total", "X.")
        with pytest.raises(MetricError, match="only increase"):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("repro_g", "G.")
        gauge.set(5)
        gauge.inc(-2)
        assert gauge.value() == 3

    def test_labelled_children_are_cached(self):
        counter = MetricsRegistry().counter(
            "repro_x_total", "X.", labels=("endpoint",)
        )
        assert counter.labels("cve") is counter.labels("cve")
        counter.labels("cve").inc()
        assert counter.value("cve") == 1

    def test_label_arity_enforced(self):
        counter = MetricsRegistry().counter(
            "repro_x_total", "X.", labels=("a", "b")
        )
        with pytest.raises(MetricError, match="expected 2 label values"):
            counter.labels("only-one")
        with pytest.raises(MetricError, match="use .labels"):
            counter.inc()

    @pytest.mark.parametrize("name", ["0bad", "has-dash", "has.dot", ""])
    def test_illegal_metric_names_rejected(self, name):
        with pytest.raises(MetricError, match="illegal metric name"):
            MetricsRegistry().counter(name, "X.")

    @pytest.mark.parametrize("label", ["0bad", "has-dash", "__reserved"])
    def test_illegal_label_names_rejected(self, label):
        with pytest.raises(MetricError, match="illegal label name"):
            MetricsRegistry().counter("repro_x_total", "X.", labels=(label,))

    def test_identical_reregistration_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_x_total", "X.", labels=("a",))
        second = registry.counter("repro_x_total", "X.", labels=("a",))
        assert first is second

    def test_conflicting_reregistration_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", "X.")
        with pytest.raises(MetricError, match="conflicting"):
            registry.gauge("repro_x_total", "X.")
        with pytest.raises(MetricError, match="conflicting"):
            registry.counter("repro_x_total", "different help")
        registry.histogram("repro_h", "H.", buckets=(1.0,))
        with pytest.raises(MetricError, match="conflicting"):
            registry.histogram("repro_h", "H.", buckets=(1.0, 2.0))

    def test_reregistration_builds_no_instrument(self, monkeypatch):
        """A name hit returns the registered metric without constructing
        (and validating) a new one; a conflicting hit still raises."""
        from repro.obs import metrics as metrics_module

        registry = MetricsRegistry()
        counter = registry.counter("repro_x_total", "X.", labels=("a",))
        gauge = registry.gauge("repro_g", "G.")
        histogram = registry.histogram("repro_h", "H.", buckets=(1, 2))

        def refuse(self, *args, **kwargs):
            raise AssertionError("a new instrument was built on a name hit")

        monkeypatch.setattr(metrics_module._Metric, "__init__", refuse)
        monkeypatch.setattr(metrics_module.Histogram, "__init__", refuse)
        assert registry.counter("repro_x_total", "X.", labels=("a",)) is counter
        assert registry.gauge("repro_g", "G.") is gauge
        assert registry.histogram("repro_h", "H.", buckets=(1.0, 2.0)) is histogram
        with pytest.raises(MetricError, match="conflicting"):
            registry.counter("repro_x_total", "X.", labels=("b",))
        with pytest.raises(MetricError, match="conflicting"):
            registry.gauge("repro_x_total", "X.", labels=("a",))
        with pytest.raises(MetricError, match="conflicting"):
            registry.histogram("repro_h", "H.", buckets=(1.0, 3.0))

    def test_hit_normalizes_like_the_instrument(self):
        """A name hit compares the same identity the instrument holds:
        help text with whitespace folded, label names as a tuple and
        histogram bounds as floats."""
        registry = MetricsRegistry()
        counter = registry.counter("repro_x_total", "Some\n   help.", labels=["a"])
        histogram = registry.histogram("repro_h", "H.", buckets=[1, 2])
        assert registry.counter("repro_x_total", "Some help.", labels=("a",)) is counter
        assert registry.histogram("repro_h", " H. ", buckets=(1.0, 2.0)) is histogram
        with pytest.raises(MetricError, match="conflicting"):
            registry.counter("repro_x_total", "Some help!", labels=("a",))
        with pytest.raises(MetricError, match="conflicting"):
            registry.gauge("repro_h", "H.")


# ---------------------------------------------------------------------------
# Histogram bucket semantics.
# ---------------------------------------------------------------------------


class TestHistogramBuckets:
    def test_boundary_value_lands_in_its_bucket(self):
        """Prometheus ``le`` semantics: value == bound counts in-bucket."""
        histogram = MetricsRegistry().histogram(
            "repro_h", "H.", buckets=(1.0, 2.0)
        )
        histogram.observe(1.0)
        histogram.observe(2.0)
        (series,) = histogram.series()
        assert series.bucket_counts == [1, 1]

    def test_above_last_bound_counts_only_in_inf(self):
        histogram = MetricsRegistry().histogram(
            "repro_h", "H.", buckets=(1.0, 2.0)
        )
        histogram.observe(99.0)
        (series,) = histogram.series()
        assert series.bucket_counts == [0, 0]
        assert series.cumulative_buckets() == [(1.0, 0), (2.0, 0), (math.inf, 1)]

    def test_cumulative_buckets_and_sum(self):
        histogram = MetricsRegistry().histogram(
            "repro_h", "H.", buckets=(0.1, 1.0)
        )
        for value in (0.05, 0.5, 5.0):
            histogram.observe(value)
        (series,) = histogram.series()
        assert series.cumulative_buckets() == [(0.1, 1), (1.0, 2), (math.inf, 3)]
        assert series.total == pytest.approx(5.55)
        assert series.count == 3

    def test_bucket_declaration_validation(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError, match="at least one bucket"):
            registry.histogram("repro_h", "H.", buckets=())
        with pytest.raises(MetricError, match="strictly increasing"):
            registry.histogram("repro_h", "H.", buckets=(2.0, 1.0))
        with pytest.raises(MetricError, match="finite"):
            registry.histogram("repro_h", "H.", buckets=(1.0, math.inf))


# ---------------------------------------------------------------------------
# Exposition.
# ---------------------------------------------------------------------------


def _sample_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    requests = registry.counter(
        "repro_requests_total", "Total requests.", labels=("endpoint",)
    )
    requests.labels("cve").inc(2)
    requests.labels("stats").inc()
    registry.gauge("repro_up", "Service liveness.").set(1)
    latency = registry.histogram(
        "repro_latency_seconds", "Request latency.", buckets=(0.1, 1.0)
    )
    for value in (0.05, 0.5, 5.0):
        latency.observe(value)
    return registry


GOLDEN = """\
# HELP repro_latency_seconds Request latency.
# TYPE repro_latency_seconds histogram
repro_latency_seconds_bucket{le="0.1"} 1
repro_latency_seconds_bucket{le="1"} 2
repro_latency_seconds_bucket{le="+Inf"} 3
repro_latency_seconds_sum 5.55
repro_latency_seconds_count 3
# HELP repro_requests_total Total requests.
# TYPE repro_requests_total counter
repro_requests_total{endpoint="cve"} 2
repro_requests_total{endpoint="stats"} 1
# HELP repro_up Service liveness.
# TYPE repro_up gauge
repro_up 1
"""


class TestPrometheusRendering:
    def test_golden_output(self):
        assert render_prometheus(_sample_registry()) == GOLDEN

    def test_rendering_is_insertion_order_independent(self):
        """Same instruments, reversed registration order → same bytes."""
        registry = MetricsRegistry()
        latency = registry.histogram(
            "repro_latency_seconds", "Request latency.", buckets=(0.1, 1.0)
        )
        registry.gauge("repro_up", "Service liveness.").set(1)
        requests = registry.counter(
            "repro_requests_total", "Total requests.", labels=("endpoint",)
        )
        requests.labels("stats").inc()
        requests.labels("cve").inc(2)
        for value in (0.05, 0.5, 5.0):
            latency.observe(value)
        assert render_prometheus(registry) == GOLDEN

    def test_golden_passes_linter(self):
        assert check_metrics.lint_exposition(GOLDEN) == []

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_x_total", "X.", labels=("path",))
        counter.labels('a"b\\c\nd').inc()
        text = render_prometheus(registry)
        assert '{path="a\\"b\\\\c\\nd"}' in text
        assert check_metrics.lint_exposition(text) == []

    def test_multiple_registries_concatenate(self):
        first = MetricsRegistry()
        first.gauge("repro_a", "A.").set(1)
        second = MetricsRegistry()
        second.gauge("repro_b", "B.").set(2)
        text = render_prometheus(first, second)
        assert "repro_a 1" in text and "repro_b 2" in text
        assert check_metrics.lint_exposition(text) == []

    def test_content_type_pins_format_version(self):
        assert PROMETHEUS_CONTENT_TYPE == "text/plain; version=0.0.4; charset=utf-8"


# ---------------------------------------------------------------------------
# The perf recorder's registry.
# ---------------------------------------------------------------------------

#: The exposition of :func:`_feed_golden_recorder`'s calls: the family
#: names, HELP strings, labels and counts that ``/metrics`` scrapers
#: read.  Phase wall seconds vary run to run, so their values are masked.
_GOLDEN_PERF_EXPOSITION = """\
# HELP repro_clean_n_cves_total Pipeline counter clean.n_cves.
# TYPE repro_clean_n_cves_total counter
repro_clean_n_cves_total 8040
# HELP repro_dates_cache_save_failed_total Pipeline counter dates.cache_save_failed.
# TYPE repro_dates_cache_save_failed_total counter
repro_dates_cache_save_failed_total 0
# HELP repro_dates_fetch_failed_total Pipeline counter dates.fetch_failed.
# TYPE repro_dates_fetch_failed_total counter
repro_dates_fetch_failed_total 7
# HELP repro_feed_malformed_cpe_total Pipeline counter feed.malformed_cpe.
# TYPE repro_feed_malformed_cpe_total counter
repro_feed_malformed_cpe_total 1
# HELP repro_phase_calls_total Accumulated calls per pipeline phase.
# TYPE repro_phase_calls_total counter
repro_phase_calls_total{phase="dates"} 1
repro_phase_calls_total{phase="odd \\"phase\\" \\\\ name"} 1
repro_phase_calls_total{phase="severity"} 2
repro_phase_calls_total{phase="severity.fit"} 2
repro_phase_calls_total{phase="severity.predict"} 2
# HELP repro_phase_seconds_total Accumulated wall seconds per pipeline phase.
# TYPE repro_phase_seconds_total counter
repro_phase_seconds_total{phase="dates"} <masked>
repro_phase_seconds_total{phase="odd \\"phase\\" \\\\ name"} <masked>
repro_phase_seconds_total{phase="severity"} <masked>
repro_phase_seconds_total{phase="severity.fit"} <masked>
repro_phase_seconds_total{phase="severity.predict"} <masked>
# HELP repro_weird_name__total Pipeline counter weird name!.
# TYPE repro_weird_name__total counter
repro_weird_name__total 2
"""


def _feed_golden_recorder(recorder: PerfRecorder) -> None:
    recorder.add_counter("clean.n_cves", 8040)
    recorder.add_counter("dates.fetch_failed", 4)
    recorder.add_counter("dates.fetch_failed", 3)
    recorder.add_counter("dates.cache_save_failed", 0)
    recorder.add_counter("feed.malformed_cpe")
    recorder.add_counter("weird name!", 2)
    with recorder.phase("dates"):
        pass
    for _ in range(2):
        with recorder.phase("severity"):
            with recorder.phase("fit"):
                pass
            with recorder.phase("predict"):
                pass
    with recorder.phase('odd "phase" \\ name'):
        pass


class TestRecorderRegistry:
    def test_counter_name_convention(self):
        assert (
            counter_metric_name("dates.fetch_failed")
            == "repro_dates_fetch_failed_total"
        )
        assert counter_metric_name("weird name!") == "repro_weird_name__total"

    def test_counters_and_phases_record_into_registry(self):
        recorder = PerfRecorder()
        recorder.add_counter("dates.fetch_failed", 4)
        with recorder.phase("toplevel"):
            pass
        registry = recorder.registry
        assert registry.get("repro_dates_fetch_failed_total").value() == 4
        seconds = registry.get("repro_phase_seconds_total")
        assert seconds.value("toplevel") == recorder.phase_seconds()["toplevel"] >= 0
        assert registry.get("repro_phase_calls_total").value("toplevel") == 1
        assert recorder.counters == {"dates.fetch_failed": 4}
        assert check_metrics.lint_exposition(render_prometheus(registry)) == []

    def test_exposition_matches_golden_text(self):
        recorder = PerfRecorder()
        _feed_golden_recorder(recorder)
        text = render_prometheus(recorder.registry)
        masked = re.sub(
            r"(?m)^(repro_phase_seconds_total\{.*\}) \S+$", r"\1 <masked>", text
        )
        assert masked == _GOLDEN_PERF_EXPOSITION
        assert check_metrics.lint_exposition(text) == []

    def test_empty_recorder_renders_nothing(self):
        assert render_prometheus(PerfRecorder().registry) == "\n"


# ---------------------------------------------------------------------------
# Trace files.
# ---------------------------------------------------------------------------


def _span(name, pid, start_us=0, dur_us=10, parent=None, trace_id="t" * 16):
    return Span(
        name=name,
        trace_id=trace_id,
        span_id=f"{name[:4]:_<8}",
        parent_id=parent,
        start_us=start_us,
        dur_us=dur_us,
        pid=pid,
        tid=1,
    )


class TestTraceFiles:
    def test_write_load_roundtrip_schema(self, tmp_path):
        path = tmp_path / "trace.json"
        spans = [_span("alpha", 100, 0), _span("beta", 200, 5)]
        write_trace(path, spans)
        events = load_trace(path)
        errors, pids = check_metrics.lint_trace_events(events)
        assert errors == []
        assert pids == {100, 200}
        # pid lane metadata precedes the spans
        assert [e["ph"] for e in events] == ["M", "M", "X", "X"]

    def test_spans_sort_deterministically(self, tmp_path):
        path = tmp_path / "trace.json"
        spans = [_span("late", 1, 50), _span("early", 1, 5)]
        write_trace(path, spans)
        names = [e["name"] for e in load_trace(path) if e["ph"] == "X"]
        assert names == ["early", "late"]

    def test_crash_tolerant_load(self, tmp_path):
        """A killed process leaves no closing ``]``; load repairs it."""
        path = tmp_path / "trace.json"
        event = json.dumps(span_event(_span("alpha", 1)))
        path.write_text(f"[\n{event},\n{event},", encoding="utf-8")
        assert len(load_trace(path)) == 2

    def test_writer_streams_readable_prefix(self, tmp_path):
        path = tmp_path / "trace.json"
        writer = TraceWriter(path)
        writer.add_span(_span("alpha", 1))
        # not closed — simulate a crash; each event was flushed
        assert len(load_trace(path)) == 1
        writer.close()

    def test_trace_session_records_span_parentage(self, tmp_path):
        path = tmp_path / "trace.json"
        recorder = perf.get_recorder()
        recorder.reset()
        with trace_session(path) as trace_id:
            with recorder.phase("outer"):
                with recorder.phase("inner"):
                    pass
        by_name = {
            e["name"]: e for e in load_trace(path) if e["ph"] == "X"
        }
        # span names are the dotted phase paths
        assert set(by_name) == {"outer", "outer.inner"}
        outer, inner = by_name["outer"], by_name["outer.inner"]
        assert outer["args"]["trace_id"] == trace_id
        assert inner["args"]["parent_span_id"] == outer["args"]["span_id"]
        assert outer["args"]["parent_span_id"] is None
        assert recorder.trace_id is None  # session ended

    def test_maybe_trace_is_noop_without_target(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        recorder = perf.get_recorder()
        recorder.reset()
        with maybe_trace() as trace_id:
            assert trace_id is None
        assert recorder.trace_id is None

    def test_maybe_trace_env_and_no_reentry(self, tmp_path, monkeypatch):
        path = tmp_path / "env-trace.json"
        monkeypatch.setenv("REPRO_TRACE", str(path))
        recorder = perf.get_recorder()
        recorder.reset()
        with maybe_trace() as trace_id:
            assert trace_id is not None
            with maybe_trace() as nested:
                assert nested is None  # never re-enters an active trace
            with recorder.phase("work"):
                pass
        events = load_trace(path)
        assert any(e.get("name") == "work" for e in events)


# ---------------------------------------------------------------------------
# Peak RSS across children.
# ---------------------------------------------------------------------------


class TestPeakRss:
    def test_own_rss_is_positive(self):
        assert perf.peak_rss_mb(children=False) > 0

    def test_children_high_water_mark_counted(self):
        """A memory-hungry (waited-for) child must show up in the peak."""
        subprocess.run(
            [sys.executable, "-c", "x = bytearray(300 * 1024 * 1024); len(x)"],
            check=True,
        )
        assert perf.peak_rss_mb() >= 250
        assert perf.peak_rss_mb() >= perf.peak_rss_mb(children=False)


# ---------------------------------------------------------------------------
# The exposition linter itself.
# ---------------------------------------------------------------------------


class TestExpositionLinter:
    def _errors(self, text: str) -> str:
        return "\n".join(check_metrics.lint_exposition(text))

    def test_missing_type_and_help(self):
        errors = self._errors("repro_x 1\n")
        assert "no # TYPE" in errors and "no # HELP" in errors

    def test_duplicate_series(self):
        text = (
            "# HELP repro_x X.\n# TYPE repro_x gauge\n"
            'repro_x{a="1"} 1\nrepro_x{a="1"} 2\n'
        )
        assert "duplicate series" in self._errors(text)

    def test_unparseable_value(self):
        text = "# HELP repro_x X.\n# TYPE repro_x gauge\nrepro_x banana\n"
        assert "does not parse" in self._errors(text)

    def test_illegal_sample_name(self):
        assert "illegal metric name" in self._errors("0bad 1\n")

    def test_non_contiguous_family(self):
        text = (
            "# HELP repro_a A.\n# TYPE repro_a gauge\n"
            "# HELP repro_b B.\n# TYPE repro_b gauge\n"
            "repro_a 1\nrepro_b 1\nrepro_a 2\n"
        )
        assert "not contiguous" in self._errors(text)

    def test_histogram_must_be_cumulative_and_inf_terminated(self):
        header = "# HELP repro_h H.\n# TYPE repro_h histogram\n"
        missing_inf = header + 'repro_h_bucket{le="1"} 1\nrepro_h_count 1\n'
        assert 'no le="+Inf" bucket' in self._errors(missing_inf)
        decreasing = (
            header
            + 'repro_h_bucket{le="1"} 5\n'
            + 'repro_h_bucket{le="+Inf"} 3\n'
            + "repro_h_count 3\n"
        )
        assert "not cumulative" in self._errors(decreasing)
        mismatch = (
            header
            + 'repro_h_bucket{le="1"} 1\n'
            + 'repro_h_bucket{le="+Inf"} 3\n'
            + "repro_h_count 7\n"
        )
        assert "_count" in self._errors(mismatch)

    def test_trace_linter_schema_and_pids(self):
        events = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0, "args": {"name": "p"}},
            span_event(_span("alpha", 1)),
        ]
        errors, pids = check_metrics.lint_trace_events(events)
        assert pids == {1}
        assert errors == []
        bad = [{"ph": "X", "name": "x", "pid": 1, "tid": 1}]  # no ts/dur/args
        errors, _ = check_metrics.lint_trace_events(bad)
        assert any("ts" in e for e in errors)
