"""The perf recorder, the bench schema, and REPRO_SCALE validation."""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys
import time

import pytest

from repro import experiments, perf


def _load_bench():
    path = pathlib.Path(__file__).parent.parent / "tools" / "bench.py"
    spec = importlib.util.spec_from_file_location("bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load_bench()


class TestPerfRecorder:
    def test_phase_accumulates(self):
        recorder = perf.PerfRecorder()
        for _ in range(3):
            with recorder.phase("work"):
                time.sleep(0.001)
        calls = recorder.registry.get("repro_phase_calls_total")
        assert calls.value("work") == 3
        assert recorder.phase_seconds()["work"] > 0
        seconds = recorder.registry.get("repro_phase_seconds_total")
        assert seconds.value("work") == recorder.phase_seconds()["work"]

    def test_nested_phases_record_dotted_paths(self):
        recorder = perf.PerfRecorder()
        with recorder.phase("outer"):
            with recorder.phase("inner"):
                with recorder.phase("leaf"):
                    pass
            with recorder.phase("inner"):
                pass
        assert set(recorder.phase_seconds()) == {"outer", "outer.inner", "outer.inner.leaf"}
        calls = recorder.registry.get("repro_phase_calls_total")
        assert calls.value("outer.inner") == 2
        assert calls.value("outer.inner.leaf") == 1

    def test_counters_accumulate_as_ints(self):
        recorder = perf.PerfRecorder()
        recorder.add_counter("entries", 5)
        recorder.add_counter("entries", 2)
        recorder.add_counter("dates.fetch_failed")
        recorder.add_counter("dates.none_found", 0)
        with recorder.phase("p"):
            pass
        counters = recorder.counters
        assert counters == {"entries": 7, "dates.fetch_failed": 1, "dates.none_found": 0}
        assert all(type(value) is int for value in counters.values())
        assert recorder.registry.get("repro_entries_total").value() == 7
        assert recorder.registry.get("repro_dates_fetch_failed_total").value() == 1

    def test_reset(self):
        recorder = perf.PerfRecorder()
        with recorder.phase("p"):
            recorder.add_counter("c")
        before = recorder.registry
        recorder.reset()
        assert recorder.registry is not before
        assert recorder.registry.metrics() == []
        assert recorder.phase_seconds() == {} and recorder.counters == {}
        recorder.add_counter("c", 3)
        assert recorder.counters == {"c": 3}

    def test_default_recorder_helpers(self):
        perf.reset()
        with perf.phase("helper"):
            perf.add_counter("n", 2)
        assert perf.get_recorder().counters == {"n": 2}
        assert "helper" in perf.get_recorder().phase_seconds()
        perf.reset()

    def test_peak_rss_positive_on_linux(self):
        if not sys.platform.startswith("linux"):
            pytest.skip("ru_maxrss semantics differ off Linux")
        assert perf.peak_rss_mb() > 0


class TestBenchSchema:
    def _run(self, **overrides):
        run = {
            "label": "x",
            "scenario": "baseline",
            "scale": 0.075,
            "n_cves": 8040,
            "epochs": 40,
            "wall_s": 1.0,
            "peak_rss_mb": 100.0,
            "phases": {"dates": 0.5},
        }
        run.update(overrides)
        return run

    def test_valid_document(self):
        document = {
            "schema": bench.SCHEMA,
            "runs": [self._run(), self._run(model_used="cnn", nproc=2)],
        }
        assert bench.validate(document) == []

    def test_rejects_wrong_schema_tag(self):
        assert bench.validate({"schema": "nope", "runs": [self._run()]})

    def test_rejects_missing_fields_and_bad_types(self):
        assert bench.validate({"schema": bench.SCHEMA, "runs": [{}]})
        document = {"schema": bench.SCHEMA, "runs": [self._run(wall_s="fast")]}
        assert any("wall_s" in e for e in bench.validate(document))
        document = {
            "schema": bench.SCHEMA,
            "runs": [self._run(phases={"dates": "quick"})],
        }
        assert any("phases" in e for e in bench.validate(document))
        document = {"schema": bench.SCHEMA, "runs": [self._run(nproc="2")]}
        assert any("nproc" in e for e in bench.validate(document))

    def test_counters_must_be_ints(self):
        document = {
            "schema": bench.SCHEMA,
            "runs": [self._run(counters={"clean.n_cves": 8040, "dates.ok": 0})],
        }
        assert bench.validate(document) == []
        for bad in (8040.0, True, "8040", None):
            document = {
                "schema": bench.SCHEMA,
                "runs": [self._run(counters={"clean.n_cves": bad})],
            }
            assert bench.validate(document) == [
                "runs[0].counters['clean.n_cves'] must be an integer"
            ]
        document = {"schema": bench.SCHEMA, "runs": [self._run(counters=[1])]}
        assert bench.validate(document) == ["runs[0].counters must be an object"]

    def test_rejects_empty_runs(self):
        assert bench.validate({"schema": bench.SCHEMA, "runs": []})
        assert bench.validate([])

    def test_check_schema_cli(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(
            json.dumps({"schema": bench.SCHEMA, "runs": [self._run()]})
        )
        assert bench.main(["--check-schema", str(good)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert bench.main(["--check-schema", str(bad)]) == 1
        assert bench.main(["--check-schema", str(tmp_path / "missing.json")]) == 1

    def test_committed_trajectory_is_valid_if_present(self):
        path = pathlib.Path(__file__).parent.parent / "BENCH_pipeline.json"
        if not path.exists():
            pytest.skip("no recorded trajectory yet")
        data = json.loads(path.read_text())
        assert bench.validate(data) == []


class TestScaleValidation:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert experiments.scale() == 0.075

    def test_custom_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.25")
        assert experiments.scale() == 0.25

    @pytest.mark.parametrize("raw", ["0", "-1", "abc", "nan", "inf", ""])
    def test_rejects_bad_values(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_SCALE", raw)
        with pytest.raises(ValueError, match="REPRO_SCALE"):
            experiments.scale()
