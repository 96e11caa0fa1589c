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
        stats = recorder.phases["work"]
        assert stats.calls == 3
        assert stats.seconds > 0

    def test_nested_phases_record_dotted_paths(self):
        recorder = perf.PerfRecorder()
        with recorder.phase("outer"):
            with recorder.phase("inner"):
                pass
        assert set(recorder.phase_seconds()) == {"outer", "outer.inner"}

    def test_counters_and_report(self):
        recorder = perf.PerfRecorder()
        recorder.add_counter("entries", 5)
        recorder.add_counter("entries", 2)
        with recorder.phase("p"):
            pass
        report = recorder.report()
        assert report["counters"] == {"entries": 7}
        assert report["phases"]["p"]["calls"] == 1
        json.dumps(report)  # must be serialisable

    def test_reset(self):
        recorder = perf.PerfRecorder()
        with recorder.phase("p"):
            recorder.add_counter("c")
        recorder.reset()
        assert recorder.phases == {} and recorder.counters == {}

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
