"""The delta-feed generator and the ingest-bench schema."""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

from repro.artifacts import ingest_delta, load_artifacts
from repro.nvd import load_feed

TOOLS = pathlib.Path(__file__).parent.parent / "tools"


def _load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


make_delta_feed = _load_tool("make_delta_feed")
bench_service = _load_tool("bench_service")


class TestBuildDelta:
    def test_counts_and_id_freshness(self, snapshot):
        delta = make_delta_feed.build_delta(snapshot.entries, 20, 10, seed=1)
        assert len(delta) == 30
        base_ids = {entry.cve_id for entry in snapshot.entries}
        mutated = [entry for entry in delta if entry.cve_id in base_ids]
        fresh = [entry for entry in delta if entry.cve_id not in base_ids]
        assert len(mutated) == 10
        assert len(fresh) == 20
        assert len({entry.cve_id for entry in fresh}) == 20  # unique new ids

    def test_mutations_gain_cwe_text_and_modified_stamp(self, snapshot):
        delta = make_delta_feed.build_delta(snapshot.entries, 0, 15, seed=3)
        latest = max(entry.published for entry in snapshot.entries)
        for entry in delta:
            assert "CWE-" in entry.description
            assert entry.modified is not None and entry.modified > latest

    def test_new_entries_are_backport_targets(self, snapshot):
        delta = make_delta_feed.build_delta(snapshot.entries, 25, 0, seed=4)
        latest = max(entry.published for entry in snapshot.entries)
        for entry in delta:
            assert entry.cvss_v3 is None
            assert entry.published > latest

    def test_deterministic_for_one_seed(self, snapshot):
        first = make_delta_feed.build_delta(snapshot.entries, 5, 5, seed=9)
        second = make_delta_feed.build_delta(snapshot.entries, 5, 5, seed=9)
        assert first == second

    def test_empty_base_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            make_delta_feed.build_delta([], 1, 1, seed=0)


class TestDeltaFeedCli:
    def test_writes_ingestable_feed(self, artifact_root, tmp_path, monkeypatch):
        import shutil
        import time

        store = tmp_path / "store"
        shutil.copytree(artifact_root, store)
        written = []
        # The same arguments give byte-identical files, also when the
        # runs are far apart in time.
        for stamp, directory in ((1.0e9, "first"), (2.0e9, "second")):
            monkeypatch.setattr(time, "time", lambda: stamp)
            out = tmp_path / directory / "delta.json.gz"
            out.parent.mkdir()
            assert (
                make_delta_feed.main(
                    [
                        "--artifacts", str(store),
                        "--out", str(out),
                        "--new", "12", "--mutate", "6",
                    ]
                )
                == 0
            )
            written.append(out.read_bytes())
        assert written[0] == written[1]
        entries = load_feed(out)
        assert len(entries) == 18
        result = ingest_delta(store, entries)
        assert result.n_new == 12
        assert result.n_updated == 6
        assert result.n_predicted >= 12  # every new CVE lacks v3
        reloaded = load_artifacts(store)
        assert reloaded.version == result.version


class TestIngestBenchSchema:
    BASE = {
        "kind": "ingest",
        "label": "x",
        "scenario": "baseline",
        "n_delta": 10,
        "n_new": 5,
        "n_updated": 5,
        "n_cves": 100,
        "version": "v0002",
        "wall_s": 0.5,
        "cves_per_s": 20.0,
    }

    def test_ingest_run_validates(self):
        document = {"schema": bench_service.SCHEMA, "runs": [dict(self.BASE)]}
        assert bench_service.validate(document) == []

    def test_missing_ingest_field_flagged(self):
        run = dict(self.BASE)
        del run["cves_per_s"]
        document = {"schema": bench_service.SCHEMA, "runs": [run]}
        assert any("cves_per_s" in error for error in bench_service.validate(document))

    def test_unknown_kind_flagged(self):
        document = {
            "schema": bench_service.SCHEMA,
            "runs": [{**self.BASE, "kind": "mystery"}],
        }
        assert any("kind" in error for error in bench_service.validate(document))

    def test_serving_runs_still_validate(self):
        document = {
            "schema": bench_service.SCHEMA,
            "runs": [
                {
                    "label": "x",
                    "scenario": "baseline",
                    "requests": 10,
                    "clients": 2,
                    "n_cves": 100,
                    "version": "v0001",
                    "wall_s": 1.0,
                    "rps": 10.0,
                    "p50_ms": 1.0,
                    "p95_ms": 2.0,
                    "endpoints": {
                        "cve": {"count": 10, "p50_ms": 1.0, "p95_ms": 2.0}
                    },
                }
            ],
        }
        assert bench_service.validate(document) == []
