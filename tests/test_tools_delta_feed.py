"""The delta-feed generator, the chain bench and the ingest-bench schema."""

from __future__ import annotations

import importlib.util
import json
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
bench_chain = _load_tool("bench_chain")


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

    def test_reads_a_store_with_ingest_segments(self, artifact_root, tmp_path):
        """After two ingests the CURRENT version is a segment on a base;
        ``--artifacts`` reads its whole snapshot, ingested CVEs too."""
        import json
        import shutil

        store = tmp_path / "store"
        shutil.copytree(artifact_root, store)
        for seed in (1, 2):
            base = load_artifacts(store).snapshot.entries
            ingest_delta(store, make_delta_feed.build_delta(base, 4, 2, seed=seed))
        manifest = json.loads((store / "v0003" / "manifest.json").read_text())
        assert manifest["chain"] == ["v0001", "v0002"]

        out = tmp_path / "delta.json.gz"
        assert (
            make_delta_feed.main(
                ["--artifacts", str(store), "--out", str(out),
                 "--new", "3", "--mutate", "2"]
            )
            == 0
        )
        chained = load_artifacts(store).snapshot.entries
        assert len(chained) == len(load_artifacts(artifact_root).snapshot) + 8
        assert load_feed(out) == make_delta_feed.build_delta(chained, 3, 2, seed=2018)


class TestBenchChain:
    def test_times_segments_the_rebase_and_cold_starts(
        self, artifact_root, tmp_path, monkeypatch
    ):
        """Successive ingests walk the chain up to the cap and rebase;
        cold starts run at the chain lengths asked for, the rebased base
        included; the input store is left as it was."""
        from repro.artifacts import ingest as ingest_module

        monkeypatch.setattr(ingest_module, "MAX_SEGMENTS", 2)
        before = sorted(path.name for path in artifact_root.iterdir())
        out = tmp_path / "chain.json"
        argv = [
            "--artifacts", str(artifact_root), "--ingests", "3",
            "--new", "4", "--mutate", "2", "--repeats", "1",
            "--cold-start", "0,2", "--cold-repeats", "1", "--output", str(out),
        ]
        assert bench_chain.main(argv) == 0
        record = json.loads(out.read_text())
        assert record["max_segments"] == 2
        assert [(row["chain_before"], row["rebased"]) for row in record["ingests"]] == [
            (0, False), (1, False), (2, True),
        ]
        n_cves = len(load_artifacts(artifact_root).snapshot)
        assert [row["n_total"] for row in record["ingests"]] == [
            n_cves + 4, n_cves + 8, n_cves + 12,
        ]
        assert [
            (row["after_step"], row["chain"], row["n_cves"]) for row in record["cold_starts"]
        ] == [(0, 0, n_cves), (2, 2, n_cves + 8), (3, 0, n_cves + 12)]
        assert all(row["median_s"] > 0 for row in record["cold_starts"])
        assert sorted(path.name for path in artifact_root.iterdir()) == before


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

    SERVING = {
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
        "endpoints": {"cve": {"count": 10, "p50_ms": 1.0, "p95_ms": 2.0}},
    }

    def test_serving_runs_still_validate(self):
        document = {"schema": bench_service.SCHEMA, "runs": [dict(self.SERVING)]}
        assert bench_service.validate(document) == []

    def test_loadgen_cpu_is_optional_and_typed(self):
        """Sweep runs record the load generator's CPU per request; runs
        committed before it existed still validate."""
        run = {**self.SERVING, "workers": 2, "loadgen_cpu_us_per_req": 412.5}
        document = {"schema": bench_service.SCHEMA, "runs": [run]}
        assert bench_service.validate(document) == []
        run["loadgen_cpu_us_per_req"] = "412"
        assert any(
            "loadgen_cpu_us_per_req" in error
            for error in bench_service.validate(document)
        )
