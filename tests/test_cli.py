"""Command-line interface."""

import gzip
import json

import pytest

from repro.cli import main
from repro.nvd import NvdSnapshot, load_feed, save_feed


@pytest.fixture()
def never_serve(monkeypatch):
    """Fail, instead of serving forever, if ``repro serve`` gets a store
    it can load."""
    from repro.service import server

    def refuse(self, *args, **kwargs):
        raise AssertionError("the store loaded and the server started")

    monkeypatch.setattr(server._ServiceServer, "serve_forever", refuse)


@pytest.fixture()
def feed_path(tmp_path):
    path = tmp_path / "snapshot.json.gz"
    assert main(["generate", "--n-cves", "300", "--seed", "3", "--out", str(path)]) == 0
    return path


class TestGenerate:
    def test_writes_loadable_feed(self, feed_path):
        entries = load_feed(feed_path)
        assert len(entries) == 300

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["generate", "--n-cves", "100", "--seed", "9", "--out", str(a)])
        main(["generate", "--n-cves", "100", "--seed", "9", "--out", str(b)])
        assert a.read_text() == b.read_text()


class TestSynth:
    def test_list_prints_registry(self, capsys):
        assert main(["synth", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("baseline", "chaos-names", "drift", "burst", "adversarial", "xl"):
            assert name in out

    def test_show_prints_canonical_json(self, capsys):
        assert main(["synth", "--scenario", "drift", "--show"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "drift"
        assert payload["params"]["severity_drift"] == 0.6

    def test_baseline_synth_matches_generate(self, feed_path, tmp_path):
        out = tmp_path / "synth.json.gz"
        code = main(
            ["synth", "--scenario", "baseline", "--n-cves", "300",
             "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        # gzip headers embed the file name; the decompressed feeds must
        # match byte for byte (the engine generalizes the default path).
        assert gzip.decompress(out.read_bytes()) == gzip.decompress(
            feed_path.read_bytes()
        )

    def test_set_overrides_scale(self, tmp_path, capsys):
        out = tmp_path / "scaled.json.gz"
        code = main(
            ["synth", "--n-cves", "200", "--seed", "3", "--set", "scale=1.5",
             "--out", str(out)]
        )
        assert code == 0
        assert len(load_feed(out)) == 300

    def test_unknown_scenario_errors(self, tmp_path, capsys):
        code = main(["synth", "--scenario", "nope", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_invalid_override_errors(self, tmp_path, capsys):
        code = main(
            ["synth", "--set", "scale=99", "--out", str(tmp_path / "x")]
        )
        assert code == 2
        assert "scale" in capsys.readouterr().err

    def test_out_required_when_generating(self, capsys):
        assert main(["synth"]) == 2
        assert "--out" in capsys.readouterr().err


class TestStats:
    def test_prints_summary(self, feed_path, capsys):
        assert main(["stats", str(feed_path)]) == 0
        out = capsys.readouterr().out
        assert "CVEs" in out and "300" in out

    def test_json_output_matches_snapshot_stats(self, feed_path, capsys):
        assert main(["stats", str(feed_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        stats = NvdSnapshot(load_feed(feed_path)).stats()
        assert payload == stats.as_dict()
        assert payload["n_cves"] == 300


class TestFixCwe:
    def test_recovers_labels_and_writes_feed(self, feed_path, tmp_path, capsys):
        out_path = tmp_path / "fixed.json.gz"
        assert main(["fix-cwe", str(feed_path), "--out", str(out_path)]) == 0
        fixed = NvdSnapshot(load_feed(out_path))
        original = NvdSnapshot(load_feed(feed_path))
        assert len(fixed) == len(original)
        assert len(fixed.missing_cwe()) <= len(original.missing_cwe())
        assert "CWE recovery" in capsys.readouterr().out

    def test_oversized_cwe_id_is_not_recovered(self, feed_path, tmp_path, capsys):
        """A description naming ``CWE-`` and 5,000 digits (past int()'s
        conversion limit) recovers nothing and the command succeeds."""
        (first, *_) = load_feed(feed_path)
        entry = first.replace(
            cwe_ids=("NVD-CWE-Other",), descriptions=("CWE-" + "9" * 5000,)
        )
        delta_path, out_path = tmp_path / "one.json.gz", tmp_path / "fixed.json.gz"
        save_feed([entry], delta_path)
        assert main(["fix-cwe", str(delta_path), "--out", str(out_path)]) == 0
        assert load_feed(out_path)[0].cwe_ids == ("NVD-CWE-Other",)
        assert "CWE recovery" in capsys.readouterr().out


class TestInputErrors:
    """Unreadable input is one ``error: <path>: <reason>`` line, exit 2."""

    @pytest.fixture(params=["stats", "fix-cwe", "ingest"])
    def run(self, request, tmp_path):
        def run(path):
            argv = [request.param, str(path)]
            if request.param == "fix-cwe":
                argv += ["--out", str(tmp_path / "fixed.json")]
            if request.param == "ingest":
                argv += ["--artifacts", str(tmp_path / "store")]
            return main(argv)

        return run

    def assert_error(self, capsys, path, reason):
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: ")
        assert reason in captured.err

    @pytest.mark.parametrize("document", [{"CVE_data_type": "CPE"}, []])
    def test_not_an_nvd_feed(self, run, tmp_path, capsys, document):
        path = tmp_path / "feed.json"
        path.write_text(json.dumps(document))
        assert run(path) == 2
        self.assert_error(capsys, path, "not an NVD JSON feed")

    def test_gz_file_that_is_not_gzip(self, run, feed_path, tmp_path, capsys):
        path = tmp_path / "plain.json.gz"
        path.write_bytes(gzip.decompress(feed_path.read_bytes()))
        assert run(path) == 2
        self.assert_error(capsys, path, "Not a gzipped file")

    def test_duplicate_cve_id(self, run, feed_path, tmp_path, capsys):
        feed = json.loads(gzip.decompress(feed_path.read_bytes()))
        feed["CVE_Items"].append(feed["CVE_Items"][0])
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(feed))
        assert run(path) == 2
        self.assert_error(capsys, path, "duplicate CVE id")

    def test_missing_file(self, run, tmp_path, capsys):
        path = tmp_path / "missing.json"
        assert run(path) == 2
        self.assert_error(capsys, path, "No such file or directory")

    def test_ingest_into_directory_without_store(self, feed_path, tmp_path, capsys):
        root = tmp_path / "empty"
        root.mkdir()
        assert main(["ingest", str(feed_path), "--artifacts", str(root)]) == 2
        self.assert_error(capsys, root, "no artifact versions")


class TestPathErrors:
    """An ``--out`` in a missing directory, or a missing store to
    recover or serve, is one ``error: <path>: <reason>`` line, exit 2,
    and nothing written."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--n-cves", "20"],
            ["synth", "--n-cves", "20"],
            ["fix-cwe", "FEED"],
            ["demo", "--n-cves", "200", "--epochs", "1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_out_in_missing_directory(self, argv, feed_path, tmp_path, capsys):
        out = tmp_path / "nodir" / "out.json"
        argv = [str(feed_path) if arg == "FEED" else arg for arg in argv]
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {out}: directory {str(out.parent)!r} does not exist\n"
        )
        assert captured.out == ""
        assert not out.parent.exists()

    def test_recover_missing_store(self, tmp_path, capsys):
        root = tmp_path / "no-store"
        assert main(["recover", "--artifacts", str(root)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {root}: no such directory\n"
        assert captured.out == ""
        assert not root.exists()

    def test_serve_missing_store(self, tmp_path, capsys, never_serve):
        root = tmp_path / "no-store"
        assert main(["serve", "--artifacts", str(root), "--port", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {root}: no artifact versions under {root}\n"
        assert captured.out == ""
        assert not root.exists()


class TestDemo:
    def test_runs_pipeline_and_reports(self, tmp_path, capsys):
        out_path = tmp_path / "rectified.json"
        code = main(
            [
                "demo", "--n-cves", "400", "--seed", "5",
                "--epochs", "3", "--out", str(out_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Cleaning report" in out
        assert out_path.exists()

    def test_parallel_demo_with_crawl_cache(self, tmp_path, capsys):
        cache_path = tmp_path / "crawl_cache.json"
        argv = [
            "demo", "--n-cves", "400", "--seed", "5", "--epochs", "2",
            "--crawl-cache", str(cache_path),
        ]
        assert main(argv) == 0
        cold_out = capsys.readouterr().out
        assert "Cleaning report" in cold_out
        assert cache_path.exists()  # cold run populated the cache
        # Warm run: same report, crawl served from the cache.
        assert main(argv) == 0
        assert capsys.readouterr().out == cold_out


class TestServingCommands:
    @pytest.fixture()
    def store(self, tmp_path, capsys):
        root = tmp_path / "store"
        code = main(
            [
                "demo", "--n-cves", "400", "--seed", "5", "--epochs", "2",
                "--artifacts", str(root),
            ]
        )
        assert code == 0
        assert "exported artifact version v0001" in capsys.readouterr().out
        return root

    def test_demo_exports_loadable_artifacts(self, store):
        from repro.artifacts import load_artifacts

        artifacts = load_artifacts(store)
        assert artifacts.version == "v0001"
        assert len(artifacts.snapshot) == 400

    def test_ingest_command_rolls_version(self, store, tmp_path, capsys):
        from repro.artifacts import load_artifacts

        artifacts = load_artifacts(store)
        entry = artifacts.snapshot.entries[0].replace(
            cve_id="CVE-2018-88888", cvss_v3=None
        )
        delta_path = tmp_path / "delta.json.gz"
        save_feed([entry], delta_path)
        code = main(["ingest", str(delta_path), "--artifacts", str(store)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Incremental ingest" in out
        assert "v0002" in out
        assert load_artifacts(store).snapshot.get("CVE-2018-88888") is not None

    def test_ingest_skips_malformed_items_and_cpes(self, store, tmp_path, capsys):
        """A bad CPE or publication date in a delta costs that field or
        item; the rest ingests and the command succeeds."""
        import gzip

        from repro.artifacts import load_artifacts
        from repro.nvd import entries_to_feed

        base = load_artifacts(store).snapshot.entries[0]
        ids = ("CVE-2018-88881", "CVE-2018-88882", "CVE-2018-88883")
        feed = entries_to_feed([base.replace(cve_id=cve_id) for cve_id in ids])
        bad_cpe, bad_date, _ = feed["CVE_Items"]
        bad_cpe["configurations"] = {
            "nodes": [{"cpe_match": [{"cpe23Uri": "cpe:2.3:x:acme"}]}]
        }
        bad_date["publishedDate"] = "2019-13-45T00:00Z"
        delta_path = tmp_path / "delta.json.gz"
        with gzip.open(delta_path, "wt", encoding="utf-8") as handle:
            json.dump(feed, handle)

        code = main(["ingest", str(delta_path), "--artifacts", str(store)])
        assert code == 0
        assert "v0002" in capsys.readouterr().out
        snapshot = load_artifacts(store).snapshot
        assert snapshot.get(ids[0]).cpes == ()
        assert snapshot.get(ids[1]) is None
        assert snapshot.get(ids[2]) is not None

    def test_ingest_oversized_cwe_id(self, store, tmp_path, capsys):
        """A one-CVE delta whose description names ``CWE-`` and 5,000
        digits ingests; the id is not recovered."""
        from repro.artifacts import load_artifacts

        entry = load_artifacts(store).snapshot.entries[0].replace(
            cve_id="CVE-2018-88889",
            cwe_ids=("NVD-CWE-Other",),
            descriptions=("CWE-" + "9" * 5000,),
        )
        delta_path = tmp_path / "delta.json.gz"
        save_feed([entry], delta_path)
        assert main(["ingest", str(delta_path), "--artifacts", str(store)]) == 0
        assert "v0002" in capsys.readouterr().out
        stored = load_artifacts(store).snapshot["CVE-2018-88889"]
        assert stored.cwe_ids == ("NVD-CWE-Other",)

    def test_serve_store_in_an_older_layout(
        self, artifact_root, tmp_path, capsys, never_serve
    ):
        """A store whose base manifest predates ``chain`` is refused with
        one error line, and left as it was."""
        import shutil

        root = tmp_path / "old-store"
        shutil.copytree(artifact_root, root)
        manifest_path = root / "v0001" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["chain"]
        manifest_path.write_text(json.dumps(manifest))
        before = sorted(path.name for path in root.iterdir())
        assert main(["serve", "--artifacts", str(root), "--port", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {root}: ")
        assert captured.err.endswith("re-export the store\n")
        assert captured.out == ""
        assert sorted(path.name for path in root.iterdir()) == before

    def test_serve_requires_artifacts(self):
        with pytest.raises(SystemExit):
            main(["serve"])

    def test_serve_rejects_worker_count_below_one(self, tmp_path, capsys):
        from repro.service import serve

        # The library call refuses before it touches the store or binds.
        with pytest.raises(ValueError, match="worker count must be >= 1"):
            serve(tmp_path / "missing-store", port=0, workers=0)
        # The CLI refuses at parse time with a usage error.
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--artifacts", str(tmp_path), "--workers", "0"])
        assert exit_info.value.code == 2
        assert "--workers" in capsys.readouterr().err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
