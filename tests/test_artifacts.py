"""Versioned artifact store: export, load, verify, ingest."""

import datetime
import gzip
import hashlib
import json
import random
import shutil

import numpy as np
import pytest

from repro.artifacts import (
    ARTIFACT_SCHEMA,
    ArtifactError,
    ingest_delta,
    list_versions,
    load_artifacts,
    read_current,
    recover_store,
)
from repro.core.severity import row_key
from repro.web import CrawlCache


@pytest.fixture()
def store(artifact_root, tmp_path):
    """A private, mutable copy of the shared artifact store."""
    root = tmp_path / "store"
    shutil.copytree(artifact_root, root)
    return root


def _served_scores(loaded):
    """Each v2-scored CVE's backported score: its feature row's score in
    the version's row table (a KeyError when the table lacks the row)."""
    return {
        entry.cve_id: loaded.row_scores[row_key(entry)]
        for entry in loaded.snapshot.entries
        if entry.cvss_v2 is not None
    }


class TestExport:
    def test_layout_and_pointer(self, artifact_root):
        assert list_versions(artifact_root) == ["v0001"]
        assert read_current(artifact_root) == "v0001"
        version_dir = artifact_root / "v0001"
        for name in (
            "manifest.json",
            "snapshot.json.gz",
            "engine.json",
            "maps.json",
            "records.json.gz",
            "row_scores.json.gz",
            "report.json",
            "image/bodies.bin",
            "image/dictionary.bin",
            "image/offsets.bin",
            "image/rows.jsonl.gz",
        ):
            assert (version_dir / name).is_file(), name
        assert (version_dir / "models").is_dir()
        for retired in ("predictions.json.gz", "estimates.json.gz", "index.json.gz"):
            assert not (version_dir / retired).exists(), retired

    def test_manifest_schema_and_fingerprint(self, artifact_root):
        manifest = json.loads(
            (artifact_root / "v0001" / "manifest.json").read_text()
        )
        assert manifest["schema"] == ARTIFACT_SCHEMA
        assert manifest["version"] == "v0001"
        assert manifest["source"] == "clean"
        assert len(manifest["fingerprint"]) == 16
        assert manifest["files"]  # every data file is hash-listed
        assert "manifest.json" not in manifest["files"]

    def test_second_export_bumps_version(self, store, small_rectified):
        version = small_rectified.export_artifacts(store)
        assert version == "v0002"
        assert read_current(store) == "v0002"
        assert list_versions(store) == ["v0001", "v0002"]


class TestLoad:
    def test_round_trip_population(self, artifact_root, small_rectified):
        artifacts = load_artifacts(artifact_root)
        assert artifacts.version == "v0001"
        assert len(artifacts.snapshot) == len(small_rectified.snapshot)
        assert artifacts.model_used == small_rectified.report.model_used
        assert artifacts.snapshot.stats() == small_rectified.snapshot.stats()
        assert artifacts.vendor_map == small_rectified.vendor_analysis.mapping
        assert artifacts.product_map == small_rectified.product_analysis.mapping

    def test_predictions_bit_identical_after_load(
        self, artifact_root, small_rectified, bundle
    ):
        artifacts = load_artifacts(artifact_root)
        scored = [e for e in bundle.snapshot.entries if e.cvss_v2 is not None][:300]
        model = artifacts.model_used
        fresh = small_rectified.engine.predict_scores(scored, model=model)
        loaded = artifacts.engine.predict_scores(scored, model=model)
        assert np.array_equal(fresh, loaded)

    def test_estimates_round_trip(self, artifact_root, small_rectified):
        artifacts = load_artifacts(artifact_root)
        assert artifacts.estimates == small_rectified.estimates

    def test_load_specific_version(self, store, small_rectified):
        small_rectified.export_artifacts(store)
        artifacts = load_artifacts(store, "v0001")
        assert artifacts.version == "v0001"

    def test_missing_store_rejected(self, tmp_path):
        with pytest.raises(ArtifactError, match="no artifact versions"):
            load_artifacts(tmp_path / "nowhere")

    def test_unknown_version_rejected(self, artifact_root):
        with pytest.raises(ArtifactError, match="not found"):
            load_artifacts(artifact_root, "v9999")

    def test_lost_pointer_falls_back_to_newest(self, store):
        (store / "CURRENT").unlink()
        assert load_artifacts(store).version == "v0001"

    def test_undecodable_pointer_is_a_lost_one(self, store):
        """A ``CURRENT`` that is not UTF-8 reads as no pointer: a load
        falls back to the newest version and a recovery sweep rewrites
        the pointer."""
        (store / "CURRENT").write_bytes(b"\xff\xfe\n")
        assert read_current(store) is None
        assert load_artifacts(store).version == "v0001"
        report = recover_store(store)
        assert (report.current_before, report.current_after) == (None, "v0001")
        assert read_current(store) == "v0001"

    def test_store_written_with_indented_json_loads(self, store, artifact_root):
        """Stores written before the JSON files became compact hold them
        indented (``indent=1``); they load to the same values, and an
        ingest on top of them succeeds."""
        version_dir = store / "v0001"
        manifest_path = version_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        for name in ("engine.json", "maps.json", "records.json.gz",
                     "row_scores.json.gz", "report.json"):
            path = version_dir / name
            opener = gzip.open if path.suffix == ".gz" else open
            with opener(path, "rt", encoding="utf-8") as handle:
                document = json.load(handle)
            with opener(path, "wt", encoding="utf-8") as handle:
                handle.write(json.dumps(document, indent=1, sort_keys=True))
            manifest["files"][name] = {
                "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
                "bytes": path.stat().st_size,
            }
        manifest_path.write_text(json.dumps(manifest, indent=1, sort_keys=True))
        loaded, fresh = load_artifacts(store), load_artifacts(artifact_root)
        assert loaded.estimates == fresh.estimates
        assert loaded.row_scores == fresh.row_scores
        entry = next(e for e in loaded.snapshot.entries if e.cvss_v2 is not None)
        result = ingest_delta(store, [entry.replace(cve_id="CVE-2018-99003")])
        assert (result.version, result.n_new) == ("v0002", 1)
        after = load_artifacts(store)
        assert "CVE-2018-99003" in _served_scores(after)


class TestRejection:
    def test_foreign_schema_rejected(self, store):
        manifest_path = store / "v0001" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["schema"] = "someone-elses/9"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="schema"):
            load_artifacts(store)

    def test_version_mismatch_rejected(self, store):
        manifest_path = store / "v0001" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = "v0042"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="names version"):
            load_artifacts(store)

    def test_corrupt_model_file_rejected(self, store):
        model_file = next((store / "v0001" / "models").glob("*.npz"))
        data = bytearray(model_file.read_bytes())
        data[len(data) // 2] ^= 0xFF
        model_file.write_bytes(bytes(data))
        with pytest.raises(ArtifactError, match="checksum mismatch"):
            load_artifacts(store)

    def test_missing_file_rejected(self, store):
        (store / "v0001" / "records.json.gz").unlink()
        with pytest.raises(ArtifactError, match="missing artifact file"):
            load_artifacts(store)

    def test_garbage_manifest_rejected(self, store):
        (store / "v0001" / "manifest.json").write_text("{not json")
        with pytest.raises(ArtifactError, match="unreadable"):
            load_artifacts(store)

class TestIngest:
    def _delta(self, artifacts):
        """One updated entry (new description) and one brand-new CVE."""
        base = artifacts.snapshot.entries[0]
        updated = base.replace(
            descriptions=("Rewritten advisory citing CWE-79 explicitly.",),
            cwe_ids=(),
        )
        new = base.replace(cve_id="CVE-2018-99001", cvss_v3=None)
        return [updated, new]

    def test_ingest_rolls_new_version(self, store):
        artifacts = load_artifacts(store)
        result = ingest_delta(store, self._delta(artifacts))
        assert result.version == "v0002"
        assert result.parent == "v0001"
        assert result.n_delta == 2
        assert result.n_new == 1
        assert result.n_updated == 1
        assert read_current(store) == "v0002"

    def test_ingest_updates_answers_without_retraining(self, store):
        artifacts = load_artifacts(store)
        delta = self._delta(artifacts)
        result = ingest_delta(store, delta)
        after = load_artifacts(store)
        assert after.version == result.version
        # the new CVE is served, and its feature row has a stored score
        new_id = delta[1].cve_id
        assert new_id in after.snapshot
        assert 0.0 <= _served_scores(after)[new_id] <= 10.0
        # the updated CVE carries the §4.4-recovered label
        assert "CWE-79" in after.snapshot[delta[0].cve_id].cwe_ids
        # untouched entries are untouched
        other = artifacts.snapshot.entries[5]
        assert after.snapshot[other.cve_id].descriptions == other.descriptions

    def test_ingest_model_weights_survive_re_export(self, store, bundle):
        before = load_artifacts(store)
        ingest_delta(store, self._delta(before))
        after = load_artifacts(store)
        scored = [e for e in bundle.snapshot.entries if e.cvss_v2 is not None][:100]
        assert np.array_equal(
            before.engine.predict_scores(scored, model=before.model_used),
            after.engine.predict_scores(scored, model=after.model_used),
        )

    def test_ingest_replays_crawl_cache_dates(self, store, tmp_path):
        artifacts = load_artifacts(store)
        base = artifacts.snapshot.entries[0]
        delta = [base.replace(cve_id="CVE-2018-99002", cvss_v3=None)]
        early = base.published - datetime.timedelta(days=30)
        cache = CrawlCache(tmp_path / "crawl.json")
        for reference in base.references:
            cache.put(reference.url, "date_extracted", early)
        cache.save()
        result = ingest_delta(store, delta, crawl_cache=cache)
        assert result.n_date_improved == (1 if base.references else 0)
        after = load_artifacts(store)
        estimate = after.estimates["CVE-2018-99002"]
        if base.references:
            assert estimate.estimated_disclosure == early

    def test_ingest_keeps_crawl_improved_estimates(self, store):
        artifacts = load_artifacts(store)
        improved_id = next(
            cve_id
            for cve_id, estimate in artifacts.estimates.items()
            if estimate.improved
        )
        entry = artifacts.snapshot[improved_id]
        # re-deliver the entry with no crawl cache: no new evidence
        ingest_delta(store, [entry.replace()])
        after = load_artifacts(store)
        assert after.estimates[improved_id] == artifacts.estimates[improved_id]

    def test_reingesting_same_delta_is_idempotent(self, store):
        artifacts = load_artifacts(store)
        delta = self._delta(artifacts)
        first = ingest_delta(store, delta)
        report_after_first = load_artifacts(store).report
        second = ingest_delta(store, delta)
        report_after_second = load_artifacts(store).report
        assert second.n_new == 0 and second.n_updated == 2
        assert report_after_second["n_cwe_fixed"] == report_after_first["n_cwe_fixed"]
        assert report_after_second["n_cves"] == report_after_first["n_cves"]

    def test_ingest_duplicate_delta_ids_rejected(self, store):
        artifacts = load_artifacts(store)
        entry = artifacts.snapshot.entries[0]
        with pytest.raises(ValueError, match="duplicate"):
            ingest_delta(store, [entry, entry])


def _make_delta_feed():
    import importlib.util
    import pathlib

    tool = pathlib.Path(__file__).parent.parent / "tools" / "make_delta_feed.py"
    spec = importlib.util.spec_from_file_location("make_delta_feed", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _manifest(root, version):
    return json.loads((root / version / "manifest.json").read_text())


class TestExportGc:
    def test_export_pauses_gc_and_restores_it_when_it_raises(
        self, store, small_rectified, monkeypatch
    ):
        import gc

        from repro.artifacts import store as store_module

        write_json = store_module._write_json
        collector_on = []

        def failing_write(path, payload):
            collector_on.append(gc.isenabled())
            if path.name == "row_scores.json.gz":
                raise OSError("disk full")
            write_json(path, payload)

        monkeypatch.setattr(store_module, "_write_json", failing_write)
        try:
            for enabled in (True, False):
                gc.enable() if enabled else gc.disable()
                with pytest.raises(OSError, match="disk full"):
                    small_rectified.export_artifacts(store)
                assert gc.isenabled() is enabled
        finally:
            gc.enable()
        assert collector_on == [False, False, False, False]  # paused while building
        assert list_versions(store) == ["v0001"]
        assert not list(store.glob(".stage-*"))


class TestSegments:
    """An ingest writes one segment; a load replays base then segments."""

    @pytest.fixture()
    def cache(self, artifact_root, tmp_path):
        """Scrape outcomes for every stored reference, half before the
        publication date (an improved estimate) and half after."""
        cache = CrawlCache(tmp_path / "crawl.json")
        for n, entry in enumerate(load_artifacts(artifact_root).snapshot.entries):
            shift = datetime.timedelta(days=-20 if n % 2 else 20)
            for reference in entry.references:
                cache.put(reference.url, "date_extracted", entry.published + shift)
        return cache

    @staticmethod
    def _delta(entries, seed):
        """Revisions and new CVEs, plus one CVE losing its v3 vector and
        one losing its v2 vector, so the predicted count moves both ways."""
        delta = _make_delta_feed().build_delta(entries, 6, 4, seed=seed)
        taken = {entry.cve_id for entry in delta}
        rng = random.Random(seed)
        pool = [e for e in entries if e.cve_id not in taken]
        dual = rng.choice([e for e in pool if e.has_v3 and e.cvss_v2 is not None])
        v2_only = rng.choice(
            [e for e in pool if e.cvss_v2 is not None and not e.has_v3 and e is not dual]
        )
        return [*delta, dual.replace(cvss_v3=None), v2_only.replace(cvss_v2=None)]

    def test_chain_loads_like_a_full_rewrite(
        self, artifact_root, tmp_path, cache, monkeypatch
    ):
        from repro import perf
        from repro.artifacts import LoadedArtifacts
        from repro.artifacts import ingest as ingest_module

        chained = tmp_path / "chained"
        rewritten = tmp_path / "rewritten"
        untabled = tmp_path / "untabled"  # every delta row through the model
        for root in (chained, rewritten, untabled):
            shutil.copytree(artifact_root, root)
        reused = perf.get_recorder().counters.get("severity.rows_reused", 0)
        for step in range(5):
            delta = self._delta(load_artifacts(chained).snapshot.entries, step)
            monkeypatch.setattr(ingest_module, "MAX_SEGMENTS", 3)
            segment = ingest_delta(chained, delta, crawl_cache=cache)
            with monkeypatch.context() as patch:
                patch.setattr(LoadedArtifacts, "row_scores", property(lambda self: {}))
                unaided = ingest_delta(untabled, delta, crawl_cache=cache)
            monkeypatch.setattr(ingest_module, "MAX_SEGMENTS", 0)  # always a base
            full = ingest_delta(rewritten, delta, crawl_cache=cache)
            assert segment == full == unaided
            ours = load_artifacts(chained)
            for theirs in (load_artifacts(rewritten), load_artifacts(untabled)):
                assert ours.snapshot.entries == theirs.snapshot.entries
                assert ours.estimates == theirs.estimates
                assert _served_scores(ours) == _served_scores(theirs)
                assert ours.report == theirs.report
            # the adjusted counts equal a recount of the whole store
            assert ours.report["n_cves"] == len(ours.snapshot) == segment.n_total
            assert ours.report["n_v3_predicted"] == sum(
                1 for e in ours.snapshot.entries
                if e.cvss_v2 is not None and not e.has_v3
            )
            assert ours.report["n_improved_dates"] == sum(
                1 for e in ours.estimates.values() if e.improved
            )

        # v0002-v0004 are segments on v0001; v0005 crossed the cap and
        # rebased; v0006 is a segment on it.
        chains = {v: _manifest(chained, v)["chain"] for v in list_versions(chained)}
        assert chains == {
            "v0001": [],
            "v0002": ["v0001"],
            "v0003": ["v0001", "v0002"],
            "v0004": ["v0001", "v0002", "v0003"],
            "v0005": [],
            "v0006": ["v0005"],
        }
        assert all(
            _manifest(rewritten, v)["chain"] == [] for v in list_versions(rewritten)
        )
        # the chained ingests took some delta rows from the table
        assert perf.get_recorder().counters["severity.rows_reused"] > reused

    def test_reingest_scores_no_rows_and_reads_no_model(self, store, monkeypatch):
        from repro import perf
        from repro.artifacts import store as store_module

        delta = self._delta(load_artifacts(store).snapshot.entries, 7)
        first = ingest_delta(store, delta)
        assert first.n_predicted > 0

        def unreadable(path):
            raise AssertionError(f"read model {path}")

        for name in list(store_module._MODEL_LOADERS):
            monkeypatch.setitem(store_module._MODEL_LOADERS, name, unreadable)
        counters = perf.get_recorder().counters
        scored = counters.get("severity.rows_scored", 0)
        reused = counters.get("severity.rows_reused", 0)
        second = ingest_delta(store, delta)
        counters = perf.get_recorder().counters
        assert counters["severity.rows_scored"] == scored
        assert counters["severity.rows_reused"] > reused
        assert second.n_predicted == first.n_predicted
        assert _served_scores(load_artifacts(store)) == _served_scores(
            load_artifacts(store, first.version)
        )

    def test_row_table_holds_what_was_scored(self, store, small_rectified):
        """The base's table is clean()'s scored rows; a segment adds the
        rows its ingest scored and nothing else."""
        base = load_artifacts(store)
        assert base.row_scores == small_rectified.row_scores
        entry = base.snapshot.entries[0]
        delta = [entry.replace(cve_id="CVE-2018-99009", cwe_ids=("CWE-9999",))]
        ingest_delta(store, delta)
        after = load_artifacts(store)
        key = row_key(delta[0])
        assert key not in base.row_scores
        (score,) = base.engine.predict_scores(delta, model=base.model_used)
        score = float(score)
        assert after.row_scores == {**base.row_scores, key: score}
        written = store / "v0002" / "row_scores.json.gz"
        assert json.loads(gzip.decompress(written.read_bytes())) == [[*key, score]]

    def test_segment_writes_only_the_delta(self, store):
        base = _manifest(store, "v0001")
        entry = load_artifacts(store).snapshot.entries[0]
        ingest_delta(store, [entry.replace(cve_id="CVE-2018-99004")])
        manifest = _manifest(store, "v0002")
        assert sorted(manifest["files"]) == [
            "delta.json.gz", "records.json.gz", "report.json", "row_scores.json.gz",
        ]
        # every base file but its report is inherited, hash included
        assert manifest["inherited"] == {
            f"v0001/{name}": meta
            for name, meta in base["files"].items()
            if name != "report.json"
        }
        written = sum(meta["bytes"] for meta in manifest["files"].values())
        assert written < 0.05 * sum(meta["bytes"] for meta in base["files"].values())

    @pytest.mark.parametrize("rebase", [False, True], ids=["segment", "rebase"])
    def test_ingest_decodes_each_record_file_once(self, store, monkeypatch, rebase):
        """An ingest onto a 2-segment chain decodes every link's record
        file exactly once; a segment ingest never decodes the base's
        snapshot."""
        from repro.artifacts import ingest as ingest_module
        from repro.artifacts import store as store_module
        from repro.nvd import feed as feed_module

        entries = load_artifacts(store).snapshot.entries
        for n in (5, 6):
            ingest_delta(store, [entries[n].replace(cve_id=f"CVE-2018-9900{n}")])
        decoded = []
        read_document = feed_module.read_document

        def counting_read(path):
            decoded.append(path.relative_to(store).as_posix())
            return read_document(path)

        monkeypatch.setattr(store_module, "read_document", counting_read)
        monkeypatch.setattr(feed_module, "read_document", counting_read)
        if rebase:
            monkeypatch.setattr(ingest_module, "MAX_SEGMENTS", 2)
        delta = [entries[7].replace(cve_id="CVE-2018-99007"), entries[8]]
        result = ingest_delta(store, delta)
        assert (result.n_new, result.n_updated, result.n_total) == (1, 1, len(entries) + 3)
        links = ["v0001", "v0002", "v0003"]
        record_reads = sorted(p for p in decoded if p.endswith("/records.json.gz"))
        assert record_reads == [f"{link}/records.json.gz" for link in links]
        assert ("v0001/snapshot.json.gz" in decoded) is rebase
        assert _manifest(store, "v0004")["chain"] == ([] if rebase else links)

    @pytest.mark.parametrize(
        "target",
        ["v0001/snapshot.json.gz", "v0001/maps.json", "v0001/image/bodies.bin",
         "v0002/delta.json.gz", "v0002/records.json.gz"],
    )
    def test_corrupt_chain_file_rejected(self, store, target):
        entries = load_artifacts(store).snapshot.entries
        for n in (5, 6):
            ingest_delta(store, [entries[n].replace(cve_id=f"CVE-2018-9900{n}")])
        assert _manifest(store, "v0003")["chain"] == ["v0001", "v0002"]
        path = store / target
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ArtifactError, match="checksum mismatch"):
            load_artifacts(store)
        with pytest.raises(ArtifactError, match="checksum mismatch"):
            ingest_delta(store, [entries[7].replace(cve_id="CVE-2018-99007")])
        assert read_current(store) == "v0003"


def _restamp(version_dir):
    """List exactly the files now in ``version_dir`` in its manifest."""
    manifest_path = version_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["files"] = {
        str(path.relative_to(version_dir)): {
            "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
            "bytes": path.stat().st_size,
        }
        for path in sorted(version_dir.rglob("*"))
        if path.is_file() and path.name != "manifest.json"
    }
    manifest_path.write_text(json.dumps(manifest))


def _without_chain(root):
    manifest = _manifest(root, "v0001")
    del manifest["chain"]
    (root / "v0001" / "manifest.json").write_text(json.dumps(manifest))


def _without(name):
    def edit(root):
        (root / "v0001" / name).unlink()
        _restamp(root / "v0001")

    return edit


def _without_image(root):
    shutil.rmtree(root / "v0001" / "image")
    _restamp(root / "v0001")


def _with_predictions(root):
    with gzip.open(root / "v0001" / "predictions.json.gz", "wt") as handle:
        json.dump({"scores": {}, "severities": {}}, handle)
    _restamp(root / "v0001")


def _with_retired_config_key(root):
    path = root / "v0001" / "engine.json"
    engine_doc = json.loads(path.read_text())
    engine_doc["config"]["numeric_backend"] = "numpy-ref"
    path.write_text(json.dumps(engine_doc))
    _restamp(root / "v0001")


def _with_parent_files(root):
    """The base's records split into the two files stores held before
    ``records.json.gz``: ``estimates.json.gz`` and ``index.json.gz``."""
    path = root / "v0001" / "records.json.gz"
    records = json.loads(gzip.decompress(path.read_bytes()))
    path.unlink()
    for name, fields in (("estimates.json.gz", slice(0, 3)), ("index.json.gz", slice(3, 5))):
        document = {cve_id: record[fields] for cve_id, record in records.items()}
        (root / "v0001" / name).write_bytes(gzip.compress(json.dumps(document).encode()))
    _restamp(root / "v0001")


def _segment_on_base_without_records(root):
    """A segment whose base link lacks the record file."""
    entry = load_artifacts(root).snapshot.entries[0]
    ingest_delta(root, [entry.replace(cve_id="CVE-2018-99010")])
    _without("records.json.gz")(root)
    manifest = _manifest(root, "v0002")
    del manifest["inherited"]["v0001/records.json.gz"]
    (root / "v0002" / "manifest.json").write_text(json.dumps(manifest))


#: the tail of every layout rejection; a retired config key fails as a
#: bad engine config instead.
RE_EXPORT = r" \(an older store layout\); re-export the store"


@pytest.mark.parametrize(
    "edit, match",
    [
        (_without_chain, "v0001 has no chain in manifest.json" + RE_EXPORT),
        (_without("records.json.gz"), "v0001 lacks records.json.gz" + RE_EXPORT),
        (_with_parent_files, "v0001 lacks records.json.gz" + RE_EXPORT),
        (_without("row_scores.json.gz"), "v0001 lacks row_scores.json.gz" + RE_EXPORT),
        (_with_predictions, "v0001 lists predictions.json.gz" + RE_EXPORT),
        (_segment_on_base_without_records, "v0001 lacks records.json.gz" + RE_EXPORT),
        (_without_image, "v0001 lacks image/bodies.bin" + RE_EXPORT),
        (_with_retired_config_key, "bad engine config"),
    ],
    ids=[
        "no-chain", "no-index", "split-records", "no-row-table", "predictions",
        "segment-on-no-index", "no-serving-image", "retired-config-key",
    ],
)
def test_retired_layout_is_rejected_and_left_in_place(store, artifact_root, edit, match):
    """A store in a layout older than the one ``export_run`` writes:
    a load and an ingest raise, and recovery moves nothing."""
    edit(store)
    current = read_current(store)
    versions = list_versions(store)
    with pytest.raises(ArtifactError, match=match):
        load_artifacts(store)
    entry = load_artifacts(artifact_root).snapshot.entries[1]
    delta = [entry.replace(cve_id="CVE-2018-99011")]
    with pytest.raises(ArtifactError, match=match):
        ingest_delta(store, delta)
    assert read_current(store) == current
    assert list_versions(store) == versions
    report = recover_store(store, verify_hashes=True)
    assert report.quarantined == ()
    assert not report.acted
