"""Versioned artifact store: export, load, verify, ingest."""

import datetime
import hashlib
import json
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
)
from repro.web import CrawlCache


@pytest.fixture()
def store(artifact_root, tmp_path):
    """A private, mutable copy of the shared artifact store."""
    root = tmp_path / "store"
    shutil.copytree(artifact_root, root)
    return root


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
            "estimates.json.gz",
            "predictions.json.gz",
            "report.json",
        ):
            assert (version_dir / name).is_file(), name
        assert (version_dir / "models").is_dir()

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

    def test_store_with_retired_config_keys_loads(self, store, artifact_root):
        """Stores written before the numeric-backend, data-parallel and
        execution-runtime settings were removed persist those keys in
        engine.json."""
        engine_path = store / "v0001" / "engine.json"
        engine_doc = json.loads(engine_path.read_text())
        engine_doc["config"]["numeric_backend"] = "numpy-ref"
        engine_doc["config"]["data_parallel"] = None
        engine_doc["config"]["workers"] = 2
        engine_doc["config"]["backend"] = "process"
        engine_path.write_text(json.dumps(engine_doc))
        manifest_path = store / "v0001" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["files"]["engine.json"]["sha256"] = hashlib.sha256(
            engine_path.read_bytes()
        ).hexdigest()
        manifest_path.write_text(json.dumps(manifest))
        loaded = load_artifacts(store)
        assert loaded.config == load_artifacts(artifact_root).config


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
        (store / "v0001" / "predictions.json.gz").unlink()
        with pytest.raises(ArtifactError, match="missing artifact file"):
            load_artifacts(store)

    def test_garbage_manifest_rejected(self, store):
        (store / "v0001" / "manifest.json").write_text("{not json")
        with pytest.raises(ArtifactError, match="unreadable"):
            load_artifacts(store)

    def test_verify_false_skips_hashes(self, store):
        model_file = next((store / "v0001" / "models").glob("*.npz"))
        # corrupt a *hash*, not the file, then load without verification
        manifest_path = store / "v0001" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        rel = f"models/{model_file.name}"
        manifest["files"][rel]["sha256"] = "0" * 64
        manifest_path.write_text(json.dumps(manifest))
        assert load_artifacts(store, verify=False).version == "v0001"
        with pytest.raises(ArtifactError, match="checksum mismatch"):
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
        # the new CVE is served, with a predicted v3 score
        new_id = delta[1].cve_id
        assert new_id in after.snapshot
        assert new_id in after.pv3_scores
        assert after.pv3_severity[new_id] in (
            "NONE",
            "LOW",
            "MEDIUM",
            "HIGH",
            "CRITICAL",
        )
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
