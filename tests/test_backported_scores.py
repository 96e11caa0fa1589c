"""One stored §4.3 score per feature row: what ``clean()`` computes,
what a store persists and what the service answers all agree."""

import gzip
import hashlib
import importlib.util
import json
import pathlib
import shutil

import pytest

from repro import perf
from repro.artifacts import ingest_delta, load_artifacts, recover_store
from repro.core.severity import row_key
from repro.service import NvdService, ServiceState

PREDICTED_FIELDS = ("predicted_v3_score", "predicted_v3_severity", "v3_backported")


@pytest.fixture()
def store(artifact_root, tmp_path):
    """A private, mutable copy of the shared artifact store."""
    root = tmp_path / "store"
    shutil.copytree(artifact_root, root)
    return root


def _build_delta(entries, n_new, n_revised, seed):
    tool = pathlib.Path(__file__).parent.parent / "tools" / "make_delta_feed.py"
    spec = importlib.util.spec_from_file_location("make_delta_feed", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build_delta(entries, n_new, n_revised, seed=seed)


def _get(service, path):
    response = service.handle("GET", path, None)
    assert response.status == 200, (path, response.body)
    return json.loads(response.body)


def _predict(service, body):
    response = service.handle("POST", "/v1/severity/predict", json.dumps(body).encode())
    assert response.status == 200, (body, response.body)
    return json.loads(response.body)


def _rehash(version_dir, *names):
    """Re-stamp the manifest entries of ``names`` after an edit."""
    manifest_path = version_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    for name in names:
        path = version_dir / name
        manifest["files"][name] = {
            "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
            "bytes": path.stat().st_size,
        }
    manifest_path.write_text(json.dumps(manifest))


def _assert_served_scores_match_predict(root):
    """Every served ``predicted_v3_score`` is what a predict of the same
    v2 vector and CWE labels answers."""
    service = NvdService(root, reload_interval=0.0)
    try:
        n_checked = 0
        for entry in service.state.snapshot.entries:
            payload = _get(service, f"/v1/cve/{entry.cve_id}")
            if payload["cvss_v2"] is None:
                assert not set(PREDICTED_FIELDS) & set(payload)
                continue
            predicted = _predict(
                service,
                {"cvss_v2": payload["cvss_v2"]["vector"], "cwe_ids": payload["cwe_ids"]},
            )
            assert round(payload["predicted_v3_score"], 4) == predicted["score"]
            assert payload["predicted_v3_severity"] == predicted["severity"]
            n_checked += 1
        assert n_checked > 100
    finally:
        service.close()


class TestCleanScoresTheServedRow:
    def test_every_pv3_score_is_its_rows_score(self, small_rectified):
        scored = [e for e in small_rectified.snapshot.entries if e.cvss_v2 is not None]
        assert len(small_rectified.pv3_scores) == len(scored)
        for entry in scored:
            assert small_rectified.pv3_scores[entry.cve_id] == (
                small_rectified.row_scores[row_key(entry)]
            )

    def test_served_scores_match_predict(self, artifact_root):
        _assert_served_scores_match_predict(artifact_root)

    def test_served_scores_match_predict_after_two_segments(self, store):
        for seed in (1, 2):
            entries = load_artifacts(store).snapshot.entries
            ingest_delta(store, _build_delta(entries, 40, 20, seed))
        assert load_artifacts(store).manifest["chain"] == ["v0001", "v0002"]
        _assert_served_scores_match_predict(store)


class TestDroppedV2Vector:
    def test_cve_losing_its_v2_vector_loses_its_prediction(self, store):
        artifacts = load_artifacts(store)
        entry = next(
            e for e in artifacts.snapshot.entries if e.cvss_v2 is not None and not e.has_v3
        )
        service = NvdService(store, reload_interval=0.0)
        try:
            before = _get(service, f"/v1/cve/{entry.cve_id}")
            assert before["v3_backported"] is True
            ingest_delta(store, [entry.replace(cvss_v2=None)])
            after = _get(service, f"/v1/cve/{entry.cve_id}")
            assert after["cvss_v2"] is None
            assert not set(PREDICTED_FIELDS) & set(after)
            snapshot = service.state.snapshot
            assert service.state.version == "v0002"
        finally:
            service.close()
        report = load_artifacts(store).report
        assert report["n_v3_predicted"] == sum(
            1 for e in snapshot.entries if e.cvss_v2 is not None and not e.has_v3
        )


class TestLegacyStore:
    """A version written when the store also kept a per-CVE
    ``predictions.json.gz`` and its row table could miss a served row."""

    @pytest.fixture()
    def legacy(self, store):
        version_dir = store / "v0001"
        artifacts = load_artifacts(store)
        scored = [e for e in artifacts.snapshot.entries if e.cvss_v2 is not None]
        with gzip.open(version_dir / "predictions.json.gz", "wt", encoding="utf-8") as out:
            json.dump(
                {
                    "scores": {e.cve_id: 9.99 for e in scored},
                    "severities": {e.cve_id: "CRITICAL" for e in scored},
                },
                out,
            )
        dropped = row_key(scored[0])
        rows_path = version_dir / "row_scores.json.gz"
        rows = json.loads(gzip.decompress(rows_path.read_bytes()))
        kept = [row for row in rows if (row[0], row[1]) != dropped]
        assert len(kept) == len(rows) - 1
        rows_path.write_bytes(gzip.compress(json.dumps(kept).encode()))
        _rehash(version_dir, "predictions.json.gz", "row_scores.json.gz")
        return store, scored[0], {(vector, cwe): score for vector, cwe, score in kept}

    def test_serves_row_scores_and_scores_the_missing_row(self, legacy):
        root, missing, rows = legacy
        state = ServiceState.load(root)
        assert row_key(missing) not in state.row_scores
        for entry in state.snapshot.entries[:200]:
            if entry.cvss_v2 is None or row_key(entry) == row_key(missing):
                continue
            assert state.cve_payload(entry.cve_id)["predicted_v3_score"] == (
                rows[row_key(entry)]
            )
        scored_before = perf.get_recorder().counters.get("severity.rows_scored", 0)
        payload = state.cve_payload(missing.cve_id)
        assert perf.get_recorder().counters["severity.rows_scored"] == scored_before + 1
        (forward,) = state.artifacts.engine.predict_scores(
            [missing], model=state.model_used
        )
        assert payload["predicted_v3_score"] == float(forward)
        assert payload["predicted_v3_score"] != 9.99

    def test_ingest_on_top_succeeds(self, legacy):
        root, missing, _ = legacy
        entries = load_artifacts(root).snapshot.entries
        result = ingest_delta(root, _build_delta(entries, 10, 5, 3))
        assert result.version == "v0002"
        assert recover_store(root, verify_hashes=True).quarantined == ()
        loaded = load_artifacts(root)
        assert "v0001/predictions.json.gz" in loaded.manifest["inherited"]
        assert "predictions.json.gz" not in loaded.manifest["files"]
        _assert_served_scores_match_predict(root)
