"""One stored §4.3 score per feature row: what ``clean()`` computes,
what a store persists and what the service answers all agree."""

import importlib.util
import json
import pathlib
import shutil

import pytest

from repro import perf
from repro.artifacts import ingest_delta, load_artifacts
from repro.core.severity import row_key
from repro.service import NvdService

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


def _assert_served_scores_match_predict(root):
    """Every served ``predicted_v3_score`` is what a predict of the same
    v2 vector and CWE labels answers, and serving every CVE (and those
    predicts) runs no forward: the store's table holds every row."""
    service = NvdService(root, reload_interval=0.0)
    try:
        scored = perf.get_recorder().counters.get("severity.rows_scored", 0)
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
        assert perf.get_recorder().counters.get("severity.rows_scored", 0) == scored
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

    def test_served_scores_match_predict_after_a_rebase(self, store, monkeypatch):
        from repro.artifacts import ingest as ingest_module

        monkeypatch.setattr(ingest_module, "MAX_SEGMENTS", 0)  # always a base
        entries = load_artifacts(store).snapshot.entries
        ingest_delta(store, _build_delta(entries, 40, 20, 3))
        rebased = load_artifacts(store)
        assert (rebased.version, rebased.manifest["chain"]) == ("v0002", [])
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
