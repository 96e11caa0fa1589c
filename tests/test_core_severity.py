"""The v2→v3 severity prediction engine (§4.3)."""

import numpy as np
import pytest

from repro.core import EngineConfig, SeverityPredictionEngine, transition_table, v2_features
from repro.core.severity import FEATURE_NAMES, feature_matrix
from repro.cvss import Severity
from repro.nvd import CveEntry
import datetime

from repro.cvss import CvssV2Metrics, CvssV3Metrics


def dual_entry(cve_id="CVE-2016-1000", cwe=("CWE-119",)):
    return CveEntry(
        cve_id=cve_id,
        published=datetime.date(2016, 5, 1),
        descriptions=("d",),
        cwe_ids=cwe,
        cvss_v2=CvssV2Metrics("N", "L", "N", "P", "P", "P"),
        cvss_v3=CvssV3Metrics("N", "L", "N", "R", "U", "H", "H", "H"),
    )


@pytest.fixture(scope="module")
def engine(bundle):
    config = EngineConfig(epochs=12, models=("lr", "dnn"), seed=1)
    return SeverityPredictionEngine(config).fit(bundle.snapshot.with_v3())


class TestFeatures:
    def test_thirteen_dimensions(self):
        # Appendix A.1: "the 13-dimensional feature vector".
        assert len(FEATURE_NAMES) == 13
        assert v2_features(dual_entry()).shape == (13,)

    def test_features_bounded(self, snapshot):
        matrix = feature_matrix([e for e in snapshot.entries[:200] if e.cvss_v2])
        assert np.all(matrix >= 0.0)
        assert np.all(matrix <= 1.2)

    def test_rejects_entry_without_v2(self):
        bare = CveEntry(
            cve_id="CVE-2016-2000",
            published=datetime.date(2016, 1, 1),
            descriptions=("d",),
        )
        with pytest.raises(ValueError, match="no CVSS v2"):
            v2_features(bare)

    def test_cwe_feature_uses_concrete_id(self):
        with_cwe = v2_features(dual_entry(cwe=("NVD-CWE-Other", "CWE-119")))
        without = v2_features(dual_entry(cwe=("NVD-CWE-Other",)))
        assert with_cwe[12] > 0
        assert without[12] == 0

    def test_privilege_flags(self):
        entry = CveEntry(
            cve_id="CVE-2016-3000",
            published=datetime.date(2016, 1, 1),
            descriptions=("d",),
            cwe_ids=("CWE-264",),
            cvss_v2=CvssV2Metrics("N", "L", "N", "C", "C", "C"),
        )
        features = v2_features(entry)
        all_privilege = features[FEATURE_NAMES.index("obtain_all_privilege")]
        user_privilege = features[FEATURE_NAMES.index("obtain_user_privilege")]
        assert all_privilege == 1.0
        assert user_privilege == 0.0


class TestEngineConfig:
    def test_config_round_trips_through_asdict(self):
        import dataclasses

        config = EngineConfig(epochs=3, nn_dtype="float64")
        doc = dataclasses.asdict(config)
        assert EngineConfig(**doc) == config


class TestTraining:
    def test_refuses_too_few_samples(self):
        with pytest.raises(ValueError, match="at least 10"):
            SeverityPredictionEngine().fit([dual_entry()])

    def test_evaluate_reports_all_models(self, engine):
        scores = engine.evaluate()
        assert set(scores) == {"lr", "dnn"}
        for model_scores in scores.values():
            assert 0.0 <= model_scores.accuracy <= 1.0
            assert model_scores.average_error >= 0.0
            assert model_scores.average_error_rate >= 0.0

    def test_models_beat_trivial_baseline(self, engine, bundle):
        # Predicting the mean v3 score lands near AE ≈ 1.5; trained
        # models must be meaningfully better.
        scores = engine.evaluate()
        assert scores["dnn"].average_error < 1.0
        assert scores["dnn"].accuracy > 0.55

    def test_per_class_accuracy_keys_are_v2_labels(self, engine):
        per_class = engine.evaluate()["dnn"].per_class_accuracy
        assert set(per_class) <= {"LOW", "MEDIUM", "HIGH"}

    def test_best_model_is_one_of_configured(self, engine):
        assert engine.best_model() in ("lr", "dnn")

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            SeverityPredictionEngine(EngineConfig(models=("tree",))).fit(
                [dual_entry(f"CVE-2016-{1000 + i}") for i in range(20)]
            )


class TestPrediction:
    def test_scores_in_range(self, engine, bundle):
        scores = engine.predict_scores(bundle.snapshot.v2_only()[:100], model="dnn")
        assert np.all(scores >= 0.0) and np.all(scores <= 10.0)

    def test_severities_follow_scores(self, engine, bundle):
        entries = bundle.snapshot.v2_only()[:50]
        scores = engine.predict_scores(entries, model="dnn")
        severities = engine.predict_severities(entries, model="dnn")
        from repro.cvss import severity_v3

        assert severities == [severity_v3(s) for s in scores]

    def test_unfitted_engine_rejects_predict(self):
        with pytest.raises(RuntimeError):
            SeverityPredictionEngine().predict_scores([dual_entry()])

    def test_feature_importance_reports_all_features(self, engine):
        importance = engine.feature_importance(model="lr", n_repeats=2)
        assert set(importance) == set(FEATURE_NAMES)


class TestTransitionTable:
    def test_counts(self):
        table = transition_table(
            [Severity.MEDIUM, Severity.MEDIUM, Severity.HIGH],
            [Severity.HIGH, Severity.HIGH, Severity.CRITICAL],
        )
        assert table[("MEDIUM", "HIGH")] == 2
        assert table[("HIGH", "CRITICAL")] == 1

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            transition_table([Severity.LOW], [])
