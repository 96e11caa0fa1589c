"""The v2→v3 severity prediction engine (§4.3)."""

import numpy as np
import pytest

from repro.core import EngineConfig, SeverityPredictionEngine, transition_table, v2_features
from repro.core.severity import (
    FEATURE_NAMES,
    GEMV_ROW_GROUP,
    _concrete_cwe,
    feature_matrix,
)
from repro.cvss import Severity, severity_v3
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

        config = EngineConfig(epochs=3, models=("lr", "dnn"))
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


@pytest.fixture(scope="module", params=[1, 2, 3], ids=lambda seed: f"seed{seed}")
def four_model_run(request):
    """Every §4.3 model trained briefly, plus the v2-scored entries."""
    from repro.synth import GeneratorConfig, generate

    seed = request.param
    snapshot = generate(GeneratorConfig(n_cves=1500, seed=seed)).snapshot
    config = EngineConfig(epochs=1, models=("lr", "svr", "cnn", "dnn"), seed=seed)
    engine = SeverityPredictionEngine(config).fit(snapshot.with_v3())
    scored = [entry for entry in snapshot.entries if entry.cvss_v2 is not None]
    return engine, scored


def distinct_keys(entries):
    return {(entry.cvss_v2, _concrete_cwe(entry)) for entry in entries}


class TestDistinctRowPredict:
    """``predict_scores`` scores each distinct feature row once."""

    @pytest.mark.parametrize("model", ["cnn", "dnn", "svr", "lr"])
    def test_bit_identical_to_full_pass(self, four_model_run, model):
        engine, scored = four_model_run
        # The reference pass must itself send every row down the grouped
        # gemv path, so its length is a whole number of row groups.
        scored = scored[: len(scored) - len(scored) % GEMV_ROW_GROUP]
        assert len(distinct_keys(scored)) < len(scored) / 2
        full = engine._predict_matrix(feature_matrix(scored), model)
        assert np.array_equal(engine.predict_scores(scored, model=model), full)

    @pytest.mark.parametrize("model", ["cnn", "lr"])
    def test_score_does_not_depend_on_the_other_entries(self, four_model_run, model):
        engine, scored = four_model_run
        whole = engine.predict_scores(scored, model=model)
        for start in (1, 2, 3, 5, 7, 11, 13):
            part = engine.predict_scores(scored[start:], model=model)
            assert np.array_equal(part, whole[start:])

    def test_one_row_per_distinct_key(self, four_model_run, monkeypatch):
        engine, scored = four_model_run
        seen = []
        real = engine._predict_matrix

        def spy(x, model_name):
            seen.append(x.copy())
            return real(x, model_name)

        monkeypatch.setattr(engine, "_predict_matrix", spy)
        engine.predict_scores(scored, model="cnn")
        (x,) = seen
        n_keys = len(distinct_keys(scored))
        # One row per key, then copies of the last row up to a whole
        # number of gemv row groups.
        assert x.shape[0] == n_keys + (-n_keys % GEMV_ROW_GROUP)
        assert len(np.unique(x, axis=0)) == n_keys
        assert np.array_equal(x[n_keys:], np.repeat(x[n_keys - 1 : n_keys], len(x) - n_keys, 0))

    def test_empty_input(self, four_model_run):
        engine, _ = four_model_run
        scores = engine.predict_scores([], model="cnn")
        assert isinstance(scores, np.ndarray) and scores.shape == (0,)

    def test_entry_without_v2_still_rejected(self, four_model_run):
        engine, scored = four_model_run
        bare = CveEntry(
            cve_id="CVE-2016-2000",
            published=datetime.date(2016, 1, 1),
            descriptions=("d",),
        )
        with pytest.raises(ValueError, match="CVE-2016-2000 has no CVSS v2"):
            engine.predict_scores([scored[0], bare, scored[1]], model="cnn")


class TestMalformedCweLabels:
    BAD = ("CWE-abc", "CWE-", "CWE-99999999999999999999", "CWE-1234567")

    def test_feed_item_with_bad_label_scores_as_no_cwe(self, engine, bundle):
        # A feed whose problemtype carries a malformed CWE label must
        # not crash the severity features: the label is skipped, so the
        # entry scores as if it had no concrete CWE at all.
        from repro.nvd import entries_from_feed, entries_to_feed

        sources = bundle.snapshot.v2_only()[: len(self.BAD)]
        feed = entries_to_feed(
            [e.replace(cwe_ids=(label,)) for e, label in zip(sources, self.BAD)]
        )
        parsed = entries_from_feed(feed)
        assert [e.cwe_ids for e in parsed] == [(label,) for label in self.BAD]
        want = engine.predict_scores(
            [e.replace(cwe_ids=()) for e in sources], model="dnn"
        )
        assert np.array_equal(engine.predict_scores(parsed, model="dnn"), want)
        assert all(v2_features(e)[12] == 0.0 for e in parsed)

    def test_label_after_a_bad_one_is_used(self):
        entry = dual_entry(cwe=("CWE-abc", "CWE-79"))
        assert _concrete_cwe(entry) == "CWE-79"
        assert v2_features(entry)[12] == 79 / 1200.0
