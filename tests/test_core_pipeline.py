"""End-to-end cleaning pipeline."""

import pytest

from repro import perf
from repro.core import (
    EngineConfig,
    clean,
    from_ground_truth,
    product_oracle_from_truth,
)
from repro.cwe import is_sentinel


@pytest.fixture(scope="module")
def clean_run(bundle):
    """One ``clean()`` and the perf counters it added."""
    before = perf.get_recorder().counters
    result = clean(
        bundle.snapshot,
        bundle.web,
        from_ground_truth(bundle.truth.vendor_map),
        product_oracle_from_truth(bundle.truth.product_map),
        engine_config=EngineConfig(epochs=10, models=("lr", "dnn"), seed=2),
    )
    added = {
        name: count - before.get(name, 0)
        for name, count in perf.get_recorder().counters.items()
    }
    return result, added


@pytest.fixture(scope="module")
def rectified(clean_run):
    return clean_run[0]


class TestReport:
    def test_report_counts_consistent(self, rectified, bundle):
        report = rectified.report
        assert report.n_cves == len(bundle.snapshot)
        assert report.n_improved_dates == sum(
            1 for e in rectified.estimates.values() if e.improved
        )
        assert report.n_cwe_fixed == rectified.cwe_fixes.n_fixed
        assert report.model_used in ("lr", "dnn")

    def test_v3_predicted_covers_v2_only(self, rectified, bundle):
        assert rectified.report.n_v3_predicted == len(bundle.snapshot.v2_only())

    def test_vendor_pair_counters(self, clean_run):
        rectified, counters = clean_run
        analysis = rectified.vendor_analysis
        assert counters["vendors.n_candidate_pairs"] == len(analysis.candidates)
        assert counters["vendors.n_confirmed_pairs"] == len(analysis.confirmed)
        assert 0 < len(analysis.confirmed) <= len(analysis.candidates)


class TestRectifiedSnapshot:
    def test_same_population(self, rectified, bundle):
        assert len(rectified.snapshot) == len(bundle.snapshot)
        assert set(e.cve_id for e in rectified.snapshot) == set(
            e.cve_id for e in bundle.snapshot
        )

    def test_original_is_preserved(self, rectified, bundle):
        assert rectified.original is bundle.snapshot

    def test_variant_vendors_removed(self, rectified, bundle):
        remaining = set(rectified.snapshot.vendors())
        merged = set(rectified.vendor_analysis.mapping)
        assert not (remaining & merged)

    def test_fewer_or_equal_vendor_names(self, rectified, bundle):
        assert len(rectified.snapshot.vendors()) <= len(bundle.snapshot.vendors())

    def test_cwe_fixes_folded_in(self, rectified):
        for cve_id, found in rectified.cwe_fixes.fixes.items():
            labels = rectified.snapshot[cve_id].cwe_ids
            for cwe_id in found:
                assert cwe_id in labels
            assert not any(is_sentinel(label) for label in labels)

    def test_pv3_covers_all_scored_entries(self, rectified, bundle):
        scored = [e for e in bundle.snapshot if e.cvss_v2 is not None]
        assert len(rectified.pv3_scores) == len(scored)
        assert set(rectified.pv3_severity) == set(rectified.pv3_scores)

    def test_pv3_scores_in_range(self, rectified):
        assert all(0.0 <= score <= 10.0 for score in rectified.pv3_scores.values())


class TestQualityAgainstTruth:
    def test_disclosure_recovery(self, rectified, bundle):
        exact = sum(
            1
            for cve_id, estimate in rectified.estimates.items()
            if estimate.estimated_disclosure == bundle.truth.disclosure[cve_id]
        )
        assert exact / len(rectified.estimates) >= 0.9

    def test_pv3_severity_agreement_with_truth(self, rectified, bundle):
        from repro.cvss import severity_v3
        from repro.cvss.v3 import score_v3

        hits = 0
        total = 0
        for entry in bundle.snapshot.v2_only():
            true_severity = severity_v3(
                score_v3(bundle.truth.true_v3[entry.cve_id]).base
            )
            if rectified.pv3_severity[entry.cve_id] == true_severity:
                hits += 1
            total += 1
        assert hits / total >= 0.55
