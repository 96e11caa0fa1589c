"""CWE recovery and the description classifier (§4.4)."""

import datetime

import pytest

from repro.core import DescriptionClassifier, apply_cwe_fixes, extract_cwe_fixes
from repro.nvd import CveEntry, NvdSnapshot


def entry(cve_id, cwe_ids=(), descriptions=("plain text",)):
    return CveEntry(
        cve_id=cve_id,
        published=datetime.date(2010, 1, 1),
        descriptions=descriptions,
        cwe_ids=cwe_ids,
    )


@pytest.fixture()
def mixed_snapshot():
    return NvdSnapshot(
        [
            # Paper example: NVD-CWE-Other but evaluator names CWE-835.
            entry(
                "CVE-2007-0838",
                cwe_ids=("NVD-CWE-Other",),
                descriptions=(
                    "PDF parser hangs.",
                    "CWE-835: Loop with Unreachable Exit Condition ('Infinite Loop')",
                ),
            ),
            entry(
                "CVE-2007-0001",
                cwe_ids=("NVD-CWE-noinfo",),
                descriptions=("Evaluator: CWE-79 applies.",),
            ),
            entry(
                "CVE-2007-0002",
                cwe_ids=(),
                descriptions=("Unassigned, but description says CWE-89.",),
            ),
            entry(
                "CVE-2007-0003",
                cwe_ids=("CWE-119",),
                descriptions=("Also relevant: CWE-190 integer overflow.",),
            ),
            entry(
                "CVE-2007-0004",
                cwe_ids=("CWE-22",),
                descriptions=("Mentions its own CWE-22 only.",),
            ),
            entry("CVE-2007-0005", cwe_ids=("NVD-CWE-Other",)),
        ]
    )


class TestExtraction:
    def test_malformed_ids_are_skipped_and_counted(self):
        """A digit run no CWE label has (past int()'s conversion limit
        here, and 7 digits) is not recovered; a valid id beside it is."""
        from repro import perf

        huge = "CWE-" + "9" * 5000
        snapshot = NvdSnapshot(
            [
                entry(
                    "CVE-2007-0006",
                    cwe_ids=("NVD-CWE-Other",),
                    descriptions=(f"See {huge} and CWE-1234567, then CWE-79.",),
                ),
                entry("CVE-2007-0007", descriptions=(f"Only {huge}.",)),
            ]
        )
        counters = perf.get_recorder().counters
        before = counters.get("cwefix.malformed_label", 0)
        result = extract_cwe_fixes(snapshot)
        assert result.fixes == {"CVE-2007-0006": ("CWE-79",)}
        after = perf.get_recorder().counters.get("cwefix.malformed_label", 0)
        assert after - before == 3

    def test_fix_counts_by_prior_state(self, mixed_snapshot):
        result = extract_cwe_fixes(mixed_snapshot)
        assert result.n_fixed == 4
        assert result.fixed_other == 1
        assert result.fixed_noinfo == 1
        assert result.fixed_unassigned == 1
        assert result.fixed_already_labeled == 1

    def test_population_totals(self, mixed_snapshot):
        result = extract_cwe_fixes(mixed_snapshot)
        assert result.total_other == 2
        assert result.total_noinfo == 1
        assert result.total_unassigned == 1

    def test_own_label_not_a_fix(self, mixed_snapshot):
        result = extract_cwe_fixes(mixed_snapshot)
        assert "CVE-2007-0004" not in result.fixes

    def test_paper_example_recovers_835(self, mixed_snapshot):
        result = extract_cwe_fixes(mixed_snapshot)
        assert result.fixes["CVE-2007-0838"] == ("CWE-835",)


class TestApply:
    def test_sentinels_replaced(self, mixed_snapshot):
        result = extract_cwe_fixes(mixed_snapshot)
        fixed = apply_cwe_fixes(mixed_snapshot, result)
        assert fixed["CVE-2007-0838"].cwe_ids == ("CWE-835",)
        assert fixed["CVE-2007-0001"].cwe_ids == ("CWE-79",)

    def test_concrete_labels_extended(self, mixed_snapshot):
        result = extract_cwe_fixes(mixed_snapshot)
        fixed = apply_cwe_fixes(mixed_snapshot, result)
        assert fixed["CVE-2007-0003"].cwe_ids == ("CWE-119", "CWE-190")

    def test_unfixed_entries_untouched(self, mixed_snapshot):
        result = extract_cwe_fixes(mixed_snapshot)
        fixed = apply_cwe_fixes(mixed_snapshot, result)
        assert fixed["CVE-2007-0005"].cwe_ids == ("NVD-CWE-Other",)

    def test_synthetic_bundle_fixes_mostly_correct(self, bundle):
        result = extract_cwe_fixes(bundle.snapshot)
        assert result.n_fixed > 0
        # Fixes for sentinel/unassigned CVEs embed the true type; fixes
        # for already-labeled CVEs add *additional* relevant ids, so
        # only the former are scored against ground truth.
        from repro.cwe import is_sentinel

        sentinel_fixes = {
            cve_id: found
            for cve_id, found in result.fixes.items()
            if all(is_sentinel(l) for l in bundle.snapshot[cve_id].cwe_ids)
        }
        assert sentinel_fixes
        correct = sum(
            1
            for cve_id, found in sentinel_fixes.items()
            if bundle.truth.true_cwe[cve_id] in found
        )
        assert correct / len(sentinel_fixes) >= 0.95


class TestDescriptionClassifier:
    def test_knn_beats_chance_on_synthetic_descriptions(self, bundle):
        classifier = DescriptionClassifier(algorithm="knn", k=1)
        accuracy, n_classes = classifier.evaluate_on_snapshot(bundle.snapshot)
        assert n_classes > 30
        # Paper: 65.6% over 151 classes; chance would be < 15% here.
        assert accuracy > 0.35

    def test_fit_predict_round_trip(self):
        texts = ["sql injection in login", "buffer overflow in parser"] * 10
        labels = ["CWE-89", "CWE-119"] * 10
        classifier = DescriptionClassifier(algorithm="knn").fit(texts, labels)
        assert classifier.predict(["sql injection in search"])[0] == "CWE-89"

    def test_dnn_classifier_trains(self):
        texts = ["sql injection attack on database"] * 15 + [
            "stack buffer overflow memory corruption"
        ] * 15
        labels = ["CWE-89"] * 15 + ["CWE-119"] * 15
        classifier = DescriptionClassifier(algorithm="dnn", epochs=10).fit(
            texts, labels
        )
        assert classifier.predict(["sql injection on the database"])[0] == "CWE-89"

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError):
            DescriptionClassifier(algorithm="transformer")

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            DescriptionClassifier().fit(["a"], ["x", "y"])

    def test_rejects_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            DescriptionClassifier().predict(["a"])
