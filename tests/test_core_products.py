"""Product-name consolidation (§4.2)."""

import datetime

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import analyze_products, apply_product_mapping
from repro.core.products import _within_one_edit, product_candidate_pairs
from repro.cpe import CpeName
from repro.nvd import CveEntry, NvdSnapshot


def entry(cve_id, vendor, product):
    return CveEntry(
        cve_id=cve_id,
        published=datetime.date(2015, 5, 1),
        descriptions=("d",),
        cpes=(CpeName("a", vendor, product),),
    )


def reference_edit_distance(a: str, b: str, cap: int = 3) -> int:
    """Levenshtein DP with an early-exit ``cap``: the oracle for the
    linear one-edit check (returns ``cap + 1`` once the distance
    provably exceeds ``cap``)."""
    if abs(len(a) - len(b)) > cap:
        return cap + 1
    previous = list(range(len(b) + 1))
    for i in range(1, len(a) + 1):
        current = [i] + [0] * len(b)
        best = current[0]
        for j in range(1, len(b) + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            current[j] = min(
                previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost
            )
            best = min(best, current[j])
        if best > cap:
            return cap + 1
        previous = current
    return min(previous[len(b)], cap + 1)


class TestEditDistance:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("the_banner_engine", "tbe_banner_engine", 1),
            ("abc", "abc", 0),
            ("abc", "abd", 1),
            ("abc", "ab", 1),
            ("kitten", "sitting", 3),
        ],
    )
    def test_distances(self, a, b, expected):
        assert reference_edit_distance(a, b, cap=3) == expected

    def test_cap_early_exit(self):
        assert reference_edit_distance("aaaaaaaa", "zzzzzzzz", cap=2) == 3

    def test_length_gap_short_circuit(self):
        assert reference_edit_distance("a", "aaaaa", cap=2) == 3


words = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=12)
# A tiny alphabet and short strings make near-misses (shared prefixes,
# transpositions, repeated letters) and equal pairs common; "é" covers
# non-ASCII code points.
near_names = st.text(alphabet="abé", min_size=0, max_size=6)


class TestEditDistanceProperties:
    @given(words, words)
    def test_symmetric_under_cap(self, a, b):
        assert reference_edit_distance(a, b, cap=5) == reference_edit_distance(
            b, a, cap=5
        )

    @given(words)
    def test_identity(self, a):
        assert reference_edit_distance(a, a) == 0

    @given(words)
    def test_single_deletion_is_one(self, a):
        if len(a) >= 2:
            assert reference_edit_distance(a, a[1:], cap=3) == 1

    @given(words, words)
    def test_never_exceeds_cap_plus_one(self, a, b):
        assert reference_edit_distance(a, b, cap=2) <= 3


class TestWithinOneEdit:
    @settings(max_examples=500)
    @given(near_names, near_names)
    def test_matches_reference_dp(self, a, b):
        assert _within_one_edit(a, b) == (reference_edit_distance(a, b, cap=1) <= 1)

    @given(near_names, st.data())
    def test_near_variants_match_reference_dp(self, a, data):
        # Derive b from a by one edit, or by an adjacent swap (two edits
        # apart yet sharing a deletion signature), so both answers and
        # the blocking step's false positives are drawn often.
        i = data.draw(st.integers(0, len(a)))
        c = data.draw(st.sampled_from("abé"))
        inserted, substituted, deleted, swapped = (
            a[:i] + c + a[i:],
            a[:i] + c + a[i + 1 :],
            a[:i] + a[i + 1 :],
            a[:i] + a[i + 1 : i + 2] + a[i : i + 1] + a[i + 2 :],
        )
        b = data.draw(st.sampled_from([a, inserted, substituted, deleted, swapped]))
        assert _within_one_edit(a, b) == (reference_edit_distance(a, b, cap=1) <= 1)
        assert _within_one_edit(a, b) == _within_one_edit(b, a)

    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("", "", True),
            ("", "a", True),
            ("", "ab", False),
            ("ab", "ba", False),
            ("abc", "bca", False),
            ("abc", "abc", True),
            ("the_banner_engine", "tbe_banner_engine", True),
            ("ucs-e160dp-m1_firmware", "ucs-e140dp-m1_firmware", True),
            ("naïve", "naive", True),
        ],
    )
    def test_examples(self, a, b, expected):
        assert _within_one_edit(a, b) is expected


class TestCandidatePairs:
    def test_separator_variants_flagged(self):
        # Paper: internet-explorer / internet_explorer / internet explorer.
        pairs = product_candidate_pairs(
            {"microsoft": {"internet-explorer", "internet_explorer"}}
        )
        assert any(p.heuristic == "tokens" for p in pairs)

    def test_abbreviation_flagged(self):
        # Paper: internet-explorer / ie.
        pairs = product_candidate_pairs({"microsoft": {"internet-explorer", "ie"}})
        assert any(p.heuristic == "abbreviation" for p in pairs)

    def test_edit_distance_flagged(self):
        # Paper: tbe_banner_engine / the_banner_engine.
        pairs = product_candidate_pairs(
            {"nativesolutions": {"tbe_banner_engine", "the_banner_engine"}}
        )
        assert any(p.heuristic == "edit-distance" for p in pairs)

    def test_cisco_firmware_models_flagged_but_distinct(self):
        # ucs-e160dp-m1 vs ucs-e140dp-m1: edit distance 1 but genuinely
        # different products — candidates must include them so that the
        # confirmation step can reject.
        pairs = product_candidate_pairs(
            {"cisco": {"ucs-e160dp-m1_firmware", "ucs-e140dp-m1_firmware"}}
        )
        assert any(p.heuristic == "edit-distance" for p in pairs)

    def test_shared_signature_alone_is_not_a_pair(self):
        # ab/ba share the signatures "a" and "b", abc/bca share "bc",
        # yet each pair is two edits apart: blocking over-generates and
        # the verifier must drop them.
        pairs = product_candidate_pairs({"v1": {"ab", "ba"}, "v2": {"abc", "bca"}})
        assert not [p for p in pairs if p.heuristic == "edit-distance"]

    def test_different_vendors_never_paired(self):
        pairs = product_candidate_pairs(
            {"microsoft": {"internet-explorer"}, "mozilla": {"internet_explorer"}}
        )
        assert pairs == []


class TestAnalyzeAndApply:
    @pytest.fixture()
    def inconsistent_snapshot(self):
        return NvdSnapshot(
            [
                entry("CVE-2015-1001", "nativesolutions", "the_banner_engine"),
                entry("CVE-2015-1002", "nativesolutions", "the_banner_engine"),
                entry("CVE-2015-1003", "nativesolutions", "tbe_banner_engine"),
                entry("CVE-2015-1004", "cisco", "ucs-e160dp-m1_firmware"),
                entry("CVE-2015-1005", "cisco", "ucs-e140dp-m1_firmware"),
            ]
        )

    def test_truth_oracle_merges_typo_not_models(self, inconsistent_snapshot):
        truth = {("nativesolutions", "tbe_banner_engine"): "the_banner_engine"}

        def confirm(vendor, a, b):
            def canonical(name):
                return truth.get((vendor, name), name)

            return canonical(a) == canonical(b)

        analysis = analyze_products(inconsistent_snapshot, confirm)
        assert analysis.mapping == {
            ("nativesolutions", "tbe_banner_engine"): "the_banner_engine"
        }
        assert analysis.n_vendors_affected == 1

    def test_apply_mapping(self, inconsistent_snapshot):
        mapping = {("nativesolutions", "tbe_banner_engine"): "the_banner_engine"}
        remapped = apply_product_mapping(inconsistent_snapshot, mapping)
        products = {p for e in remapped for p in e.products}
        assert "tbe_banner_engine" not in products
        counts = remapped.product_cve_counts()
        assert counts[("nativesolutions", "the_banner_engine")] == 3

    def test_equal_cve_counts_pick_the_larger_name(self, inconsistent_snapshot):
        analysis = analyze_products(inconsistent_snapshot, lambda v, a, b: True)
        assert analysis.mapping == {
            ("nativesolutions", "tbe_banner_engine"): "the_banner_engine",
            ("cisco", "ucs-e140dp-m1_firmware"): "ucs-e160dp-m1_firmware",
        }

    def test_rejecting_oracle_changes_nothing(self, inconsistent_snapshot):
        analysis = analyze_products(inconsistent_snapshot, lambda v, a, b: False)
        assert analysis.mapping == {}

    def test_group_recovery_on_synthetic_bundle(self, bundle):
        from repro.core import product_oracle_from_truth

        analysis = analyze_products(
            bundle.snapshot, product_oracle_from_truth(bundle.truth.product_map)
        )
        counts = bundle.snapshot.product_cve_counts()

        recovered = 0
        applicable = 0
        for (vendor, variant), canonical in bundle.truth.product_map.items():
            if (vendor, variant) in counts and (vendor, canonical) in counts:
                applicable += 1
                mapped_variant = analysis.mapping.get((vendor, variant), variant)
                mapped_canonical = analysis.mapping.get((vendor, canonical), canonical)
                if mapped_variant == mapped_canonical:
                    recovered += 1
        if applicable:
            assert recovered / applicable >= 0.75
