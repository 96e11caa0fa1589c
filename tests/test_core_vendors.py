"""Vendor-name consolidation (§4.2)."""

import datetime

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    analyze_vendors,
    apply_vendor_mapping,
    from_ground_truth,
    heuristic_vendor_confirm,
)
from repro.core.vendors import PairFeatures, _char_3grams, candidate_pairs, pattern_of
from repro.cpe import CpeName
from repro.nvd import CveEntry, NvdSnapshot
from repro.synth.names import tokenize_name


def entry(cve_id, vendor, product, year=2015):
    return CveEntry(
        cve_id=cve_id,
        published=datetime.date(year, 5, 1),
        descriptions=("d",),
        cpes=(CpeName("a", vendor, product),),
    )


def longest_common_substring(a: str, b: str) -> int:
    """Length of the longest common substring, by the O(n*m) DP: the
    oracle for the shared-3-gram test that Table 2's ">= 3" band uses."""
    if not a or not b:
        return 0
    previous = [0] * (len(b) + 1)
    best = 0
    for i in range(1, len(a) + 1):
        current = [0] * (len(b) + 1)
        char_a = a[i - 1]
        for j in range(1, len(b) + 1):
            if char_a == b[j - 1]:
                current[j] = previous[j - 1] + 1
                if current[j] > best:
                    best = current[j]
        previous = current
    return best


def shares_3gram(a: str, b: str) -> bool:
    return not _char_3grams(a).isdisjoint(_char_3grams(b))


# A small alphabet with the separators vendor names carry makes shared
# runs of every length common; "é" covers non-ASCII code points.
near_names = st.text(alphabet="ab_-é", min_size=0, max_size=8)


class TestLcs:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("microsoft", "microsft", 6),  # "micros"
            ("bea", "bea_systems", 3),
            ("abc", "xyz", 0),
            ("", "abc", 0),
            ("same", "same", 4),
        ],
    )
    def test_lengths(self, a, b, expected):
        assert longest_common_substring(a, b) == expected

    def test_symmetric(self):
        assert longest_common_substring("lynx", "lynx_project") == (
            longest_common_substring("lynx_project", "lynx")
        )


class TestShared3Gram:
    @settings(max_examples=500)
    @given(near_names, near_names)
    def test_matches_reference_lcs(self, a, b):
        assert shares_3gram(a, b) == (longest_common_substring(a, b) >= 3)

    def test_candidate_bands_match_reference_lcs(self, bundle):
        vendors = bundle.snapshot.vendors()
        pairs = candidate_pairs(vendors, bundle.snapshot.vendor_products())
        assert pairs
        for features in pairs:
            assert features.lcs_at_least_3 == (
                longest_common_substring(features.name_a, features.name_b) >= 3
            )

    @settings(max_examples=500)
    @given(near_names, st.data())
    def test_heuristic_confirm_matches_lcs_form(self, a, data):
        # Draw b as a's extension or prefix two times in three, so prefix
        # pairs (the branch the LCS used to gate) come up often.
        b = data.draw(
            st.one_of(
                near_names,
                near_names.map(lambda tail: a + tail),
                st.integers(0, len(a)).map(lambda n: a[:n]),
            )
        )
        tokens_a, tokens_b = tokenize_name(a), tokenize_name(b)
        lcs_form = bool(tokens_a and tokens_a == tokens_b) or (
            longest_common_substring(a, b) >= 3
            and (a.startswith(b) or b.startswith(a))
        )
        assert heuristic_vendor_confirm(a, b) == lcs_form
        assert heuristic_vendor_confirm(b, a) == lcs_form


class TestPatternClassification:
    def test_tokens_pattern(self):
        features = PairFeatures("avast", "avast!", True, 0, True, False, True)
        assert pattern_of(features) == "Tokens"

    def test_pav_pattern(self):
        features = PairFeatures("microsoft", "windows", False, 0, False, True, False)
        assert pattern_of(features) == "PaV"

    def test_pref_pattern(self):
        features = PairFeatures("lynx", "lynx_project", False, 0, True, False, True)
        assert pattern_of(features) == "Pref"

    def test_mp_patterns(self):
        base = dict(
            tokens_identical=False,
            is_prefix=False,
            product_as_vendor=False,
            lcs_at_least_3=True,
        )
        assert pattern_of(PairFeatures("a", "b", matching_products=0, **base)) == "#MP=0"
        assert pattern_of(PairFeatures("a", "b", matching_products=1, **base)) == "#MP=1"
        assert pattern_of(PairFeatures("a", "b", matching_products=3, **base)) == "#MP>1"


class TestCandidateGeneration:
    def make_products(self, mapping):
        return {vendor: set(products) for vendor, products in mapping.items()}

    def find(self, pairs, a, b):
        key = (a, b) if a < b else (b, a)
        for features in pairs:
            if (features.name_a, features.name_b) == key:
                return features
        return None

    def test_special_char_pair_found(self):
        # Paper: avast / avast!.
        pairs = candidate_pairs(
            ["avast", "avast!"], self.make_products({"avast": {"antivirus"}, "avast!": set()})
        )
        found = self.find(pairs, "avast", "avast!")
        assert found is not None and found.tokens_identical

    def test_typo_pair_found(self):
        # Paper: microsoft / microsft.
        pairs = candidate_pairs(
            ["microsoft", "microsft"],
            self.make_products({"microsoft": {"windows"}, "microsft": set()}),
        )
        assert self.find(pairs, "microsoft", "microsft") is not None

    def test_abbreviation_pair_found(self):
        # Paper: lan_management_system / lms.
        pairs = candidate_pairs(
            ["lan_management_system", "lms"],
            self.make_products({"lan_management_system": set(), "lms": set()}),
        )
        assert self.find(pairs, "lan_management_system", "lms") is not None

    def test_prefix_pair_found(self):
        # Paper: lynx / lynx_project.
        pairs = candidate_pairs(
            ["lynx", "lynx_project"],
            self.make_products({"lynx": set(), "lynx_project": {"lynx"}}),
        )
        found = self.find(pairs, "lynx", "lynx_project")
        assert found is not None and found.is_prefix

    def test_product_as_vendor_pair_found(self):
        # Paper: microsoft / windows both as vendors.
        pairs = candidate_pairs(
            ["microsoft", "windows"],
            self.make_products({"microsoft": {"windows"}, "windows": {"windows"}}),
        )
        found = self.find(pairs, "microsoft", "windows")
        assert found is not None and found.product_as_vendor

    def test_shared_product_pair_found(self):
        # Paper: bea / bea_systems share weblogic_server.
        pairs = candidate_pairs(
            ["bea", "bea_systems"],
            self.make_products(
                {"bea": {"weblogic_server"}, "bea_systems": {"weblogic_server"}}
            ),
        )
        found = self.find(pairs, "bea", "bea_systems")
        assert found is not None and found.matching_products == 1

    def test_unrelated_names_not_paired(self):
        pairs = candidate_pairs(
            ["oracle", "debian"],
            self.make_products({"oracle": {"mysql"}, "debian": {"apt"}}),
        )
        assert self.find(pairs, "oracle", "debian") is None


class TestAnalyzeAndApply:
    @pytest.fixture()
    def inconsistent_snapshot(self):
        return NvdSnapshot(
            [
                entry("CVE-2015-1001", "bea_systems", "weblogic_server"),
                entry("CVE-2015-1002", "bea_systems", "weblogic_server"),
                entry("CVE-2015-1003", "bea_systems", "tuxedo"),
                entry("CVE-2015-1004", "bea", "weblogic_server"),
                entry("CVE-2015-1005", "oracle", "mysql"),
            ]
        )

    def test_consolidates_to_majority_name(self, inconsistent_snapshot):
        truth = {"bea": "bea_systems"}
        analysis = analyze_vendors(inconsistent_snapshot, from_ground_truth(truth))
        assert analysis.mapping == {"bea": "bea_systems"}
        assert analysis.n_impacted_names == 2
        assert analysis.n_consistent_names == 1

    def test_equal_cve_counts_pick_the_larger_name(self):
        snapshot = NvdSnapshot(
            [
                entry("CVE-2015-1001", "bea", "weblogic_server"),
                entry("CVE-2015-1002", "bea_systems", "weblogic_server"),
            ]
        )
        analysis = analyze_vendors(snapshot, lambda a, b: True)
        assert analysis.mapping == {"bea": "bea_systems"}

    def test_oracle_rejection_blocks_merge(self, inconsistent_snapshot):
        analysis = analyze_vendors(inconsistent_snapshot, lambda a, b: False)
        assert analysis.mapping == {}

    def test_apply_mapping_rewrites_cpes(self, inconsistent_snapshot):
        remapped = apply_vendor_mapping(inconsistent_snapshot, {"bea": "bea_systems"})
        assert remapped.vendor_cve_counts() == {"bea_systems": 4, "oracle": 1}
        # original snapshot untouched
        assert "bea" in inconsistent_snapshot.vendor_cve_counts()

    def test_pattern_table_has_possible_and_confirmed_rows(
        self, inconsistent_snapshot
    ):
        truth = {"bea": "bea_systems"}
        analysis = analyze_vendors(inconsistent_snapshot, from_ground_truth(truth))
        table = analysis.pattern_table()
        assert any(key[0] == "possible" for key in table)
        assert any(key[0] == "confirmed" for key in table)

    def test_group_recovery_on_synthetic_bundle(self, bundle):
        analysis = analyze_vendors(
            bundle.snapshot, from_ground_truth(bundle.truth.vendor_map)
        )
        counts = bundle.snapshot.vendor_cve_counts()

        def canonical_of(name):
            mapped = analysis.mapping.get(name, name)
            return mapped

        recovered = 0
        applicable = 0
        for variant, canonical in bundle.truth.vendor_map.items():
            if variant in counts and canonical in counts:
                applicable += 1
                # Same group = both names resolve to the same final name.
                if canonical_of(variant) == canonical_of(canonical):
                    recovered += 1
        if applicable:
            assert recovered / applicable >= 0.8
