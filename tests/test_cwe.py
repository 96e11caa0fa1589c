"""CWE catalog and extraction."""

import pytest

from repro.cwe import (
    CATALOG,
    SENTINEL_NOINFO,
    SENTINEL_OTHER,
    all_ids,
    extract_cwe_ids,
    get,
    is_sentinel,
    normalize_cwe_id,
)


class TestCatalog:
    def test_contains_table10_types(self):
        # Every type named in Table 10 of the paper must be present.
        for cwe_id, short in [
            ("CWE-119", "BO"), ("CWE-89", "SQLI"), ("CWE-264", "PM"),
            ("CWE-20", "IV"), ("CWE-94", "CI"), ("CWE-399", "RM"),
            ("CWE-416", "UaF"), ("CWE-189", "NE"), ("CWE-22", "PT"),
            ("CWE-285", "IA"), ("CWE-284", "AC"), ("CWE-255", "CD"),
            ("CWE-77", "CMD"), ("CWE-200", "IE"), ("CWE-190", "IO"),
            ("CWE-352", "CSRF"), ("CWE-125", "BoR"), ("CWE-310", "CR"),
        ]:
            assert CATALOG[cwe_id].short == short

    def test_catalog_is_reasonably_large(self):
        # §4.4's classifier works over ~151 classes.
        assert len(CATALOG) >= 150

    def test_ids_well_formed_and_consistent(self):
        for cwe_id, entry in CATALOG.items():
            assert cwe_id == entry.cwe_id
            assert cwe_id == f"CWE-{entry.number}"
            assert entry.name

    def test_all_ids_sorted_numerically(self):
        numbers = [int(cwe_id.split("-")[1]) for cwe_id in all_ids()]
        assert numbers == sorted(numbers)

    def test_get_known_and_unknown(self):
        assert get("CWE-79").short == "XSS"
        assert get("CWE-999999") is None
        assert get("not-an-id") is None

    def test_get_normalizes(self):
        assert get("cwe-079").cwe_id == "CWE-79"

    def test_infinite_loop_entry_matches_paper_example(self):
        # CVE-2007-0838's evaluator text: "CWE-835: Loop with
        # Unreachable Exit Condition ('Infinite Loop')".
        assert "Unreachable Exit Condition" in CATALOG["CWE-835"].name


class TestSentinels:
    def test_sentinel_labels(self):
        assert is_sentinel(SENTINEL_OTHER)
        assert is_sentinel(SENTINEL_NOINFO)
        assert is_sentinel(None)
        assert not is_sentinel("CWE-79")


class TestNormalize:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("CWE-79", "CWE-79"),
            ("cwe-79", "CWE-79"),
            ("CWE-079", "CWE-79"),
            (" CWE-79 ", "CWE-79"),
            ("CWE79", None),
            ("79", None),
            ("", None),
            ("CWE-000", "CWE-0"),
        ],
    )
    def test_normalize(self, raw, expected):
        assert normalize_cwe_id(raw) == expected

    def test_normalize_digit_run_past_int_limit(self):
        digits = "9" * 5000  # int() refuses strings this long
        assert normalize_cwe_id("CWE-00" + digits) == "CWE-" + digits


class TestExtraction:
    def test_extracts_from_evaluator_text(self):
        text = "Per the CVE evaluator: CWE-835: Loop with Unreachable Exit."
        assert extract_cwe_ids(text) == ["CWE-835"]

    def test_multiple_ids_in_order(self):
        assert extract_cwe_ids("see CWE-79 and CWE-89 and CWE-79") == [
            "CWE-79",
            "CWE-89",
        ]

    def test_no_match_returns_empty(self):
        assert extract_cwe_ids("a plain description with no ids") == []

    def test_does_not_match_partial_words(self):
        assert extract_cwe_ids("CWE- incomplete") == []

    def test_normalizes_leading_zeros(self):
        assert extract_cwe_ids("CWE-022 traversal") == ["CWE-22"]
