"""Snapshot store indices and statistics."""

import datetime

import pytest

from repro.cpe import CpeName
from repro.cvss import CvssV2Metrics, CvssV3Metrics
from repro.nvd import CveEntry, NvdSnapshot


def entry(cve_id, vendor="acme", product="widget", year=2015, v3=False, cwe=("CWE-79",)):
    return CveEntry(
        cve_id=cve_id,
        published=datetime.date(year, 6, 1),
        descriptions=("d",),
        cwe_ids=cwe,
        cvss_v2=CvssV2Metrics("N", "L", "N", "P", "P", "P"),
        cvss_v3=CvssV3Metrics("N", "L", "N", "N", "U", "H", "H", "H") if v3 else None,
        cpes=(CpeName("a", vendor, product),),
    )


@pytest.fixture()
def store():
    return NvdSnapshot(
        [
            entry("CVE-2015-1001"),
            entry("CVE-2015-1002", vendor="acme", product="gadget"),
            entry("CVE-2016-1003", vendor="globex", year=2016, v3=True),
            entry("CVE-2016-1004", vendor="globex", year=2016, cwe=("NVD-CWE-Other",)),
        ]
    )


class TestContainer:
    def test_len_iter_contains(self, store):
        assert len(store) == 4
        assert "CVE-2015-1001" in store
        assert len(list(store)) == 4

    def test_get_and_getitem(self, store):
        assert store.get("CVE-2015-1001").cve_id == "CVE-2015-1001"
        assert store.get("CVE-9999-0000") is None
        assert store["CVE-2016-1003"].vendors == ("globex",)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            NvdSnapshot([entry("CVE-2015-1001"), entry("CVE-2015-1001")])


class TestQueries:
    def test_vendor_counts(self, store):
        assert store.vendor_cve_counts() == {"acme": 2, "globex": 2}
        assert store.vendor_product_counts() == {"acme": 2, "globex": 1}

    def test_product_cve_counts(self, store):
        counts = store.product_cve_counts()
        assert counts[("acme", "widget")] == 1
        assert counts[("globex", "widget")] == 2

    def test_v3_partitions(self, store):
        assert [e.cve_id for e in store.with_v3()] == ["CVE-2016-1003"]
        assert len(store.v2_only()) == 3

    def test_missing_cwe(self, store):
        assert [e.cve_id for e in store.missing_cwe()] == ["CVE-2016-1004"]

    def test_map_entries(self, store):
        relabeled = store.map_entries(lambda e: e.replace(cwe_ids=("CWE-89",)))
        assert all(e.cwe_ids == ("CWE-89",) for e in relabeled)
        # original untouched
        assert store["CVE-2015-1001"].cwe_ids == ("CWE-79",)


class TestStats:
    def test_stats(self, store):
        stats = store.stats()
        assert stats.n_cves == 4
        assert stats.n_vendors == 2
        assert stats.n_products == 2
        assert stats.n_cwe_types == 1  # sentinels excluded
        assert stats.n_with_v3 == 1
        assert stats.n_with_v2 == 4
        assert stats.year_range == (2015, 2016)

    def test_generated_snapshot_stats(self, snapshot):
        stats = snapshot.stats()
        assert stats.n_cves == 1500
        assert stats.n_vendors > 50
        assert stats.year_range[0] >= 1998
        assert stats.year_range[1] <= 2018
