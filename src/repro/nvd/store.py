"""In-memory NVD snapshot with query indices.

The paper's study operates on "a snapshot of NVD captured on May 21,
2018" (§3).  :class:`NvdSnapshot` is that snapshot as an object: it
indexes entries by id and by name, exposes the §3 scale statistics,
and supports the name-remapping operation the cleaning pipeline
applies.

The one index is over names, built lazily in one pass over the
entries: vendor, product and (vendor, product) pair → CVE ids.  Every
name query and count reads it.  ``stats()`` computes its other scalars
in a pass of its own, once.  The year and CWE queries are plain scans:
neither the pipeline nor the service asks them.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Iterable, Iterator

from repro.cwe import is_sentinel
from repro.nvd.models import CveEntry

__all__ = ["NvdSnapshot", "SnapshotStats"]


@dataclasses.dataclass(frozen=True, slots=True)
class SnapshotStats:
    """§3-style scale summary of a snapshot."""

    n_cves: int
    n_vendors: int
    n_products: int
    n_cwe_types: int
    n_with_v3: int
    n_with_v2: int
    n_references: int
    year_range: tuple[int, int]

    def as_dict(self) -> dict[str, object]:
        """The machine-readable shape shared by ``python -m repro stats
        --json`` and the query service's ``/v1/stats`` endpoint."""
        return {
            "n_cves": self.n_cves,
            "n_vendors": self.n_vendors,
            "n_products": self.n_products,
            "n_cwe_types": self.n_cwe_types,
            "n_with_v3": self.n_with_v3,
            "n_with_v2": self.n_with_v2,
            "n_references": self.n_references,
            "year_range": [self.year_range[0], self.year_range[1]],
        }


@dataclasses.dataclass
class _NameIndices:
    """CVE ids keyed by vendor, by product and by (vendor, product)."""

    by_vendor: dict[str, list[str]]
    by_product: dict[str, list[str]]
    by_pair: dict[tuple[str, str], list[str]]


class NvdSnapshot:
    """An immutable collection of CVE entries with a name index."""

    def __init__(self, entries: Iterable[CveEntry]) -> None:
        self._entries: dict[str, CveEntry] = {}
        for entry in entries:
            if entry.cve_id in self._entries:
                raise ValueError(f"duplicate CVE id {entry.cve_id}")
            self._entries[entry.cve_id] = entry
        self._entry_list: list[CveEntry] | None = None
        self._names: _NameIndices | None = None
        self._stats: SnapshotStats | None = None

    @classmethod
    def _from_trusted(cls, entries: dict[str, CveEntry]) -> "NvdSnapshot":
        """Build a snapshot from an id→entry dict known to be consistent.

        Used by :meth:`merge`, whose upsert by CVE id cannot produce a
        duplicate, so the validation of ``__init__`` is not needed.
        """
        snapshot = cls.__new__(cls)
        snapshot._entries = entries
        snapshot._entry_list = None
        snapshot._names = None
        snapshot._stats = None
        return snapshot

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[CveEntry]:
        return iter(self.entries)

    def __contains__(self, cve_id: str) -> bool:
        return cve_id in self._entries

    def get(self, cve_id: str) -> CveEntry | None:
        return self._entries.get(cve_id)

    def __getitem__(self, cve_id: str) -> CveEntry:
        return self._entries[cve_id]

    @property
    def entries(self) -> list[CveEntry]:
        """The entries as a list, cached (hot loops iterate it freely)."""
        if self._entry_list is None:
            self._entry_list = list(self._entries.values())
        return self._entry_list

    # -- name index -----------------------------------------------------------

    def _name_index(self) -> _NameIndices:
        """The vendor, product and pair id lists, built in one pass on
        first use.  Each list holds a CVE id at most once, in snapshot
        order."""
        if self._names is None:
            by_vendor: dict[str, list[str]] = {}
            by_product: dict[str, list[str]] = {}
            by_pair: dict[tuple[str, str], list[str]] = {}
            for entry in self.entries:
                cve_id = entry.cve_id
                for vendor in entry.vendors:
                    by_vendor.setdefault(vendor, []).append(cve_id)
                for product in entry.products:
                    by_product.setdefault(product, []).append(cve_id)
                for pair in entry.vendor_products():
                    by_pair.setdefault(pair, []).append(cve_id)
            self._names = _NameIndices(by_vendor, by_product, by_pair)
        return self._names

    # -- queries ----------------------------------------------------------------

    def vendor_cve_ids(self, vendor: str) -> list[str]:
        """Ids of the entries whose CPE list names ``vendor``.

        The list is the index's own (read it, do not mutate it).
        """
        return self._name_index().by_vendor.get(vendor, [])

    def product_cve_ids(self, vendor: str, product: str) -> list[str]:
        """Ids of the entries listing ``product`` under ``vendor``.

        The list is the index's own (read it, do not mutate it).
        """
        return self._name_index().by_pair.get((vendor, product), [])

    def by_vendor(self, vendor: str) -> list[CveEntry]:
        """All entries whose CPE list names ``vendor``."""
        return [self._entries[i] for i in self.vendor_cve_ids(vendor)]

    def by_product(self, product: str) -> list[CveEntry]:
        """All entries whose CPE list names ``product``."""
        ids = self._name_index().by_product.get(product, ())
        return [self._entries[i] for i in ids]

    def by_publication_year(self, year: int) -> list[CveEntry]:
        """All entries published (added to NVD) in ``year``."""
        return [entry for entry in self.entries if entry.published.year == year]

    def by_cwe(self, cwe_id: str) -> list[CveEntry]:
        """All entries labelled with ``cwe_id`` (sentinels allowed)."""
        return [entry for entry in self.entries if cwe_id in entry.cwe_ids]

    def vendors(self) -> list[str]:
        """All distinct vendor names."""
        return sorted(self._name_index().by_vendor)

    def products(self) -> list[str]:
        """All distinct product names."""
        return sorted(self._name_index().by_product)

    def vendor_cve_counts(self) -> dict[str, int]:
        """Vendor → number of associated CVEs."""
        by_vendor = self._name_index().by_vendor
        return {vendor: len(ids) for vendor, ids in by_vendor.items()}

    def vendor_product_counts(self) -> dict[str, int]:
        """Vendor → number of distinct products listed under it."""
        counts: dict[str, int] = {}
        for vendor, _ in self._name_index().by_pair:
            counts[vendor] = counts.get(vendor, 0) + 1
        return counts

    def product_cve_counts(self) -> dict[tuple[str, str], int]:
        """(vendor, product) → number of associated CVEs."""
        return {pair: len(ids) for pair, ids in self._name_index().by_pair.items()}

    def vendor_products(self) -> dict[str, set[str]]:
        """Vendor → the set of product names listed under it."""
        products: dict[str, set[str]] = {}
        for vendor, product in self._name_index().by_pair:
            products.setdefault(vendor, set()).add(product)
        return products

    def with_v3(self) -> list[CveEntry]:
        """Entries carrying a CVSS v3 vector (the ground-truth pool)."""
        return [entry for entry in self.entries if entry.has_v3]

    def v2_only(self) -> list[CveEntry]:
        """Entries with a v2 vector but no v3 (the prediction targets)."""
        return [
            entry
            for entry in self.entries
            if entry.cvss_v2 is not None and not entry.has_v3
        ]

    def missing_cwe(self) -> list[CveEntry]:
        """Entries whose every CWE label is a sentinel (or absent)."""
        return [
            entry
            for entry in self.entries
            if all(is_sentinel(label) for label in entry.cwe_ids) or not entry.cwe_ids
        ]

    def filter(self, predicate: Callable[[CveEntry], bool]) -> "NvdSnapshot":
        """A new snapshot with the entries satisfying ``predicate``."""
        return NvdSnapshot(entry for entry in self.entries if predicate(entry))

    def merge(self, entries: Iterable[CveEntry]) -> "NvdSnapshot":
        """A new snapshot with ``entries`` upserted by CVE id.

        Existing ids are replaced in place (snapshot order preserved);
        new ids append in input order.  The incremental-ingest path
        builds every new artifact version through this, so a delta feed
        updates answers without re-cleaning the whole population.
        """
        merged = dict(self._entries)
        for entry in entries:
            merged[entry.cve_id] = entry
        return NvdSnapshot._from_trusted(merged)

    def map_entries(
        self, transform: Callable[[CveEntry], CveEntry]
    ) -> "NvdSnapshot":
        """A new snapshot with ``transform`` applied to every entry."""
        return NvdSnapshot(transform(entry) for entry in self.entries)

    # -- statistics -----------------------------------------------------------

    def stats(self) -> SnapshotStats:
        """The §3 scale summary, computed once: the name counts from the
        name index, the rest in one pass of its own."""
        if self._stats is None:
            names = self._name_index()
            concrete_cwes: set[str] = set()
            n_with_v3 = n_with_v2 = n_references = 0
            min_year = max_year = 0
            for entry in self.entries:
                year = entry.published.year
                if min_year == 0 or year < min_year:
                    min_year = year
                if year > max_year:
                    max_year = year
                for cwe_id in entry.cwe_ids:
                    if not is_sentinel(cwe_id):
                        concrete_cwes.add(cwe_id)
                if entry.cvss_v3 is not None:
                    n_with_v3 += 1
                if entry.cvss_v2 is not None:
                    n_with_v2 += 1
                n_references += len(entry.references)
            self._stats = SnapshotStats(
                n_cves=len(self),
                n_vendors=len(names.by_vendor),
                n_products=len(names.by_product),
                n_cwe_types=len(concrete_cwes),
                n_with_v3=n_with_v3,
                n_with_v2=n_with_v2,
                n_references=n_references,
                year_range=(min_year, max_year),
            )
        return self._stats
