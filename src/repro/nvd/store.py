"""In-memory NVD snapshot with query indices.

The paper's study operates on "a snapshot of NVD captured on May 21,
2018" (§3).  :class:`NvdSnapshot` is that snapshot as an object: it
indexes entries by id and by name, exposes the §3 scale statistics,
and supports the name-remapping operation the cleaning pipeline
applies.

The one index is over names: vendor and (vendor, product) pair → CVE
ids.  :func:`index_rows` builds it, together with the §3 stats, in one
pass over per-CVE :class:`CveRow` s — what the index and the stats
read of an entry.  A snapshot builds its rows from its entries,
lazily, once; the query service builds the same index from the rows a
store's serving image holds, without any entry
(:mod:`repro.artifacts.image`).  Every name count reads it.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import NamedTuple

from repro.cwe import is_sentinel
from repro.nvd.models import CveEntry

__all__ = [
    "CveRow",
    "NameIndex",
    "NvdSnapshot",
    "SnapshotStats",
    "cve_row",
    "index_rows",
]


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
class NameIndex:
    """CVE ids keyed by vendor and by (vendor, product).  Each list
    holds a CVE id at most once, in row order."""

    by_vendor: dict[str, list[str]]
    by_pair: dict[tuple[str, str], list[str]]


class CveRow(NamedTuple):
    """What the name index and the §3 stats read of one CVE."""

    cve_id: str
    vendors: Sequence[str]
    products: Sequence[str]
    #: distinct (vendor, product) pairs, as pairs or 2-item lists.
    pairs: Sequence[Sequence[str]]
    #: the publication year.
    year: int
    #: the concrete (non-sentinel) CWE labels.
    cwe_types: Sequence[str]
    has_v2: bool
    has_v3: bool
    n_references: int


def cve_row(entry: CveEntry) -> CveRow:
    """``entry``'s row, in first-appearance order like its CPE views."""
    return CveRow(
        entry.cve_id,
        entry.vendors,
        entry.products,
        entry.vendor_products(),
        entry.published.year,
        tuple(label for label in entry.cwe_ids if not is_sentinel(label)),
        entry.cvss_v2 is not None,
        entry.cvss_v3 is not None,
        len(entry.references),
    )


def index_rows(rows: Iterable[Sequence]) -> tuple[NameIndex, SnapshotStats]:
    """The name index and the §3 stats of ``rows``, in one pass.

    A row is a :class:`CveRow` or any sequence of its fields in order
    (a JSON-decoded one has lists for tuples and 0/1 for booleans).
    """
    by_vendor: dict[str, list[str]] = {}
    by_pair: dict[tuple[str, str], list[str]] = {}
    product_names: set[str] = set()
    concrete_cwes: set[str] = set()
    n_cves = n_with_v3 = n_with_v2 = n_references = 0
    min_year = max_year = 0
    for cve_id, vendors, products, pairs, year, cwe_types, has_v2, has_v3, n_refs in rows:
        n_cves += 1
        for vendor in vendors:
            by_vendor.setdefault(vendor, []).append(cve_id)
        product_names.update(products)
        for vendor, product in pairs:
            by_pair.setdefault((vendor, product), []).append(cve_id)
        if min_year == 0 or year < min_year:
            min_year = year
        if year > max_year:
            max_year = year
        concrete_cwes.update(cwe_types)
        n_with_v2 += bool(has_v2)
        n_with_v3 += bool(has_v3)
        n_references += n_refs
    stats = SnapshotStats(
        n_cves=n_cves,
        n_vendors=len(by_vendor),
        n_products=len(product_names),
        n_cwe_types=len(concrete_cwes),
        n_with_v3=n_with_v3,
        n_with_v2=n_with_v2,
        n_references=n_references,
        year_range=(min_year, max_year),
    )
    return NameIndex(by_vendor, by_pair), stats


class NvdSnapshot:
    """An immutable collection of CVE entries with a name index."""

    def __init__(self, entries: Iterable[CveEntry]) -> None:
        self._entries: dict[str, CveEntry] = {}
        for entry in entries:
            if entry.cve_id in self._entries:
                raise ValueError(f"duplicate CVE id {entry.cve_id}")
            self._entries[entry.cve_id] = entry
        self._entry_list: list[CveEntry] | None = None
        self._index: tuple[NameIndex, SnapshotStats] | None = None

    @classmethod
    def _from_trusted(cls, entries: dict[str, CveEntry]) -> "NvdSnapshot":
        """Build a snapshot from an id→entry dict known to be consistent.

        Used by :meth:`merge`, whose upsert by CVE id cannot produce a
        duplicate, so the validation of ``__init__`` is not needed.
        """
        snapshot = cls.__new__(cls)
        snapshot._entries = entries
        snapshot._entry_list = None
        snapshot._index = None
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

    def _name_index(self) -> NameIndex:
        """The vendor and pair id lists, built with the stats
        by :func:`index_rows` on first use, in snapshot order."""
        if self._index is None:
            self._index = index_rows(map(cve_row, self.entries))
        return self._index[0]

    # -- queries ----------------------------------------------------------------

    def vendors(self) -> list[str]:
        """All distinct vendor names."""
        return sorted(self._name_index().by_vendor)

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
        """The §3 scale summary, built with the name index."""
        self._name_index()
        return self._index[1]
