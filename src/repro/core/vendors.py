"""Vendor-name inconsistency detection and consolidation (§4.2).

The paper's workflow:

1. generate candidate vendor-name pairs via three heuristics —
   (a) the names share characters (misspellings, format variants,
   abbreviations, strict substrings), (b) a product name is used as a
   vendor name, and (c) the two vendors share a product name;
2. manually investigate each candidate pair ("matching pair" = both
   names denote the same entity).  Here the investigation step is a
   pluggable *confirmation oracle* — in experiments it consults the
   synthetic ground truth, standing in for the paper's analysts;
3. group matching names and remap every name in a group to the
   member with the most associated CVEs.

Pairwise comparison over ~19K names is infeasible, so candidates are
*blocked*: token-identity keys, shared-product indices, vendor-name
tries for prefixes, abbreviation lookups, and character-4-gram buckets
for misspellings.  Table 2's pattern taxonomy (Tokens / #MP / Pref /
PaV × longest-substring-match ≥3 or <3) is computed per pair.  Only
the ≥3/<3 band is ever read, so a pair is tested for a shared
3-character substring (3-gram sets, linear in the names' lengths)
rather than measuring its longest common substring.

Grouping confirmed pairs and picking each group's canonical name is
done by :func:`_canonical_map`, which product consolidation shares.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Hashable, Mapping, Sequence
from typing import TypeVar

from repro.nvd import CveEntry, NvdSnapshot
from repro.synth.names import abbreviate, tokenize_name

__all__ = [
    "PairFeatures",
    "VendorAnalysis",
    "analyze_vendors",
    "apply_vendor_mapping",
    "candidate_pairs",
    "pattern_of",
]

ConfirmOracle = Callable[[str, str], bool]
K = TypeVar("K", bound=Hashable)

#: cap on every blocking bucket (token groups, shared products,
#: deletion signatures, 4-grams): very common keys (e.g. the substring
#: "soft") would otherwise produce quadratic noise — the paper made the
#: same call by dropping substring heuristics that "flagged too many
#: pairs for analysis" for products.
MAX_BUCKET = 60


@dataclasses.dataclass(frozen=True, slots=True)
class PairFeatures:
    """The Table 2 features of a candidate vendor-name pair."""

    name_a: str
    name_b: str
    tokens_identical: bool
    matching_products: int
    is_prefix: bool
    product_as_vendor: bool
    #: the names share a 3-character substring (Table 2's "longest
    #: substring match >= 3").
    lcs_at_least_3: bool


def pattern_of(features: PairFeatures) -> str:
    """Classify a pair into Table 2's column taxonomy.

    Priority follows the table: token-identity is its own category;
    otherwise the pair is labelled by its strongest signal among
    #MP (matching products), Pref, and PaV.
    """
    if features.tokens_identical:
        return "Tokens"
    if features.product_as_vendor:
        return "PaV"
    if features.is_prefix:
        return "Pref"
    if features.matching_products == 0:
        return "#MP=0"
    if features.matching_products == 1:
        return "#MP=1"
    return "#MP>1"


@dataclasses.dataclass
class VendorAnalysis:
    """Everything §4.2 produces for vendors."""

    #: all candidate pairs with their features ("possible" pairs).
    candidates: list[PairFeatures]
    #: the subset confirmed as matching by the oracle.
    confirmed: list[PairFeatures]
    #: inconsistent name → canonical name (most-CVEs member).
    mapping: dict[str, str]
    #: number of distinct vendor names before consolidation.
    n_vendors: int

    @property
    def n_impacted_names(self) -> int:
        """Distinct names involved in a confirmed inconsistency."""
        names = set(self.mapping)
        names.update(self.mapping.values())
        return len(names)

    @property
    def n_consistent_names(self) -> int:
        """Canonical names that inconsistent names map onto."""
        return len(set(self.mapping.values()))

    def pattern_table(self) -> dict[tuple[str, str, str], int]:
        """Table 2 cell counts.

        Keys are ``(row, lcs_band, pattern)`` with row in
        {"possible", "confirmed"} and lcs_band in {">=3", "<3"}.
        """
        table: dict[tuple[str, str, str], int] = {}
        for row, pairs in (("possible", self.candidates), ("confirmed", self.confirmed)):
            for features in pairs:
                band = ">=3" if features.lcs_at_least_3 else "<3"
                key = (row, band, pattern_of(features))
                table[key] = table.get(key, 0) + 1
        return table


def _char_3grams(name: str) -> frozenset[str]:
    """Every 3-character substring of the raw name.  Two names share
    one exactly when their longest common substring is >= 3 long."""
    return frozenset(name[i : i + 3] for i in range(len(name) - 2))


def _char_4grams(name: str) -> set[str]:
    stripped = "".join(char for char in name if char.isalnum())
    if len(stripped) < 4:
        return {stripped} if stripped else set()
    return {stripped[i : i + 4] for i in range(len(stripped) - 3)}


def candidate_pairs(
    vendors: list[str], vendor_products: dict[str, set[str]]
) -> list[PairFeatures]:
    """Generate candidate pairs via the §4.2 heuristics with blocking,
    every blocking bucket capped at :data:`MAX_BUCKET` names."""
    # Pairs deduplicate as index tuples — cheaper to hash and compare
    # than string pairs when the heuristics overlap heavily.
    index_of = {vendor: i for i, vendor in enumerate(vendors)}
    tokens_of = [tokenize_name(vendor) for vendor in vendors]
    grams_of = [_char_3grams(vendor) for vendor in vendors]
    pairs: set[tuple[int, int]] = set()

    def add(a: str, b: str) -> None:
        if a != b:
            ia, ib = index_of[a], index_of[b]
            pairs.add((ia, ib) if a < b else (ib, ia))

    # Heuristic: identical token sequences (special-char variants).
    by_tokens: dict[tuple[str, ...], list[str]] = {}
    for vendor, tokens in zip(vendors, tokens_of):
        if tokens:
            by_tokens.setdefault(tokens, []).append(vendor)
    for group in by_tokens.values():
        if len(group) > MAX_BUCKET:
            # Token identity is a high-precision signal, so unlike the
            # noisy buckets below an oversized group must not be
            # dropped: chain consecutive members instead — union-find
            # still merges the whole group, with O(n) pairs.
            for a, b in zip(group, group[1:]):
                add(a, b)
            continue
        for i, a in enumerate(group):
            for b in group[i + 1 :]:
                add(a, b)

    # Heuristic: shared product names.
    by_product: dict[str, list[str]] = {}
    for vendor, products in vendor_products.items():
        for product in products:
            by_product.setdefault(product, []).append(vendor)
    for group in by_product.values():
        if len(group) > MAX_BUCKET:
            continue
        for i, a in enumerate(group):
            for b in group[i + 1 :]:
                add(a, b)

    # Heuristic: a product name used as a vendor name.
    vendor_set = set(vendors)
    for vendor, products in vendor_products.items():
        for product in products:
            if product in vendor_set:
                add(vendor, product)

    # Heuristic: abbreviation of a multi-token name.
    by_abbrev: dict[str, list[str]] = {}
    for vendor, tokens in zip(vendors, tokens_of):
        if len(tokens) >= 2:
            by_abbrev.setdefault(abbreviate(vendor), []).append(vendor)
    for vendor in vendors:
        for expanded in by_abbrev.get(vendor, ()):
            add(vendor, expanded)

    # Heuristic: strict prefix (lynx / lynx_project) via a sorted scan.
    ordered = sorted(vendors)
    for i, vendor in enumerate(ordered):
        for j in range(i + 1, len(ordered)):
            other = ordered[j]
            if not other.startswith(vendor):
                break
            if len(vendor) >= 3:
                add(vendor, other)

    # Heuristic: deletion signatures — two names sharing a
    # one-character-deleted form are within edit distance 2, which
    # catches missing-letter misspellings (microsoft / microsft) that
    # gram overlap can miss when the edit sits mid-name.
    by_deletion: dict[str, list[str]] = {}
    for vendor in vendors:
        if len(vendor) < 5 or len(vendor) > 24:
            continue
        signatures = {vendor[:i] + vendor[i + 1 :] for i in range(len(vendor))}
        signatures.add(vendor)
        for signature in signatures:
            by_deletion.setdefault(signature, []).append(vendor)
    for group in by_deletion.values():
        if len(group) > MAX_BUCKET:
            continue
        for i, a in enumerate(group):
            for b in group[i + 1 :]:
                add(a, b)

    # Heuristic: shared rare 4-grams (misspellings, char edits).
    by_gram: dict[str, list[str]] = {}
    for vendor in vendors:
        for gram in _char_4grams(vendor):
            by_gram.setdefault(gram, []).append(vendor)
    shared_counts: dict[tuple[str, str], int] = {}
    for gram, group in by_gram.items():
        if len(group) > MAX_BUCKET:
            continue
        for i, a in enumerate(group):
            for b in group[i + 1 :]:
                key = (a, b) if a < b else (b, a)
                shared_counts[key] = shared_counts.get(key, 0) + 1
    for (a, b), shared in shared_counts.items():
        smaller = min(len(a), len(b))
        # Require most of the shorter name's grams to be shared, so
        # "microsoft"/"microsft" qualifies but "netgate"/"netgear"
        # needs other evidence.
        if smaller >= 5 and shared >= max(1, smaller - 5):
            add(a, b)

    # Score pairs in name order.
    empty: set[str] = set()
    features: list[PairFeatures] = []
    for ia, ib in sorted(pairs, key=lambda p: (vendors[p[0]], vendors[p[1]])):
        a, b = vendors[ia], vendors[ib]
        tokens_a, tokens_b = tokens_of[ia], tokens_of[ib]
        products_a = vendor_products.get(a, empty)
        products_b = vendor_products.get(b, empty)
        features.append(
            PairFeatures(
                name_a=a,
                name_b=b,
                tokens_identical=tokens_a == tokens_b and bool(tokens_a),
                matching_products=len(products_a & products_b),
                is_prefix=a.startswith(b) or b.startswith(a),
                product_as_vendor=(a in products_b) or (b in products_a),
                lcs_at_least_3=not grams_of[ia].isdisjoint(grams_of[ib]),
            )
        )
    return features


class _UnionFind:
    def __init__(self) -> None:
        self.parent: dict[Hashable, Hashable] = {}

    def find(self, item: Hashable) -> Hashable:
        self.parent.setdefault(item, item)
        root = item
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[item] != root:
            self.parent[item], item = root, self.parent[item]
        return root

    def union(self, a: Hashable, b: Hashable) -> None:
        root_a, root_b = self.find(a), self.find(b)
        if root_a != root_b:
            self.parent[root_b] = root_a


def _canonical_map(
    pairs: Sequence[tuple[K, K]], weights: Mapping[K, int]
) -> dict[K, K]:
    """Group keys linked by ``pairs`` and map each non-canonical member
    of a group to its canonical: the member with the largest
    ``(weight, key)``, so equal weights pick the larger key.

    Groups and their members keep first-seen order, which fixes the
    mapping's insertion order.
    """
    groups = _UnionFind()
    for a, b in pairs:
        groups.union(a, b)
    members: dict[Hashable, dict[K, None]] = {}
    for pair in pairs:
        for key in pair:
            members.setdefault(groups.find(key), {})[key] = None
    mapping: dict[K, K] = {}
    for group in members.values():
        canonical = max(group, key=lambda key: (weights.get(key, 0), key))
        for key in group:
            if key != canonical:
                mapping[key] = canonical
    return mapping


def analyze_vendors(snapshot: NvdSnapshot, confirm: ConfirmOracle) -> VendorAnalysis:
    """Run the full §4.2 vendor workflow against a snapshot.

    ``confirm`` plays the manual-investigation role: given two names it
    answers whether they denote the same vendor; it is consulted once
    per candidate pair, in pair order.
    """
    vendors = snapshot.vendors()
    candidates = candidate_pairs(vendors, snapshot.vendor_products())
    confirmed = [
        features
        for features in candidates
        if confirm(features.name_a, features.name_b)
    ]

    mapping = _canonical_map(
        [(features.name_a, features.name_b) for features in confirmed],
        snapshot.vendor_cve_counts(),
    )
    return VendorAnalysis(
        candidates=candidates,
        confirmed=confirmed,
        mapping=mapping,
        n_vendors=len(vendors),
    )


def apply_vendor_mapping(
    snapshot: NvdSnapshot, mapping: dict[str, str]
) -> NvdSnapshot:
    """Remap inconsistent vendor names across a snapshot's CPEs."""

    def remap(entry: CveEntry) -> CveEntry:
        changed = False
        new_cpes = []
        for cpe in entry.cpes:
            if isinstance(cpe.vendor, str) and cpe.vendor in mapping:
                new_cpes.append(cpe.with_names(vendor=mapping[cpe.vendor]))
                changed = True
            else:
                new_cpes.append(cpe)
        return entry.replace(cpes=tuple(new_cpes)) if changed else entry

    if not mapping:
        return snapshot  # snapshots are immutable; nothing to remap
    return snapshot.map_entries(remap)
