"""Product-name inconsistency detection and consolidation (§4.2).

After vendor consolidation, likely-matching product names are
identified *within* each (consolidated) vendor using two heuristics —
identical tokenizations (internet-explorer / internet_explorer /
"internet explorer") and abbreviation (internet-explorer / ie) — plus a
bounded-edit-distance pass for human typos (tbe_banner_engine /
the_banner_engine), each followed by confirmation.  Substring
heuristics are deliberately *not* used: the paper found they flag far
too many false pairs for products (e.g. cisco's ucs-e160dp-m1_firmware
vs ucs-e140dp-m1_firmware differ by one character yet are different
products — the confirmation step must reject those).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable

from repro.core.vendors import _canonical_map
from repro.nvd import CveEntry, NvdSnapshot
from repro.synth.names import abbreviate, tokenize_name

__all__ = [
    "ProductAnalysis",
    "analyze_products",
    "apply_product_mapping",
    "product_candidate_pairs",
]

ConfirmOracle = Callable[[str, str, str], bool]  # (vendor, name_a, name_b)


def _within_one_edit(a: str, b: str) -> bool:
    """Whether ``a`` and ``b`` are at most one edit apart (Levenshtein ≤ 1).

    Linear time: past the common prefix, the remainders must match
    once one character is dropped from each (a substitution) or from
    the longer one only (an insertion or deletion).
    """
    if len(a) < len(b):
        a, b = b, a
    if len(a) - len(b) > 1:
        return False
    i = 0
    limit = len(b)
    while i < limit and a[i] == b[i]:
        i += 1
    if len(a) == len(b):
        return a[i + 1 :] == b[i + 1 :]
    return a[i + 1 :] == b[i:]


@dataclasses.dataclass(frozen=True, slots=True)
class ProductPair:
    """A candidate product-name pair under one vendor."""

    vendor: str
    name_a: str
    name_b: str
    heuristic: str  # "tokens", "abbreviation", or "edit-distance"


@dataclasses.dataclass
class ProductAnalysis:
    """Everything §4.2 produces for products."""

    candidates: list[ProductPair]
    confirmed: list[ProductPair]
    #: (vendor, inconsistent product) → canonical product.
    mapping: dict[tuple[str, str], str]
    n_products: int

    @property
    def n_impacted_names(self) -> int:
        names = {(vendor, name) for (vendor, name) in self.mapping}
        names.update((vendor, canonical) for (vendor, _), canonical in self.mapping.items())
        return len(names)

    @property
    def n_vendors_affected(self) -> int:
        """Vendors with at least one inconsistent product (Table 3)."""
        return len({vendor for vendor, _ in self.mapping})


def product_candidate_pairs(
    products_by_vendor: dict[str, set[str]],
) -> list[ProductPair]:
    """Generate candidate product pairs per vendor, in vendor order.

    Heuristic 1: identical token sequences.  Heuristic 2: one name is
    the abbreviation (first characters) of the other's tokens.
    Heuristic 3: edit distance ≤ 1 (human typos).
    """
    pairs: list[ProductPair] = []

    for vendor, products in products_by_vendor.items():
        ordered = sorted(products)
        # Per-vendor pair dedup over index tuples: ``ordered`` is
        # sorted, so index order doubles as lexicographic name order.
        position = {product: i for i, product in enumerate(ordered)}
        seen: set[tuple[int, int]] = set()

        def add(a: str, b: str, heuristic: str) -> None:
            if a == b:
                return
            ia, ib = position[a], position[b]
            key = (ia, ib) if ia < ib else (ib, ia)
            if key not in seen:
                seen.add(key)
                pairs.append(
                    ProductPair(vendor, ordered[key[0]], ordered[key[1]], heuristic)
                )

        by_tokens: dict[tuple[str, ...], list[str]] = {}
        by_abbrev: dict[str, list[str]] = {}
        for product in ordered:
            tokens = tokenize_name(product)
            if tokens:
                by_tokens.setdefault(tokens, []).append(product)
            if len(tokens) >= 2:
                by_abbrev.setdefault(abbreviate(product), []).append(product)
        for group in by_tokens.values():
            for i, a in enumerate(group):
                for b in group[i + 1 :]:
                    add(a, b, "tokens")
        for product in ordered:
            for expanded in by_abbrev.get(product, ()):
                add(product, expanded, "abbreviation")
        # Edit distance ≤ 1 within the vendor.  Single-deletion
        # signatures block the candidates: two names are within one
        # edit only if they share a signature, so no all-pairs scan —
        # quadratic in a vendor's product count — is needed.  Sharing
        # one does not suffice (ab/ba share "a" and "b" yet are two
        # edits apart), hence the verification below.
        by_signature: dict[str, list[int]] = {}
        for index, product in enumerate(ordered):
            signatures = {
                product[:i] + product[i + 1 :] for i in range(len(product))
            }
            signatures.add(product)
            for signature in signatures:
                by_signature.setdefault(signature, []).append(index)
        candidates: set[tuple[int, int]] = set()
        for group_idx in by_signature.values():
            for i, ia in enumerate(group_idx):
                for ib in group_idx[i + 1 :]:
                    candidates.add((ia, ib) if ia < ib else (ib, ia))
        for ia, ib in sorted(candidates):
            a, b = ordered[ia], ordered[ib]
            if _within_one_edit(a, b):
                add(a, b, "edit-distance")
    return pairs


def analyze_products(
    snapshot: NvdSnapshot,
    confirm: ConfirmOracle,
) -> ProductAnalysis:
    """Run the §4.2 product workflow (post vendor consolidation).

    ``confirm`` is consulted once per candidate pair, in pair order.
    """
    products_by_vendor = snapshot.vendor_products()
    candidates = product_candidate_pairs(products_by_vendor)
    confirmed = [
        pair for pair in candidates if confirm(pair.vendor, pair.name_a, pair.name_b)
    ]

    # Pairs never cross vendors, so each group shares one vendor and
    # the canonical key's product name is the canonical product.
    canonical_of = _canonical_map(
        [
            ((pair.vendor, pair.name_a), (pair.vendor, pair.name_b))
            for pair in confirmed
        ],
        snapshot.product_cve_counts(),
    )
    mapping = {key: canonical[1] for key, canonical in canonical_of.items()}
    n_products = len({p for products in products_by_vendor.values() for p in products})
    return ProductAnalysis(
        candidates=candidates,
        confirmed=confirmed,
        mapping=mapping,
        n_products=n_products,
    )


def apply_product_mapping(
    snapshot: NvdSnapshot, mapping: dict[tuple[str, str], str]
) -> NvdSnapshot:
    """Remap inconsistent product names across a snapshot's CPEs."""

    def remap(entry: CveEntry) -> CveEntry:
        changed = False
        new_cpes = []
        for cpe in entry.cpes:
            if isinstance(cpe.vendor, str) and isinstance(cpe.product, str):
                canonical = mapping.get((cpe.vendor, cpe.product))
                if canonical is not None:
                    new_cpes.append(cpe.with_names(product=canonical))
                    changed = True
                    continue
            new_cpes.append(cpe)
        return entry.replace(cpes=tuple(new_cpes)) if changed else entry

    if not mapping:
        return snapshot  # snapshots are immutable; nothing to remap
    return snapshot.map_entries(remap)
