"""Confirmation oracles for the name-consolidation workflow.

§4.2's pipeline interleaves heuristics with manual investigation
("we manually investigated each remaining pair by researching their
products, developers, and associated organizations").  The library
models that step as a callable oracle; two implementations:

- :func:`from_ground_truth` — consults the synthetic generator's
  variant maps, playing the analysts' role in experiments;
- :func:`heuristic_vendor_confirm` / :func:`heuristic_product_confirm`
  — a no-ground-truth approximation using the signals Table 2 found
  most reliable (token identity, and prefix pairs with a ≥3-character
  substring match, which confirm in ≥90% of cases), for users running
  the tool on real data without an analyst in the loop.  Neither
  needs a substring scan: for a prefix pair the longest common
  substring is the shorter name.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.synth.names import tokenize_name

__all__ = [
    "from_ground_truth",
    "heuristic_product_confirm",
    "heuristic_vendor_confirm",
    "product_oracle_from_truth",
]


class _GroundTruthVendorOracle:
    """A vendor oracle over the generator's variant map."""

    __slots__ = ("vendor_map",)

    def __init__(self, vendor_map: dict[str, str]) -> None:
        self.vendor_map = vendor_map

    def __call__(self, name_a: str, name_b: str) -> bool:
        canonical = self.vendor_map.get
        return canonical(name_a, name_a) == canonical(name_b, name_b)


class _GroundTruthProductOracle:
    """A product oracle over the generator's variant map."""

    __slots__ = ("product_map",)

    def __init__(self, product_map: dict[tuple[str, str], str]) -> None:
        self.product_map = product_map

    def __call__(self, vendor: str, name_a: str, name_b: str) -> bool:
        canonical = self.product_map.get
        return canonical((vendor, name_a), name_a) == canonical(
            (vendor, name_b), name_b
        )


def from_ground_truth(vendor_map: dict[str, str]) -> Callable[[str, str], bool]:
    """A vendor oracle backed by the generator's variant map."""
    return _GroundTruthVendorOracle(vendor_map)


def product_oracle_from_truth(
    product_map: dict[tuple[str, str], str]
) -> Callable[[str, str, str], bool]:
    """A product oracle backed by the generator's variant map."""
    return _GroundTruthProductOracle(product_map)


def heuristic_vendor_confirm(name_a: str, name_b: str) -> bool:
    """Confirm vendor pairs on Table 2's high-precision signals.

    Token identity was matching in 100% of observed pairs; prefix
    pairs with a ≥3-character substring match confirmed in over 90% of
    cases.  When one name is a prefix of the other, their longest
    common substring is the shorter name, so that match is ≥3 exactly
    when the shorter name is.  Everything else is left unconfirmed
    (precision over recall: a bad merge corrupts the database).
    """
    tokens_a, tokens_b = tokenize_name(name_a), tokenize_name(name_b)
    if tokens_a and tokens_a == tokens_b:
        return True
    return min(len(name_a), len(name_b)) >= 3 and (
        name_a.startswith(name_b) or name_b.startswith(name_a)
    )


def heuristic_product_confirm(vendor: str, name_a: str, name_b: str) -> bool:
    """Confirm product pairs on the token-identity signal only.

    Edit-distance pairs are rejected without an analyst: the paper's
    cisco ucs-e160dp/e140dp example shows distance-1 product names are
    routinely *different* products.
    """
    tokens_a, tokens_b = tokenize_name(name_a), tokenize_name(name_b)
    return bool(tokens_a) and tokens_a == tokens_b
