"""CWE catalog substrate (vulnerability type taxonomy)."""

from repro.cwe.catalog import (
    CATALOG,
    CWE_ID_PATTERN,
    CWE_LABEL,
    MAX_CWE_DIGITS,
    SENTINEL_NOINFO,
    SENTINEL_OTHER,
    SENTINELS,
    CweEntry,
    all_ids,
    extract_cwe_ids,
    get,
    is_sentinel,
    normalize_cwe_id,
)

__all__ = [
    "CATALOG",
    "CWE_ID_PATTERN",
    "CWE_LABEL",
    "MAX_CWE_DIGITS",
    "SENTINEL_NOINFO",
    "SENTINEL_OTHER",
    "SENTINELS",
    "CweEntry",
    "all_ids",
    "extract_cwe_ids",
    "get",
    "is_sentinel",
    "normalize_cwe_id",
]
