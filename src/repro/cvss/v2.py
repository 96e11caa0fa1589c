"""CVSS version 2 scoring (base, temporal, environmental).

Implements the equations of the CVSS v2 complete documentation
(FIRST, 2007).  Metric weights and rounding follow the specification
exactly so that scores computed here match the official calculator.
"""

from __future__ import annotations

import dataclasses
import functools

__all__ = [
    "CvssV2Metrics",
    "CvssV2Scores",
    "parse_v2_vector",
    "score_v2",
    "v2_vector_string",
]

# ---------------------------------------------------------------------------
# Metric weight tables (spec section 3.2.1).
# ---------------------------------------------------------------------------

ACCESS_VECTOR = {"L": 0.395, "A": 0.646, "N": 1.0}
ACCESS_COMPLEXITY = {"H": 0.35, "M": 0.61, "L": 0.71}
AUTHENTICATION = {"M": 0.45, "S": 0.56, "N": 0.704}
IMPACT = {"N": 0.0, "P": 0.275, "C": 0.660}

EXPLOITABILITY_TEMPORAL = {"U": 0.85, "POC": 0.9, "F": 0.95, "H": 1.0, "ND": 1.0}
REMEDIATION_LEVEL = {"OF": 0.87, "TF": 0.90, "W": 0.95, "U": 1.0, "ND": 1.0}
REPORT_CONFIDENCE = {"UC": 0.90, "UR": 0.95, "C": 1.0, "ND": 1.0}

COLLATERAL_DAMAGE = {
    "N": 0.0,
    "L": 0.1,
    "LM": 0.3,
    "MH": 0.4,
    "H": 0.5,
    "ND": 0.0,
}
TARGET_DISTRIBUTION = {"N": 0.0, "L": 0.25, "M": 0.75, "H": 1.0, "ND": 1.0}
SECURITY_REQUIREMENT = {"L": 0.5, "M": 1.0, "H": 1.51, "ND": 1.0}

_BASE_FIELD_TO_TABLE = {
    "access_vector": ACCESS_VECTOR,
    "access_complexity": ACCESS_COMPLEXITY,
    "authentication": AUTHENTICATION,
    "confidentiality": IMPACT,
    "integrity": IMPACT,
    "availability": IMPACT,
}

#: characters of a rejected value an error message quotes.  A vector
#: can come from a client (``POST /v1/severity/predict``), and a message
#: that echoed it whole would grow with the request.
ECHO_CHARS = 40


def _excerpt(value: object) -> str:
    """``value`` quoted for an error message: whole when short, else
    its first :data:`ECHO_CHARS` characters and its length."""
    if not isinstance(value, str) or len(value) <= ECHO_CHARS:
        return repr(value)
    return f"{value[:ECHO_CHARS]!r}... ({len(value)} characters)"


_VECTOR_KEYS = {
    "AV": "access_vector",
    "AC": "access_complexity",
    "Au": "authentication",
    "C": "confidentiality",
    "I": "integrity",
    "A": "availability",
    "E": "exploitability",
    "RL": "remediation_level",
    "RC": "report_confidence",
    "CDP": "collateral_damage",
    "TD": "target_distribution",
    "CR": "confidentiality_req",
    "IR": "integrity_req",
    "AR": "availability_req",
}

_OPTIONAL_FIELD_TO_TABLE = {
    "exploitability": EXPLOITABILITY_TEMPORAL,
    "remediation_level": REMEDIATION_LEVEL,
    "report_confidence": REPORT_CONFIDENCE,
    "collateral_damage": COLLATERAL_DAMAGE,
    "target_distribution": TARGET_DISTRIBUTION,
    "confidentiality_req": SECURITY_REQUIREMENT,
    "integrity_req": SECURITY_REQUIREMENT,
    "availability_req": SECURITY_REQUIREMENT,
}

#: entries kept by each memoized parse/score/render function: a snapshot
#: repeats a few hundred of the 729 base vectors across thousands of
#: entries.  Results are frozen or strings, so callers can share them; a
#: failed parse raises and is never cached.
_CACHE_SIZE = 4096


@dataclasses.dataclass(frozen=True, slots=True)
class CvssV2Metrics:
    """A complete CVSS v2 metric selection.

    Base metrics are mandatory; temporal and environmental metrics
    default to "Not Defined" (``ND``), which the equations treat as
    having no effect.
    """

    access_vector: str
    access_complexity: str
    authentication: str
    confidentiality: str
    integrity: str
    availability: str
    exploitability: str = "ND"
    remediation_level: str = "ND"
    report_confidence: str = "ND"
    collateral_damage: str = "ND"
    target_distribution: str = "ND"
    confidentiality_req: str = "ND"
    integrity_req: str = "ND"
    availability_req: str = "ND"

    def __post_init__(self) -> None:
        for field, table in _BASE_FIELD_TO_TABLE.items():
            value = getattr(self, field)
            if value not in table:
                raise ValueError(
                    f"invalid CVSS v2 {field} value {_excerpt(value)}; "
                    f"expected one of {sorted(table)}"
                )
        for field, table in _OPTIONAL_FIELD_TO_TABLE.items():
            value = getattr(self, field)
            if value not in table:
                raise ValueError(
                    f"invalid CVSS v2 {field} value {_excerpt(value)}; "
                    f"expected one of {sorted(table)}"
                )


@dataclasses.dataclass(frozen=True, slots=True)
class CvssV2Scores:
    """Scores produced by the v2 equations."""

    base: float
    impact: float
    exploitability: float
    temporal: float | None
    environmental: float | None


def _round1(value: float) -> float:
    """Round to one decimal, half away from zero (spec behaviour)."""
    return float(int(value * 10 + 0.5)) / 10 if value >= 0 else -_round1(-value)


def _impact_subscore(metrics: CvssV2Metrics) -> float:
    c = IMPACT[metrics.confidentiality]
    i = IMPACT[metrics.integrity]
    a = IMPACT[metrics.availability]
    return 10.41 * (1 - (1 - c) * (1 - i) * (1 - a))


def _exploitability_subscore(metrics: CvssV2Metrics) -> float:
    return (
        20
        * ACCESS_VECTOR[metrics.access_vector]
        * ACCESS_COMPLEXITY[metrics.access_complexity]
        * AUTHENTICATION[metrics.authentication]
    )


def _base_from_subscores(impact: float, exploitability: float) -> float:
    f_impact = 0.0 if impact == 0 else 1.176
    return _round1((0.6 * impact + 0.4 * exploitability - 1.5) * f_impact)


def _temporal_from_base(base: float, metrics: CvssV2Metrics) -> float:
    return _round1(
        base
        * EXPLOITABILITY_TEMPORAL[metrics.exploitability]
        * REMEDIATION_LEVEL[metrics.remediation_level]
        * REPORT_CONFIDENCE[metrics.report_confidence]
    )


def _environmental(metrics: CvssV2Metrics) -> float:
    c = IMPACT[metrics.confidentiality] * SECURITY_REQUIREMENT[metrics.confidentiality_req]
    i = IMPACT[metrics.integrity] * SECURITY_REQUIREMENT[metrics.integrity_req]
    a = IMPACT[metrics.availability] * SECURITY_REQUIREMENT[metrics.availability_req]
    adjusted_impact = min(10.0, 10.41 * (1 - (1 - c) * (1 - i) * (1 - a)))
    adjusted_base = _base_from_subscores(
        adjusted_impact, _exploitability_subscore(metrics)
    )
    adjusted_temporal = _temporal_from_base(adjusted_base, metrics)
    cdp = COLLATERAL_DAMAGE[metrics.collateral_damage]
    td = TARGET_DISTRIBUTION[metrics.target_distribution]
    return _round1((adjusted_temporal + (10 - adjusted_temporal) * cdp) * td)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def score_v2(metrics: CvssV2Metrics) -> CvssV2Scores:
    """Compute all CVSS v2 scores for a metric selection.

    The temporal score is only reported when at least one temporal
    metric is defined, and likewise for the environmental score, which
    mirrors how the NVD publishes scores.
    """
    impact = _impact_subscore(metrics)
    exploitability = _exploitability_subscore(metrics)
    base = _base_from_subscores(impact, exploitability)

    has_temporal = any(
        getattr(metrics, field) != "ND"
        for field in ("exploitability", "remediation_level", "report_confidence")
    )
    has_environmental = any(
        getattr(metrics, field) != "ND"
        for field in (
            "collateral_damage",
            "target_distribution",
            "confidentiality_req",
            "integrity_req",
            "availability_req",
        )
    )
    temporal = _temporal_from_base(base, metrics) if has_temporal else None
    environmental = _environmental(metrics) if has_environmental else None
    return CvssV2Scores(
        base=base,
        impact=round(impact, 2),
        exploitability=round(exploitability, 2),
        temporal=temporal,
        environmental=environmental,
    )


@functools.lru_cache(maxsize=_CACHE_SIZE)
def v2_vector_string(metrics: CvssV2Metrics, include_optional: bool = False) -> str:
    """Render the canonical v2 vector string, e.g. ``AV:N/AC:L/Au:N/C:P/I:P/A:P``."""
    parts = [
        f"AV:{metrics.access_vector}",
        f"AC:{metrics.access_complexity}",
        f"Au:{metrics.authentication}",
        f"C:{metrics.confidentiality}",
        f"I:{metrics.integrity}",
        f"A:{metrics.availability}",
    ]
    if include_optional:
        for key, field in (
            ("E", "exploitability"),
            ("RL", "remediation_level"),
            ("RC", "report_confidence"),
            ("CDP", "collateral_damage"),
            ("TD", "target_distribution"),
            ("CR", "confidentiality_req"),
            ("IR", "integrity_req"),
            ("AR", "availability_req"),
        ):
            value = getattr(metrics, field)
            if value != "ND":
                parts.append(f"{key}:{value}")
    return "/".join(parts)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def parse_v2_vector(vector: str) -> CvssV2Metrics:
    """Parse a CVSS v2 vector string into metrics.

    Accepts the NVD's parenthesized form ``(AV:N/AC:L/...)`` as well as
    the bare form.  Raises :class:`ValueError` for malformed input.
    """
    text = vector.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    fields: dict[str, str] = {}
    for part in text.split("/"):
        if ":" not in part:
            raise ValueError(f"malformed CVSS v2 vector component {_excerpt(part)}")
        key, _, value = part.partition(":")
        if key not in _VECTOR_KEYS:
            raise ValueError(f"unknown CVSS v2 metric key {_excerpt(key)}")
        field = _VECTOR_KEYS[key]
        if field in fields:
            raise ValueError(f"duplicate CVSS v2 metric key {_excerpt(key)}")
        fields[field] = value
    missing = [
        key
        for key, field in _VECTOR_KEYS.items()
        if field in _BASE_FIELD_TO_TABLE and field not in fields
    ]
    if missing:
        raise ValueError(f"CVSS v2 vector missing base metrics: {missing}")
    return CvssV2Metrics(**fields)
