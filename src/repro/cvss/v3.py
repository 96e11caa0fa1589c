"""CVSS version 3 scoring (base, temporal, environmental).

Implements the CVSS v3.1 specification equations (FIRST, 2019).  The
v3.0 equations differ only in the ``roundup`` helper and the changed-
scope modified-impact formula; both behaviours are selectable via the
``spec`` argument so either calculator can be matched bit-for-bit.
"""

from __future__ import annotations

import dataclasses
import functools
import math

__all__ = [
    "CvssV3Metrics",
    "CvssV3Scores",
    "parse_v3_vector",
    "score_v3",
    "v3_vector_string",
]

ATTACK_VECTOR = {"N": 0.85, "A": 0.62, "L": 0.55, "P": 0.2}
ATTACK_COMPLEXITY = {"L": 0.77, "H": 0.44}
PRIVILEGES_REQUIRED = {"N": 0.85, "L": 0.62, "H": 0.27}
PRIVILEGES_REQUIRED_CHANGED = {"N": 0.85, "L": 0.68, "H": 0.5}
USER_INTERACTION = {"N": 0.85, "R": 0.62}
SCOPE = {"U", "C"}
IMPACT = {"H": 0.56, "L": 0.22, "N": 0.0}

EXPLOIT_CODE_MATURITY = {"X": 1.0, "U": 0.91, "P": 0.94, "F": 0.97, "H": 1.0}
REMEDIATION_LEVEL = {"X": 1.0, "O": 0.95, "T": 0.96, "W": 0.97, "U": 1.0}
REPORT_CONFIDENCE = {"X": 1.0, "U": 0.92, "R": 0.96, "C": 1.0}
SECURITY_REQUIREMENT = {"X": 1.0, "L": 0.5, "M": 1.0, "H": 1.5}

_BASE_FIELDS = {
    "attack_vector": ATTACK_VECTOR,
    "attack_complexity": ATTACK_COMPLEXITY,
    "privileges_required": PRIVILEGES_REQUIRED,
    "user_interaction": USER_INTERACTION,
    "confidentiality": IMPACT,
    "integrity": IMPACT,
    "availability": IMPACT,
}

_TEMPORAL_FIELDS = {
    "exploit_code_maturity": EXPLOIT_CODE_MATURITY,
    "remediation_level": REMEDIATION_LEVEL,
    "report_confidence": REPORT_CONFIDENCE,
}

_REQ_FIELDS = {
    "confidentiality_req": SECURITY_REQUIREMENT,
    "integrity_req": SECURITY_REQUIREMENT,
    "availability_req": SECURITY_REQUIREMENT,
}

_VECTOR_KEYS = {
    "AV": "attack_vector",
    "AC": "attack_complexity",
    "PR": "privileges_required",
    "UI": "user_interaction",
    "S": "scope",
    "C": "confidentiality",
    "I": "integrity",
    "A": "availability",
    "E": "exploit_code_maturity",
    "RL": "remediation_level",
    "RC": "report_confidence",
    "CR": "confidentiality_req",
    "IR": "integrity_req",
    "AR": "availability_req",
}

#: entries kept by each memoized parse/score/render function: a snapshot
#: repeats a few hundred of the 2,592 base vectors across thousands of
#: entries.  Results are frozen or strings, so callers can share them; a
#: failed parse raises and is never cached.
_CACHE_SIZE = 4096


@dataclasses.dataclass(frozen=True, slots=True)
class CvssV3Metrics:
    """A CVSS v3 metric selection (base mandatory, rest optional)."""

    attack_vector: str
    attack_complexity: str
    privileges_required: str
    user_interaction: str
    scope: str
    confidentiality: str
    integrity: str
    availability: str
    exploit_code_maturity: str = "X"
    remediation_level: str = "X"
    report_confidence: str = "X"
    confidentiality_req: str = "X"
    integrity_req: str = "X"
    availability_req: str = "X"

    def __post_init__(self) -> None:
        for field, table in _BASE_FIELDS.items():
            value = getattr(self, field)
            if value not in table:
                raise ValueError(
                    f"invalid CVSS v3 {field} value {value!r}; "
                    f"expected one of {sorted(table)}"
                )
        if self.scope not in SCOPE:
            raise ValueError(f"invalid CVSS v3 scope {self.scope!r}")
        for field, table in {**_TEMPORAL_FIELDS, **_REQ_FIELDS}.items():
            value = getattr(self, field)
            if value not in table:
                raise ValueError(
                    f"invalid CVSS v3 {field} value {value!r}; "
                    f"expected one of {sorted(table)}"
                )

    @property
    def scope_changed(self) -> bool:
        return self.scope == "C"


@dataclasses.dataclass(frozen=True, slots=True)
class CvssV3Scores:
    """Scores produced by the v3 equations."""

    base: float
    impact: float
    exploitability: float
    temporal: float | None
    environmental: float | None


def roundup(value: float, spec: str = "3.1") -> float:
    """CVSS v3 "round up to one decimal" helper.

    v3.1 defines an integer-arithmetic version to avoid floating point
    surprises; v3.0 used a plain ``ceil(value * 10) / 10``.
    """
    if spec == "3.0":
        return math.ceil(value * 10) / 10
    int_input = round(value * 100000)
    if int_input % 10000 == 0:
        return int_input / 100000
    return (math.floor(int_input / 10000) + 1) / 10


def _iss(c: float, i: float, a: float) -> float:
    return 1 - (1 - c) * (1 - i) * (1 - a)


def _impact_subscore(metrics: CvssV3Metrics) -> float:
    iss = _iss(
        IMPACT[metrics.confidentiality],
        IMPACT[metrics.integrity],
        IMPACT[metrics.availability],
    )
    if metrics.scope_changed:
        return 7.52 * (iss - 0.029) - 3.25 * (iss - 0.02) ** 15
    return 6.42 * iss


def _exploitability_subscore(metrics: CvssV3Metrics) -> float:
    pr_table = (
        PRIVILEGES_REQUIRED_CHANGED if metrics.scope_changed else PRIVILEGES_REQUIRED
    )
    return (
        8.22
        * ATTACK_VECTOR[metrics.attack_vector]
        * ATTACK_COMPLEXITY[metrics.attack_complexity]
        * pr_table[metrics.privileges_required]
        * USER_INTERACTION[metrics.user_interaction]
    )


def _base_score(metrics: CvssV3Metrics, spec: str) -> tuple[float, float, float]:
    impact = _impact_subscore(metrics)
    exploitability = _exploitability_subscore(metrics)
    if impact <= 0:
        return 0.0, impact, exploitability
    if metrics.scope_changed:
        base = roundup(min(1.08 * (impact + exploitability), 10.0), spec)
    else:
        base = roundup(min(impact + exploitability, 10.0), spec)
    return base, impact, exploitability


def _temporal_score(base: float, metrics: CvssV3Metrics, spec: str) -> float:
    return roundup(
        base
        * EXPLOIT_CODE_MATURITY[metrics.exploit_code_maturity]
        * REMEDIATION_LEVEL[metrics.remediation_level]
        * REPORT_CONFIDENCE[metrics.report_confidence],
        spec,
    )


def _environmental_score(metrics: CvssV3Metrics, spec: str) -> float:
    miss = min(
        _iss(
            IMPACT[metrics.confidentiality]
            * SECURITY_REQUIREMENT[metrics.confidentiality_req],
            IMPACT[metrics.integrity] * SECURITY_REQUIREMENT[metrics.integrity_req],
            IMPACT[metrics.availability]
            * SECURITY_REQUIREMENT[metrics.availability_req],
        ),
        0.915,
    )
    if metrics.scope_changed:
        if spec == "3.0":
            modified_impact = 7.52 * (miss - 0.029) - 3.25 * (miss - 0.02) ** 15
        else:
            modified_impact = 7.52 * (miss - 0.029) - 3.25 * (miss * 0.9731 - 0.02) ** 13
    else:
        modified_impact = 6.42 * miss
    modified_exploitability = _exploitability_subscore(metrics)
    if modified_impact <= 0:
        return 0.0
    trc = (
        EXPLOIT_CODE_MATURITY[metrics.exploit_code_maturity]
        * REMEDIATION_LEVEL[metrics.remediation_level]
        * REPORT_CONFIDENCE[metrics.report_confidence]
    )
    if metrics.scope_changed:
        inner = roundup(
            min(1.08 * (modified_impact + modified_exploitability), 10.0), spec
        )
    else:
        inner = roundup(min(modified_impact + modified_exploitability, 10.0), spec)
    return roundup(inner * trc, spec)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def score_v3(metrics: CvssV3Metrics, spec: str = "3.1") -> CvssV3Scores:
    """Compute CVSS v3 scores; ``spec`` selects 3.0 or 3.1 behaviour."""
    if spec not in ("3.0", "3.1"):
        raise ValueError(f"spec must be '3.0' or '3.1', got {spec!r}")
    base, impact, exploitability = _base_score(metrics, spec)

    has_temporal = any(
        getattr(metrics, field) != "X" for field in _TEMPORAL_FIELDS
    )
    has_environmental = any(getattr(metrics, field) != "X" for field in _REQ_FIELDS)
    temporal = _temporal_score(base, metrics, spec) if has_temporal else None
    environmental = _environmental_score(metrics, spec) if has_environmental else None
    return CvssV3Scores(
        base=base,
        impact=round(max(impact, 0.0), 2),
        exploitability=round(exploitability, 2),
        temporal=temporal,
        environmental=environmental,
    )


@functools.lru_cache(maxsize=_CACHE_SIZE)
def v3_vector_string(
    metrics: CvssV3Metrics, spec: str = "3.1", include_optional: bool = False
) -> str:
    """Render the canonical v3 vector string (``CVSS:3.1/AV:N/...``)."""
    parts = [
        f"CVSS:{spec}",
        f"AV:{metrics.attack_vector}",
        f"AC:{metrics.attack_complexity}",
        f"PR:{metrics.privileges_required}",
        f"UI:{metrics.user_interaction}",
        f"S:{metrics.scope}",
        f"C:{metrics.confidentiality}",
        f"I:{metrics.integrity}",
        f"A:{metrics.availability}",
    ]
    if include_optional:
        for key, field in (
            ("E", "exploit_code_maturity"),
            ("RL", "remediation_level"),
            ("RC", "report_confidence"),
            ("CR", "confidentiality_req"),
            ("IR", "integrity_req"),
            ("AR", "availability_req"),
        ):
            value = getattr(metrics, field)
            if value != "X":
                parts.append(f"{key}:{value}")
    return "/".join(parts)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def parse_v3_vector(vector: str) -> CvssV3Metrics:
    """Parse a ``CVSS:3.x/...`` vector string into metrics."""
    parts = vector.strip().split("/")
    if not parts or not parts[0].startswith("CVSS:3"):
        raise ValueError(f"not a CVSS v3 vector: {vector!r}")
    fields: dict[str, str] = {}
    for part in parts[1:]:
        if ":" not in part:
            raise ValueError(f"malformed CVSS v3 vector component {part!r}")
        key, _, value = part.partition(":")
        if key not in _VECTOR_KEYS:
            raise ValueError(f"unknown CVSS v3 metric key {key!r}")
        field = _VECTOR_KEYS[key]
        if field in fields:
            raise ValueError(f"duplicate CVSS v3 metric key {key!r}")
        fields[field] = value
    required = set(_BASE_FIELDS) | {"scope"}
    missing = sorted(required - set(fields))
    if missing:
        raise ValueError(f"CVSS v3 vector missing base metrics: {missing}")
    return CvssV3Metrics(**fields)
