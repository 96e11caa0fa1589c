"""One loaded artifact version, shaped for serving.

:class:`ServiceState` wraps a :class:`repro.artifacts.LoadedArtifacts`
and answers the query endpoints as plain JSON-ready dicts.  A state is
immutable once built — hot-swapping replaces the whole object — and
eager about its indices: the snapshot's name index, the §3 stats and
each vendor's sorted product list are materialised at load time so
the first request is as fast as the thousandth.  Vendor and product
pages slice the snapshot's id lists directly.

§4.3 scores come from one rule, :meth:`ServiceState.row_score`, for
both a stored CVE's ``predicted_v3_score`` on ``/v1/cve`` and a
``/v1/severity/predict`` body: a feature row in the store's row table
(:attr:`repro.artifacts.LoadedArtifacts.row_scores`, the only stored
score) takes its stored score; any other row runs a one-row forward.
A loadable store's table holds every row it serves, so ``/v1/cve``
never runs a forward, and a predict of a CVE's v2 vector and CWE
labels answers its served score.  The forward is the only mutable
corner: ``ml.nn.Sequential`` layers cache forward state, so forwards
serialise on a lock, one row at a time.  (The linear and SVR models are
stateless at predict time; the lock covers the engine path uniformly
because a lookup is microseconds and a single 13-feature forward pass
well under a millisecond.)
"""

from __future__ import annotations

import datetime
import os
import threading

from repro.artifacts import LoadedArtifacts, load_artifacts
from repro.cvss import (
    severity_v3,
    parse_v2_vector,
    v2_vector_string,
    v3_vector_string,
)
from repro.core.severity import row_key
from repro.cwe import CWE_LABEL, MAX_CWE_DIGITS, extract_cwe_ids
from repro.nvd import CveEntry
from repro.service.cursor import encode_cursor

__all__ = ["ServiceError", "ServiceState"]

#: cap on one page of ids in vendor/product payloads (keeps responses
#: bounded at paper scale); ``offset``/``limit``/``cursor`` query
#: parameters page through the rest, with ``next_offset`` and the
#: opaque ``next_cursor`` naming the next page.
MAX_IDS = 500


def _page(ids: list[str], offset: int, limit: int, version: str) -> dict:
    """The shared pagination fields over a full id list.

    ``truncated`` is kept for pre-pagination clients; it now means
    "this response does not carry the whole list" — true on *any*
    partial window (including the final page of an ``offset`` walk),
    and never a silent cut, since ``next_offset`` says where the rest
    starts.  ``next_cursor`` carries the same continuation as an opaque
    ``(version, position)`` token — resolving it later is O(1) instead
    of an O(offset) rescan, and it fails loudly after a hot swap.
    """
    page = ids[offset : offset + limit]
    next_offset = offset + limit if offset + limit < len(ids) else None
    return {
        "n_cves": len(ids),
        "cve_ids": page,
        "offset": offset,
        "limit": limit,
        "next_offset": next_offset,
        "next_cursor": (
            encode_cursor(version, next_offset)
            if next_offset is not None
            else None
        ),
        "truncated": len(page) < len(ids),
    }


class ServiceError(Exception):
    """An error with an HTTP status, raised by payload builders."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class ServiceState:
    """Immutable query view over one artifact version."""

    def __init__(self, artifacts: LoadedArtifacts) -> None:
        self.artifacts = artifacts
        self.version = artifacts.version
        self.snapshot = artifacts.snapshot
        # A load decodes per-CVE data on first read: read it here, on
        # the loading thread, not inside the first request.
        self.estimates = artifacts.estimates
        self.row_scores = artifacts.row_scores
        self.model_used = artifacts.model_used
        # The engine reads a model on first use: read it here, so no
        # request pays for it.
        artifacts.engine.model(self.model_used)
        self._predict_lock = threading.Lock()
        # Eager cold-start: build the snapshot's name index and stats
        # now, not on the first query.
        self.stats = self.snapshot.stats().as_dict()
        #: canonical vendor → its sorted product names.
        self.products_by_vendor: dict[str, list[str]] = {
            vendor: sorted(products)
            for vendor, products in self.snapshot.vendor_products().items()
        }
        #: canonical vendor → sorted alias names (reverse alias map).
        self.vendor_aliases: dict[str, list[str]] = {}
        for alias, canonical in artifacts.vendor_map.items():
            self.vendor_aliases.setdefault(canonical, []).append(alias)
        for aliases in self.vendor_aliases.values():
            aliases.sort()

    @classmethod
    def load(
        cls, root: str | os.PathLike[str], version: str | None = None
    ) -> "ServiceState":
        return cls(load_artifacts(root, version))

    # -- payload builders ----------------------------------------------------

    def stats_payload(self) -> dict:
        return dict(self.stats)

    def cve_payload(self, cve_id: str) -> dict:
        entry = self.snapshot.get(cve_id)
        if entry is None:
            raise ServiceError(404, f"unknown CVE id {cve_id!r}")
        payload: dict = {
            "cve_id": entry.cve_id,
            "published": entry.published.isoformat(),
            "modified": entry.modified.isoformat() if entry.modified else None,
            "descriptions": list(entry.descriptions),
            "cwe_ids": list(entry.cwe_ids),
            "vendors": list(entry.vendors),
            "products": [list(pair) for pair in entry.vendor_products()],
            "references": [reference.url for reference in entry.references],
            "cvss_v2": None,
            "cvss_v3": None,
        }
        if entry.cvss_v2 is not None:
            payload["cvss_v2"] = {
                "vector": v2_vector_string(entry.cvss_v2),
                "base_score": entry.v2_score,
                "severity": entry.v2_severity.value,
            }
        if entry.cvss_v3 is not None:
            payload["cvss_v3"] = {
                "vector": v3_vector_string(entry.cvss_v3),
                "base_score": entry.v3_score,
                "severity": entry.v3_severity.value,
            }
        estimate = self.estimates.get(cve_id)
        if estimate is not None:
            payload["estimated_disclosure"] = (
                estimate.estimated_disclosure.isoformat()
            )
            payload["lag_days"] = estimate.lag_days
        if entry.cvss_v2 is not None:
            score = self.row_score(entry)
            payload["predicted_v3_score"] = score
            payload["predicted_v3_severity"] = severity_v3(score).value
            payload["v3_backported"] = not entry.has_v3
        return payload

    def vendor_payload(
        self, name: str, offset: int = 0, limit: int = MAX_IDS
    ) -> dict:
        canonical = self.artifacts.vendor_map.get(name, name)
        ids = self.snapshot.vendor_cve_ids(canonical)
        if not ids:
            raise ServiceError(404, f"unknown vendor {name!r}")
        return {
            "vendor": canonical,
            "queried": name,
            "aliases": self.vendor_aliases.get(canonical, []),
            **_page(ids, offset, limit, self.version),
            "products": self.products_by_vendor.get(canonical, []),
        }

    def product_payload(
        self, vendor: str, product: str, offset: int = 0, limit: int = MAX_IDS
    ) -> dict:
        canonical_vendor = self.artifacts.vendor_map.get(vendor, vendor)
        canonical_product = self.artifacts.product_map.get(
            (canonical_vendor, product), product
        )
        ids = self.snapshot.product_cve_ids(canonical_vendor, canonical_product)
        if not ids:
            raise ServiceError(404, f"unknown product {vendor!r}/{product!r}")
        return {
            "vendor": canonical_vendor,
            "product": canonical_product,
            "queried": [vendor, product],
            **_page(ids, offset, limit, self.version),
        }

    @staticmethod
    def _parse_predict_body(body: object) -> CveEntry:
        """A feature-bearing entry out of one posted predict body.

        Raises :class:`ServiceError` 400 on every malformed shape,
        including a ``CWE-`` label (explicit or found in the
        description) whose id is not a short decimal number.
        """
        if not isinstance(body, dict):
            raise ServiceError(400, "request body must be a JSON object")
        vector = body.get("cvss_v2")
        if not isinstance(vector, str) or not vector:
            raise ServiceError(400, "field 'cvss_v2' (a v2 vector string) is required")
        try:
            metrics = parse_v2_vector(vector)
        except ValueError as error:
            raise ServiceError(400, f"bad CVSS v2 vector: {error}") from None
        description = body.get("description") or ""
        if not isinstance(description, str):
            raise ServiceError(400, "field 'description' must be a string")
        cwe_ids = body.get("cwe_ids")
        if cwe_ids is None:
            try:
                cwe_ids = extract_cwe_ids(description) if description else []
            except ValueError:  # a digit run past int()'s conversion limit
                raise ServiceError(
                    400, "field 'description' carries an oversized CWE id"
                ) from None
        if not isinstance(cwe_ids, list) or not all(
            isinstance(label, str) for label in cwe_ids
        ):
            raise ServiceError(400, "field 'cwe_ids' must be a list of strings")
        for label in cwe_ids:
            if label.startswith("CWE-") and not CWE_LABEL.fullmatch(label):
                raise ServiceError(
                    400,
                    f"bad CWE label {label!r}: expected 'CWE-' and at most "
                    f"{MAX_CWE_DIGITS} decimal digits",
                )
        return CveEntry(
            cve_id="CVE-1970-0001",  # placeholder identity; features only
            published=datetime.date(1970, 1, 1),
            descriptions=(description,) if description else (),
            cwe_ids=tuple(cwe_ids),
            cvss_v2=metrics,
        )

    def row_score(self, entry: CveEntry) -> float:
        """The §4.3 score of ``entry``'s feature row: the row table's,
        or else one forward of the served model under the predict lock.
        ``entry`` must carry a v2 vector."""
        score = self.row_scores.get(row_key(entry))
        if score is None:
            with self._predict_lock:
                (score,) = self.artifacts.engine.predict_scores(
                    [entry], model=self.model_used
                )
        return float(score)

    def predict_payload(self, body: object) -> dict:
        """§4.3 severity prediction for one posted vulnerability.

        The body must carry a CVSS v2 vector (the features the
        persisted models consume); an optional ``description`` feeds
        the §4.4 ``CWE-[0-9]*`` regex to supply the CWE feature when
        ``cwe_ids`` is not given explicitly.  The row is scored by
        :meth:`row_score`.
        """
        entry = self._parse_predict_body(body)
        score = self.row_score(entry)
        return {
            "model": self.model_used,
            "score": round(score, 4),
            "severity": severity_v3(score).value,
            "cwe_ids": list(entry.cwe_ids),
            "version": self.version,
        }
