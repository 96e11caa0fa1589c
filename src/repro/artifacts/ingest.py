"""Incremental ingest: clean a delta feed with persisted artifacts.

``python -m repro ingest delta.json.gz --artifacts DIR`` applies the
paper's fixers to *only* the new/changed CVEs, reusing every expensive
artifact of the original run instead of recomputing it:

- **names (§4.2)** — the persisted vendor/product alias maps remap the
  delta entries; no pair generation, scoring or confirmation reruns;
- **severity (§4.3)** — the persisted winning model predicts v3 scores
  for the delta's v2-scored entries; no retraining;
- **cwe (§4.4)** — the regex recovery runs on the delta descriptions
  (it is per-entry and cheap);
- **dates (§4.1)** — reference URLs replay through an optional
  persistent crawl cache (``repro.web.CrawlCache``); uncached URLs are
  not fetched (a delta feed has no synthetic web corpus), so the
  estimate falls back to the NVD publication date.

The rectified delta then merges into the stored snapshot by CVE id and
the result is exported as a new artifact version; the ``CURRENT``
pointer flips atomically, which is what a running server hot-swaps on.
"""

from __future__ import annotations

import dataclasses
import os
from collections.abc import Iterable

from repro.artifacts.recovery import recover_store
from repro.artifacts.store import export_run, load_artifacts
from repro.core.cwefix import apply_cwe_fixes, extract_cwe_fixes
from repro.core.dates import DisclosureEstimate
from repro.core.products import apply_product_mapping
from repro.core.vendors import apply_vendor_mapping
from repro.cvss import severity_v3
from repro.nvd import CveEntry, NvdSnapshot
from repro.web import CrawlCache

__all__ = ["IngestResult", "ingest_delta"]


@dataclasses.dataclass(frozen=True, slots=True)
class IngestResult:
    """Headline numbers from one incremental ingest."""

    version: str
    parent: str
    n_delta: int
    n_new: int
    n_updated: int
    n_predicted: int
    n_cwe_fixed: int
    n_date_improved: int
    n_total: int
    model_used: str


def _estimate_from_cache(
    entry: CveEntry, cache: CrawlCache | None
) -> DisclosureEstimate:
    """§4.1 for one delta entry, replaying cached scrape outcomes only."""
    dates = []
    if cache is not None:
        for reference in entry.references:
            hit = cache.get(reference.url)
            if hit is not None and hit[1] is not None:
                dates.append(hit[1])
    return DisclosureEstimate(
        cve_id=entry.cve_id,
        published=entry.published,
        estimated_disclosure=min([*dates, entry.published]),
        n_reference_dates=len(dates),
    )


def ingest_delta(
    root: str | os.PathLike[str],
    delta_entries: Iterable[CveEntry],
    *,
    crawl_cache: CrawlCache | str | os.PathLike[str] | None = None,
) -> IngestResult:
    """Clean ``delta_entries`` with persisted artifacts and export a new
    version.

    ``crawl_cache`` defaults through ``REPRO_CRAWL_CACHE`` exactly like
    :func:`repro.core.clean`.  Returns an :class:`IngestResult`; the
    new version is already live behind the ``CURRENT`` pointer when
    this returns.

    Ingest is transactional: entry starts with a recovery sweep — a
    previous writer's crash debris (leaked staging dirs, torn version
    directories, a dangling ``CURRENT``) is quarantined/repaired before
    the parent version is loaded — and the export itself publishes via
    the store's staged-rename protocol, so a crash mid-ingest leaves
    the parent version live and the next ingest able to proceed.
    """
    recover_store(root)
    artifacts = load_artifacts(root)
    delta = NvdSnapshot(delta_entries)  # validates duplicate delta ids
    cache = CrawlCache.resolve(crawl_cache)

    # §4.2 — replay the persisted alias maps (no re-analysis).
    after_vendors = apply_vendor_mapping(delta, artifacts.vendor_map)
    after_names = apply_product_mapping(after_vendors, artifacts.product_map)

    # §4.4 — regex recovery over the delta descriptions.
    cwe_fixes = extract_cwe_fixes(after_names)
    rectified_delta = apply_cwe_fixes(after_names, cwe_fixes)

    # §4.1 — cached scrape outcomes only; never a live fetch.  When the
    # delta carries no new evidence for an already-estimated CVE (no
    # cached reference dates, same publication date), the stored
    # estimate wins: it may encode a live crawl this path cannot redo.
    new_estimates = {}
    n_date_improved = 0  # improvements from *this* run's cached scrapes
    for entry in delta.entries:
        estimate = _estimate_from_cache(entry, cache)
        stored = artifacts.estimates.get(entry.cve_id)
        if (
            estimate.n_reference_dates == 0
            and stored is not None
            and stored.published == entry.published
        ):
            estimate = stored  # carried over, not counted as improved here
        elif estimate.improved:
            n_date_improved += 1
        new_estimates[entry.cve_id] = estimate

    # §4.3 — persisted winning model, no retrain.
    scored = [e for e in rectified_delta.entries if e.cvss_v2 is not None]
    model_used = artifacts.model_used
    new_scores: dict[str, float] = {}
    new_severity: dict[str, str] = {}
    n_predicted = 0
    if scored:
        predictions = artifacts.engine.predict_scores(scored, model=model_used)
        for entry, score in zip(scored, predictions):
            new_scores[entry.cve_id] = float(score)
            new_severity[entry.cve_id] = severity_v3(float(score)).value
            if not entry.has_v3:
                n_predicted += 1

    # Merge into the stored state and roll a new version.
    n_updated = sum(1 for e in delta.entries if e.cve_id in artifacts.snapshot)
    snapshot = artifacts.snapshot.merge(rectified_delta.entries)
    estimates = {**artifacts.estimates, **new_estimates}
    pv3_scores = {**artifacts.pv3_scores, **new_scores}
    pv3_severity = {**artifacts.pv3_severity, **new_severity}

    n_v3_predicted = sum(
        1
        for entry in snapshot.entries
        if entry.cvss_v2 is not None and not entry.has_v3
    )
    # Count a CWE fix toward the cumulative report only when it adds
    # labels the stored entry lacked — re-ingesting the same delta (or
    # an already-rectified CVE) must not inflate the tally.
    n_cwe_newly_fixed = 0
    for cve_id, found in cwe_fixes.fixes.items():
        stored = artifacts.snapshot.get(cve_id)
        if stored is None or any(label not in stored.cwe_ids for label in found):
            n_cwe_newly_fixed += 1
    report = dict(artifacts.report)
    report.update(
        n_cves=len(snapshot),
        n_improved_dates=sum(1 for e in estimates.values() if e.improved),
        n_v3_predicted=n_v3_predicted,
        n_cwe_fixed=int(report.get("n_cwe_fixed", 0)) + n_cwe_newly_fixed,
    )

    version = export_run(
        root,
        snapshot=snapshot,
        engine=artifacts.engine,
        model_used=model_used,
        vendor_map=artifacts.vendor_map,
        product_map=artifacts.product_map,
        estimates=estimates,
        pv3_scores=pv3_scores,
        pv3_severity=pv3_severity,
        report=report,
        source="ingest",
        parent=artifacts.version,
    )
    return IngestResult(
        version=version,
        parent=artifacts.version,
        n_delta=len(delta),
        n_new=len(delta) - n_updated,
        n_updated=n_updated,
        n_predicted=n_predicted,
        n_cwe_fixed=cwe_fixes.n_fixed,
        n_date_improved=n_date_improved,
        n_total=len(snapshot),
        model_used=model_used,
    )
