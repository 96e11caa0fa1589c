"""Incremental ingest: clean a delta feed with persisted artifacts.

``python -m repro ingest delta.json.gz --artifacts DIR`` applies the
paper's fixers to *only* the new/changed CVEs, reusing every expensive
artifact of the original run instead of recomputing it:

- **names (§4.2)** — the persisted vendor/product alias maps remap the
  delta entries; no pair generation, scoring or confirmation reruns;
- **cwe (§4.4)** — the regex recovery runs on the delta descriptions
  (it is per-entry and cheap);
- **severity (§4.3)** — on the rectified delta, as ``clean()`` runs it:
  the persisted winning model scores only the feature rows the store's
  row table lacks, and is read only when such a row exists; no
  retraining.  Those rows extend the table, the only stored score;
- **dates (§4.1)** — reference URLs replay through an optional
  persistent crawl cache (``repro.web.CrawlCache``); uncached URLs are
  not fetched (a delta feed has no synthetic web corpus), so the
  estimate falls back to the NVD publication date.

The rectified delta is written as one **segment** version on top of the
stored one: its entries, estimates, id-index rows and the feature rows
it scored, plus the updated report (see :mod:`repro.artifacts.store`).
The ingest reads the manifest, the alias maps, the estimates, the id
index and the row scores of the stored chain — never its entries — so
its cost follows the delta, not the store.  Once a chain holds
:data:`MAX_SEGMENTS` segments, the ingest instead loads everything and
writes a fresh full base.  Either way the ``CURRENT`` pointer flips
atomically, which is what a running server hot-swaps on.  A store in a
layout :func:`repro.artifacts.load_artifacts` no longer reads raises
:class:`repro.artifacts.ArtifactError` before anything is written.
"""

from __future__ import annotations

import dataclasses
import os
from collections.abc import Iterable

from repro.artifacts.recovery import recover_store
from repro.artifacts.store import export_run, index_row, load_artifacts
from repro.core.cwefix import apply_cwe_fixes, extract_cwe_fixes
from repro.core.dates import DisclosureEstimate
from repro.core.products import apply_product_mapping
from repro.core.severity import RowKey
from repro.core.vendors import apply_vendor_mapping
from repro.nvd import CveEntry, NvdSnapshot
from repro.web import CrawlCache

__all__ = ["MAX_SEGMENTS", "IngestResult", "ingest_delta"]

#: segments a chain may hold; the ingest onto a chain this long writes
#: a fresh full base instead of another segment, so 1 ingest in
#: ``MAX_SEGMENTS + 1`` pays a full rewrite.  A longer chain spreads
#: that rewrite (16 s at 107,200 CVEs on 2 cores) over more ingests,
#: but every segment adds to each later ingest's reads and to every
#: load.  ``tools/bench_chain.py`` with 750-CVE deltas: at 8,040 CVEs a
#: cold start of a 16-segment chain costs about 9% more CPU than a base
#: holding the same entries, and a cap of 32 amortized no better.
MAX_SEGMENTS = 16


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
    the parent version is read, and every file of the parent's chain is
    checked against its hash — and the export itself publishes via the
    store's staged-rename protocol, so a crash mid-ingest leaves the
    parent version live and the next ingest able to proceed.
    """
    recover_store(root)
    artifacts = load_artifacts(root)
    delta = NvdSnapshot(delta_entries)  # validates duplicate delta ids
    cache = CrawlCache.resolve(crawl_cache)

    # A segment on the parent, unless the chain is full: then a fresh
    # full base.
    rebase = artifacts.n_segments >= MAX_SEGMENTS
    index = artifacts.index

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
    stored_estimates = artifacts.estimates_of(e.cve_id for e in delta.entries)
    new_estimates = {}
    n_date_improved = 0  # improvements from *this* run's cached scrapes
    n_improved_replaced = 0  # stored improved estimates the delta replaces
    for entry in delta.entries:
        estimate = _estimate_from_cache(entry, cache)
        stored = stored_estimates.get(entry.cve_id)
        if stored is not None and stored.improved:
            n_improved_replaced += 1
        if (
            estimate.n_reference_dates == 0
            and stored is not None
            and stored.published == entry.published
        ):
            estimate = stored  # carried over, not counted as improved here
        elif estimate.improved:
            n_date_improved += 1
        new_estimates[entry.cve_id] = estimate

    # The counts come from the index rows of the delta and of the
    # stored entries it replaces.
    n_predicted = sum(index_row(e)[0] for e in rectified_delta.entries)
    updated_rows = [index[e.cve_id] for e in delta.entries if e.cve_id in index]
    n_updated = len(updated_rows)
    n_total = len(index) + len(delta) - n_updated
    # Count a CWE fix toward the cumulative report only when it adds
    # labels the stored entry lacked — re-ingesting the same delta (or
    # an already-rectified CVE) must not inflate the tally.
    n_cwe_newly_fixed = 0
    for cve_id, found in cwe_fixes.fixes.items():
        stored_row = index.get(cve_id)
        if stored_row is None or any(label not in stored_row[1] for label in found):
            n_cwe_newly_fixed += 1
    # The parent's counts, adjusted by the rows the delta replaces and adds.
    report = dict(artifacts.report)
    report.update(
        n_cves=n_total,
        n_improved_dates=report["n_improved_dates"]
        - n_improved_replaced
        + sum(1 for e in new_estimates.values() if e.improved),
        n_v3_predicted=report["n_v3_predicted"]
        - sum(row[0] for row in updated_rows)
        + n_predicted,
        n_cwe_fixed=report["n_cwe_fixed"] + n_cwe_newly_fixed,
    )

    if rebase:  # the whole merged store, as a fresh base
        snapshot = artifacts.snapshot.merge(rectified_delta.entries)
        estimates = {**artifacts.estimates, **new_estimates}
    else:  # the delta's rows only
        snapshot, estimates = rectified_delta, new_estimates

    # §4.3 — persisted winning model, no retrain.  Only the rows the
    # stored table lacks reach the model; they extend the table.  A
    # rebase looks up every row of the merged store and writes the
    # whole table, so a base's table holds every row it serves.
    model_used = artifacts.model_used
    scored = [e for e in snapshot.entries if e.cvss_v2 is not None]
    new_rows: dict[RowKey, float] = {}
    if scored:
        artifacts.engine.predict_scores(
            scored, model=model_used, known=artifacts.row_scores, scored=new_rows
        )
    row_scores = {**artifacts.row_scores, **new_rows} if rebase else new_rows
    version = export_run(
        root,
        snapshot=snapshot,
        engine=artifacts.engine,
        model_used=model_used,
        vendor_map=artifacts.vendor_map,
        product_map=artifacts.product_map,
        estimates=estimates,
        row_scores=row_scores,
        report=report,
        source="ingest",
        parent=artifacts.version,
        segment_of=None if rebase else artifacts,
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
        n_total=n_total,
        model_used=model_used,
    )
