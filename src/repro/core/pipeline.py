"""End-to-end NVD rectification (§4 in full).

``clean`` runs the four fixers — disclosure dates, vendor names,
product names (after vendors, as §4.2 requires), CWE recovery, and
severity backporting — and returns a :class:`RectifiedNvd` bundling
the improved snapshot with every intermediate artifact the case
studies (§5) consume.  §4.4 runs before the §4.3 prediction, so each
CVE is scored on the feature row (v2 vector, first concrete CWE) it is
served with, as ``ingest_delta`` scores a delta; the models train on
the snapshot's dual-scored entries as they were fed in.

Every phase is timed through :mod:`repro.perf`; ``tools/bench.py``
reads the recorder to emit the per-phase trajectory in
``BENCH_pipeline.json``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
from collections.abc import Callable

from repro import perf
from repro.cvss import Severity, severity_v3
from repro.core.cwefix import CweFixResult, apply_cwe_fixes, extract_cwe_fixes
from repro.core.dates import DisclosureEstimate, estimate_all
from repro.core.products import (
    ProductAnalysis,
    analyze_products,
    apply_product_mapping,
)
from repro.core.severity import EngineConfig, RowKey, SeverityPredictionEngine
from repro.core.vendors import VendorAnalysis, analyze_vendors, apply_vendor_mapping
from repro.nvd import NvdSnapshot
from repro.web import CrawlCache, WebClient

__all__ = ["CleaningReport", "RectifiedNvd", "clean"]


@dataclasses.dataclass
class CleaningReport:
    """Headline numbers from one cleaning run (the §4 quantifications)."""

    n_cves: int
    n_improved_dates: int
    n_vendor_names_impacted: int
    n_vendor_names_canonical: int
    n_product_names_impacted: int
    n_product_vendors_affected: int
    n_v3_predicted: int
    n_cwe_fixed: int
    model_used: str


@dataclasses.dataclass
class RectifiedNvd:
    """The improved NVD plus all supporting artifacts."""

    #: the rectified snapshot (names remapped, CWE fields fixed).
    snapshot: NvdSnapshot
    #: the original snapshot, untouched, for before/after analyses.
    original: NvdSnapshot
    #: per-CVE disclosure estimates (§4.1).
    estimates: dict[str, DisclosureEstimate]
    #: vendor/product consolidation artifacts (§4.2).
    vendor_analysis: VendorAnalysis
    product_analysis: ProductAnalysis
    #: the trained severity engine and per-CVE predicted scores (§4.3),
    #: each its served feature row's score.
    engine: SeverityPredictionEngine
    pv3_scores: dict[str, float]
    pv3_severity: dict[str, Severity]
    #: the score of every feature row the prediction computed; the only
    #: scores an export persists.
    row_scores: dict[RowKey, float]
    #: the CWE recovery outcome (§4.4).
    cwe_fixes: CweFixResult
    report: CleaningReport

    def export_artifacts(self, root: str | os.PathLike[str]) -> str:
        """Persist this run into a versioned artifact store at ``root``.

        Returns the new version name.  The exported directory is what
        ``python -m repro serve`` cold-starts from and ``python -m
        repro ingest`` updates incrementally — see
        :mod:`repro.artifacts`.  (Imported lazily: the batch pipeline
        does not depend on the serving layer.)
        """
        from repro.artifacts import export_run

        return export_run(
            root,
            snapshot=self.snapshot,
            engine=self.engine,
            model_used=self.report.model_used,
            vendor_map=self.vendor_analysis.mapping,
            product_map=self.product_analysis.mapping,
            estimates=self.estimates,
            row_scores=self.row_scores,
            report=self.report,
        )


def clean(
    snapshot: NvdSnapshot,
    web_client: WebClient,
    confirm_vendor: Callable[[str, str], bool],
    confirm_product: Callable[[str, str, str], bool],
    engine_config: EngineConfig | None = None,
    prediction_model: str | None = None,
    crawl_cache: CrawlCache | str | os.PathLike[str] | None = None,
) -> RectifiedNvd:
    """Run the full cleaning pipeline over a snapshot.

    ``prediction_model`` defaults to the best model by held-out
    accuracy (the paper selects its CNN).

    ``crawl_cache`` — a :class:`repro.web.CrawlCache` or a path to one
    (default: the ``REPRO_CRAWL_CACHE`` environment variable, unset
    meaning no cache) — lets repeated runs replay §4.1 per-URL scrape
    outcomes instead of re-fetching.
    """
    config = engine_config or EngineConfig()
    cache = CrawlCache.resolve(crawl_cache)

    recorder = perf.get_recorder()
    recorder.add_counter("clean.n_cves", len(snapshot))

    # The §4.3 training pool: the dual-scored entries as fed in.
    with_v3 = [entry for entry in snapshot.entries if entry.has_v3]

    # With REPRO_TRACE (or --trace) set, the whole run records phase
    # spans and writes a Perfetto-loadable trace on exit.  A no-op
    # when tracing is off or an outer session (bench) already traces.
    trace = contextlib.ExitStack()
    trace.enter_context(perf.maybe_trace())
    try:
        # §4.1 — disclosure dates.
        with recorder.phase("dates"):
            estimates = estimate_all(snapshot, web_client, cache=cache)

        # §4.2 — vendor names first, then products under consolidated vendors.
        with recorder.phase("vendors"):
            vendor_analysis = analyze_vendors(snapshot, confirm_vendor)
            after_vendors = apply_vendor_mapping(snapshot, vendor_analysis.mapping)
        with recorder.phase("products"):
            product_analysis = analyze_products(after_vendors, confirm_product)
            after_names = apply_product_mapping(
                after_vendors, product_analysis.mapping
            )

        # §4.4 — CWE recovery.
        with recorder.phase("cwe"):
            cwe_fixes = extract_cwe_fixes(after_names)
            rectified = apply_cwe_fixes(after_names, cwe_fixes)

        # §4.3 — severity backporting onto the rectified v2-scored
        # entries, so each is scored on the feature row it is served with.
        scored = [entry for entry in rectified.entries if entry.cvss_v2 is not None]
        n_v3_predicted = sum(1 for entry in scored if not entry.has_v3)
        with recorder.phase("severity"):
            with recorder.phase("fit"):
                engine = SeverityPredictionEngine(config).fit(with_v3)
            with recorder.phase("select"):
                model = prediction_model or engine.best_model()
            with recorder.phase("predict"):
                row_scores: dict[RowKey, float] = {}
                predictions = engine.predict_scores(
                    scored, model=model, scored=row_scores
                )
                pv3_scores = {
                    entry.cve_id: float(score)
                    for entry, score in zip(scored, predictions)
                }
                # Band severities from the scores just computed instead
                # of running the full network forward a second time
                # (predict_severities re-predicts internally) — same
                # labels, half the predict-phase wall time.
                pv3_severity = {
                    entry.cve_id: severity_v3(score)
                    for entry, score in zip(scored, predictions)
                }
    finally:
        trace.close()

    recorder.add_counter("clean.n_scored", len(scored))
    recorder.add_counter("clean.n_v3_predicted", n_v3_predicted)
    recorder.add_counter("vendors.n_candidate_pairs", len(vendor_analysis.candidates))
    recorder.add_counter("vendors.n_confirmed_pairs", len(vendor_analysis.confirmed))
    report = CleaningReport(
        n_cves=len(snapshot),
        n_improved_dates=sum(1 for e in estimates.values() if e.improved),
        n_vendor_names_impacted=vendor_analysis.n_impacted_names,
        n_vendor_names_canonical=vendor_analysis.n_consistent_names,
        n_product_names_impacted=product_analysis.n_impacted_names,
        n_product_vendors_affected=product_analysis.n_vendors_affected,
        n_v3_predicted=n_v3_predicted,
        n_cwe_fixed=cwe_fixes.n_fixed,
        model_used=model,
    )
    return RectifiedNvd(
        snapshot=rectified,
        original=snapshot,
        estimates=estimates,
        vendor_analysis=vendor_analysis,
        product_analysis=product_analysis,
        engine=engine,
        pv3_scores=pv3_scores,
        pv3_severity=pv3_severity,
        row_scores=row_scores,
        cwe_fixes=cwe_fixes,
        report=report,
    )
