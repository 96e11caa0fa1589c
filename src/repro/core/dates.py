"""Estimated disclosure dates (§4.1).

"For a given CVE, we approximated its public disclosure date as the
minimum of the dates extracted from the reference URLs or the NVD
publication date."  The *lag time* is then the number of days the NVD
publication date trails the estimated disclosure date; Figure 1 plots
its CDF and Figure 4 its average per severity level.
"""

from __future__ import annotations

import dataclasses
import datetime

import numpy as np

from repro import perf
from repro.cvss import Severity
from repro.nvd import CveEntry, NvdSnapshot
from repro.web import CrawlCache, ReferenceCrawler, WebClient

__all__ = [
    "DisclosureEstimate",
    "estimate_all",
    "estimate_disclosure",
    "improvement_by_severity",
    "lag_cdf",
    "mean_lag_by_severity",
]


@dataclasses.dataclass(frozen=True, slots=True)
class DisclosureEstimate:
    """The dating evidence for one CVE."""

    cve_id: str
    published: datetime.date
    estimated_disclosure: datetime.date
    n_reference_dates: int

    @property
    def lag_days(self) -> int:
        """Days the NVD publication trails the estimated disclosure."""
        return (self.published - self.estimated_disclosure).days

    @property
    def improved(self) -> bool:
        """True when scraping moved the date earlier than NVD's."""
        return self.lag_days > 0


def estimate_disclosure(
    entry: CveEntry, crawler: ReferenceCrawler
) -> DisclosureEstimate:
    """Estimate one CVE's public disclosure date.

    Scrapes every reference URL through the per-domain crawlers and
    takes the minimum of the extracted dates and the NVD publication
    date.  Scraped dates *after* publication never push the estimate
    later — the minimum includes the publication date itself.
    """
    dates = crawler.scrape_all(ref.url for ref in entry.references)
    estimated = min([*dates, entry.published])
    return DisclosureEstimate(
        cve_id=entry.cve_id,
        published=entry.published,
        estimated_disclosure=estimated,
        n_reference_dates=len(dates),
    )


def estimate_all(
    snapshot: NvdSnapshot,
    client: WebClient,
    cache: CrawlCache | None = None,
) -> dict[str, DisclosureEstimate]:
    """Estimate disclosure dates for every entry in a snapshot.

    Each CVE's estimate is independent of the others.  ``cache`` lets
    repeated runs replay per-URL scrape outcomes instead of
    re-fetching, and is saved once at the end.  Crawl counters land in
    the perf recorder under ``dates.*``.
    """
    crawler = ReferenceCrawler(client, cache=cache)
    estimates = [estimate_disclosure(entry, crawler) for entry in snapshot.entries]
    for name, value in sorted(crawler.counters.items()):
        perf.add_counter(f"dates.{name}", value)
    if cache is not None:
        try:
            cache.save()
        except OSError:
            # the cache is an accelerator, never a dependency: a torn
            # or failed save costs the next run some fetches, not this
            # run its results
            perf.add_counter("dates.cache_save_failed", 1)
    return {estimate.cve_id: estimate for estimate in estimates}


def lag_cdf(
    estimates: dict[str, DisclosureEstimate]
) -> tuple[np.ndarray, np.ndarray]:
    """The Figure 1 series: sorted lag values and cumulative fraction.

    Returns ``(lags, cdf)`` where ``cdf[i]`` is the fraction of CVEs
    with lag ≤ ``lags[i]``.
    """
    lags = np.sort(np.array([e.lag_days for e in estimates.values()]))
    if lags.size == 0:
        return lags, lags.astype(float)
    cdf = np.arange(1, lags.size + 1) / lags.size
    return lags, cdf


def improvement_by_severity(
    snapshot: NvdSnapshot, estimates: dict[str, DisclosureEstimate]
) -> dict[Severity, float]:
    """Fraction of CVEs per v2 severity whose date was improved.

    §4.1 reports 37% for low, 41% for medium, and 65% for high
    severity — the high-severity CVEs, where accurate dating matters
    most, are affected most.
    """
    totals: dict[Severity, int] = {}
    improved: dict[Severity, int] = {}
    for entry in snapshot:
        severity = entry.v2_severity
        if severity is None:
            continue
        estimate = estimates.get(entry.cve_id)
        if estimate is None:
            continue
        totals[severity] = totals.get(severity, 0) + 1
        if estimate.improved:
            improved[severity] = improved.get(severity, 0) + 1
    return {
        severity: improved.get(severity, 0) / count
        for severity, count in totals.items()
    }


def mean_lag_by_severity(
    estimates: dict[str, DisclosureEstimate],
    severity_of: dict[str, Severity],
) -> dict[Severity, float]:
    """Average lag in days per severity level (the Figure 4 series)."""
    sums: dict[Severity, float] = {}
    counts: dict[Severity, int] = {}
    for cve_id, estimate in estimates.items():
        severity = severity_of.get(cve_id)
        if severity is None:
            continue
        sums[severity] = sums.get(severity, 0.0) + estimate.lag_days
        counts[severity] = counts.get(severity, 0) + 1
    return {
        severity: sums[severity] / counts[severity] for severity in counts
    }
