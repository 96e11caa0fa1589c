"""Per-domain page crawlers and date extraction.

§4.1: "Each of the webpages may have a different structure.  Thus, we
built a separate crawler for each domain to extract the relevant
publication date for the vulnerability information (if any)."

Each *layout* (shared by one or more domains) gets an extractor that
locates the disclosure-date field in that page structure; pages carry
other, irrelevant dates (modification stamps, copyright years), so
extractors anchor on the layout's label rather than grabbing the first
date on the page.  Only domains in the top-domain registry are crawled
— matching the paper's 85%-coverage cut-off — and dead domains yield
nothing.
"""

from __future__ import annotations

import datetime
import re
from collections import Counter
from collections.abc import Callable, Iterable
from typing import Protocol

from repro.web.cache import CrawlCache
from repro.web.dateparse import parse_date_any
from repro.web.domains import TOP_DOMAINS, domain_of

__all__ = [
    "DateExtractor",
    "ReferenceCrawler",
    "WebClient",
    "extractor_for_domain",
]

DateExtractor = Callable[[str], "datetime.date | None"]


class WebClient(Protocol):
    """The HTTP layer: fetch a URL's page text, or None if unreachable."""

    def fetch(self, url: str) -> str | None:  # pragma: no cover - protocol
        ...


_TAG_RE = re.compile(r"<[^>]+>")


def _strip_tags(html: str) -> str:
    return _TAG_RE.sub(" ", html)


def _labeled_date(html: str, labels: tuple[str, ...]) -> datetime.date | None:
    """Parse a date anchored to one of ``labels``.

    The date is searched in the 120 characters following the label, so
    a label and its value may sit on different lines (as in Debian DSA
    pages) without the extractor wandering off to unrelated dates
    elsewhere on the page.
    """
    text = _strip_tags(html)
    lowered = text.lower()
    for label in labels:
        position = lowered.find(label.lower())
        if position >= 0:
            window = text[position : position + len(label) + 120]
            date = parse_date_any(window)
            if date:
                return date
    return None


def _meta_content_date(html: str, names: tuple[str, ...]) -> datetime.date | None:
    """Parse a date from ``<meta name="..." content="...">`` tags."""
    for name in names:
        match = re.search(
            rf'<meta\s+name="{re.escape(name)}"\s+content="([^"]+)"', html, re.I
        )
        if match:
            date = parse_date_any(match.group(1))
            if date:
                return date
    return None


def _extract_securityfocus(html: str) -> datetime.date | None:
    return _labeled_date(html, ("published:",))


def _extract_securitytracker(html: str) -> datetime.date | None:
    return _labeled_date(html, ("date:",))


def _extract_bugzilla(html: str) -> datetime.date | None:
    return _labeled_date(html, ("reported:",))


def _extract_mailinglist(html: str) -> datetime.date | None:
    return _labeled_date(html, ("date:",))


def _extract_jvn(html: str) -> datetime.date | None:
    return _labeled_date(html, ("公開日", "last updated"))


def _extract_advisory(html: str) -> datetime.date | None:
    date = _meta_content_date(html, ("published", "date", "release_date"))
    if date:
        return date
    return _labeled_date(
        html, ("published:", "release date:", "advisory date:", "first published:")
    )


def _extract_dsa(html: str) -> datetime.date | None:
    return _labeled_date(html, ("date reported:",))


def _extract_usn(html: str) -> datetime.date | None:
    return _labeled_date(html, ("published:",))


def _extract_github(html: str) -> datetime.date | None:
    match = re.search(r'datetime="([^"]+)"', html)
    if match:
        return parse_date_any(match.group(1))
    return None


def _extract_exploitdb(html: str) -> datetime.date | None:
    return _labeled_date(html, ("date:",))


def _extract_certvu(html: str) -> datetime.date | None:
    return _labeled_date(html, ("original release date:",))


def _extract_xforce(html: str) -> datetime.date | None:
    return _labeled_date(html, ("reported:",))


def _extract_debbugs(html: str) -> datetime.date | None:
    return _labeled_date(html, ("date:",))


def _extract_launchpad(html: str) -> datetime.date | None:
    return _labeled_date(html, ("reported on",))


def _extract_plain(html: str) -> datetime.date | None:
    return parse_date_any(_strip_tags(html))


_LAYOUT_EXTRACTORS: dict[str, DateExtractor] = {
    "securityfocus": _extract_securityfocus,
    "securitytracker": _extract_securitytracker,
    "bugzilla": _extract_bugzilla,
    "mailinglist": _extract_mailinglist,
    "jvn": _extract_jvn,
    "advisory": _extract_advisory,
    "dsa": _extract_dsa,
    "usn": _extract_usn,
    "github": _extract_github,
    "exploitdb": _extract_exploitdb,
    "certvu": _extract_certvu,
    "xforce": _extract_xforce,
    "debbugs": _extract_debbugs,
    "launchpad": _extract_launchpad,
    "plain": _extract_plain,
}


def extractor_for_domain(domain: str) -> DateExtractor | None:
    """The layout extractor registered for ``domain`` (None if uncrawled)."""
    info = TOP_DOMAINS.get(domain)
    if info is None:
        return None
    return _LAYOUT_EXTRACTORS[info.layout]


class ReferenceCrawler:
    """Scrape disclosure dates from a CVE's reference URLs.

    Tracks the counters a crawl report needs: how many URLs were
    skipped as outside the top domains, dead, unfetchable, or parsed.

    With a :class:`repro.web.cache.CrawlCache`, previously scraped URLs
    replay their recorded outcome instead of re-fetching: the returned
    date *and* the outcome counter are identical to a cold scrape, with
    ``cache_hit`` / ``cache_miss`` tallying the cache's effect.  Domain
    screening (uncovered / dead) stays in front of the cache — those
    URLs are rejected without a fetch either way, so caching them would
    only bloat the file.

    Cached ``fetch_failed`` outcomes are NOT replayed: a past failure
    says nothing about the page today, so the crawler *revalidates*
    (re-fetches) the URL, tallying ``cache_revalidate``.  A client
    returning ``None`` is the "no such page" answer, recorded as
    ``fetch_failed``.
    """

    def __init__(self, client: WebClient, cache: CrawlCache | None = None) -> None:
        self.client = client
        self.cache = cache
        self.counters: Counter[str] = Counter()

    def scrape_url(self, url: str) -> datetime.date | None:
        """Fetch one URL and extract its disclosure date, if any."""
        domain = domain_of(url)
        info = TOP_DOMAINS.get(domain)
        if info is None:
            self.counters["skipped_uncovered_domain"] += 1
            return None
        if not info.alive:
            self.counters["skipped_dead_domain"] += 1
            return None
        if self.cache is not None:
            cached = self.cache.get(url)
            if cached is not None:
                outcome, date = cached
                if outcome != "fetch_failed":
                    self.counters["cache_hit"] += 1
                    self.counters[outcome] += 1
                    return date
                self.counters["cache_revalidate"] += 1
            else:
                self.counters["cache_miss"] += 1
        page = self.client.fetch(url)
        if page is None:
            date = None
            outcome = "fetch_failed"
        else:
            extractor = _LAYOUT_EXTRACTORS[info.layout]
            date = extractor(page)
            outcome = "no_date_found" if date is None else "date_extracted"
        if self.cache is not None:
            self.cache.put(url, outcome, date)
        self.counters[outcome] += 1
        return date

    def scrape_all(self, urls: Iterable[str]) -> list[datetime.date]:
        """All extractable dates across the given reference URLs."""
        dates = []
        for url in urls:
            date = self.scrape_url(url)
            if date is not None:
                dates.append(date)
        return dates
