"""Reference-URL scraping substrate (§4.1).

The paper estimates public disclosure dates by crawling the reference
URLs attached to CVEs: 591.4K URLs over 5,997 domains, with per-domain
crawlers for the top 50 domains (covering >85% of URLs; 14 of them no
longer respond).  This package provides:

- :mod:`repro.web.domains` — domain extraction, ranking and the
  top-domain registry with categories and liveness;
- :mod:`repro.web.dateparse` — a multi-format date parser covering the
  layouts the per-domain extractors encounter;
- :mod:`repro.web.crawler` — per-domain page date extractors and the
  reference crawler that aggregates them per CVE;
- :mod:`repro.web.cache` — the persistent on-disk crawl cache, so
  repeated runs replay per-URL outcomes instead of re-fetching.

The live HTTP layer is replaced by a :class:`WebClient` protocol; the
synthetic web corpus (:mod:`repro.synth.webcorpus`) implements it.
"""

from repro.web.cache import CACHE_SCHEMA, CrawlCache
from repro.web.crawler import (
    DateExtractor,
    ReferenceCrawler,
    WebClient,
    extractor_for_domain,
)
from repro.web.dateparse import parse_date_any
from repro.web.domains import (
    DomainInfo,
    TOP_DOMAINS,
    domain_category,
    domain_coverage,
    domain_of,
    is_dead_domain,
    rank_domains,
)

__all__ = [
    "CACHE_SCHEMA",
    "CrawlCache",
    "DateExtractor",
    "DomainInfo",
    "ReferenceCrawler",
    "TOP_DOMAINS",
    "WebClient",
    "domain_category",
    "domain_coverage",
    "domain_of",
    "extractor_for_domain",
    "is_dead_domain",
    "parse_date_any",
    "rank_domains",
]
