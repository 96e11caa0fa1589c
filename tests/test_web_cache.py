"""Persistent crawl cache: hits, misses, persistence, crawler replay."""

from __future__ import annotations

import datetime
import json

import pytest

from repro.core.dates import estimate_all
from repro.web import CACHE_SCHEMA, CrawlCache, ReferenceCrawler

DATE = datetime.date(2018, 3, 14)


class TestCrawlCacheBasics:
    def test_miss_then_hit(self):
        cache = CrawlCache()
        assert cache.get("http://example.test/a") is None
        cache.put("http://example.test/a", "date_extracted", DATE)
        assert cache.get("http://example.test/a") == ("date_extracted", DATE)
        assert cache.hits == 1
        assert cache.misses == 1
        assert len(cache) == 1
        assert "http://example.test/a" in cache

    def test_negative_outcomes_are_cached(self):
        cache = CrawlCache()
        cache.put("u1", "no_date_found", None)
        cache.put("u2", "fetch_failed", None)
        assert cache.get("u1") == ("no_date_found", None)
        assert cache.get("u2") == ("fetch_failed", None)

    def test_unknown_outcome_rejected(self):
        with pytest.raises(ValueError, match="unknown crawl outcome"):
            CrawlCache().put("u", "teleported", None)


class TestCrawlCachePersistence:
    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = CrawlCache(path)
        cache.put("u1", "date_extracted", DATE)
        cache.put("u2", "no_date_found", None)
        assert cache.save() == path

        reloaded = CrawlCache(path)
        assert len(reloaded) == 2
        assert reloaded.get("u1") == ("date_extracted", DATE)
        assert reloaded.get("u2") == ("no_date_found", None)

    def test_saved_document_schema(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = CrawlCache(path)
        cache.put("u1", "date_extracted", DATE)
        cache.put("u2", "fetch_failed", None)
        cache.save()
        document = json.loads(path.read_text())
        assert document == {
            "schema": CACHE_SCHEMA,
            "entries": {
                "u1": ["date_extracted", "2018-03-14"],
                "u2": ["fetch_failed", None],
            },
        }

    def test_in_memory_cache_never_saves(self):
        cache = CrawlCache()
        cache.put("u1", "fetch_failed", None)
        assert cache.save() is None

    def test_corrupt_file_treated_as_empty(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("{ not json")
        assert len(CrawlCache(path)) == 0

    def test_foreign_schema_ignored(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({"schema": "other/1", "entries": {"u": ["date_extracted", None]}}))
        assert len(CrawlCache(path)) == 0

    def test_malformed_entries_skipped(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(
            json.dumps(
                {
                    "schema": CACHE_SCHEMA,
                    "entries": {
                        "ok": ["no_date_found", None],
                        "bad-outcome": ["eaten", None],
                        "bad-date": ["date_extracted", "yesterday"],
                        "bad-shape": "nope",
                    },
                    # Older files also recorded per-URL fetch failures.
                    "failures": {"bad-outcome": [1, 1.5e9]},
                }
            )
        )
        cache = CrawlCache(path)
        assert len(cache) == 1
        assert cache.get("ok") == ("no_date_found", None)


class TestCrawlerReplay:
    def _crawled_url(self, bundle):
        """A reference URL the crawler actually fetches and dates."""
        crawler = ReferenceCrawler(bundle.web)
        for entry in bundle.snapshot:
            for ref in entry.references:
                if crawler.scrape_url(ref.url) is not None:
                    return ref.url
        pytest.fail("bundle has no datable reference URL")

    def test_warm_crawler_skips_fetching(self, bundle):
        url = self._crawled_url(bundle)
        cache = CrawlCache()

        cold = ReferenceCrawler(bundle.web, cache=cache)
        before = bundle.web.fetch_count
        cold_date = cold.scrape_url(url)
        assert bundle.web.fetch_count == before + 1
        assert cold.counters["cache_miss"] == 1
        assert cold.counters["date_extracted"] == 1

        warm = ReferenceCrawler(bundle.web, cache=cache)
        warm_date = warm.scrape_url(url)
        assert bundle.web.fetch_count == before + 1  # no new fetch
        assert warm_date == cold_date
        assert warm.counters["cache_hit"] == 1
        assert warm.counters["date_extracted"] == 1  # outcome replayed

    def test_estimate_all_warm_run_matches_cold(self, bundle, tmp_path):
        path = tmp_path / "cache.json"
        baseline = estimate_all(bundle.snapshot, bundle.web)

        cold = estimate_all(bundle.snapshot, bundle.web, cache=CrawlCache(path))
        assert path.exists()  # estimate_all persists the cache

        fetches_before_warm = bundle.web.fetch_count
        warm = estimate_all(bundle.snapshot, bundle.web, cache=CrawlCache(path))
        assert bundle.web.fetch_count == fetches_before_warm  # all cache hits
        assert warm == baseline == cold
