"""Persistent on-disk crawl cache (keyed by URL).

The §4.1 crawl is the pipeline's only externally-bound phase: 591.4K
URL fetches in the paper's run, each repeated identically on every
re-run of the pipeline.  A :class:`CrawlCache` records the *outcome* of
each URL scrape — the extracted disclosure date, or the fact that the
page had no date / could not be fetched — so repeated runs skip the
fetch and the layout extraction entirely.

Each cached entry stores ``(outcome, date)`` where ``outcome`` is the
crawler counter the scrape incremented (``date_extracted``,
``no_date_found`` or ``fetch_failed``); replaying the entry therefore
reproduces both the scrape result *and* the crawl-report counters
bit-for-bit, which keeps cold and warm runs equivalent everywhere
except the new ``cache_hit`` / ``cache_miss`` counters.

The on-disk format is a single JSON document (human-diffable, no new
dependencies) written atomically via a temp file + rename, so a crash
mid-save never corrupts an existing cache.  Corrupt or
foreign-schema files are treated as empty rather than fatal — a cache
must never be able to break a pipeline run.

The cache tracks which entries are new since the last load or save,
so a fully warm run leaves the file untouched.

``fetch_failed`` entries are *revalidatable*, not terminal: the crawler
re-attempts such URLs on replay instead of treating one transient
outage as a permanent verdict.  The file holds nothing but the
entries, so the same crawl always writes the same bytes.
"""

from __future__ import annotations

import datetime
import json
import os
import pathlib
import tempfile

__all__ = ["CACHE_SCHEMA", "CrawlCache"]

CACHE_SCHEMA = "repro-crawl-cache/1"

#: outcomes a cached scrape can replay (crawler counter names).
_OUTCOMES = frozenset({"date_extracted", "no_date_found", "fetch_failed"})


class CrawlCache:
    """URL → scrape-outcome cache with optional JSON persistence.

    ``path=None`` gives a purely in-memory cache (useful for tests and
    for sharing one scrape across phases of a single run).
    """

    def __init__(self, path: str | os.PathLike[str] | None = None) -> None:
        self.path = pathlib.Path(path) if path is not None else None
        self._entries: dict[str, tuple[str, datetime.date | None]] = {}
        self._new: dict[str, tuple[str, datetime.date | None]] = {}
        self.hits = 0
        self.misses = 0
        if self.path is not None and self.path.exists():
            self._load()

    @classmethod
    def resolve(
        cls, value: "CrawlCache | str | os.PathLike[str] | None"
    ) -> "CrawlCache | None":
        """The one cache-argument convention, shared by every caller.

        An existing :class:`CrawlCache` passes through; a path opens
        one; ``None`` falls back to the ``REPRO_CRAWL_CACHE``
        environment variable (unset meaning no cache).
        """
        if isinstance(value, cls):
            return value
        if value is not None:
            return cls(value)
        env_path = os.environ.get("REPRO_CRAWL_CACHE")
        return cls(env_path) if env_path else None

    # -- persistence ---------------------------------------------------------

    def _load(self) -> None:
        assert self.path is not None
        try:
            with self.path.open(encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return  # corrupt cache == empty cache, never fatal
        if not isinstance(document, dict) or document.get("schema") != CACHE_SCHEMA:
            return
        entries = document.get("entries")
        if not isinstance(entries, dict):
            return
        for url, record in entries.items():
            if not (isinstance(record, list) and len(record) == 2):
                continue
            outcome, raw_date = record
            if outcome not in _OUTCOMES:
                continue
            date: datetime.date | None = None
            if raw_date is not None:
                try:
                    date = datetime.date.fromisoformat(raw_date)
                except (TypeError, ValueError):
                    continue
            self._entries[url] = (outcome, date)

    def save(self) -> pathlib.Path | None:
        """Atomically write the cache; returns the path (None in-memory).

        A fully-warm run adds nothing, so an up-to-date file is left
        untouched instead of rewriting the whole document.
        """
        if self.path is None:
            return None
        if not self._new and self.path.exists():
            return self.path
        document = {
            "schema": CACHE_SCHEMA,
            "entries": {
                url: [outcome, date.isoformat() if date is not None else None]
                for url, (outcome, date) in sorted(self._entries.items())
            },
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=self.path.parent, prefix=self.path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(document, handle, indent=1)
                handle.write("\n")
            os.replace(tmp_name, self.path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self._new.clear()  # the file now covers everything
        return self.path

    # -- lookup / store ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, url: str) -> bool:
        return url in self._entries

    def get(self, url: str) -> tuple[str, datetime.date | None] | None:
        """The cached ``(outcome, date)`` for ``url``, or None on a miss.

        Bumps the ``hits`` / ``misses`` tallies so callers can report
        cache effectiveness without wrapping every lookup.
        """
        entry = self._entries.get(url)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def put(self, url: str, outcome: str, date: datetime.date | None) -> None:
        """Record one scrape outcome (validated against the outcome set)."""
        if outcome not in _OUTCOMES:
            raise ValueError(f"unknown crawl outcome {outcome!r}")
        entry = (outcome, date)
        self._entries[url] = entry
        self._new[url] = entry
