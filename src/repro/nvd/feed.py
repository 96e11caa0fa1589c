"""NVD JSON data-feed serialisation.

Reads and writes the NVD "JSON 1.0/1.1" feed layout (the format the
paper's snapshot was distributed in): a top-level object with
``CVE_Items``, each holding ``cve`` (metadata, descriptions,
problemtype, references), ``configurations`` (CPE applicability) and
``impact`` (``baseMetricV2`` / ``baseMetricV3``).  Round-tripping a
snapshot through this module is lossless for every field the cleaning
pipeline touches.

Parsing is total over items: a malformed CVSS vector or CPE name costs
that one field (counted under the ``feed.malformed_cvss`` and
``feed.malformed_cpe`` perf counters), and an item whose ID, dates or
other required structure cannot be read, or that holds a non-string
description, reference URL, tag or CWE value, is skipped (counted
under ``feed.malformed_item``); the rest of the feed still parses.

Every incremental ingest reads and rewrites the whole stored snapshot
through this module, so both directions are kept cheap:

- :func:`save_feed` streams: it encodes one item at a time and writes
  it between the feed's header and footer, never building the whole
  feed document or its whole text.  The output is byte-identical to
  ``json.dumps(entries_to_feed(entries))``, but without half a million
  live containers that would set off repeated full garbage-collection
  passes over everything already in memory.
- :func:`load_feed` pauses the cyclic garbage collector while it
  decodes the JSON and builds the entries (neither step creates
  reference cycles) and restores the previous state afterwards.  The
  switch is process-wide, so in a server a reload also pauses
  collection for the request threads while it runs.
- Feed dates parse through an exact-format fast path; any other string
  falls back to ``strptime``, so the accepted set is unchanged.  CVSS
  vectors and scores are memoized in :mod:`repro.cvss` (a feed holds
  only a few hundred distinct vectors).
- ``.gz`` files are written at gzip level :data:`GZIP_LEVEL`, with a
  zero modification time in the gzip header, so the same entries always
  give the same bytes (:func:`open_text_writer`, which the artifact
  store writes through too).
"""

from __future__ import annotations

import datetime
import gc
import gzip
import io
import json
import pathlib
import re
from typing import Any, TextIO

from repro import perf
from repro.cpe import CpeName, bind_to_formatted_string, parse_cpe
from repro.cvss import (
    parse_v2_vector,
    parse_v3_vector,
    score_v2,
    score_v3,
    v2_vector_string,
    v3_vector_string,
)
from repro.nvd.models import CveEntry, Reference

__all__ = [
    "GZIP_LEVEL",
    "entries_from_feed",
    "entries_to_feed",
    "load_feed",
    "open_text_writer",
    "save_feed",
]

#: gzip compression level for written ``.gz`` files (the artifact store
#: uses it too).  On a 12.4 MB snapshot feed, level 6 compresses in
#: about half the time of level 9 for a file about 5.5% larger.
GZIP_LEVEL = 6

_DATE_FORMAT = "%Y-%m-%dT%H:%MZ"
#: exactly the shape :func:`_format_date` writes, in ASCII digits.
_DATE_RE = re.compile(r"([0-9]{4})-([0-9]{2})-([0-9]{2})T([0-9]{2}):([0-9]{2})Z")


def _format_date(value: datetime.date) -> str:
    return datetime.datetime(value.year, value.month, value.day).strftime(_DATE_FORMAT)


def _parse_date(text: str) -> datetime.date:
    """``strptime(text, _DATE_FORMAT).date()``, without ``strptime``'s
    per-call locale lookup for the exact shape feeds carry.  Anything
    the fast path does not accept goes to ``strptime``, which decides
    (and raises ``ValueError`` for) every other string."""
    match = _DATE_RE.fullmatch(text)
    if match is not None:
        year, month, day, hour, minute = map(int, match.groups())
        if hour < 24 and minute < 60:
            try:
                return datetime.date(year, month, day)
            except ValueError:
                pass
    return datetime.datetime.strptime(text, _DATE_FORMAT).date()


def _entry_to_item(entry: CveEntry) -> dict[str, Any]:
    item: dict[str, Any] = {
        "cve": {
            "data_type": "CVE",
            "data_format": "MITRE",
            "data_version": "4.0",
            "CVE_data_meta": {"ID": entry.cve_id, "ASSIGNER": "cve@mitre.org"},
            "problemtype": {
                "problemtype_data": [
                    {
                        "description": [
                            {"lang": "en", "value": cwe_id}
                            for cwe_id in entry.cwe_ids
                        ]
                    }
                ]
            },
            "references": {
                "reference_data": [
                    {"url": ref.url, "tags": list(ref.tags)}
                    for ref in entry.references
                ]
            },
            "description": {
                "description_data": [
                    {"lang": "en", "value": text} for text in entry.descriptions
                ]
            },
        },
        "configurations": {
            "CVE_data_version": "4.0",
            "nodes": [
                {
                    "operator": "OR",
                    "cpe_match": [
                        {
                            "vulnerable": True,
                            "cpe23Uri": bind_to_formatted_string(cpe),
                        }
                        for cpe in entry.cpes
                    ],
                }
            ]
            if entry.cpes
            else [],
        },
        "impact": {},
        "publishedDate": _format_date(entry.published),
    }
    if entry.modified is not None:
        item["lastModifiedDate"] = _format_date(entry.modified)
    if entry.cvss_v2 is not None:
        scores = score_v2(entry.cvss_v2)
        item["impact"]["baseMetricV2"] = {
            "cvssV2": {
                "version": "2.0",
                "vectorString": v2_vector_string(entry.cvss_v2),
                "baseScore": scores.base,
            },
            "severity": entry.v2_severity.value if entry.v2_severity else None,
            "impactScore": scores.impact,
            "exploitabilityScore": scores.exploitability,
        }
    if entry.cvss_v3 is not None:
        scores = score_v3(entry.cvss_v3)
        item["impact"]["baseMetricV3"] = {
            "cvssV3": {
                "version": "3.1",
                "vectorString": v3_vector_string(entry.cvss_v3),
                "baseScore": scores.base,
                "baseSeverity": entry.v3_severity.value if entry.v3_severity else None,
            },
            "impactScore": scores.impact,
            "exploitabilityScore": scores.exploitability,
        }
    return item


def _lenient_metric(impact: dict[str, Any], block_key: str, metric_key: str, parser):
    """Parse one ``impact`` metric, degrading malformed CVSS to absent.

    Real feed exports (and the adversarial generator) contain items
    whose ``vectorString`` is truncated, garbled, or not a string at
    all; a bad severity vector must cost that one field, not abort the
    whole snapshot parse.  Dropped vectors are counted under the
    ``feed.malformed_cvss`` perf counter.
    """
    if block_key not in impact:
        return None
    try:
        return parser(impact[block_key][metric_key]["vectorString"])
    except (AttributeError, KeyError, TypeError, ValueError):
        perf.add_counter("feed.malformed_cvss", 1)
        return None


def _lenient_cpes(item: dict[str, Any]) -> tuple[CpeName, ...]:
    """Parse an item's CPE matches, dropping malformed names.

    A bad ``cpe23Uri``/``cpe22Uri`` costs that one applicability
    entry; dropped names are counted under ``feed.malformed_cpe``.
    """
    cpes = []
    for node in item.get("configurations", {}).get("nodes", ()):
        for match in node.get("cpe_match", ()):
            uri = match.get("cpe23Uri") or match.get("cpe22Uri")
            if uri:
                try:
                    cpes.append(parse_cpe(uri))
                except (AttributeError, TypeError, ValueError):
                    perf.add_counter("feed.malformed_cpe", 1)
    return tuple(cpes)


def _text(value: Any) -> str:
    """``value`` if it is a string; anything else makes the item
    malformed (downstream text handling assumes strings)."""
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


def _item_to_entry(item: dict[str, Any]) -> CveEntry:
    cve = item["cve"]
    cve_id = cve["CVE_data_meta"]["ID"]
    published = _parse_date(item["publishedDate"])
    modified = None
    if "lastModifiedDate" in item:
        modified = _parse_date(item["lastModifiedDate"])
    descriptions = tuple(
        _text(block["value"]) for block in cve["description"]["description_data"]
    )
    references = tuple(
        Reference(
            url=_text(block["url"]),
            tags=tuple(_text(tag) for tag in block.get("tags", ())),
        )
        for block in cve.get("references", {}).get("reference_data", ())
    )
    cwe_ids: list[str] = []
    for ptype in cve.get("problemtype", {}).get("problemtype_data", ()):
        for block in ptype.get("description", ()):
            value = block.get("value")
            if value is not None and _text(value):
                cwe_ids.append(value)
    impact = item.get("impact", {})
    cvss_v2 = _lenient_metric(impact, "baseMetricV2", "cvssV2", parse_v2_vector)
    cvss_v3 = _lenient_metric(impact, "baseMetricV3", "cvssV3", parse_v3_vector)
    return CveEntry(
        cve_id=cve_id,
        published=published,
        descriptions=descriptions,
        references=references,
        cwe_ids=tuple(cwe_ids),
        cvss_v2=cvss_v2,
        cvss_v3=cvss_v3,
        cpes=_lenient_cpes(item),
        modified=modified,
    )


def _feed_document(n_entries: int, items: list[Any]) -> dict[str, Any]:
    return {
        "CVE_data_type": "CVE",
        "CVE_data_format": "MITRE",
        "CVE_data_version": "4.0",
        "CVE_data_numberOfCVEs": str(n_entries),
        "CVE_Items": items,
    }


def entries_to_feed(entries: list[CveEntry]) -> dict[str, Any]:
    """Serialise entries into an NVD JSON feed document."""
    return _feed_document(len(entries), [_entry_to_item(entry) for entry in entries])


def entries_from_feed(feed: dict[str, Any]) -> list[CveEntry]:
    """Parse an NVD JSON feed document into entries.

    Items that cannot be parsed are skipped and counted under the
    ``feed.malformed_item`` perf counter.
    """
    if feed.get("CVE_data_type") != "CVE":
        raise ValueError("not an NVD JSON feed (CVE_data_type != 'CVE')")
    entries = []
    for item in feed.get("CVE_Items", ()):
        try:
            entries.append(_item_to_entry(item))
        except (AttributeError, KeyError, TypeError, ValueError):
            perf.add_counter("feed.malformed_item", 1)
    return entries


def _write_feed(entries: list[CveEntry], handle: TextIO) -> None:
    """Write ``json.dumps(entries_to_feed(entries))``, one item at a time."""
    head, tail = json.dumps(_feed_document(len(entries), [])).rsplit("[]", 1)
    handle.write(head + "[")
    for index, entry in enumerate(entries):
        if index:
            handle.write(", ")
        handle.write(json.dumps(_entry_to_item(entry)))
    handle.write("]" + tail)


def open_text_writer(path: pathlib.Path) -> TextIO:
    """Open ``path`` to write UTF-8 text; ``.gz`` paths are compressed
    at :data:`GZIP_LEVEL` with header mtime 0, so equal text written at
    any time gives equal bytes."""
    if path.suffix == ".gz":
        binary = gzip.GzipFile(path, "wb", compresslevel=GZIP_LEVEL, mtime=0)
        return io.TextIOWrapper(binary, encoding="utf-8")
    return path.open("w", encoding="utf-8")


def save_feed(entries: list[CveEntry], path: str | pathlib.Path) -> None:
    """Write entries as a feed file; ``.gz`` paths are gzip-compressed."""
    with open_text_writer(pathlib.Path(path)) as handle:
        _write_feed(entries, handle)


def load_feed(path: str | pathlib.Path) -> list[CveEntry]:
    """Read a feed file written by :func:`save_feed` (or NVD itself)."""
    path = pathlib.Path(path)
    # Decoding allocates hundreds of thousands of acyclic containers;
    # each collection would rescan everything already live.  The
    # document is freed before the collector's prior state is restored.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return entries_from_feed(_read_document(path))
    finally:
        if enabled:
            gc.enable()


def _read_document(path: pathlib.Path) -> Any:
    if path.suffix == ".gz":
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            return json.load(handle)
    return json.loads(path.read_text(encoding="utf-8"))
