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
description, reference URL, tag or CWE value, or reference ``tags``
that are not a list, is skipped (counted under ``feed.malformed_item``);
the rest of the feed still parses.

Every incremental ingest reads and rewrites the whole stored snapshot
through this module, so both directions are kept cheap:

- :func:`save_feed` streams: it writes one item's JSON text at a time
  between the feed's header and footer, never building the whole feed
  document or its whole text, nor any item's dict.  Each item's text
  comes straight from the entry (``_item_text``, the one definition of
  the item format): constant fragments are literals, every string goes
  through ``json``'s own C string encoder, dates are formatted without
  ``strftime``, and each ``impact`` block (it depends on its CVSS
  vector alone) is rendered once per distinct vector.  The byte
  contract: the file's text is exactly ``json.dumps(entries_to_feed(
  entries))`` with ``json``'s default settings, so a snapshot keeps the
  bytes earlier versions of this writer gave it.  :func:`entries_to_feed`
  is derived from the writer (it parses each item's text), so the two
  cannot drift apart.
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

import contextlib
import datetime
import functools
import gc
import gzip
import io
import json
import pathlib
import re
from collections.abc import Iterable, Iterator
from typing import Any, TextIO

from repro import perf
from repro.cpe import CpeName, bind_to_formatted_string, parse_cpe
from repro.cvss import (
    CvssV2Metrics,
    CvssV3Metrics,
    parse_v2_vector,
    parse_v3_vector,
    score_v2,
    score_v3,
    severity_v2,
    severity_v3,
    v2_vector_string,
    v3_vector_string,
)
from repro.nvd.models import CveEntry, Reference

__all__ = [
    "GZIP_LEVEL",
    "entries_from_feed",
    "entries_to_feed",
    "gc_paused",
    "load_feed",
    "load_feeds",
    "open_text_writer",
    "read_document",
    "save_feed",
]

#: gzip compression level for written ``.gz`` files (the artifact store
#: uses it too).  On a 12.4 MB snapshot feed, level 6 compresses in
#: about half the time of level 9 for a file about 5.5% larger.
GZIP_LEVEL = 6

#: bound on each memoized ``impact`` block cache (one entry per distinct
#: CVSS vector; the 8,040-CVE store holds 128 of each version).
_CACHE_SIZE = 4096

_DATE_FORMAT = "%Y-%m-%dT%H:%MZ"
#: the shape :func:`_format_date` writes for four-digit years, in ASCII
#: digits (shorter years take the ``strptime`` fallback).
_DATE_RE = re.compile(r"([0-9]{4})-([0-9]{2})-([0-9]{2})T([0-9]{2}):([0-9]{2})Z")


def _format_date(value: datetime.date) -> str:
    """``value`` at midnight in :data:`_DATE_FORMAT`, as glibc's
    ``strftime`` writes it: ``%Y`` is the year unpadded (year 5 is
    ``5-01-02T00:00Z``)."""
    return f"{value.year}-{value.month:02d}-{value.day:02d}T00:00Z"


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


#: ``json.dumps`` of one string: quoted, with non-ASCII and control
#: characters escaped (the C function ``json.dumps`` itself calls).
_quote = json.encoder.encode_basestring_ascii


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _v2_block_text(metrics: CvssV2Metrics) -> str:
    """The ``"baseMetricV2"`` member of an item's ``impact``; it depends
    on the vector alone."""
    scores = score_v2(metrics)
    block = {
        "cvssV2": {
            "version": "2.0",
            "vectorString": v2_vector_string(metrics),
            "baseScore": scores.base,
        },
        "severity": severity_v2(scores.base).value,
        "impactScore": scores.impact,
        "exploitabilityScore": scores.exploitability,
    }
    return '"baseMetricV2": ' + json.dumps(block)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _v3_block_text(metrics: CvssV3Metrics) -> str:
    """The ``"baseMetricV3"`` member of an item's ``impact``; it depends
    on the vector alone."""
    scores = score_v3(metrics)
    block = {
        "cvssV3": {
            "version": "3.1",
            "vectorString": v3_vector_string(metrics),
            "baseScore": scores.base,
            "baseSeverity": severity_v3(scores.base).value,
        },
        "impactScore": scores.impact,
        "exploitabilityScore": scores.exploitability,
    }
    return '"baseMetricV3": ' + json.dumps(block)


def _item_text(entry: CveEntry) -> str:
    """The JSON text of ``entry``'s feed item, exactly as ``json.dumps``
    (default settings) writes the item object.  This is the one
    definition of the item format; :func:`entries_to_feed` parses it."""
    cwes = ", ".join(['{"lang": "en", "value": ' + _quote(c) + "}" for c in entry.cwe_ids])
    references = ", ".join(
        [
            '{"url": ' + _quote(ref.url) + ', "tags": [' + ", ".join(map(_quote, ref.tags)) + "]}"
            for ref in entry.references
        ]
    )
    descriptions = ", ".join(
        ['{"lang": "en", "value": ' + _quote(text) + "}" for text in entry.descriptions]
    )
    if entry.cpes:
        matches = ", ".join(
            [
                '{"vulnerable": true, "cpe23Uri": ' + _quote(bind_to_formatted_string(cpe)) + "}"
                for cpe in entry.cpes
            ]
        )
        nodes = '[{"operator": "OR", "cpe_match": [' + matches + "]}]"
    else:
        nodes = "[]"
    impact = []
    if entry.cvss_v2 is not None:
        impact.append(_v2_block_text(entry.cvss_v2))
    if entry.cvss_v3 is not None:
        impact.append(_v3_block_text(entry.cvss_v3))
    modified = (
        ""
        if entry.modified is None
        else ', "lastModifiedDate": "' + _format_date(entry.modified) + '"'
    )
    return (
        '{"cve": {"data_type": "CVE", "data_format": "MITRE", "data_version": "4.0", '
        '"CVE_data_meta": {"ID": ' + _quote(entry.cve_id) + ', "ASSIGNER": "cve@mitre.org"}, '
        '"problemtype": {"problemtype_data": [{"description": [' + cwes + "]}]}, "
        '"references": {"reference_data": [' + references + "]}, "
        '"description": {"description_data": [' + descriptions + "]}}, "
        '"configurations": {"CVE_data_version": "4.0", "nodes": ' + nodes + "}, "
        '"impact": {' + ", ".join(impact) + "}, "
        '"publishedDate": "' + _format_date(entry.published) + '"' + modified + "}"
    )


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


def _texts(value: Any) -> tuple[str, ...]:
    """``value`` if it is a list of strings (a JSON array); anything
    else makes the item malformed (a string or an object would
    otherwise iterate into characters or keys)."""
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return tuple(_text(element) for element in value)


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
            tags=_texts(block.get("tags", [])),
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
    """Serialise entries into an NVD JSON feed document (each item is
    the parsed text :func:`save_feed` writes for it)."""
    return _feed_document(len(entries), [json.loads(_item_text(entry)) for entry in entries])


def _feed_items(feed: Any) -> list[Any]:
    if not isinstance(feed, dict) or feed.get("CVE_data_type") != "CVE":
        raise ValueError("not an NVD JSON feed (CVE_data_type != 'CVE')")
    items = feed.get("CVE_Items", [])
    if not isinstance(items, list):
        raise ValueError("not an NVD JSON feed (CVE_Items is not a list)")
    return items


def entries_from_feed(feed: dict[str, Any]) -> list[CveEntry]:
    """Parse an NVD JSON feed document into entries.

    Items that cannot be parsed are skipped and counted under the
    ``feed.malformed_item`` perf counter.
    """
    return [entry for item in _feed_items(feed) if (entry := _decoded(item)) is not None]


def _decoded(item: Any) -> CveEntry | None:
    """``item`` as an entry, or None (counted) when it cannot be parsed."""
    try:
        return _item_to_entry(item)
    except (AttributeError, KeyError, TypeError, ValueError):
        perf.add_counter("feed.malformed_item", 1)
        return None


def _write_feed(entries: list[CveEntry], handle: TextIO) -> None:
    """Write ``json.dumps(entries_to_feed(entries))``, one item at a time."""
    head, tail = json.dumps(_feed_document(len(entries), [])).rsplit("[]", 1)
    handle.write(head + "[")
    for index, entry in enumerate(entries):
        if index:
            handle.write(", ")
        handle.write(_item_text(entry))
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


@contextlib.contextmanager
def gc_paused() -> Iterator[None]:
    """Pause the cyclic collector, restoring its prior state on exit.

    Building one container per CVE allocates hundreds of thousands of
    acyclic objects; each collection would rescan everything already
    live, so bulk decoders and encoders run with it paused.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def load_feed(path: str | pathlib.Path) -> list[CveEntry]:
    """Read a feed file written by :func:`save_feed` (or NVD itself)."""
    path = pathlib.Path(path)
    # The document is freed before the collector's prior state is restored.
    with gc_paused():
        return entries_from_feed(read_document(path))


def load_feeds(paths: Iterable[str | pathlib.Path]) -> list[CveEntry]:
    """Read feed files in order as one upsert by CVE id.

    The result equals starting from the first file's entries and
    merging each later file's (:meth:`repro.nvd.NvdSnapshot.merge`): a
    later item replaces an earlier one of the same id in place, and new
    ids append in file order.  Files are read newest first and only
    each id's last item is decoded, so replaying a chain of files costs
    what its surviving entries cost, holding one document at a time.
    An undecodable item is skipped and counted, as in :func:`load_feed`,
    and still supersedes its id's earlier items.
    """
    decoded: dict[str, CveEntry | None] = {}
    id_lists: list[list[str]] = []  # each file's ids, newest file first
    with gc_paused():
        for path in reversed(list(paths)):
            ids = []
            for item in reversed(_feed_items(read_document(pathlib.Path(path)))):
                try:
                    cve_id = item["cve"]["CVE_data_meta"]["ID"]
                except (KeyError, TypeError):
                    cve_id = None
                if not isinstance(cve_id, str):  # CveEntry would reject it
                    perf.add_counter("feed.malformed_item", 1)
                    continue
                ids.append(cve_id)
                if cve_id not in decoded:
                    decoded[cve_id] = _decoded(item)
            id_lists.append(ids[::-1])
        order = dict.fromkeys(cve_id for ids in reversed(id_lists) for cve_id in ids)
        return [entry for cve_id in order if (entry := decoded[cve_id]) is not None]


def read_document(path: pathlib.Path) -> Any:
    """Parse the JSON document in ``path``; ``.gz`` paths are gunzipped."""
    if path.suffix == ".gz":
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            return json.load(handle)
    return json.loads(path.read_text(encoding="utf-8"))
