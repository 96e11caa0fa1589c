"""The serving image of a base version: what ``repro serve`` reads.

A base (from ``clean()``, or from an ingest that rebases) writes, next
to its snapshot, everything the query service needs so a worker never
decodes an entry of it::

    image/bodies.bin       # every CVE's /v1/cve body, raw deflate
    image/dictionary.bin   # the preset dictionary every body shares
    image/offsets.bin      # where each body ends: little-endian uint64s
    image/rows.jsonl.gz    # the CVEs' rows, a JSON array of 256 per line

A row is one :class:`repro.nvd.store.CveRow`: what the name index and
``/v1/stats`` read of a CVE.  Rows, bodies and offsets are in snapshot
order; row ``i``'s body ends at ``offsets[i]`` and starts where the
previous one ends.  Each body is compressed on its own at level 6,
against a 32 KiB dictionary cut from a sample of the bodies, so one
``/v1/cve`` inflates one body.  On the perfbench seed-1 store (8,040
CVEs, 2 cores) the bodies take 1.23 MB this way against 7.67 MB raw
and 4.0 MB compressed without the dictionary; a body inflates in about
4 µs, and hashing the 1.47 MB the image adds costs an ingest about
1 ms where raw bodies would cost 9 ms.  The rows are read a line at a
time, so a load never holds more than one line of them decoded: at
107,200 CVEs, decoding them whole left 155 MB private against 54 MB.

:func:`cve_body` is the one definition of a ``/v1/cve`` body: an
export renders the image with it, and :class:`ServingImage` renders a
segment's CVEs with it when a server loads a chain.  The files are
listed and hashed in the manifest like every other file of a version.
"""

from __future__ import annotations

import array
import gzip
import json
import mmap
import pathlib
import sys
import zlib
from collections.abc import Callable, Iterable, Iterator, Mapping

from repro.core.dates import DisclosureEstimate
from repro.core.severity import RowKey, row_key
from repro.cvss import severity_v3, v2_vector_string, v3_vector_string
from repro.nvd import CveEntry
from repro.nvd.feed import gc_paused, open_text_writer
from repro.nvd.store import cve_row, index_rows

__all__ = ["IMAGE_FILES", "ServingImage", "cve_body", "write_image"]

BODIES = "image/bodies.bin"
DICTIONARY = "image/dictionary.bin"
OFFSETS = "image/offsets.bin"
ROWS = "image/rows.jsonl.gz"
#: the files a base's image adds, relative to the version directory.
IMAGE_FILES = (BODIES, DICTIONARY, OFFSETS, ROWS)
#: rows per line of the rows file.
_ROWS_PER_LINE = 256

#: raw deflate (no zlib header or checksum: the manifest hashes the file).
_WBITS = -15
_LEVEL = 6
#: bodies sampled, evenly spaced, into the dictionary, and its size
#: (deflate's window: a longer dictionary's head is never referenced).
_DICTIONARY_SAMPLES = 64
_DICTIONARY_BYTES = 32 * 1024


def cve_body(
    entry: CveEntry, estimate: DisclosureEstimate | None, score: float | None
) -> bytes:
    """One CVE's ``/v1/cve`` response body: the entry, its disclosure
    estimate, and — when it carries a v2 vector — its feature row's
    §4.3 ``score``."""
    payload: dict = {
        "cve_id": entry.cve_id,
        "published": entry.published.isoformat(),
        "modified": entry.modified.isoformat() if entry.modified else None,
        "descriptions": list(entry.descriptions),
        "cwe_ids": list(entry.cwe_ids),
        "vendors": list(entry.vendors),
        "products": [list(pair) for pair in entry.vendor_products()],
        "references": [reference.url for reference in entry.references],
        "cvss_v2": None,
        "cvss_v3": None,
    }
    if entry.cvss_v2 is not None:
        payload["cvss_v2"] = {
            "vector": v2_vector_string(entry.cvss_v2),
            "base_score": entry.v2_score,
            "severity": entry.v2_severity.value,
        }
    if entry.cvss_v3 is not None:
        payload["cvss_v3"] = {
            "vector": v3_vector_string(entry.cvss_v3),
            "base_score": entry.v3_score,
            "severity": entry.v3_severity.value,
        }
    if estimate is not None:
        payload["estimated_disclosure"] = estimate.estimated_disclosure.isoformat()
        payload["lag_days"] = estimate.lag_days
    if entry.cvss_v2 is not None:
        payload["predicted_v3_score"] = score
        payload["predicted_v3_severity"] = severity_v3(score).value
        payload["v3_backported"] = not entry.has_v3
    return json.dumps(payload).encode("utf-8")


def write_image(
    directory: pathlib.Path,
    entries: list[CveEntry],
    estimates: Mapping[str, DisclosureEstimate],
    row_scores: Mapping[RowKey, float],
) -> None:
    """Write the image of a base holding ``entries`` under ``directory``.

    Every v2-scored entry is served its row's score in ``row_scores``
    (a base's table holds every row it serves).  The bodies stream to
    disk one at a time; only the dictionary's sample is held twice.
    """

    def body(entry: CveEntry) -> bytes:
        score = None if entry.cvss_v2 is None else float(row_scores[row_key(entry)])
        return cve_body(entry, estimates.get(entry.cve_id), score)

    (directory / "image").mkdir()
    step = max(1, len(entries) // _DICTIONARY_SAMPLES)
    sample = entries[::step][:_DICTIONARY_SAMPLES]
    dictionary = b"".join(map(body, sample))[-_DICTIONARY_BYTES:]
    (directory / DICTIONARY).write_bytes(dictionary)
    ends = array.array("Q")
    with (directory / BODIES).open("wb") as handle:
        if entries:
            # Priming costs more than a short body's compression: copy
            # one primed compressor per body instead.
            primed = zlib.compressobj(_LEVEL, zlib.DEFLATED, _WBITS, zdict=dictionary)
            offset = 0
            for entry in entries:
                compressor = primed.copy()
                data = compressor.compress(body(entry)) + compressor.flush()
                handle.write(data)
                offset += len(data)
                ends.append(offset)
    if sys.byteorder == "big":
        ends.byteswap()
    (directory / OFFSETS).write_bytes(ends.tobytes())
    with gc_paused(), open_text_writer(directory / ROWS) as handle:
        for start in range(0, len(entries), _ROWS_PER_LINE):
            rows = [cve_row(entry) for entry in entries[start : start + _ROWS_PER_LINE]]
            handle.write(json.dumps(rows, separators=(",", ":")) + "\n")


class ServingImage:
    """A chain's bodies and name index, served from its base's image.

    The base's bodies are mapped, not read, so every worker on a host
    shares one copy in the page cache.  ``segment_entries`` — each CVE
    id's newest entry in the chain's segments, in upsert order
    (:meth:`repro.artifacts.LoadedArtifacts.segment_entries`) — replace
    the base's row in place or append one, the order
    :meth:`repro.nvd.NvdSnapshot.merge` gives, and ``render`` gives
    each its body, held in memory.  :attr:`names` and :attr:`stats`
    aggregate the rows as they stream in
    (:func:`repro.nvd.store.index_rows`); no row is kept.
    """

    def __init__(
        self,
        base_dir: pathlib.Path,
        segment_entries: Iterable[CveEntry],
        render: Callable[[CveEntry], bytes],
    ) -> None:
        self._ends = array.array("Q")
        self._ends.frombytes((base_dir / OFFSETS).read_bytes())
        if sys.byteorder == "big":
            self._ends.byteswap()
        self._dictionary = (base_dir / DICTIONARY).read_bytes()
        with (base_dir / BODIES).open("rb") as handle:
            size = handle.seek(0, 2)
            self._bodies = (
                mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ) if size else b""
            )
        overlay = {entry.cve_id: entry for entry in segment_entries}
        self._segment_bodies = {cve_id: render(e) for cve_id, e in overlay.items()}
        #: CVE id → its row's index in the base, for its body's offsets.
        self._position: dict[str, int] = {}

        def rows() -> Iterator:
            with gzip.open(base_dir / ROWS, "rt", encoding="utf-8") as handle:
                for line in handle:
                    for row in json.loads(line):
                        self._position[row[0]] = len(self._position)
                        entry = overlay.pop(row[0], None)
                        yield row if entry is None else cve_row(entry)
            yield from map(cve_row, overlay.values())  # ids no base row has

        with gc_paused():
            self.names, self.stats = index_rows(rows())

    def body(self, cve_id: str) -> bytes | None:
        """``cve_id``'s ``/v1/cve`` body (None when the chain lacks it)."""
        body = self._segment_bodies.get(cve_id)
        if body is not None:
            return body
        n = self._position.get(cve_id)
        if n is None:
            return None
        start = self._ends[n - 1] if n else 0
        inflater = zlib.decompressobj(_WBITS, zdict=self._dictionary)
        return inflater.decompress(self._bodies[start : self._ends[n]])
