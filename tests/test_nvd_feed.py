"""NVD JSON feed serialisation round-trips."""

import dataclasses
import datetime
import gc
import gzip
import hashlib
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import perf
from repro.cpe import ANY, NA, CpeName, bind_to_formatted_string
from repro.cvss import (
    CvssV2Metrics,
    CvssV3Metrics,
    score_v2,
    score_v3,
    v2_vector_string,
    v3_vector_string,
)
from repro.nvd import (
    CveEntry,
    NvdSnapshot,
    Reference,
    entries_from_feed,
    entries_to_feed,
    load_feed,
    save_feed,
)
from repro.nvd.feed import _DATE_FORMAT, _item_text, _parse_date, load_feeds


@pytest.fixture()
def rich_entry():
    return CveEntry(
        cve_id="CVE-2018-0101",
        published=datetime.date(2018, 1, 29),
        descriptions=("A vulnerability in the XML parser.", "Evaluator: CWE-611."),
        references=(
            Reference("https://tools.cisco.com/security/center/advisory.x", ("Vendor Advisory",)),
            Reference("https://www.securityfocus.com/bid/102845"),
        ),
        cwe_ids=("CWE-611", "NVD-CWE-Other"),
        cvss_v2=CvssV2Metrics("N", "L", "N", "C", "C", "C"),
        cvss_v3=CvssV3Metrics("N", "L", "N", "N", "U", "H", "H", "H"),
        cpes=(CpeName("a", "cisco", "asa", version="9.1"),),
        modified=datetime.date(2018, 2, 2),
    )


class TestRoundTrip:
    def test_single_entry_round_trip(self, rich_entry):
        feed = entries_to_feed([rich_entry])
        assert entries_from_feed(feed) == [rich_entry]

    def test_feed_metadata(self, rich_entry):
        feed = entries_to_feed([rich_entry])
        assert feed["CVE_data_type"] == "CVE"
        assert feed["CVE_data_numberOfCVEs"] == "1"

    def test_minimal_entry_round_trip(self):
        entry = CveEntry(
            cve_id="CVE-1999-0001",
            published=datetime.date(1999, 1, 1),
            descriptions=("minimal",),
        )
        assert entries_from_feed(entries_to_feed([entry])) == [entry]

    def test_scores_serialised(self, rich_entry):
        item = entries_to_feed([rich_entry])["CVE_Items"][0]
        assert item["impact"]["baseMetricV2"]["cvssV2"]["baseScore"] == 10.0
        assert item["impact"]["baseMetricV3"]["cvssV3"]["baseScore"] == 9.8
        assert item["impact"]["baseMetricV3"]["cvssV3"]["baseSeverity"] == "CRITICAL"

    def test_cpe_uri_serialised(self, rich_entry):
        item = entries_to_feed([rich_entry])["CVE_Items"][0]
        uri = item["configurations"]["nodes"][0]["cpe_match"][0]["cpe23Uri"]
        assert uri == "cpe:2.3:a:cisco:asa:9.1:*:*:*:*:*:*:*"

    def test_rejects_non_feed(self):
        with pytest.raises(ValueError, match="not an NVD"):
            entries_from_feed({"something": "else"})


class TestFiles:
    def test_save_and_load_plain(self, rich_entry, tmp_path):
        path = tmp_path / "nvdcve-1.0-2018.json"
        save_feed([rich_entry], path)
        assert load_feed(path) == [rich_entry]

    def test_save_and_load_gzip(self, rich_entry, tmp_path):
        path = tmp_path / "nvdcve-1.0-2018.json.gz"
        save_feed([rich_entry], path)
        assert load_feed(path) == [rich_entry]

    def test_generated_snapshot_round_trips(self, snapshot, tmp_path):
        entries = snapshot.entries[:100]
        path = tmp_path / "subset.json"
        save_feed(entries, path)
        assert load_feed(path) == entries


class TestLoadFeeds:
    """``load_feeds`` reads files as one upsert by CVE id: equal to
    merging each file's entries in order, decoding each id once."""

    @pytest.fixture()
    def chain(self, snapshot, tmp_path):
        def revise(entries, text):
            return [
                dataclasses.replace(entry, descriptions=(*entry.descriptions, text))
                for entry in entries
            ]

        entries = snapshot.entries[:60]
        # Revisions of base ids, of ids an earlier revision touched, and
        # of ids the second file added.
        files = [
            entries[:40],
            [*revise(entries[10:30:4], "Revised."), *entries[40:50]],
            [*revise(entries[18:50:4], "Revised again."), *entries[50:]],
        ]
        paths = []
        for n, part in enumerate(files):
            paths.append(tmp_path / f"part{n}.json.gz")
            save_feed(part, paths[-1])
        return files, paths

    def test_equals_sequential_merge(self, chain):
        files, paths = chain
        merged = NvdSnapshot(files[0])
        for part in files[1:]:
            merged = merged.merge(part)
        assert load_feeds(paths) == merged.entries
        assert load_feeds(paths[:1]) == load_feed(paths[0])

    def test_decodes_only_surviving_items(self, chain, monkeypatch):
        from repro.nvd import feed

        files, paths = chain
        decoded = []
        item_to_entry = feed._item_to_entry
        monkeypatch.setattr(
            feed, "_item_to_entry", lambda item: decoded.append(item) or item_to_entry(item)
        )
        entries = load_feeds(paths)
        assert len(decoded) == len(entries) < sum(len(part) for part in files)

    def test_undecodable_item_supersedes_then_counts(self, rich_entry, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_feed([rich_entry], first)
        document = entries_to_feed([rich_entry])
        document["CVE_Items"][0]["publishedDate"] = "not a date"
        document["CVE_Items"].append("not an item")
        second.write_text(json.dumps(document), encoding="utf-8")
        before = perf.get_recorder().counters.get("feed.malformed_item", 0)
        assert load_feeds([first, second]) == []
        assert perf.get_recorder().counters.get("feed.malformed_item", 0) == before + 2


def _written_digest(path):
    """sha256 of a written feed's decompressed bytes (a digest keeps a
    failing comparison of two multi-megabyte strings cheap to report)."""
    data = path.read_bytes()
    if path.suffix == ".gz":
        data = gzip.decompress(data)
    return hashlib.sha256(data).hexdigest()


class TestStreamingWriter:
    @pytest.mark.parametrize("suffix", [".json", ".json.gz"])
    @pytest.mark.parametrize("count", [0, 1, None])
    def test_bytes_equal_whole_document_dump(self, snapshot, tmp_path, suffix, count):
        entries = snapshot.entries if count is None else snapshot.entries[:count]
        path = tmp_path / f"feed{suffix}"
        save_feed(entries, path)
        expected = json.dumps(entries_to_feed(entries)).encode("utf-8")
        assert _written_digest(path) == hashlib.sha256(expected).hexdigest()


def _strftime(value):
    return datetime.datetime(value.year, value.month, value.day).strftime(_DATE_FORMAT)


def reference_entry_to_item(entry):
    """The feed item as a dict, built field by field: the oracle whose
    ``json.dumps`` the writer's direct item text must equal."""
    item = {
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
        "publishedDate": _strftime(entry.published),
    }
    if entry.modified is not None:
        item["lastModifiedDate"] = _strftime(entry.modified)
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


# Any text, lone surrogates, control and non-ASCII characters included.
any_text = st.text(st.characters(exclude_categories=()), max_size=10)
# A CPE attribute: ANY, NA, or a lowercase value, which may need
# backslash escapes in the formatted string.
cpe_values = st.one_of(
    st.just(ANY),
    st.just(NA),
    st.text(alphabet="az09._-", min_size=1, max_size=6),
    any_text.map(str.lower).filter(lambda v: v and v == v.lower()),
)
feed_dates = st.one_of(st.dates(max_value=datetime.date(999, 12, 31)), st.dates())
feed_entries = st.builds(
    CveEntry,
    cve_id=st.builds("CVE-{}-{:04d}".format, st.integers(1999, 2030), st.integers(0, 10**6)),
    published=feed_dates,
    descriptions=st.lists(any_text, max_size=3).map(tuple),
    references=st.lists(
        st.builds(Reference, any_text, st.lists(any_text, max_size=3).map(tuple)),
        max_size=3,
    ).map(tuple),
    cwe_ids=st.lists(any_text, max_size=3).map(tuple),
    # Each metric drawn from its one-letter values.
    cvss_v2=st.none()
    | st.builds(CvssV2Metrics, *map(st.sampled_from, ("LAN", "HML", "MSN", "NPC", "NPC", "NPC"))),
    cvss_v3=st.none()
    | st.builds(
        CvssV3Metrics,
        *map(st.sampled_from, ("NALP", "LH", "NLH", "NR", "UC", "HLN", "HLN", "HLN")),
    ),
    cpes=st.lists(
        st.builds(CpeName, st.sampled_from("aoh"), *[cpe_values] * 10), max_size=3
    ).map(tuple),
    modified=st.none() | feed_dates,
)


class TestItemEncoderOracle:
    @given(feed_entries)
    @settings(max_examples=500)
    @example(
        CveEntry(
            cve_id="CVE-2000-0001",
            published=datetime.date(5, 1, 2),
            descriptions=("caf\u00e9 \x00\x1f \ud800 \U0001f600",),
            references=(Reference("https://example.com/\u00e9?q=\"x\"", ("Patch\n",)),),
            cwe_ids=("CWE-79",),
            cvss_v3=CvssV3Metrics("N", "L", "N", "N", "U", "H", "H", "H"),
            cpes=(CpeName("a", "acme:co", "bad\\name", version=NA, update="1.0*"),),
        )
    )
    @example(CveEntry(cve_id="CVE-1999-0001", published=datetime.date(999, 12, 31), descriptions=()))
    def test_item_text_equals_dump_of_reference_item(self, entry):
        assert _item_text(entry) == json.dumps(reference_entry_to_item(entry))

    def test_year_is_written_unpadded(self):
        entry = CveEntry(
            cve_id="CVE-2000-0001",
            published=datetime.date(5, 1, 2),
            descriptions=(),
            modified=datetime.date(999, 1, 2),
        )
        item = json.loads(_item_text(entry))
        assert item["publishedDate"] == "5-01-02T00:00Z"
        assert item["lastModifiedDate"] == "999-01-02T00:00Z"


class TestReproducibleGzip:
    @pytest.mark.parametrize("writer", ["save_feed", "store"])
    def test_writes_at_different_times_are_byte_identical(
        self, rich_entry, tmp_path, monkeypatch, writer
    ):
        """gzip stamps the write time into its header unless told not
        to; a file must depend on its content only."""
        import time

        from repro.artifacts.store import _write_json

        def write(path):
            if writer == "save_feed":
                save_feed([rich_entry], path)
            else:
                _write_json(path, {"cve": rich_entry.cve_id})

        written = []
        for stamp, directory in ((1.0e9, "first"), (2.0e9, "second")):
            monkeypatch.setattr(time, "time", lambda: stamp)
            path = tmp_path / directory / "file.json.gz"
            path.parent.mkdir()
            write(path)
            written.append(path.read_bytes())
        assert written[0] == written[1]


class TestLoadGcPause:
    @pytest.fixture()
    def feed_file(self, rich_entry, tmp_path):
        path = tmp_path / "feed.json.gz"
        save_feed([rich_entry], path)
        return path

    @pytest.fixture()
    def restore_gc(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_gc_state_restored(self, feed_file, restore_gc, enabled):
        (gc.enable if enabled else gc.disable)()
        load_feed(feed_file)
        assert gc.isenabled() is enabled

    def test_gc_state_restored_when_parse_raises(self, tmp_path, restore_gc):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"something": "else"}), encoding="utf-8")
        gc.enable()
        with pytest.raises(ValueError, match="not an NVD"):
            load_feed(path)
        assert gc.isenabled()


def _strptime_date(text):
    return datetime.datetime.strptime(text, _DATE_FORMAT).date()


# A written date with one piece replaced: a digit run of any width
# (non-ASCII digits included) or another separator, in either case.
_WRITTEN_PIECES = ("2019", "-", "02", "-", "28", "T", "23", ":", "59", "Z")


def _one_piece_replaced(index, replacement):
    pieces = list(_WRITTEN_PIECES)
    pieces[index] = replacement
    return "".join(pieces)


near_dates = st.builds(
    _one_piece_replaced,
    st.integers(0, len(_WRITTEN_PIECES) - 1),
    st.one_of(
        st.text(alphabet="0123456789\u0663", min_size=1, max_size=5),
        st.sampled_from(["", " ", "t", "z", "-", ":", "Z\n"]),
    ),
)
# The exact written shape, with every field drawn around its valid range
# (year 0, month 13, 31 February, hour 24, minute 60, ...).
exact_dates = st.builds(
    lambda y, mo, d, h, mi: f"{y:04d}-{mo:02d}-{d:02d}T{h:02d}:{mi:02d}Z",
    st.one_of(st.integers(0, 2), st.integers(1999, 2001), st.just(9999)),
    st.integers(0, 13),
    st.one_of(st.integers(0, 1), st.integers(28, 32)),
    st.one_of(st.integers(0, 1), st.integers(22, 25)),
    st.one_of(st.integers(0, 1), st.integers(58, 61)),
)


def _assert_parses_like_strptime(text):
    try:
        expected = _strptime_date(text)
    except ValueError:
        with pytest.raises(ValueError):
            _parse_date(text)
    else:
        assert _parse_date(text) == expected


class TestDateFastPathOracle:
    @given(st.one_of(st.text(max_size=24), near_dates))
    @settings(max_examples=1000)
    def test_any_text_parses_like_strptime(self, text):
        _assert_parses_like_strptime(text)

    @pytest.mark.parametrize(
        "text",
        [
            "999-02-28T23:59Z",  # 3-digit year
            "02019-02-28T23:59Z",
            "2019-2-28T23:59Z",  # 1-digit month, day, hour, minute
            "2019-02-8T23:59Z",
            "2019-02-28T3:59Z",
            "2019-02-28T23:5Z",
            "2019-02-28T23:059Z",  # 3-digit minute
            "2019-02-28T24:00Z",
            "2019-02-28T23:60Z",
            "2019-02-29T00:00Z",  # not a leap year
            "2020-02-29T00:00Z",
            "0000-01-01T00:00Z",
            "2019-02-28t23:59z",
            "2019-02-28T23:59Z\n",
            "\u0662\u0660\u0661\u0669-02-28T23:59Z",
        ],
    )
    def test_edge_strings_parse_like_strptime(self, text):
        _assert_parses_like_strptime(text)

    @given(exact_dates)
    @settings(max_examples=300)
    def test_written_shape_parses_like_strptime(self, text):
        _assert_parses_like_strptime(text)

    def test_written_dates_take_the_fast_path(self):
        assert _parse_date("2019-02-28T00:00Z") == datetime.date(2019, 2, 28)
        with pytest.raises(ValueError):
            _parse_date("2019-13-45T00:00Z")


# Any JSON value, to drop into one field of an otherwise valid item.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)
_ITEM_PATHS = (
    (),
    ("cve",),
    ("cve", "CVE_data_meta", "ID"),
    ("publishedDate",),
    ("lastModifiedDate",),
    ("cve", "description", "description_data"),
    ("cve", "references", "reference_data"),
    ("cve", "references", "reference_data", 0, "tags"),
    ("cve", "problemtype", "problemtype_data"),
    ("configurations",),
    ("configurations", "nodes"),
    ("impact",),
    ("impact", "baseMetricV2", "cvssV2", "vectorString"),
    ("impact", "baseMetricV3"),
)


# The string leaves of an item: a non-string value at any of them skips
# the item (downstream text handling assumes strings).
_TEXT_PATHS = (
    ("cve", "description", "description_data", 0, "value"),
    ("cve", "references", "reference_data", 0, "url"),
    ("cve", "references", "reference_data", 0, "tags", 0),
    ("cve", "problemtype", "problemtype_data", 0, "description", 0, "value"),
)


def _parse_garbled(path, value):
    """Parse a one-item feed whose field at ``path`` holds ``value``;
    returns the parsed entries and how many items were skipped."""
    from repro import perf

    entry = CveEntry(
        cve_id="CVE-2018-0102",
        published=datetime.date(2018, 1, 29),
        descriptions=("d",),
        references=(Reference("https://example.com/advisory", ("Patch",)),),
        cwe_ids=("CWE-79",),
        cvss_v2=CvssV2Metrics("N", "L", "N", "C", "C", "C"),
        cvss_v3=CvssV3Metrics("N", "L", "N", "N", "U", "H", "H", "H"),
        cpes=(CpeName("a", "cisco", "asa"),),
        modified=datetime.date(2018, 2, 2),
    )
    feed = entries_to_feed([entry])
    if path:
        parent = feed["CVE_Items"][0]
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    else:
        feed["CVE_Items"][0] = value
    before = perf.get_recorder().counters.get("feed.malformed_item", 0)
    parsed = entries_from_feed(feed)
    return parsed, perf.get_recorder().counters.get("feed.malformed_item", 0) - before


class TestTotalParsing:
    @given(st.sampled_from(_ITEM_PATHS + _TEXT_PATHS), json_values)
    def test_garbled_item_degrades_never_raises(self, path, value):
        """Whatever one field of an item holds, parsing the feed returns
        (the item kept, possibly minus that field) or skips the item and
        counts it; it never raises, and neither does §4.4 on the result."""
        from repro.core import extract_cwe_fixes
        from repro.nvd import NvdSnapshot

        parsed, skipped = _parse_garbled(path, value)
        assert len(parsed) + skipped == 1
        assert all(isinstance(e, CveEntry) for e in parsed)
        extract_cwe_fixes(NvdSnapshot(parsed))

    @pytest.mark.parametrize("path", _TEXT_PATHS)
    @pytest.mark.parametrize("value", [5, ["x"], {"value": "x"}])
    def test_non_string_text_skips_the_item(self, path, value):
        assert _parse_garbled(path, value) == ([], 1)

    @pytest.mark.parametrize("tags", ["Patch", {"Patch": 1}])
    def test_non_list_tags_skip_the_item(self, tags):
        """A string or an object would iterate into its characters or
        keys, every one a string."""
        path = ("cve", "references", "reference_data", 0, "tags")
        assert _parse_garbled(path, tags) == ([], 1)

    def test_missing_tags_mean_no_tags(self):
        entry = CveEntry(
            cve_id="CVE-2018-0103",
            published=datetime.date(2018, 1, 29),
            descriptions=("d",),
            references=(Reference("https://example.com/advisory"),),
        )
        feed = entries_to_feed([entry])
        del feed["CVE_Items"][0]["cve"]["references"]["reference_data"][0]["tags"]
        assert entries_from_feed(feed) == [entry]
