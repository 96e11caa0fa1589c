"""Robustness under degraded inputs and crashes: flaky web, garbage
pages, bad feeds, torn writes, failed saves, failed reloads and dead
workers.  Each recovery path is driven directly: the test tears the
file, makes the call raise, or kills the process itself."""

import datetime
import gzip
import json
import shutil

import numpy as np
import pytest

from repro import perf
from repro.core import estimate_disclosure
from repro.cvss import CvssV2Metrics
from repro.nvd import CveEntry, Reference, entries_from_feed
from repro.web import CrawlCache, ReferenceCrawler


class FlakyWeb:
    """A web client that fails every other fetch."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def fetch(self, url):
        self.calls += 1
        if self.calls % 2 == 0:
            return None
        return self.inner.fetch(url)


class GarbageWeb:
    """A web client that serves undated or malformed pages."""

    def __init__(self, pages):
        self.pages = pages
        self.calls = 0

    def fetch(self, url):
        self.calls += 1
        return self.pages.get(url)


def _counter(name):
    return perf.get_recorder().counters.get(name, 0)


def make_entry(urls):
    return CveEntry(
        cve_id="CVE-2013-0001",
        published=datetime.date(2013, 6, 1),
        descriptions=("d",),
        references=tuple(Reference(u) for u in urls),
    )


class TestFlakyFetches:
    def test_estimation_degrades_gracefully(self, web):
        flaky = FlakyWeb(web)
        entry = make_entry(["https://www.securityfocus.com/x"])
        estimate = estimate_disclosure(entry, ReferenceCrawler(flaky))
        # No crash; falls back to the publication date when unlucky.
        assert estimate.estimated_disclosure <= entry.published

    def test_counters_track_failures(self, web):
        crawler = ReferenceCrawler(FlakyWeb(web))
        for _ in range(4):
            crawler.scrape_url("https://www.securityfocus.com/missing")
        assert crawler.counters["fetch_failed"] >= 1

    def test_fetch_failed_cache_entries_are_revalidated(self, tmp_path):
        url = "https://www.securityfocus.com/bid/4"
        cache = CrawlCache(tmp_path / "cache.json")
        broken = ReferenceCrawler(GarbageWeb({}), cache=cache)
        assert broken.scrape_url(url) is None
        assert cache.get(url) == ("fetch_failed", None)

        healed = ReferenceCrawler(
            GarbageWeb({url: "<html>Published: 2013-06-03</html>"}), cache=cache
        )
        assert healed.scrape_url(url) == datetime.date(2013, 6, 3)
        assert healed.counters["cache_revalidate"] == 1
        assert cache.get(url) != ("fetch_failed", None)

    def test_estimate_all_records_one_attempt_per_failed_fetch(self, tmp_path):
        from repro.core.dates import estimate_all
        from repro.nvd import NvdSnapshot

        url = "https://www.securityfocus.com/bid/5"
        cache = CrawlCache(tmp_path / "cache.json")
        client = GarbageWeb({})
        estimate_all(NvdSnapshot([make_entry([url])]), client, cache=cache)
        assert client.calls == 1
        assert cache.get(url) == ("fetch_failed", None)


class TestGarbagePages:
    @pytest.mark.parametrize(
        "page",
        [
            "",
            "<html><body>no dates at all</body></html>",
            "<html>Published: not-a-date</html>",
            "Published: 99/99/9999",
            "\x00\x01 binary garbage \xff",
            "<html>" + "a" * 100_000 + "</html>",
        ],
    )
    def test_undated_pages_yield_nothing(self, page):
        client = GarbageWeb({"https://www.securityfocus.com/x": page})
        crawler = ReferenceCrawler(client)
        assert crawler.scrape_url("https://www.securityfocus.com/x") is None

    def test_estimation_ignores_garbage_references(self):
        client = GarbageWeb(
            {"https://www.securityfocus.com/x": "<html>Published: garbage</html>"}
        )
        entry = make_entry(["https://www.securityfocus.com/x"])
        estimate = estimate_disclosure(entry, ReferenceCrawler(client))
        assert estimate.estimated_disclosure == entry.published
        assert estimate.n_reference_dates == 0


class TestMalformedFeeds:
    def test_wrong_type_rejected(self):
        with pytest.raises(ValueError):
            entries_from_feed({"CVE_data_type": "NOT-CVE"})

    def test_missing_items_treated_as_empty(self):
        assert entries_from_feed({"CVE_data_type": "CVE"}) == []

    def test_malformed_item_is_skipped_and_counted(self):
        feed = {"CVE_data_type": "CVE", "CVE_Items": [{"not": "an item"}]}
        before = _counter("feed.malformed_item")
        assert entries_from_feed(feed) == []
        assert _counter("feed.malformed_item") - before == 1

    @pytest.mark.parametrize(
        "field,garble",
        [
            ("publishedDate", "2019-13-45T00:00Z"),
            ("publishedDate", None),
            ("lastModifiedDate", "yesterday"),
            ("ID", "CVE-19-1"),
            ("ID", None),
        ],
    )
    def test_item_with_bad_id_or_date_is_skipped(self, field, garble):
        """One unreadable ID or date costs that item, not the feed."""
        from repro.nvd import entries_to_feed

        good = CveEntry(
            cve_id="CVE-2013-0004",
            published=datetime.date(2013, 1, 1),
            descriptions=("kept",),
        )
        bad = good.replace(cve_id="CVE-2013-0005", modified=datetime.date(2013, 2, 1))
        feed = entries_to_feed([bad, good])
        item = feed["CVE_Items"][0]
        if field == "ID":
            item["cve"]["CVE_data_meta"]["ID"] = garble
        else:
            item[field] = garble
        before = _counter("feed.malformed_item")
        assert entries_from_feed(feed) == [good]
        assert _counter("feed.malformed_item") - before == 1

    @pytest.mark.parametrize(
        "garble", ["cpe:2.3:x:acme", "cpe:2.3:a::x:*:*:*:*:*:*:*:*", "cpe:/q:acme", 7]
    )
    def test_malformed_cpe_is_dropped_and_counted(self, garble):
        """A bad CPE name costs that applicability entry, not the item."""
        from repro.cpe import CpeName
        from repro.nvd import entries_to_feed

        keep = CpeName("a", "acme", "widget")
        entry = CveEntry(
            cve_id="CVE-2013-0006",
            published=datetime.date(2013, 1, 1),
            descriptions=("d",),
            cpes=(keep, CpeName("a", "acme", "gadget")),
        )
        feed = entries_to_feed([entry])
        feed["CVE_Items"][0]["configurations"]["nodes"][0]["cpe_match"][1][
            "cpe23Uri"
        ] = garble
        before = _counter("feed.malformed_cpe")
        assert entries_from_feed(feed) == [entry.replace(cpes=(keep,))]
        assert _counter("feed.malformed_cpe") - before == 1

    def test_repeated_malformed_vector_counts_every_item(self):
        """A bad vector seen twice is counted twice: the memoized parser
        caches results, never the exception."""
        from repro.nvd import entries_to_feed

        entries = [
            CveEntry(
                cve_id=f"CVE-2013-000{n}",
                published=datetime.date(2013, 1, 1),
                descriptions=("d",),
                cvss_v2=CvssV2Metrics("N", "L", "N", "P", "P", "P"),
            )
            for n in (7, 8)
        ]
        feed = entries_to_feed(entries)
        for item in feed["CVE_Items"]:
            item["impact"]["baseMetricV2"]["cvssV2"]["vectorString"] = "AV:N/AC:L"
        before = _counter("feed.malformed_cvss")
        parsed = entries_from_feed(feed)
        assert [e.cvss_v2 for e in parsed] == [None, None]
        assert _counter("feed.malformed_cvss") - before == 2

    def test_json_round_trip_preserves_unicode(self):
        entry = CveEntry(
            cve_id="CVE-2013-0002",
            published=datetime.date(2013, 1, 1),
            descriptions=("説明 — ユニコード",),
        )
        from repro.nvd import entries_to_feed

        feed = json.loads(json.dumps(entries_to_feed([entry]), ensure_ascii=False))
        assert entries_from_feed(feed)[0].descriptions[0] == "説明 — ユニコード"

    @pytest.mark.parametrize("garble", ["AV:N/AC:L", "not a vector", "", None])
    def test_malformed_cvss_vector_degrades_to_no_cvss(self, garble):
        """A bad ``vectorString`` costs that field, not the whole parse."""
        entry = CveEntry(
            cve_id="CVE-2013-0003",
            published=datetime.date(2013, 1, 1),
            descriptions=("d",),
        )
        from repro.cvss import parse_v2_vector
        from repro.nvd import entries_to_feed

        metrics = parse_v2_vector("AV:N/AC:L/Au:N/C:P/I:P/A:P")
        feed = entries_to_feed([entry.replace(cvss_v2=metrics)])
        feed["CVE_Items"][0]["impact"]["baseMetricV2"]["cvssV2"][
            "vectorString"
        ] = garble
        parsed = entries_from_feed(feed)
        assert len(parsed) == 1
        assert parsed[0].cvss_v2 is None


class TestTornCacheWrites:
    def test_torn_save_is_retryable_and_never_half_loaded(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = CrawlCache(path)
        cache.put(
            "https://example.org/a", "date_extracted", datetime.date(2013, 1, 2)
        )
        cache.save()
        document = path.read_text(encoding="utf-8")
        path.write_text(document[: len(document) // 2], encoding="utf-8")

        torn = CrawlCache(path)
        assert len(torn) == 0  # a torn file loads as an empty cache
        torn.put("https://example.org/b", "no_date_found", None)
        assert torn.save() == path
        assert CrawlCache(path).get("https://example.org/b") == (
            "no_date_found",
            None,
        )

    def test_failed_save_keeps_results_and_the_old_file(
        self, tmp_path, monkeypatch
    ):
        from repro.core.dates import estimate_all
        from repro.nvd import NvdSnapshot

        path = tmp_path / "cache.json"
        old = CrawlCache(path)
        old.put("https://example.org/old", "no_date_found", None)
        old.save()
        before = path.read_bytes()

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("repro.web.cache.os.replace", failing_replace)
        url = "https://www.securityfocus.com/bid/6"
        client = GarbageWeb({url: "<html>Published: 2013-05-04</html>"})
        recorder = perf.get_recorder()
        failed_before = recorder.counters.get("dates.cache_save_failed", 0)
        estimates = estimate_all(
            NvdSnapshot([make_entry([url])]), client, cache=CrawlCache(path)
        )
        assert estimates["CVE-2013-0001"].estimated_disclosure == (
            datetime.date(2013, 5, 4)
        )
        failed = recorder.counters.get("dates.cache_save_failed", 0)
        assert failed - failed_before == 1
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.json"]


# ---------------------------------------------------------------------------
# Artifact store: torn publishes and the recovery sweep.
# ---------------------------------------------------------------------------


def _copy_store(artifact_root, tmp_path):
    root = tmp_path / "store"
    shutil.copytree(artifact_root, root)
    return root


def _clone_version(root, source, target):
    """A valid copy of ``source`` under ``target`` (manifest re-stamped)."""
    shutil.copytree(root / source, root / target)
    manifest_path = root / target / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest["version"] = target
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")


class TestTornArtifactWrites:
    def test_torn_export_self_heals_and_leaves_quarantinable_debris(
        self, artifact_root, tmp_path, small_rectified
    ):
        from repro.artifacts import (
            list_versions,
            load_artifacts,
            read_current,
            recover_store,
        )

        root = _copy_store(artifact_root, tmp_path)
        _clone_version(root, "v0001", "v0002")
        # a writer that crashed mid-publish, one data file short
        (root / "v0002" / "records.json.gz").unlink()
        version = small_rectified.export_artifacts(root)
        # the torn directory holds v0002; the export claimed v0003
        assert version == "v0003"
        assert read_current(root) == "v0003"
        assert not (root / "v0002" / "records.json.gz").exists()
        assert load_artifacts(root).version == "v0003"

        report = recover_store(root)
        assert report.quarantined == ("v0002",)
        assert (root / ".quarantine" / "v0002").is_dir()
        assert list_versions(root) == ["v0001", "v0003"]
        assert read_current(root) == "v0003"


def _version_data(root):
    """Every data file of the ``CURRENT`` version, with container noise
    (gzip mtimes, npz zip dates) stripped.  ``manifest.json`` is left
    out: it names the version number and its parent."""
    from repro.artifacts import read_current

    version_dir = root / read_current(root)
    data = {}
    for path in sorted(version_dir.rglob("*")):
        if not path.is_file() or path.name == "manifest.json":
            continue
        name = str(path.relative_to(version_dir))
        if path.name.endswith(".gz"):
            with gzip.open(path, "rb") as handle:
                data[name] = handle.read()
        elif path.suffix == ".npz":
            with np.load(path) as archive:
                data[name] = {key: archive[key].tobytes() for key in archive.files}
        else:
            data[name] = path.read_bytes()
    return data


class TestCrashConsistency:
    def test_crashed_writer_debris_leaves_the_final_version_identical(
        self, artifact_root, tmp_path, small_rectified
    ):
        """Export then ingest over a crashed writer's leftovers: the
        final ``CURRENT`` data equals a run over an untouched store."""
        import importlib.util
        import pathlib

        from repro.artifacts import ingest_delta, list_versions, load_artifacts

        tool = pathlib.Path(__file__).parent.parent / "tools" / "make_delta_feed.py"
        spec = importlib.util.spec_from_file_location("make_delta_feed", tool)
        make_delta_feed = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(make_delta_feed)
        base = load_artifacts(artifact_root).snapshot.entries
        delta = make_delta_feed.build_delta(base, 20, 10, seed=7)

        clean_root = _copy_store(artifact_root, tmp_path / "clean")
        crashed_root = _copy_store(artifact_root, tmp_path / "crashed")
        shutil.copytree(crashed_root / "v0001", crashed_root / ".stage-dead.tmp")
        _clone_version(crashed_root, "v0001", "v0002")
        (crashed_root / "v0002" / "snapshot.json.gz").unlink()

        for root in (clean_root, crashed_root):
            small_rectified.export_artifacts(root)
            ingest_delta(root, delta)

        assert list_versions(clean_root) == ["v0001", "v0002", "v0003"]
        # ingest's entry sweep removed the debris before loading its parent
        assert list_versions(crashed_root) == ["v0001", "v0003", "v0004"]
        assert not (crashed_root / ".stage-dead.tmp").exists()
        assert (crashed_root / ".quarantine" / "v0002").is_dir()
        assert _version_data(crashed_root) == _version_data(clean_root)


class TestRecoverySweep:
    def test_sweep_quarantines_repairs_and_is_idempotent(
        self, artifact_root, tmp_path
    ):
        from repro.artifacts import read_current, recover_store

        root = _copy_store(artifact_root, tmp_path)
        (root / ".stage-dead.tmp").mkdir()
        _clone_version(root, "v0001", "v0002")
        (root / "v0002" / "snapshot.json.gz").unlink()  # torn mid-publish
        (root / "CURRENT").write_text("v0002\n", encoding="utf-8")  # dangling

        report = recover_store(root)
        assert report.acted
        assert report.staging_removed == (".stage-dead.tmp",)
        assert report.quarantined == ("v0002",)
        assert report.current_before == "v0002"
        assert report.current_after == "v0001"
        assert read_current(root) == "v0001"
        assert "repaired CURRENT" in report.summary()

        again = recover_store(root)
        assert not again.acted
        assert again.valid_versions == ("v0001",)

    def test_sweep_gc_keeps_newest_and_current(self, artifact_root, tmp_path):
        from repro.artifacts import list_versions, read_current, recover_store

        root = _copy_store(artifact_root, tmp_path)
        _clone_version(root, "v0001", "v0002")
        _clone_version(root, "v0001", "v0003")
        (root / "CURRENT").write_text("v0002\n", encoding="utf-8")

        report = recover_store(root, keep=1)
        # newest (v0003) and the CURRENT target (v0002) both survive
        assert report.gc_removed == ("v0001",)
        assert list_versions(root) == ["v0002", "v0003"]
        assert read_current(root) == "v0002"

    def test_sweep_on_missing_store_is_a_noop(self, tmp_path):
        from repro.artifacts import recover_store

        report = recover_store(tmp_path / "nothing-here")
        assert not report.acted
        assert report.valid_versions == ()


def _ingest_new_cves(root, count):
    """``count`` ingests of one new CVE each: segments on the base."""
    from repro.artifacts import ingest_delta, load_artifacts

    entries = load_artifacts(root).snapshot.entries
    for n in range(count):
        ingest_delta(root, [entries[n].replace(cve_id=f"CVE-2018-9910{n}")])


class TestChainedStoreRecovery:
    def test_gc_never_collects_a_kept_versions_chain(
        self, artifact_root, tmp_path, small_rectified
    ):
        from repro.artifacts import list_versions, load_artifacts, recover_store

        root = _copy_store(artifact_root, tmp_path)
        _ingest_new_cves(root, 2)  # v0002, v0003: segments on v0001

        report = recover_store(root, keep=1)
        assert report.gc_removed == ()  # v0003 reads v0001 and v0002
        assert list_versions(root) == ["v0001", "v0002", "v0003"]
        assert "CVE-2018-99101" in load_artifacts(root).snapshot

        small_rectified.export_artifacts(root)  # v0004: a fresh base
        report = recover_store(root, keep=1, verify_hashes=True)
        assert report.gc_removed == ("v0001", "v0002", "v0003")
        assert load_artifacts(root).version == "v0004"

    def test_torn_base_quarantines_the_segments_on_it(
        self, artifact_root, tmp_path, small_rectified
    ):
        from repro.artifacts import list_versions, load_artifacts, recover_store

        root = _copy_store(artifact_root, tmp_path)
        small_rectified.export_artifacts(root)  # v0002: a base
        _ingest_new_cves(root, 2)  # v0003, v0004: segments on v0002
        (root / "v0002" / "snapshot.json.gz").unlink()  # torn

        report = recover_store(root)
        assert report.quarantined == ("v0002", "v0003", "v0004")
        assert report.current_after == "v0001"
        assert list_versions(root) == ["v0001"]
        assert load_artifacts(root).version == "v0001"

    def test_corrupt_base_quarantines_the_segments_on_it(
        self, artifact_root, tmp_path, small_rectified
    ):
        from repro.artifacts import recover_store

        root = _copy_store(artifact_root, tmp_path)
        small_rectified.export_artifacts(root)
        _ingest_new_cves(root, 1)  # v0003: a segment on v0002
        model = next((root / "v0002" / "models").glob("*.npz"))
        data = bytearray(model.read_bytes())
        data[len(data) // 2] ^= 0xFF
        model.write_bytes(bytes(data))

        assert not recover_store(root).quarantined  # files are all present
        report = recover_store(root, verify_hashes=True)
        assert report.quarantined == ("v0002", "v0003")
        assert report.current_after == "v0001"


# ---------------------------------------------------------------------------
# Serving: reload circuit breaker and supervised workers.
# ---------------------------------------------------------------------------


class TestCircuitBreaker:
    @pytest.fixture(autouse=True)
    def _short_cooldown(self, monkeypatch):
        monkeypatch.setattr("repro.service.http.BREAKER_COOLDOWN_S", 0.05)

    def _service(self, root):
        from repro.service import NvdService

        return NvdService(root, reload_interval=0.0)

    def test_breaker_opens_after_consecutive_failures_and_pins_version(
        self, artifact_root, tmp_path
    ):
        service = self._service(_copy_store(artifact_root, tmp_path))
        service.root.joinpath("CURRENT").write_text("v9999\n", encoding="utf-8")
        for _ in range(3):
            assert service.maybe_reload() is False
        assert service.breaker_open
        assert service.degraded
        assert service.state.version == "v0001"  # last good version pinned
        payload = service.metrics_payload()
        assert payload["counters"]["reload_failures"] == 3
        assert payload["breaker"]["open"] is True
        assert payload["degraded"] is True
        response = service.handle("GET", "/healthz", None)
        assert response.status == 200
        assert json.loads(response.body)["status"] == "degraded"
        # while open, reloads are not even attempted
        service.maybe_reload()
        assert service.metrics_payload()["counters"]["reload_failures"] == 3

    def test_breaker_closes_after_cooldown_and_a_good_reload(
        self, artifact_root, tmp_path
    ):
        import time as _time

        root = _copy_store(artifact_root, tmp_path)
        service = self._service(root)
        (root / "CURRENT").write_text("v9999\n", encoding="utf-8")
        for _ in range(3):
            service.maybe_reload()
        assert service.breaker_open
        _clone_version(root, "v0001", "v0002")
        (root / "CURRENT").write_text("v0002\n", encoding="utf-8")
        _time.sleep(0.06)  # past the cooldown: half-open probe allowed
        assert service.maybe_reload() is True
        assert service.state.version == "v0002"
        assert not service.breaker_open
        assert not service.degraded
        assert service.metrics_payload()["breaker"]["consecutive_failures"] == 0

    def test_injected_reload_fault_counts_then_recovers(
        self, artifact_root, tmp_path, monkeypatch
    ):
        from repro.artifacts import ArtifactError
        from repro.service.state import ServiceState

        root = _copy_store(artifact_root, tmp_path)
        service = self._service(root)
        _clone_version(root, "v0001", "v0002")
        (root / "CURRENT").write_text("v0002\n", encoding="utf-8")
        load = ServiceState.load
        calls = []

        def load_failing_once(root, version=None):
            calls.append(version)
            if len(calls) == 1:
                raise ArtifactError("store changed under the reader")
            return load(root, version)

        monkeypatch.setattr(ServiceState, "load", staticmethod(load_failing_once))
        assert service.maybe_reload() is False  # the failed load
        assert service.metrics_payload()["counters"]["reload_failures"] == 1
        assert service.maybe_reload() is True  # the retry swaps
        assert service.state.version == "v0002"
        assert calls == ["v0002", "v0002"]

    def test_degraded_follows_supervisor_status_file(
        self, artifact_root, tmp_path
    ):
        root = _copy_store(artifact_root, tmp_path)
        service = self._service(root)
        assert not service.degraded
        (root / ".supervisor.json").write_text(
            json.dumps({"degraded": True, "abandoned_workers": [1]}),
            encoding="utf-8",
        )
        assert service.degraded
        assert service.metrics_payload()["supervisor"]["degraded"] is True


# ---------------------------------------------------------------------------
# Adversarial synthetic inputs.
# ---------------------------------------------------------------------------


class TestAdversarialInputs:
    @pytest.fixture(scope="class")
    def adversarial_bundle(self):
        from repro.synth import GeneratorConfig, generate

        return generate(GeneratorConfig(n_cves=240, seed=11, adversarial_rate=0.08))

    def test_scenarios_are_recorded_and_present(self, adversarial_bundle):
        truth = adversarial_bundle.truth
        assert set(truth.adversarial_cves) == {
            "empty_description", "colliding_alias", "missing_cvss",
        }
        snapshot = adversarial_bundle.snapshot
        for cve_id in truth.adversarial_cves["empty_description"]:
            assert snapshot.get(cve_id).descriptions == ()
        for cve_id in truth.adversarial_cves["missing_cvss"]:
            entry = snapshot.get(cve_id)
            assert entry.cvss_v2 is None and entry.cvss_v3 is None
        colliding = {
            snapshot.get(cve_id).cpes[0].vendor
            for cve_id in truth.adversarial_cves["colliding_alias"]
        }
        assert len(colliding) == 1  # one alias shared across vendors

    def test_default_rate_leaves_generation_untouched(self):
        from repro.synth import GeneratorConfig, generate

        plain = generate(GeneratorConfig(n_cves=240, seed=11))
        explicit = generate(GeneratorConfig(n_cves=240, seed=11, adversarial_rate=0.0))
        assert plain.snapshot.entries == explicit.snapshot.entries
        assert plain.truth.adversarial_cves == {}

    def test_clean_survives_an_adversarial_snapshot(self, adversarial_bundle):
        from repro.core import (
            EngineConfig,
            clean,
            from_ground_truth,
            product_oracle_from_truth,
        )

        rectified = clean(
            adversarial_bundle.snapshot,
            adversarial_bundle.web,
            from_ground_truth(adversarial_bundle.truth.vendor_map),
            product_oracle_from_truth(adversarial_bundle.truth.product_map),
            engine_config=EngineConfig(models=("lr",), epochs=2),
        )
        assert rectified.report.n_cves == 240

    def test_ingest_survives_adversarial_delta(
        self, artifact_root, tmp_path, adversarial_bundle
    ):
        from repro.artifacts import ingest_delta, load_artifacts

        root = _copy_store(artifact_root, tmp_path)
        truth = adversarial_bundle.truth
        hostile_ids = set().union(*truth.adversarial_cves.values())
        delta = [
            entry
            for entry in adversarial_bundle.snapshot.entries
            if entry.cve_id in hostile_ids
        ]
        result = ingest_delta(root, delta)
        assert result.n_delta == len(delta)
        assert load_artifacts(root).version == result.version

    def test_corrupt_feed_parses_leniently(self, adversarial_bundle):
        from repro.nvd import entries_to_feed
        from repro.synth import corrupt_feed

        entries = list(adversarial_bundle.snapshot.entries)
        feed = entries_to_feed(entries)
        before = perf.get_recorder().counters.get("feed.malformed_cvss", 0)
        corrupted = corrupt_feed(feed, rate=0.3, seed=1)
        assert feed == entries_to_feed(entries)  # input untouched
        parsed = entries_from_feed(corrupted)
        assert len(parsed) == len(entries)
        dropped = perf.get_recorder().counters.get("feed.malformed_cvss", 0) - before
        assert dropped > 0
        assert sum(1 for e in parsed if e.cvss_v2 is None) >= dropped / 2
