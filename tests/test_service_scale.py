"""Serve scale-out: repeatable bodies, hot-swap freshness, cursors,
concurrent predict.

Covers byte-identical answers to repeated GETs, two workers' freshness
across a hot swap (and a pointer that will not decode), opaque cursor
pagination (round-trip, tamper, version expiry), predict under
concurrency (bit-identity against the single-request reference), and
the supervisor status-file staleness regression.
"""

import json
import os
import shutil
import threading
import urllib.parse

import pytest

from repro.artifacts import ingest_delta, load_artifacts
from repro.service import NvdService
from repro.service.cursor import CursorError, decode_cursor, encode_cursor


PREDICT_VECTOR = "AV:N/AC:L/Au:N/C:C/I:C/A:C"


def body_bytes(i: int = 0) -> bytes:
    return json.dumps(
        {
            "cvss_v2": PREDICT_VECTOR,
            "description": f"heap overflow variant {i}, CWE-122.",
        }
    ).encode()


@pytest.fixture(scope="module")
def store(artifact_root, tmp_path_factory):
    """A private store copy — the coherence test ingests into it."""
    root = tmp_path_factory.mktemp("scale") / "store"
    shutil.copytree(artifact_root, root)
    return root


class TestRepeatedGets:
    """Every GET route renders its body afresh on each request; a
    repeated request must still get the same bytes."""

    def test_each_get_route_repeats_byte_identically(self, service):
        snapshot = service.state.snapshot
        entry = next(e for e in snapshot.entries if e.vendor_products())
        vendor, product = (
            urllib.parse.quote(name, safe="") for name in entry.vendor_products()[0]
        )
        counts = snapshot.vendor_cve_counts()
        top = urllib.parse.quote(max(counts, key=counts.get), safe="")
        first = json.loads(
            service.handle("GET", f"/v1/vendor/{top}?limit=1", None).body
        )
        assert first["next_cursor"], "bundle too small for a second page"
        for path in (
            "/v1/stats",
            f"/v1/cve/{entry.cve_id}",
            f"/v1/vendor/{vendor}",
            f"/v1/product/{vendor}/{product}",
            f"/v1/vendor/{top}?limit=1&cursor={first['next_cursor']}",
        ):
            once = service.handle("GET", path, None)
            again = service.handle("GET", path, None)
            assert once.status == again.status == 200, path
            assert once.body == again.body, path


class TestCursorTokens:
    def test_round_trip(self):
        token = encode_cursor("v0001", 42)
        assert decode_cursor(token) == ("v0001", 42)

    def test_opaque_urlsafe(self):
        token = encode_cursor("v0001", 7)
        assert "=" not in token and ":" not in token

    def test_tampered_token_fails_integrity(self):
        token = encode_cursor("v0001", 42)
        mangled = token[:-2] + ("AA" if not token.endswith("AA") else "BB")
        with pytest.raises(CursorError):
            decode_cursor(mangled)

    def test_garbage_rejected(self):
        for bad in ("", "not-base64!!", "aGVsbG8", encode_cursor("v1", 0)[:4]):
            with pytest.raises(CursorError):
                decode_cursor(bad)

    def test_negative_position_unencodable(self):
        with pytest.raises(ValueError):
            encode_cursor("v0001", -1)

    def test_cross_process_stability(self):
        # the digest must not depend on process-local salt: the exact
        # token decodes anywhere (different workers mint/verify).
        token = encode_cursor("v0002", 9)
        assert token == encode_cursor("v0002", 9)
        assert decode_cursor(token) == ("v0002", 9)


class TestCursorPagination:
    @pytest.fixture(scope="class")
    def top_vendor(self, service):
        snapshot = service.state.snapshot
        vendor, count = max(
            snapshot.vendor_cve_counts().items(),
            key=lambda item: (item[1], item[0]),
        )
        assert count >= 3, "bundle too small for pagination tests"
        return vendor, count

    def get(self, service, path):
        response = service.handle("GET", path, None)
        return response.status, json.loads(response.body)

    def test_cursor_walk_matches_offset_walk(self, service, top_vendor):
        vendor, _ = top_vendor
        full = self.get(service, f"/v1/vendor/{vendor}")[1]["cve_ids"]
        seen, cursor = [], None
        for _ in range(len(full) + 1):
            path = f"/v1/vendor/{vendor}?limit=2"
            if cursor:
                path += f"&cursor={cursor}"
            status, page = self.get(service, path)
            assert status == 200
            seen.extend(page["cve_ids"])
            cursor = page["next_cursor"]
            if cursor is None:
                assert page["next_offset"] is None
                break
        assert seen == full

    def test_cursor_resolves_on_a_sibling_worker(
        self, artifact_root, service, top_vendor
    ):
        # next page routinely lands on a different SO_REUSEPORT worker;
        # a token minted by one service must decode in another.
        vendor, _ = top_vendor
        _, first = self.get(service, f"/v1/vendor/{vendor}?limit=1")
        sibling = NvdService(artifact_root, reload_interval=0.0)
        try:
            status, second = self.get(
                sibling,
                f"/v1/vendor/{vendor}?limit=1&cursor={first['next_cursor']}",
            )
            assert status == 200
            assert second["offset"] == 1
        finally:
            sibling.close()

    def test_tampered_cursor_400(self, service, top_vendor):
        vendor, _ = top_vendor
        status, payload = self.get(
            service, f"/v1/vendor/{vendor}?cursor=tampered-token"
        )
        assert status == 400
        assert "cursor" in payload["error"]

    def test_cursor_and_offset_conflict_400(self, service, top_vendor):
        vendor, _ = top_vendor
        token = encode_cursor(service.state.version, 1)
        status, payload = self.get(
            service, f"/v1/vendor/{vendor}?cursor={token}&offset=2"
        )
        assert status == 400
        assert "mutually exclusive" in payload["error"]

    def test_swapped_version_cursor_400_names_both_versions(
        self, service, top_vendor
    ):
        vendor, _ = top_vendor
        stale = encode_cursor("v9999", 0)
        status, payload = self.get(
            service, f"/v1/vendor/{vendor}?cursor={stale}"
        )
        assert status == 400
        assert "v9999" in payload["error"]
        assert service.state.version in payload["error"]
        assert "restart pagination" in payload["error"]

    def test_product_route_pages_by_cursor_too(self, service):
        snapshot = service.state.snapshot
        pairs = {}
        for entry in snapshot.entries:
            for pair in entry.vendor_products():
                pairs[pair] = pairs.get(pair, 0) + 1
        (vendor, product), count = max(
            pairs.items(), key=lambda item: (item[1], item[0])
        )
        if count < 3:
            pytest.skip("bundle too small for product cursor walk")
        status, first = self.get(
            service, f"/v1/product/{vendor}/{product}?limit=2"
        )
        assert status == 200 and first["next_cursor"]
        status, second = self.get(
            service,
            f"/v1/product/{vendor}/{product}?limit=2"
            f"&cursor={first['next_cursor']}",
        )
        assert status == 200
        assert second["offset"] == 2
        assert second["cve_ids"][: len(first["cve_ids"])] != first["cve_ids"]


class TestBatchedPredict:
    """Concurrent predicts answer the bytes a lone request gets."""

    def test_concurrent_burst_matches_single_request_bytes(self, service):
        references = [
            service.handle("POST", "/v1/severity/predict", body_bytes(i)).body
            for i in range(16)
        ]
        results: list = [None] * 16

        def hit(i: int) -> None:
            results[i] = service.handle(
                "POST", "/v1/severity/predict", body_bytes(i)
            )

        threads = [
            threading.Thread(target=hit, args=(i,)) for i in range(16)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(r.status == 200 for r in results)
        assert [r.body for r in results] == references


class TestHotSwapFreshness:
    def test_two_workers_serve_fresh_stats_after_hot_swap(self, store):
        """Two workers over one store: after an ingest both answer from
        the new version, and neither serves the old version's stats."""
        workers = [NvdService(store, reload_interval=0.0) for _ in range(2)]

        def get(service, path):
            return json.loads(service.handle("GET", path, None).body)

        try:
            v1 = workers[0].state.version
            for service in workers:
                stats_v1 = get(service, "/v1/stats")
            base = load_artifacts(store).snapshot.entries[0]
            result = ingest_delta(
                store, [base.replace(cve_id="CVE-2018-99888", cvss_v3=None)]
            )
            assert result.version != v1
            for service in workers:
                assert get(service, "/healthz")["version"] == result.version
                # the new version's stats must be fresh — n_cves moved
                assert get(service, "/v1/stats")["n_cves"] == stats_v1["n_cves"] + 1
        finally:
            for service in workers:
                service.close()

    def test_undecodable_pointer_keeps_the_loaded_version(self, tmp_path, store):
        """A ``CURRENT`` that is not UTF-8 reads as no pointer: the
        worker keeps answering from the version it has loaded."""
        root = tmp_path / "store"
        shutil.copytree(store, root)
        service = NvdService(root, reload_interval=0.0)
        try:
            loaded = service.state.version
            (root / "CURRENT").write_bytes(b"\xff\xfe\n")
            response = service.handle("GET", "/healthz", None)
            assert response.status == 200
            assert json.loads(response.body)["version"] == loaded
            assert service.handle("GET", "/v1/stats", None).status == 200
        finally:
            service.close()


class TestSupervisorStatusCache:
    def test_same_mtime_rewrite_is_not_served_stale(self, tmp_path, store):
        """Regression: a status cache keyed on the file's mtime and size
        kept serving the old payload after a same-size rewrite within
        one timestamp granule.  The file is read afresh on every call."""
        root = tmp_path / "store"
        shutil.copytree(store, root)
        service = NvdService(root, reload_interval=0.0)
        try:
            status_path = root / ".supervisor.json"
            status_path.write_text(
                json.dumps({"alive": 2, "degraded": False}), encoding="utf-8"
            )
            first = service.supervisor_status()
            assert first == {"alive": 2, "degraded": False}
            assert not service.degraded
            stat = status_path.stat()
            # rewrite with the same size, then force the exact same
            # mtime back — the coarse-timestamp collision
            rewrite = json.dumps({"alive": 1, "degraded": True}) + " "
            assert len(rewrite) == stat.st_size
            status_path.write_text(rewrite, encoding="utf-8")
            os.utime(status_path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
            assert status_path.stat().st_size == stat.st_size
            second = service.supervisor_status()
            assert second == {"alive": 1, "degraded": True}
            assert service.degraded
        finally:
            service.close()
