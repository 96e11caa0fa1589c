"""Serve scale-out: response cache, cursors, concurrent predict.

Covers the per-worker response LRU (and its coherence across a hot
swap), opaque cursor pagination (round-trip, tamper, version expiry),
predict under concurrency (bit-identity against the single-request
reference), and the supervisor status-file staleness regression.
"""

import json
import os
import shutil
import threading

import pytest

from repro.artifacts import ingest_delta, load_artifacts
from repro.service import NvdService, ServiceError
from repro.service.cursor import CursorError, decode_cursor, encode_cursor
from repro.service.http import ResponseCache


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


class TestResponseCache:
    def test_put_get_roundtrip(self):
        cache = ResponseCache(4)
        cache.put("k1", (200, b'{"a":1}'))
        assert cache.get("k1") == (200, b'{"a":1}')

    def test_absent_key_misses(self):
        cache = ResponseCache(4)
        cache.put("k1", (200, b'{"a":1}'))
        assert cache.get("never-stored") is None

    def test_len_counts_entries(self):
        cache = ResponseCache(4)
        assert len(cache) == 0
        cache.put("a", (200, b"1"))
        cache.put("b", (200, b"2"))
        cache.put("a", (200, b"3"))  # overwrite, not a new entry
        assert len(cache) == 2

    def test_evicts_least_recently_used(self):
        cache = ResponseCache(2)
        cache.put("a", (200, b"1"))
        cache.put("b", (200, b"2"))
        cache.get("a")  # touch: "b" is now the oldest
        cache.put("c", (200, b"3"))
        assert len(cache) == 2
        assert cache.get("b") is None
        assert cache.get("a") == (200, b"1")

    def test_clear_and_zero_size(self):
        cache = ResponseCache(4)
        cache.put("k", (200, b"payload"))
        cache.clear()
        assert cache.get("k") is None and len(cache) == 0
        disabled = ResponseCache(0)
        disabled.put("k", (200, b"payload"))
        assert disabled.get("k") is None


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
    def test_batched_payloads_bit_identical_to_single(self, service):
        bodies = [json.loads(body_bytes(i)) for i in range(8)]
        singles = [service.state.predict_payload(body) for body in bodies]
        batched = service.state.predict_payloads(bodies)
        assert batched == singles  # full payload equality, rounded scores included

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

    def test_bad_row_does_not_poison_batch(self, service):
        good = json.loads(body_bytes(0))
        results = service.state.predict_payloads(
            [good, {"cvss_v2": "AV:Q/nonsense"}, good]
        )
        assert isinstance(results[1], ServiceError)
        assert results[1].status == 400
        assert results[0] == results[2]
        assert results[0] == service.state.predict_payload(good)


class TestCacheCoherence:
    def test_no_stale_version_response_across_hot_swap(self, store):
        """Two workers over one store each keep a private cache; an
        ingest-driven hot swap must clear both, and no request may ever
        observe the old version's data under the new version."""
        workers = [NvdService(store, reload_interval=0.0) for _ in range(2)]

        def get(service, path):
            return json.loads(service.handle("GET", path, None).body)

        def hits(service):
            return service.metrics_payload()["cache"]["hits"]

        try:
            v1 = workers[0].state.version
            for service in workers * 2:  # a miss, then a hit, on each
                stats_v1 = get(service, "/v1/stats")
            assert all(hits(w) >= 1 for w in workers)
            base = load_artifacts(store).snapshot.entries[0]
            result = ingest_delta(
                store, [base.replace(cve_id="CVE-2018-99888", cvss_v3=None)]
            )
            assert result.version != v1
            for service in workers:
                assert get(service, "/healthz")["version"] == result.version
                # the new version's stats must be fresh — n_cves moved
                assert get(service, "/v1/stats")["n_cves"] == stats_v1["n_cves"] + 1
                # and the cache repopulates under the new version
                before = hits(service)
                get(service, "/v1/stats")
                assert hits(service) > before
        finally:
            for service in workers:
                service.close()


    def test_metrics_cache_block_counts_private_lru(self, store):
        """/v1/metrics reports the worker's own LRU: its entries, hits,
        misses and hit ratio, and names no cache backend."""
        service = NvdService(store, reload_interval=0.0)
        try:
            service.handle("GET", "/v1/stats", None)  # miss, then stored
            service.handle("GET", "/v1/stats", None)  # hit
            cache = service.metrics_payload()["cache"]
            assert cache == {
                "entries": 1, "hits": 1, "misses": 1, "hit_ratio": 0.5
            }
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
