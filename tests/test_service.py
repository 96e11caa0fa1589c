"""The HTTP query service: endpoints, caching, concurrency, hot swap."""

import concurrent.futures
import http.client
import io
import json
import re
import shutil
import socket
import statistics
import threading
import time
import types
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.artifacts import ingest_delta, load_artifacts
from repro.service import NvdService, ServiceState, create_server
from repro.service.routes import ROUTES
from repro.service.server import MAX_BODY_BYTES, ApiHandler


@pytest.fixture(scope="module")
def store(artifact_root, tmp_path_factory):
    """A private store copy — the hot-swap test ingests into it."""
    root = tmp_path_factory.mktemp("service") / "store"
    shutil.copytree(artifact_root, root)
    return root


@pytest.fixture(scope="module")
def server(store):
    """A live threaded server; reload_interval=0 checks CURRENT per request."""
    server = create_server(store, port=0, reload_interval=0.0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


@pytest.fixture(scope="module")
def base_url(server):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


def get(base_url, path):
    try:
        with urllib.request.urlopen(base_url + path, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def post(base_url, path, body):
    data = body if isinstance(body, bytes) else json.dumps(body).encode()
    request = urllib.request.Request(
        base_url + path,
        data=data,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestHealthAndStats:
    def test_healthz(self, base_url):
        status, payload = get(base_url, "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["version"] == "v0001"

    def test_stats_matches_cli_json_shape(self, base_url, store, capsys):
        from repro.cli import main

        status, payload = get(base_url, "/v1/stats")
        assert status == 200
        feed = store / "v0001" / "snapshot.json.gz"
        assert main(["stats", str(feed), "--json"]) == 0
        cli_payload = json.loads(capsys.readouterr().out)
        assert payload == cli_payload


class TestCveEndpoint:
    def test_known_cve_payload(self, base_url, small_rectified):
        entry = small_rectified.snapshot.entries[0]
        status, payload = get(base_url, f"/v1/cve/{entry.cve_id}")
        assert status == 200
        assert payload["cve_id"] == entry.cve_id
        assert payload["published"] == entry.published.isoformat()
        assert payload["cwe_ids"] == list(entry.cwe_ids)
        assert payload["estimated_disclosure"] <= payload["published"]
        if entry.cvss_v2 is not None:
            assert 0.0 <= payload["cvss_v2"]["base_score"] <= 10.0
            assert payload["predicted_v3_severity"] in (
                "NONE", "LOW", "MEDIUM", "HIGH", "CRITICAL",
            )
            assert payload["v3_backported"] == (entry.cvss_v3 is None)

    def test_state_holds_every_answer_once_loaded(
        self, artifact_root, tmp_path, small_rectified
    ):
        """A load decodes per-CVE data lazily; the served state reads it
        all at construction, so no request decodes files, and a GC of
        the version under a running server leaves its answers intact."""
        root = tmp_path / "store"
        shutil.copytree(artifact_root, root)
        state = ServiceState.load(root)
        shutil.rmtree(root / "v0001")
        entry = next(e for e in small_rectified.snapshot.entries if e.cvss_v2)
        payload = state.cve_payload(entry.cve_id)
        assert payload["estimated_disclosure"] <= payload["published"]
        assert payload["predicted_v3_score"] == small_rectified.pv3_scores[entry.cve_id]

    def test_unknown_cve_404(self, base_url):
        status, payload = get(base_url, "/v1/cve/CVE-1999-99999")
        assert status == 404
        assert "unknown CVE" in payload["error"]

    def test_unknown_route_404(self, base_url):
        assert get(base_url, "/v2/everything")[0] == 404
        assert get(base_url, "/v1/cve")[0] == 404


class TestNameEndpoints:
    def test_vendor_lookup(self, base_url, small_rectified):
        vendor = small_rectified.snapshot.vendors()[0]
        status, payload = get(
            base_url, f"/v1/vendor/{urllib.parse.quote(vendor)}"
        )
        assert status == 200
        assert payload["vendor"] == vendor
        assert payload["n_cves"] >= 1
        assert payload["cve_ids"]

    def test_vendor_alias_resolves_to_canonical(self, base_url, small_rectified):
        mapping = small_rectified.vendor_analysis.mapping
        if not mapping:
            pytest.skip("no vendor aliases in this bundle")
        alias, canonical = next(iter(mapping.items()))
        status, payload = get(base_url, f"/v1/vendor/{urllib.parse.quote(alias)}")
        assert status == 200
        assert payload["vendor"] == canonical
        assert payload["queried"] == alias
        assert alias in payload["aliases"]

    def test_unknown_vendor_404(self, base_url):
        assert get(base_url, "/v1/vendor/definitely_not_a_vendor")[0] == 404

    def test_product_lookup(self, base_url, small_rectified):
        entry = next(
            e for e in small_rectified.snapshot.entries if e.vendor_products()
        )
        vendor, product = entry.vendor_products()[0]
        path = (
            f"/v1/product/{urllib.parse.quote(vendor)}/"
            f"{urllib.parse.quote(product)}"
        )
        status, payload = get(base_url, path)
        assert status == 200
        assert payload["vendor"] == vendor
        assert payload["product"] == product
        assert entry.cve_id in payload["cve_ids"]

    def test_unknown_product_404(self, base_url):
        assert get(base_url, "/v1/product/nobody/nothing")[0] == 404


class TestPredictEndpoint:
    VECTOR = "AV:N/AC:L/Au:N/C:C/I:C/A:C"

    def test_predict_from_vector(self, base_url):
        status, payload = post(
            base_url, "/v1/severity/predict", {"cvss_v2": self.VECTOR}
        )
        assert status == 200
        assert 0.0 <= payload["score"] <= 10.0
        assert payload["severity"] in ("NONE", "LOW", "MEDIUM", "HIGH", "CRITICAL")
        assert payload["model"] in ("lr", "svr", "cnn", "dnn")

    def test_description_feeds_cwe_regex(self, base_url):
        status, payload = post(
            base_url,
            "/v1/severity/predict",
            {"cvss_v2": self.VECTOR, "description": "heap overflow, CWE-122."},
        )
        assert status == 200
        assert payload["cwe_ids"] == ["CWE-122"]

    def test_missing_vector_400(self, base_url):
        status, payload = post(base_url, "/v1/severity/predict", {"description": "x"})
        assert status == 400
        assert "cvss_v2" in payload["error"]

    def test_bad_vector_400(self, base_url):
        status, payload = post(
            base_url, "/v1/severity/predict", {"cvss_v2": "AV:Q/nonsense"}
        )
        assert status == 400

    def test_bad_json_400(self, base_url):
        status, payload = post(base_url, "/v1/severity/predict", b"{truncated")
        assert status == 400
        assert "JSON" in payload["error"]

    def test_empty_body_400(self, base_url):
        status, payload = post(base_url, "/v1/severity/predict", b"")
        assert status == 400

    def test_malformed_cwe_id_400(self, base_url):
        status, payload = post(
            base_url,
            "/v1/severity/predict",
            {"cvss_v2": self.VECTOR, "cwe_ids": ["CWE-not-a-number"]},
        )
        assert status == 400

    @pytest.mark.parametrize("field", ["cwe_ids", "description"])
    def test_oversized_cwe_label_400(self, base_url, field):
        label = "CWE-" + "9" * 400  # past float range as an id
        value = [label] if field == "cwe_ids" else f"overflow, {label}."
        status, payload = post(
            base_url, "/v1/severity/predict", {"cvss_v2": self.VECTOR, field: value}
        )
        assert status == 400
        assert label in payload["error"]

    @pytest.mark.parametrize(
        "length, status", [("abc", 400), ("-5", 400), ("9" * 30, 413)]
    )
    def test_bad_content_length_answered_then_closed(self, server, length, status):
        host, port = server.server_address[:2]
        request = (
            "POST /v1/severity/predict HTTP/1.1\r\n"
            f"Host: {host}\r\nContent-Length: {length}\r\n\r\n"
        )
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(request.encode("ascii"))
            response = b""
            while chunk := sock.recv(4096):  # the server hangs up
                response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(f"HTTP/1.1 {status} ".encode())
        assert b"Connection: close" in head
        assert json.loads(body)["error"]


class TestPredictFromRowTable:
    """A predict on a feature row the store scored answers with that
    row's stored score; any other row runs a one-row forward."""

    @pytest.fixture(scope="class", params=["cnn", "dnn"])
    def state(self, request, bundle, tmp_path_factory):
        from repro.core import (
            EngineConfig,
            clean,
            from_ground_truth,
            product_oracle_from_truth,
        )

        rectified = clean(
            bundle.snapshot,
            bundle.web,
            from_ground_truth(bundle.truth.vendor_map),
            product_oracle_from_truth(bundle.truth.product_map),
            engine_config=EngineConfig(epochs=1, models=(request.param,), seed=2),
        )
        root = tmp_path_factory.mktemp(f"{request.param}-store")
        rectified.export_artifacts(root)
        state = ServiceState.load(root)
        assert state.model_used == request.param
        return state

    def test_every_table_row(self, state):
        from repro import perf
        from repro.cvss import severity_v3

        table = state.row_scores
        assert len(table) > 100
        bodies = [
            {"cvss_v2": vector, "cwe_ids": [cwe] if cwe else []}
            for vector, cwe in table
        ]
        scored = perf.get_recorder().counters.get("severity.rows_scored", 0)
        payloads = [state.predict_payload(body) for body in bodies]
        assert perf.get_recorder().counters.get("severity.rows_scored", 0) == scored
        for score, payload in zip(table.values(), payloads):
            assert payload["score"] == round(score, 4)
            assert payload["severity"] == severity_v3(score).value

    def test_row_outside_the_table_runs_the_model(self, state):
        from repro.core.severity import row_key

        vector = next(iter(state.row_scores))[0]
        body = {"cvss_v2": vector, "cwe_ids": ["CWE-9999"]}
        entry = state._parse_predict_body(body)
        assert row_key(entry) not in state.row_scores
        engine = state.artifacts.engine
        (score,) = engine.predict_scores([entry], model=state.model_used)
        assert state.predict_payload(body)["score"] == round(float(score), 4)


class _RecordingWriter:
    """A ``wfile`` stand-in that keeps every write."""

    def __init__(self) -> None:
        self.writes: list[bytes] = []

    def write(self, data: bytes) -> int:
        self.writes.append(bytes(data))
        return len(data)

    def flush(self) -> None:
        pass


class _RecordingHandler(ApiHandler):
    """Runs one raw request through the real handler, no socket."""

    def setup(self) -> None:
        self.rfile = io.BytesIO(self.request)
        self.wfile = _RecordingWriter()

    def finish(self) -> None:
        pass


class TestTransport:
    VECTOR = TestPredictEndpoint.VECTOR

    @staticmethod
    def _writes(service, request: str, body: bytes = b"") -> list[bytes]:
        raw = request.replace("\n", "\r\n").encode("ascii") + body
        server = types.SimpleNamespace(service=service)
        handler = _RecordingHandler(raw, ("127.0.0.1", 0), server)
        return handler.wfile.writes

    def _predict_request(self, length: str | None = None):
        body = json.dumps({"cvss_v2": self.VECTOR}).encode()
        request = (
            "POST /v1/severity/predict HTTP/1.1\nHost: x\n"
            f"Content-Length: {length or len(body)}\n\n"
        )
        return request, body

    @pytest.mark.parametrize(
        "case, status",
        [
            ("cve", 200),
            ("predict", 200),
            ("missing", 404),
            ("put", 404),
            ("bad-length", 400),
            ("too-long", 413),
        ],
    )
    def test_one_write_per_response(self, service, case, status):
        cve_id = service.state.snapshot.entries[0].cve_id
        body = b""
        if case == "cve":
            request = f"GET /v1/cve/{cve_id} HTTP/1.1\nHost: x\n\n"
        elif case == "missing":
            request = "GET /v1/nowhere HTTP/1.1\nHost: x\n\n"
        elif case == "put":
            request = "PUT /v1/stats HTTP/1.1\nHost: x\nContent-Length: 2\n\n"
            body = b"{}"
        else:
            length = {"bad-length": "abc", "too-long": str(MAX_BODY_BYTES + 1)}
            request, body = self._predict_request(length.get(case))
        writes = self._writes(service, request, body)
        assert len(writes) == 1
        head, _, payload = writes[0].partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        assert lines[0].startswith(f"HTTP/1.1 {status} ")
        # The header order of the two-send transport, kept byte for byte.
        names = [line.split(":", 1)[0] for line in lines[1:]]
        expected = [
            "Server", "Date", "Content-Type", "Content-Length", "X-Repro-Trace-Id"
        ]
        if case in ("bad-length", "too-long"):
            expected.append("Connection")
            assert "Connection: close" in lines
        assert names == expected
        assert f"Content-Length: {len(payload)}" in lines
        assert json.loads(payload)

    def test_keepalive_requests_do_not_stall(self, server):
        """20 mixed requests on one connection: no ~40 ms Nagle wait."""
        host, port = server.server_address[:2]
        cve_id = server.service.state.snapshot.entries[0].cve_id
        predict = json.dumps({"cvss_v2": self.VECTOR})
        plan = [
            ("GET", f"/v1/cve/{cve_id}", None, 200),
            ("POST", "/v1/severity/predict", predict, 200),
            ("GET", "/v1/cve/CVE-1999-99999", None, 404),
            ("GET", "/v1/nowhere", None, 404),
        ] * 5
        connection = http.client.HTTPConnection(host, port, timeout=10)
        timings, statuses = [], []
        try:
            for method, path, body, _ in plan:
                started = time.perf_counter()
                connection.request(method, path, body=body)
                response = connection.getresponse()
                response.read()
                timings.append(time.perf_counter() - started)
                statuses.append(response.status)
        finally:
            connection.close()
        assert statuses == [status for *_, status in plan]
        assert statistics.median(timings) < 0.005, timings

    def test_unsupported_methods_get_counted_json_404(self, server):
        """PUT/PATCH/DELETE/OPTIONS get the service's 404, and their
        bodies are consumed so the connection stays usable."""
        host, port = server.server_address[:2]
        before = server.service.metrics_payload()["counters"]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            for method in ("PUT", "PATCH", "DELETE", "OPTIONS"):
                connection.request(method, "/v1/stats", body=b'{"x": 1}')
                response = connection.getresponse()
                assert response.status == 404
                assert response.getheader("Content-Type") == "application/json"
                assert json.loads(response.read()) == {
                    "error": f"no route for {method} /v1/stats"
                }
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
        finally:
            connection.close()
        after = server.service.metrics_payload()["counters"]
        assert after["responses_4xx"] - before.get("responses_4xx", 0) >= 4


    @staticmethod
    def _exchange(server, raw: bytes) -> list[tuple[str, dict, bytes]]:
        """Send ``raw`` on one connection, half-close it, and split
        everything the server answers until it hangs up."""
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(raw)
            sock.shutdown(socket.SHUT_WR)
            data = b""
            while chunk := sock.recv(4096):
                data += chunk
        responses = []
        while data:
            head, _, rest = data.partition(b"\r\n\r\n")
            lines = head.decode("latin-1").split("\r\n")
            headers = dict(line.split(": ", 1) for line in lines[1:] if ": " in line)
            length = int(headers.get("Content-Length", len(rest)))
            responses.append((lines[0], headers, rest[:length]))
            data = rest[length:]
        return responses

    def test_get_body_is_read_before_the_next_request(self, server):
        """A keep-alive GET that carries a body: the body is consumed,
        so the next request on the connection parses and answers 200."""
        before = server.service.metrics_payload()["counters"]
        request = b"GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello"
        follow_up = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        responses = self._exchange(server, request + follow_up)
        assert [status for status, _, _ in responses] == ["HTTP/1.1 200 OK"] * 2
        for _, headers, body in responses:
            assert headers["Content-Type"] == "application/json"
            assert json.loads(body)["status"] == "ok"
        after = server.service.metrics_payload()["counters"]
        assert after["endpoint_healthz"] - before.get("endpoint_healthz", 0) == 2

    def test_transfer_encoding_gets_counted_411_and_close(self, server):
        """A chunked body is never parsed as requests: one counted JSON
        411, then the server hangs up."""
        before = server.service.metrics_payload()["counters"]
        body = json.dumps({"cvss_v2": self.VECTOR}).encode()
        raw = (
            b"POST /v1/severity/predict HTTP/1.1\r\nHost: x\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            + f"{len(body):x}\r\n".encode() + body + b"\r\n0\r\n\r\n"
        )
        responses = self._exchange(server, raw)
        assert len(responses) == 1
        status, headers, payload = responses[0]
        assert status.startswith("HTTP/1.1 411 ")
        assert headers["Connection"] == "close"
        assert headers["Content-Type"] == "application/json"
        assert "Transfer-Encoding" in json.loads(payload)["error"]
        after = server.service.metrics_payload()["counters"]
        assert after["endpoint_predict"] - before.get("endpoint_predict", 0) == 1


class TestMetricsAndCache:
    def test_metrics_counts_requests(self, base_url):
        # On a server's first request no request has completed yet, so
        # the counter is still absent.
        before = get(base_url, "/v1/metrics")[1]
        get(base_url, "/healthz")
        after = get(base_url, "/v1/metrics")[1]
        assert (
            after["counters"]["requests_total"]
            > before["counters"].get("requests_total", 0)
        )
        assert after["version"] == "v0001"

    def test_response_class_counters_sum_to_requests(
        self, base_url, small_rectified
    ):
        cve_id = small_rectified.snapshot.entries[3].cve_id
        get(base_url, f"/v1/cve/{cve_id}")
        get(base_url, f"/v1/cve/{cve_id}")
        counters = get(base_url, "/v1/metrics")[1]["counters"]
        responses = sum(
            count
            for name, count in counters.items()
            if name.startswith("responses_")
        )
        assert responses == counters["requests_total"]


def _registry_totals(service):
    """The /v1/metrics counter keys, summed straight from the registry."""
    totals: dict[str, int] = {}

    def add(key, value):
        if value:
            totals[key] = totals.get(key, 0) + int(value)

    for series in service.registry.get("repro_http_requests_total").series():
        endpoint, status = series.labels
        add("requests_total", series.value)
        add(f"responses_{status[0]}xx", series.value)
        if endpoint != "unknown":
            add(f"endpoint_{endpoint}", series.value)
        if status == "500":
            add("errors_internal", series.value)
    for key, family in (
        ("hot_swaps", "repro_service_hot_swaps_total"),
        ("reload_failures", "repro_service_reload_failures_total"),
        ("breaker_opened", "repro_service_breaker_opened_total"),
    ):
        for series in service.registry.get(family).series():
            add(key, series.value)
    return totals


@pytest.fixture
def fresh_service(store):
    """A private in-process service with empty counters."""
    service = NvdService(store, version="v0001")
    yield service
    service.close()


class TestRouteTable:
    @pytest.mark.parametrize("route", ROUTES, ids=lambda route: route.endpoint)
    def test_every_route_counts_under_its_label(
        self, fresh_service, small_rectified, route
    ):
        """Each table entry answers 200 with its content type and counts
        under its endpoint label."""
        service = fresh_service
        entry = next(
            e for e in small_rectified.snapshot.entries if e.vendor_products()
        )
        vendor, product = entry.vendor_products()[0]
        values = {"id": entry.cve_id, "name": vendor, "vendor": vendor, "product": product}
        path = re.sub(
            r"\{(\w+)\}",
            lambda match: urllib.parse.quote(values[match.group(1)], safe=""),
            route.path,
        )
        body = None
        if route.method == "POST":
            body = json.dumps({"cvss_v2": TestPredictEndpoint.VECTOR}).encode()
        requests = service.registry.get("repro_http_requests_total")

        response = service.handle(route.method, path, body)
        assert response.status == 200, response.body
        assert response.content_type == route.content_type
        assert [(s.labels, s.value) for s in requests.series()] == [
            ((route.endpoint, "200"), 1)
        ]


class TestOneCounterStore:
    """/v1/metrics is a view of the registry behind /metrics."""

    def test_v1_metrics_agrees_with_registry(
        self, fresh_service, small_rectified, monkeypatch
    ):
        from repro.service import ServiceError
        from repro.service.state import ServiceState

        service = fresh_service
        entries = small_rectified.snapshot.entries
        cve = f"/v1/cve/{entries[0].cve_id}"
        assert service.handle("GET", cve, None).status == 200
        assert service.handle("GET", cve, None).status == 200
        assert service.handle("GET", "/v1/nowhere", None).status == 404
        for code in (400, 413):
            response = service.handle(
                "POST", "/v1/severity/predict", None,
                read_error=ServiceError(code, "unreadable body"),
            )
            assert response.status == code

        def broken(self, cve_id):
            raise RuntimeError("injected")

        monkeypatch.setattr(ServiceState, "cve_payload", broken)
        assert service.handle("GET", f"/v1/cve/{entries[1].cve_id}", None).status == 500
        assert service.handle("GET", "/metrics", None).status == 200

        counters = service.metrics_payload()["counters"]
        assert counters == _registry_totals(service)
        assert counters == {
            "requests_total": 7,
            "endpoint_cve": 3,
            "endpoint_predict": 2,
            "endpoint_prometheus": 1,
            "responses_2xx": 3,
            "responses_4xx": 3,
            "responses_5xx": 1,
            "errors_internal": 1,
        }
        assert counters["errors_internal"] == counters["responses_5xx"]


class TestConcurrency:
    def test_parallel_mixed_requests(self, base_url, small_rectified):
        entries = small_rectified.snapshot.entries
        paths = ["/healthz", "/v1/stats"] + [
            f"/v1/cve/{entries[i % len(entries)].cve_id}" for i in range(30)
        ]
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda p: get(base_url, p), paths * 3))
        assert all(status == 200 for status, _ in results)
        # identical paths must serve identical payloads
        by_path: dict[str, object] = {}
        for path, (status, payload) in zip(paths * 3, results):
            assert by_path.setdefault(path, payload) == payload


class TestHotSwap:
    def test_ingest_hot_swaps_running_server(self, base_url, store):
        artifacts = load_artifacts(store)
        base = artifacts.snapshot.entries[0]
        new_id = "CVE-2018-99777"
        assert get(base_url, f"/v1/cve/{new_id}")[0] == 404
        result = ingest_delta(
            store, [base.replace(cve_id=new_id, cvss_v3=None)]
        )
        # reload_interval=0 → the next request observes the new pointer
        status, payload = get(base_url, f"/v1/cve/{new_id}")
        assert status == 200
        assert payload["v3_backported"] is True
        assert get(base_url, "/healthz")[1]["version"] == result.version
        metrics = get(base_url, "/v1/metrics")[1]
        assert metrics["swaps"] >= 1


class TestPagination:
    """offset/limit paging on the vendor and product id lists."""

    @pytest.fixture(scope="class")
    def top_vendor(self, server):
        """The vendor with the most CVEs in the served snapshot."""
        snapshot = server.service.state.snapshot
        vendor, count = max(
            snapshot.vendor_cve_counts().items(), key=lambda item: (item[1], item[0])
        )
        assert count >= 3, "bundle too small for pagination tests"
        return urllib.parse.quote(vendor), count

    def test_default_page_carries_everything_small(self, base_url, top_vendor):
        vendor, count = top_vendor
        status, payload = get(base_url, f"/v1/vendor/{vendor}")
        assert status == 200
        assert payload["n_cves"] == count
        assert payload["offset"] == 0
        assert payload["limit"] == 500
        if count <= 500:
            assert len(payload["cve_ids"]) == count
            assert payload["next_offset"] is None
            assert payload["truncated"] is False

    def test_pages_concatenate_to_full_list(self, base_url, top_vendor):
        vendor, count = top_vendor
        full = get(base_url, f"/v1/vendor/{vendor}")[1]["cve_ids"]
        seen: list[str] = []
        offset = 0
        for _ in range(count + 1):
            status, page = get(
                base_url, f"/v1/vendor/{vendor}?offset={offset}&limit=2"
            )
            assert status == 200
            assert page["n_cves"] == count  # the full count, every page
            assert len(page["cve_ids"]) <= 2
            # every 2-id window of a >2-id list is a partial view
            assert page["truncated"] is (count > 2)
            seen.extend(page["cve_ids"])
            if page["next_offset"] is None:
                break
            assert page["next_offset"] == offset + 2
            offset = page["next_offset"]
        assert seen == full

    def test_offset_beyond_end_is_empty(self, base_url, top_vendor):
        vendor, count = top_vendor
        status, payload = get(
            base_url, f"/v1/vendor/{vendor}?offset={count + 10}"
        )
        assert status == 200
        assert payload["cve_ids"] == []
        assert payload["next_offset"] is None

    def test_cache_distinguishes_pages(self, base_url, top_vendor):
        vendor, _ = top_vendor
        one = get(base_url, f"/v1/vendor/{vendor}?limit=1")[1]
        two = get(base_url, f"/v1/vendor/{vendor}?limit=2")[1]
        assert len(one["cve_ids"]) == 1
        assert len(two["cve_ids"]) == 2
        # and repeating a query still serves the identical page
        assert get(base_url, f"/v1/vendor/{vendor}?limit=1")[1] == one

    def test_product_route_paginates_too(self, base_url, server):
        snapshot = server.service.state.snapshot
        (vendor, product), count = max(
            snapshot.product_cve_counts().items(), key=lambda item: (item[1], item[0])
        )
        path = (
            f"/v1/product/{urllib.parse.quote(vendor)}/"
            f"{urllib.parse.quote(product)}"
        )
        status, payload = get(base_url, f"{path}?limit=1")
        assert status == 200
        assert payload["n_cves"] == count
        assert len(payload["cve_ids"]) == 1
        assert payload["next_offset"] == (1 if count > 1 else None)

    @pytest.mark.parametrize(
        "query",
        ["offset=-1", "limit=0", "limit=-5", "limit=abc", "offset=1.5", "limit=501"],
    )
    def test_bad_paging_params_400(self, base_url, top_vendor, query):
        vendor, _ = top_vendor
        status, payload = get(base_url, f"/v1/vendor/{vendor}?{query}")
        assert status == 400
        assert "query parameter" in payload["error"]


class TestPagesMatchScan:
    """Every vendor and product page walk equals a plain scan of the
    snapshot's entries, in snapshot order."""

    LIMIT = 3

    @pytest.fixture(scope="class")
    def state(self, artifact_root):
        return ServiceState.load(artifact_root)

    def walk(self, payload_at):
        ids: list[str] = []
        offset = 0
        while offset is not None:
            page = payload_at(offset)
            assert page["n_cves"] > 0
            ids.extend(page["cve_ids"])
            offset = page["next_offset"]
        assert len(ids) == page["n_cves"]
        return ids, page

    def test_every_vendor_by_name_and_alias(self, state):
        entries = state.snapshot.entries
        vendor_map = state.artifacts.vendor_map
        names: dict[str, list[str]] = {}
        for entry in entries:
            for vendor in entry.vendors:
                names.setdefault(vendor, [vendor])
        for alias, canonical in vendor_map.items():
            names.setdefault(canonical, [canonical]).append(alias)
        assert len(names) > 100 and len(vendor_map) > 0
        for canonical, queried in names.items():
            expected_ids = [e.cve_id for e in entries if canonical in e.vendors]
            expected_products = sorted(
                {p for e in entries for v, p in e.vendor_products() if v == canonical}
            )
            for name in queried:
                ids, page = self.walk(
                    lambda offset: state.vendor_payload(name, offset, self.LIMIT)
                )
                assert page["vendor"] == canonical
                assert ids == expected_ids
                assert page["products"] == expected_products

    def test_every_vendor_product_pair(self, state):
        entries = state.snapshot.entries
        pairs = {pair for e in entries for pair in e.vendor_products()}
        assert len(pairs) > 100
        for vendor, product in pairs:
            ids, page = self.walk(
                lambda offset: state.product_payload(vendor, product, offset, self.LIMIT)
            )
            assert (page["vendor"], page["product"]) == (vendor, product)
            assert ids == [
                e.cve_id for e in entries if (vendor, product) in e.vendor_products()
            ]


class TestMultiProcessServing:
    def test_reuse_port_servers_share_one_port(self, store):
        """Two SO_REUSEPORT servers coexist on one port and both serve."""
        import socket as socket_module

        if not hasattr(socket_module, "SO_REUSEPORT"):
            pytest.skip("platform has no SO_REUSEPORT")
        first = create_server(store, port=0, reuse_port=True)
        port = first.server_address[1]
        second = create_server(store, port=port, reuse_port=True)
        threads = []
        try:
            for server in (first, second):
                thread = threading.Thread(target=server.serve_forever, daemon=True)
                thread.start()
                threads.append(thread)
            url = f"http://127.0.0.1:{port}"
            payloads = [get(url, "/healthz") for _ in range(20)]
            assert all(status == 200 for status, _ in payloads)
            assert all(payload["status"] == "ok" for _, payload in payloads)
        finally:
            for server in (first, second):
                server.shutdown()
                server.server_close()
            for thread in threads:
                thread.join(timeout=5)

    def test_serve_workers_cli(self, store):
        """`repro serve --workers 2` fans across processes on one port,
        respawns a SIGKILLed worker, and shuts down cleanly on SIGINT."""
        import os
        import pathlib
        import signal
        import socket as socket_module
        import subprocess
        import sys
        import time

        if not hasattr(socket_module, "SO_REUSEPORT"):
            pytest.skip("platform has no SO_REUSEPORT")
        probe = socket_module.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        repo_root = pathlib.Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(repo_root / "src"))
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--artifacts", str(store),
                "--port", str(port), "--workers", "2",
            ],
            cwd=repo_root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            start_new_session=True,  # isolate signals from the test runner
        )
        url = f"http://127.0.0.1:{port}"
        try:
            deadline = time.monotonic() + 60
            last_error = None
            while time.monotonic() < deadline:
                if process.poll() is not None:
                    output = process.stdout.read().decode(errors="replace")
                    pytest.fail(f"serve exited early:\n{output}")
                try:
                    status, payload = get(url, "/healthz")
                    if status == 200 and payload["status"] == "ok":
                        break
                except OSError as error:
                    last_error = error
                time.sleep(0.25)
            else:
                pytest.fail(f"server never came up: {last_error}")
            statuses = [get(url, "/v1/stats")[0] for _ in range(10)]
            assert statuses == [200] * 10

            status_path = pathlib.Path(store) / ".supervisor.json"
            victim = get(url, "/v1/metrics")[1]["pid"]
            os.kill(victim, signal.SIGKILL)
            status = {}
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                try:
                    status = json.loads(status_path.read_text(encoding="utf-8"))
                except (OSError, ValueError):
                    pass  # mid-replace
                if status.get("restarts") == 1 and status.get("alive") == 2:
                    break
                time.sleep(0.1)
            assert (status.get("restarts"), status.get("alive")) == (1, 2), status
            assert get(url, "/healthz")[0] == 200
        finally:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=10)
        assert process.returncode == 0
        assert not status_path.exists()


class TestTelemetryPlane:
    """Prometheus /metrics, trace-id echo, access log, JSON compat."""

    @staticmethod
    def _check_metrics():
        import importlib.util
        import pathlib

        path = pathlib.Path(__file__).parent.parent / "tools" / "check_metrics.py"
        spec = importlib.util.spec_from_file_location("check_metrics", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @staticmethod
    def _get_raw(base_url, path, headers=None):
        request = urllib.request.Request(base_url + path, headers=headers or {})
        with urllib.request.urlopen(request, timeout=10) as response:
            return (
                response.status,
                dict(response.headers),
                response.read().decode("utf-8"),
            )

    def test_metrics_exposition_lints_clean(self, base_url):
        from repro.obs import PROMETHEUS_CONTENT_TYPE

        # A latency histogram has buckets only once a request has
        # completed, and this test may be the server's first client.
        get(base_url, "/healthz")
        status, headers, text = self._get_raw(base_url, "/metrics")
        assert status == 200
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        assert self._check_metrics().lint_exposition(text) == []
        for family in (
            "repro_http_requests_total",
            "repro_http_request_seconds_bucket",
            "repro_service_uptime_seconds",
            "repro_service_info",
        ):
            assert family in text, family

    def test_request_counters_carry_endpoint_and_status_labels(self, base_url):
        get(base_url, "/healthz")
        get(base_url, "/v1/cve/CVE-1999-99999")  # a 404
        _, _, text = self._get_raw(base_url, "/metrics")
        assert 'repro_http_requests_total{endpoint="healthz",status="200"}' in text
        assert 'repro_http_requests_total{endpoint="cve",status="404"}' in text

    def test_trace_id_generated_and_echoed(self, base_url):
        _, headers, _ = self._get_raw(base_url, "/healthz")
        assert headers["X-Repro-Trace-Id"]
        _, echoed, _ = self._get_raw(
            base_url, "/healthz", headers={"X-Repro-Trace-Id": "abc123"}
        )
        assert echoed["X-Repro-Trace-Id"] == "abc123"

    def test_invalid_client_trace_id_is_replaced(self, base_url):
        _, headers, _ = self._get_raw(
            base_url, "/healthz", headers={"X-Repro-Trace-Id": "not hex!{}"}
        )
        assert headers["X-Repro-Trace-Id"] != "not hex!{}"

    def test_v1_metrics_json_stays_backward_compatible(self, base_url):
        status, payload = get(base_url, "/v1/metrics")
        assert status == 200
        for key in (
            "service", "version", "model", "uptime_s",
            "swaps", "counters", "degraded", "breaker",
        ):
            assert key in payload, key
        assert isinstance(payload["counters"], dict)
        assert not {"cache", "cache_entries"} & set(payload)

    def test_access_log_and_request_trace(self, store, tmp_path_factory):
        """A private server with --access-log/--trace wiring: every
        request appends one JSONL record and streams one request span."""
        from repro.obs import load_trace

        workdir = tmp_path_factory.mktemp("telemetry")
        access_path = workdir / "access.jsonl"
        trace_path = workdir / "trace.json"
        server = create_server(
            store,
            port=0,
            reload_interval=0.0,
            access_log=access_path,
            trace_path=trace_path,
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            url = f"http://{host}:{port}"
            assert get(url, "/healthz")[0] == 200
            assert get(url, "/v1/stats")[0] == 200
            assert get(url, "/v1/cve/CVE-1999-99999")[0] == 404
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

        records = [
            json.loads(line)
            for line in access_path.read_text(encoding="utf-8").splitlines()
        ]
        assert [r["path"] for r in records] == [
            "/healthz", "/v1/stats", "/v1/cve/CVE-1999-99999",
        ]
        assert [r["status"] for r in records] == [200, 200, 404]
        for record in records:
            assert set(record) == {
                "ts", "method", "path", "status", "latency_ms", "trace_id",
            }
            assert record["method"] == "GET"
            assert record["latency_ms"] >= 0
            assert record["trace_id"]
            # ISO8601 UTC with explicit offset
            assert record["ts"].endswith("+00:00")

        events = load_trace(trace_path)
        requests = [e for e in events if e.get("cat") == "request"]
        assert [e["name"] for e in requests] == [
            "GET healthz", "GET stats", "GET cve",
        ]
        assert all(e["ph"] == "X" for e in requests)
