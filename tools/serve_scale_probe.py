#!/usr/bin/env python
"""CI probe for the multi-worker serving plane.

Launches ``repro serve --workers N`` against an artifact store, then
drives the multi-process surface end to end:

1. waits for ``/healthz``, then walks a vendor's id list by following
   ``next_cursor`` page by page (on whichever worker the kernel routes
   each request to) and asserts the walk reproduces the offset-paged
   full list exactly;
2. asserts a tampered cursor fails with a self-describing 400;
3. fires a concurrent predict burst and asserts every response is
   bit-identical to its single-request reference;
4. for 20 sampled CVEs with a v2 vector, asserts ``/v1/cve``'s
   ``predicted_v3_score`` (rounded to 4 places) equals the score
   ``/v1/severity/predict`` gives the same vector and ``cwe_ids`` —
   a stored CVE is served its feature row's score;
5. lints the Prometheus ``/metrics`` exposition with
   ``tools/check_metrics.py``;
6. for 60 CVEs sampled across the store, plus 20 of the ones its
   segments revised or added, asserts every ``/v1/cve`` body, and the
   ``/v1/stats`` body, are byte-equal to the bodies rendered in this
   process from the decoded snapshot
   (``repro.artifacts.image.cve_body``) — so on a chained store, the
   workers' segment overlay on the base's serving image is checked;
7. sends 50 GETs (cve, stats, healthz) over one persistent connection
   and asserts every answer is a 200 with a median round trip under
   5 ms — a response sent as two writes (headers, then body) waits
   ~40 ms for the client's delayed ACK on every keep-alive request —
   then sends a GET carrying a body and asserts the next request on
   that connection still answers 200.

Exit code 0 when every probe passes; 1 with a diagnostic otherwise.

Usage::

    PYTHONPATH=src python tools/serve_scale_probe.py --artifacts /tmp/store
    PYTHONPATH=src python tools/serve_scale_probe.py --artifacts /tmp/store \
        --workers 2 --burst 16
"""

from __future__ import annotations

import argparse
import contextlib
import http.client
import json
import os
import pathlib
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "tools"))

PREDICT_VECTOR = "AV:N/AC:L/Au:N/C:C/I:C/A:C"

#: stored CVEs whose served score is checked against a predict.
SCORE_SAMPLE = 20

#: stored CVEs whose served body is checked byte for byte, sampled
#: across the store and among the segments' CVEs.
BODY_SAMPLE = 60
SEGMENT_BODY_SAMPLE = 20

#: GETs sent over one keep-alive connection, and the median round trip
#: (ms) they must beat.
KEEPALIVE_REQUESTS = 50
KEEPALIVE_P50_LIMIT_MS = 5.0


class ProbeFailure(AssertionError):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise ProbeFailure(message)


def get(base_url: str, path: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(base_url + path, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def get_bytes(base_url: str, path: str) -> tuple[int, bytes]:
    with urllib.request.urlopen(base_url + path, timeout=10) as response:
        return response.status, response.read()


def get_text(base_url: str, path: str) -> tuple[int, str]:
    with urllib.request.urlopen(base_url + path, timeout=10) as response:
        return response.status, response.read().decode("utf-8")


def post(base_url: str, path: str, body: dict) -> tuple[int, bytes]:
    request = urllib.request.Request(
        base_url + path,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def wait_healthy(base_url: str, timeout_s: float = 90.0) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            status, _ = get(base_url, "/healthz")
            if status == 200:
                return
        except (urllib.error.URLError, OSError):
            pass
        time.sleep(0.2)
    raise ProbeFailure(f"server at {base_url} never became healthy")


@contextlib.contextmanager
def serving(artifacts: pathlib.Path, workers: int):
    """Run ``repro serve --workers N`` on a free port; yield its base
    URL once ``/healthz`` answers, and stop it with SIGINT on exit."""
    port = free_port()
    base_url = f"http://127.0.0.1:{port}"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--artifacts", str(artifacts),
            "--port", str(port),
            "--workers", str(workers),
        ],
        env=env,
    )
    try:
        wait_healthy(base_url)
        yield base_url
    finally:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=5)


def probe_cursor_walk(base_url: str, snapshot) -> None:
    vendor, count = max(
        snapshot.vendor_cve_counts().items(),
        key=lambda item: (item[1], item[0]),
    )
    quoted = urllib.parse.quote(vendor)
    status, full_page = get(base_url, f"/v1/vendor/{quoted}")
    check(status == 200, f"vendor fetch failed: {status}")
    full = full_page["cve_ids"]
    seen: list[str] = []
    cursor = None
    for _ in range(count + 2):
        path = f"/v1/vendor/{quoted}?limit=2"
        if cursor:
            path += f"&cursor={cursor}"
        status, page = get(base_url, path)
        check(status == 200, f"cursor page failed: {status} {page}")
        seen.extend(page["cve_ids"])
        cursor = page["next_cursor"]
        if cursor is None:
            break
    check(
        seen == full,
        f"cursor walk diverged: {len(seen)} ids vs {len(full)} expected",
    )
    status, error = get(base_url, f"/v1/vendor/{quoted}?cursor=tampered!!")
    check(status == 400, f"tampered cursor answered {status}")
    check("cursor" in error.get("error", ""), f"unhelpful 400: {error}")
    print(
        f"[probe] cursor walk over {vendor!r} reproduced {len(full)} ids "
        "across workers; tampered cursor rejected with 400"
    )


def probe_predict_burst(base_url: str, burst: int) -> None:
    bodies = [
        {
            "cvss_v2": PREDICT_VECTOR,
            "description": f"stack overflow variant {i}, CWE-121.",
        }
        for i in range(burst)
    ]
    references = []
    for body in bodies:
        status, payload = post(base_url, "/v1/severity/predict", body)
        check(status == 200, f"reference predict failed: {status} {payload!r}")
        references.append(payload)
    results: list = [None] * burst

    def hit(i: int) -> None:
        results[i] = post(base_url, "/v1/severity/predict", bodies[i])

    threads = [threading.Thread(target=hit, args=(i,)) for i in range(burst)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for i, (status, payload) in enumerate(results):
        check(status == 200, f"burst predict {i} failed: {status}")
        check(
            payload == references[i],
            f"burst predict {i} diverged from its single-request reference",
        )
    print(
        f"[probe] {burst}-request concurrent predict burst bit-identical "
        "to single-request references"
    )


def probe_cve_scores(base_url: str, snapshot) -> None:
    scored = [entry for entry in snapshot.entries if entry.cvss_v2 is not None]
    check(bool(scored), "the store holds no CVE with a v2 vector")
    step = max(1, len(scored) // SCORE_SAMPLE)
    sample = scored[::step][:SCORE_SAMPLE]
    for entry in sample:
        status, payload = get(base_url, f"/v1/cve/{entry.cve_id}")
        check(status == 200, f"/v1/cve/{entry.cve_id} answered {status}")
        status, body = post(
            base_url,
            "/v1/severity/predict",
            {"cvss_v2": payload["cvss_v2"]["vector"], "cwe_ids": payload["cwe_ids"]},
        )
        check(status == 200, f"predict for {entry.cve_id} failed: {status} {body!r}")
        predicted = json.loads(body)["score"]
        served = payload.get("predicted_v3_score")
        check(
            served is not None and round(served, 4) == predicted,
            f"{entry.cve_id} is served predicted_v3_score {served}, "
            f"a predict of its row answers {predicted}",
        )
    print(
        f"[probe] {len(sample)} served predicted_v3_scores equal "
        "/v1/severity/predict's score for their rows"
    )


def probe_bodies(base_url: str, artifacts) -> None:
    from repro.artifacts.image import cve_body
    from repro.core.severity import row_key

    entries = artifacts.snapshot.entries
    check(bool(entries), "the store holds no CVE")
    segment_entries, _ = artifacts.segment_entries()
    sample = entries[:: max(1, len(entries) // BODY_SAMPLE)][:BODY_SAMPLE]
    step = max(1, len(segment_entries) // SEGMENT_BODY_SAMPLE)
    sample += [artifacts.snapshot[e.cve_id] for e in segment_entries[::step]][
        :SEGMENT_BODY_SAMPLE
    ]
    for entry in sample:
        score = None
        if entry.cvss_v2 is not None:
            score = artifacts.row_scores[row_key(entry)]
        expected = cve_body(entry, artifacts.estimates.get(entry.cve_id), score)
        status, body = get_bytes(base_url, f"/v1/cve/{entry.cve_id}")
        check(status == 200, f"/v1/cve/{entry.cve_id} answered {status}")
        check(
            body == expected,
            f"/v1/cve/{entry.cve_id} differs from the body rendered from the snapshot",
        )
    status, body = get_bytes(base_url, "/v1/stats")
    expected = json.dumps(artifacts.snapshot.stats().as_dict()).encode("utf-8")
    check(status == 200 and body == expected, "/v1/stats differs from the snapshot's stats")
    n_segment = len(sample) - min(len(entries), BODY_SAMPLE)
    print(
        f"[probe] {len(sample)} /v1/cve bodies ({n_segment} from segments) and "
        "/v1/stats byte-equal to the bodies rendered from the snapshot"
    )


def probe_metrics_lint(base_url: str) -> None:
    import check_metrics

    status, text = get_text(base_url, "/metrics")
    check(status == 200, f"/metrics answered {status}")
    problems = check_metrics.lint_exposition(text)
    check(not problems, f"/metrics lint problems: {problems}")
    print("[probe] /metrics lints clean")


def probe_keepalive(base_url: str, snapshot) -> None:
    entries = snapshot.entries
    paths = ["/healthz", "/v1/stats"] + [
        f"/v1/cve/{entries[i % len(entries)].cve_id}"
        for i in range(KEEPALIVE_REQUESTS - 2)
    ]
    netloc = urllib.parse.urlsplit(base_url).netloc
    connection = http.client.HTTPConnection(netloc, timeout=10)

    def fetch(path: str, body: bytes | None = None) -> int:
        connection.request("GET", path, body=body)
        response = connection.getresponse()
        response.read()
        return response.status

    timings = []
    try:
        for path in paths:
            started = time.perf_counter()
            status = fetch(path)
            timings.append((time.perf_counter() - started) * 1000.0)
            check(status == 200, f"GET {path} answered {status}")
        statuses = [fetch("/healthz", body=b"hello"), fetch("/healthz")]
        check(
            statuses == [200, 200],
            f"a GET with a body, then a GET, on one connection answered {statuses}",
        )
    finally:
        connection.close()
    p50 = statistics.median(timings)
    check(
        p50 < KEEPALIVE_P50_LIMIT_MS,
        f"keep-alive p50 {p50:.2f} ms over {len(paths)} requests "
        f"(limit {KEEPALIVE_P50_LIMIT_MS} ms)",
    )
    print(
        f"[probe] {len(paths)} keep-alive GETs all 200, p50 {p50:.2f} ms; "
        "a GET with a body left the connection usable"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--artifacts", type=pathlib.Path, required=True, metavar="DIR"
    )
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--burst", type=int, default=16)
    args = parser.parse_args(argv)

    from repro.artifacts import load_artifacts

    artifacts = load_artifacts(args.artifacts)
    try:
        with serving(args.artifacts, args.workers) as base_url:
            probe_cursor_walk(base_url, artifacts.snapshot)
            probe_predict_burst(base_url, args.burst)
            probe_cve_scores(base_url, artifacts.snapshot)
            probe_metrics_lint(base_url)
            probe_bodies(base_url, artifacts)
            probe_keepalive(base_url, artifacts.snapshot)
        print(f"[probe] OK: {args.workers} workers")
        return 0
    except ProbeFailure as failure:
        print(f"[probe] FAILED: {failure}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
