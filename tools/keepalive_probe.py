#!/usr/bin/env python
"""CI probe: keep-alive latency through the supervised workers.

Launches ``repro serve --workers N`` against an artifact store, sends
``--requests`` GETs (cve, stats, healthz) over one persistent
``http.client`` connection, and fails unless every answer is a 200 and
the median round trip is under 5 ms.  A response sent as two writes
(headers, then body) waits ~40 ms for the client's delayed ACK on
every keep-alive request, so this catches that regression on the
multi-process path, which the in-process test server does not cover.

Exit code 0 when the probe passes; 1 with a diagnostic otherwise.

Usage::

    PYTHONPATH=src python tools/keepalive_probe.py --artifacts /tmp/store
"""

from __future__ import annotations

import argparse
import http.client
import pathlib
import statistics
import sys
import time
import urllib.parse

from serve_scale_probe import ProbeFailure, check, serving

#: the median round trip a keep-alive request must beat.
P50_LIMIT_MS = 5.0


def probe_keepalive(base_url: str, paths: list[str]) -> float:
    """Send every path over one connection; return the p50 in ms."""
    netloc = urllib.parse.urlsplit(base_url).netloc
    connection = http.client.HTTPConnection(netloc, timeout=10)
    timings = []
    try:
        for path in paths:
            started = time.perf_counter()
            connection.request("GET", path)
            response = connection.getresponse()
            response.read()
            timings.append((time.perf_counter() - started) * 1000.0)
            check(response.status == 200, f"GET {path} answered {response.status}")
    finally:
        connection.close()
    p50 = statistics.median(timings)
    check(
        p50 < P50_LIMIT_MS,
        f"keep-alive p50 {p50:.2f} ms over {len(paths)} requests "
        f"(limit {P50_LIMIT_MS} ms)",
    )
    return p50


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--artifacts", type=pathlib.Path, required=True, metavar="DIR"
    )
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--requests", type=int, default=50)
    args = parser.parse_args(argv)

    from repro.artifacts import load_artifacts

    entries = load_artifacts(args.artifacts).snapshot.entries
    paths = ["/healthz", "/v1/stats"] + [
        f"/v1/cve/{entries[i % len(entries)].cve_id}"
        for i in range(args.requests - 2)
    ]
    try:
        with serving(args.artifacts, args.workers) as base_url:
            p50 = probe_keepalive(base_url, paths)
        print(
            f"[probe] OK: {len(paths)} keep-alive GETs, all 200, "
            f"p50 {p50:.2f} ms ({args.workers} workers)"
        )
        return 0
    except ProbeFailure as failure:
        print(f"[probe] FAILED: {failure}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
