#!/usr/bin/env python
"""Serving-layer benchmark harness.

Cold-starts the query service from an artifact store, fires a mixed
request workload at it through concurrent clients, and appends
throughput plus p50/p95 latency (overall and per endpoint) to
``BENCH_service.json`` — the serving counterpart of ``tools/bench.py``
and ``BENCH_pipeline.json``, with the same schema-check pattern.

The request mix is no longer hard-coded: it comes from the scenario
engine's :class:`repro.synth.TraceSpec` (``--scenario`` picks the
preset, default ``baseline`` — the historical 50/15/15/10/5/5 mix) and
replays bit-identically from ``(trace, snapshot, requests, seed)``.
The scenario is recorded in every run entry.

``--workers-sweep 1,2,4`` benchmarks the *multi-process* plane
instead of the in-process server: for each worker count it launches
``repro serve --workers N`` as a subprocess, replays the same trace,
collects every worker's ``/v1/metrics`` by pid, and records one run per
worker count — rps, p50/p95 and how many workers reported (schema
``repro-bench-service/3``).

``--ingest DELTA_FEED`` benchmarks the *write* path instead: it times
``repro.artifacts.ingest_delta`` rolling the delta (typically from
``tools/make_delta_feed.py``) into a new store version and records
throughput as a ``kind: "ingest"`` run in the same trajectory file.

Usage::

    PYTHONPATH=src python -m repro demo --n-cves 8000 --artifacts /tmp/store
    PYTHONPATH=src python tools/bench_service.py --artifacts /tmp/store
    PYTHONPATH=src python tools/bench_service.py --artifacts /tmp/store \
        --requests 2000 --clients 8 --label current
    PYTHONPATH=src python tools/bench_service.py --artifacts /tmp/store \
        --scenario chaos-names
    PYTHONPATH=src python tools/make_delta_feed.py --artifacts /tmp/store \
        --out /tmp/delta.json.gz
    PYTHONPATH=src python tools/bench_service.py --artifacts /tmp/store \
        --ingest /tmp/delta.json.gz --label current
    python tools/bench_service.py --check-schema BENCH_service.json
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

SCHEMA = "repro-bench-service/3"
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_service.json"

#: required keys of one serving run entry and their types.  ``scenario``
#: names the trace scenario the workload replayed (schema /2).
_RUN_FIELDS = {
    "label": str,
    "scenario": str,
    "requests": int,
    "clients": int,
    "n_cves": int,
    "version": str,
    "wall_s": (int, float),
    "rps": (int, float),
    "p50_ms": (int, float),
    "p95_ms": (int, float),
    "endpoints": dict,
}

#: optional serving-run keys added by the workers sweep (schema /3);
#: typed when present, absent on in-process runs.  ``cache`` and
#: ``shared_cache`` only appear on older sweeps, which also ran a
#: since-removed shared-memory cache, and ``cache_hit_ratio`` only on
#: sweeps from before the per-worker response cache was removed;
#: ``loadgen_cpu_us_per_req`` (this
#: process's CPU time over the replay, per request: the load
#: generator's share of the cores) only on newer ones.
_OPTIONAL_RUN_FIELDS = {
    "workers": int,
    "cache": str,
    "cache_hit_ratio": (int, float),
    "shared_cache": dict,
    "loadgen_cpu_us_per_req": (int, float),
}

#: required keys of one ``kind: "ingest"`` run entry.
_INGEST_FIELDS = {
    "label": str,
    "scenario": str,
    "n_delta": int,
    "n_new": int,
    "n_updated": int,
    "n_cves": int,
    "version": str,
    "wall_s": (int, float),
    "cves_per_s": (int, float),
}

def validate(data: object) -> list[str]:
    """Schema errors in a BENCH_service.json document (empty = valid)."""
    errors: list[str] = []
    if not isinstance(data, dict):
        return ["document must be a JSON object"]
    if data.get("schema") != SCHEMA:
        errors.append(f"schema must be {SCHEMA!r}, got {data.get('schema')!r}")
    runs = data.get("runs")
    if not isinstance(runs, list) or not runs:
        return errors + ["runs must be a non-empty list"]
    for i, run in enumerate(runs):
        if not isinstance(run, dict):
            errors.append(f"runs[{i}] must be an object")
            continue
        kind = run.get("kind", "serving")
        if kind not in ("serving", "ingest"):
            errors.append(f"runs[{i}].kind must be 'serving' or 'ingest'")
            continue
        fields = _INGEST_FIELDS if kind == "ingest" else _RUN_FIELDS
        for field, types in fields.items():
            if field not in run:
                errors.append(f"runs[{i}] missing field {field!r}")
            elif not isinstance(run[field], types):
                errors.append(f"runs[{i}].{field} has wrong type")
        if kind == "ingest":
            continue
        for field, types in _OPTIONAL_RUN_FIELDS.items():
            if field in run and run[field] is not None and not isinstance(
                run[field], types
            ):
                errors.append(f"runs[{i}].{field} has wrong type")
        if run.get("cache") not in (None, "shared", "private"):
            errors.append(f"runs[{i}].cache must be 'shared' or 'private'")
        endpoints = run.get("endpoints")
        if isinstance(endpoints, dict):
            for name, stats in endpoints.items():
                if not isinstance(stats, dict) or not {
                    "count",
                    "p50_ms",
                    "p95_ms",
                }.issubset(stats):
                    errors.append(
                        f"runs[{i}].endpoints[{name!r}] must carry "
                        "count/p50_ms/p95_ms"
                    )
    return errors


def load(path: pathlib.Path) -> dict:
    if path.exists():
        with path.open(encoding="utf-8") as handle:
            return json.load(handle)
    return {"schema": SCHEMA, "runs": []}


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile over an already sorted list."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[rank]


def fire(base_url: str, item: tuple[str, str, bytes | None]) -> tuple[str, int, float]:
    """One client request; returns (endpoint label, status, seconds)."""
    label, path, body = item
    request = urllib.request.Request(
        base_url + path,
        data=body,
        headers={"Content-Type": "application/json"} if body else {},
        method="POST" if body is not None else "GET",
    )
    start = time.perf_counter()
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            response.read()
            status = response.status
    except urllib.error.HTTPError as error:
        error.read()
        status = error.code
    return label, status, time.perf_counter() - start


def replay(
    base_url: str, workload: list, clients: int
) -> tuple[list[tuple[str, int, float]], float]:
    """Fire ``workload`` from ``clients`` threads; (results, wall s).
    Raises when any request answers >= 400."""
    with concurrent.futures.ThreadPoolExecutor(max_workers=clients) as pool:
        t_wall = time.perf_counter()
        results = list(pool.map(lambda item: fire(base_url, item), workload))
        wall_s = time.perf_counter() - t_wall
    failures = [status for _, status, _ in results if status >= 400]
    if failures:
        raise RuntimeError(
            f"{len(failures)} requests failed (first status {failures[0]})"
        )
    return results, wall_s


def latency_fields(results: list[tuple[str, int, float]], wall_s: float) -> dict:
    """Wall time, rps and p50/p95 latency, overall and per endpoint."""
    latencies = sorted(seconds for _, _, seconds in results)
    by_endpoint: dict[str, list[float]] = {}
    for endpoint, _, seconds in results:
        by_endpoint.setdefault(endpoint, []).append(seconds)
    return {
        "wall_s": round(wall_s, 3),
        "rps": round(len(results) / wall_s, 1) if wall_s > 0 else 0.0,
        "p50_ms": round(percentile(latencies, 0.50) * 1000, 3),
        "p95_ms": round(percentile(latencies, 0.95) * 1000, 3),
        "endpoints": {
            name: {
                "count": len(values),
                "p50_ms": round(percentile(sorted(values), 0.50) * 1000, 3),
                "p95_ms": round(percentile(sorted(values), 0.95) * 1000, 3),
            }
            for name, values in sorted(by_endpoint.items())
        },
    }


def bench(
    artifacts_dir: pathlib.Path,
    n_requests: int,
    clients: int,
    seed: int,
    label: str,
    scenario_name: str = "baseline",
) -> dict:
    """Start the server, replay the scenario's request trace, return the
    run record."""
    from repro.artifacts import read_current
    from repro.service import create_server
    from repro.synth import build_request_trace, get_scenario

    scenario = get_scenario(scenario_name)

    t_cold = time.perf_counter()
    # Pin the live version: a pinned server never polls CURRENT, so the
    # measured request path carries no per-request pointer stat.
    server = create_server(artifacts_dir, port=0, version=read_current(artifacts_dir))
    cold_start_s = time.perf_counter() - t_cold
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address[:2]
    base_url = f"http://{host}:{port}"
    # The server already loaded (and hash-verified) the store; reuse
    # its artifacts for the workload ids instead of loading twice.
    artifacts = server.service.state.artifacts
    workload = build_request_trace(scenario.trace, artifacts.snapshot, n_requests, seed)
    print(
        f"[bench-service] {base_url} version={artifacts.version} "
        f"n_cves={len(artifacts.snapshot)} requests={n_requests} "
        f"clients={clients} scenario={scenario.name} "
        f"(cold start {cold_start_s:.2f}s)"
    )
    try:
        results, wall_s = replay(base_url, workload, clients)
    finally:
        server.shutdown()
        server.server_close()
    return {
        "label": label,
        "scenario": scenario.name,
        "requests": n_requests,
        "clients": clients,
        "n_cves": len(artifacts.snapshot),
        "version": artifacts.version,
        "cold_start_s": round(cold_start_s, 3),
        **latency_fields(results, wall_s),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def _free_port(host: str = "127.0.0.1") -> int:
    """An ephemeral port number (released before the server binds it)."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


def _wait_healthy(base_url: str, timeout_s: float = 60.0) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            with urllib.request.urlopen(base_url + "/healthz", timeout=2) as resp:
                if resp.status == 200:
                    return
        except (urllib.error.URLError, OSError):
            pass
        time.sleep(0.1)
    raise RuntimeError(f"server at {base_url} never became healthy")


def _collect_worker_metrics(
    base_url: str, expect: int, attempts: int = 200
) -> dict[int, dict]:
    """Latest ``/v1/metrics`` blob per worker pid.

    ``SO_REUSEPORT`` load-balances *connections*, so hitting the
    endpoint repeatedly eventually lands on every worker; each blob
    carries its worker's ``pid``.  Returns what it saw even when fewer
    than ``expect`` pids answered within the attempt budget.
    """
    seen: dict[int, dict] = {}
    for _ in range(attempts):
        try:
            with urllib.request.urlopen(base_url + "/v1/metrics", timeout=5) as resp:
                blob = json.loads(resp.read())
        except (urllib.error.URLError, OSError, json.JSONDecodeError):
            time.sleep(0.05)
            continue
        pid = blob.get("pid")
        if isinstance(pid, int):
            seen[pid] = blob
        if len(seen) >= expect:
            break
    return seen


def bench_workers_sweep(
    artifacts_dir: pathlib.Path,
    counts: list[int],
    n_requests: int,
    clients: int,
    seed: int,
    label: str,
    scenario_name: str,
) -> list[dict]:
    """One run record per worker count.

    Unlike :func:`bench` this drives real ``repro serve`` subprocesses
    — the supervisor and its ``SO_REUSEPORT`` workers are the
    production path.  The same trace replays against every worker
    count, so the counts compare like for like.
    """
    from repro.artifacts import load_artifacts, read_current
    from repro.synth import build_request_trace, get_scenario

    scenario = get_scenario(scenario_name)
    current = read_current(artifacts_dir)
    artifacts = load_artifacts(artifacts_dir, current)
    workload = build_request_trace(
        scenario.trace, artifacts.snapshot, n_requests, seed
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    runs: list[dict] = []
    for workers in counts:
        port = _free_port()
        base_url = f"http://127.0.0.1:{port}"
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--artifacts", str(artifacts_dir),
            "--port", str(port),
            "--workers", str(workers),
        ]
        if current:
            cmd += ["--version", current]
        proc = subprocess.Popen(
            cmd,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        try:
            _wait_healthy(base_url)
            print(
                f"[bench-service] sweep: workers={workers} at {base_url}"
            )
            cpu_started = time.process_time()
            results, wall_s = replay(base_url, workload, clients)
            loadgen_cpu_s = time.process_time() - cpu_started
            per_worker = _collect_worker_metrics(base_url, workers)
        finally:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5)
        run = {
            "label": label,
            "scenario": scenario.name,
            "requests": n_requests,
            "clients": clients,
            "workers": workers,
            "n_cves": len(artifacts.snapshot),
            "version": artifacts.version,
            **latency_fields(results, wall_s),
            "workers_reporting": len(per_worker),
            "loadgen_cpu_us_per_req": round(loadgen_cpu_s / len(results) * 1e6, 1),
            "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        }
        print(
            f"[bench-service]   {run['rps']} req/s, p50 "
            f"{run['p50_ms']}ms, p95 {run['p95_ms']}ms, "
            f"{run['workers_reporting']} of {workers} workers reporting"
        )
        runs.append(run)
    return runs


def bench_ingest(
    artifacts_dir: pathlib.Path,
    delta_path: pathlib.Path,
    label: str,
    scenario_name: str = "baseline",
) -> dict:
    """Time one incremental ingest of ``delta_path`` into the store.

    The store gains a new version (that is the workload being measured
    — delta cleaning *plus* the atomic export/pointer flip).
    """
    from repro.artifacts import ingest_delta
    from repro.nvd import load_feed
    from repro.synth import get_scenario

    scenario = get_scenario(scenario_name)
    entries = load_feed(delta_path)
    print(
        f"[bench-service] ingesting {len(entries)} delta CVEs "
        f"into {artifacts_dir} ..."
    )
    t_ingest = time.perf_counter()
    result = ingest_delta(artifacts_dir, entries)
    wall_s = time.perf_counter() - t_ingest
    return {
        "kind": "ingest",
        "label": label,
        "scenario": scenario.name,
        "n_delta": result.n_delta,
        "n_new": result.n_new,
        "n_updated": result.n_updated,
        "n_predicted": result.n_predicted,
        "n_cves": result.n_total,
        "version": result.version,
        "parent": result.parent,
        "wall_s": round(wall_s, 3),
        "cves_per_s": round(result.n_delta / wall_s, 1) if wall_s > 0 else 0.0,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--artifacts", type=pathlib.Path, metavar="DIR",
        help="artifact store to cold-start the server from",
    )
    parser.add_argument(
        "--ingest", type=pathlib.Path, metavar="DELTA_FEED",
        help="benchmark the ingest path instead: roll this delta feed "
        "into the store (adds a version) and record throughput",
    )
    parser.add_argument("--requests", type=int, default=1000)
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--label", default="current")
    parser.add_argument(
        "--workers-sweep", metavar="N,N,...",
        help="benchmark real `repro serve --workers N` subprocesses for "
        "each worker count (e.g. 1,2,4), recording per-count rps, "
        "latency and the number of workers that reported metrics",
    )
    parser.add_argument(
        "--scenario", default="baseline", metavar="NAME",
        help="scenario preset whose request trace to replay "
        "(default: baseline)",
    )
    parser.add_argument(
        "--output", type=pathlib.Path, default=DEFAULT_OUTPUT,
        help="trajectory JSON to append to (default: BENCH_service.json)",
    )
    parser.add_argument(
        "--check-schema", type=pathlib.Path, metavar="FILE",
        help="validate FILE against the service-bench schema and exit",
    )
    args = parser.parse_args(argv)

    if args.check_schema is not None:
        try:
            with args.check_schema.open(encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            print(f"[bench-service] {args.check_schema}: unreadable: {error}")
            return 1
        errors = validate(data)
        for error in errors:
            print(f"[bench-service] schema error: {error}")
        print(
            f"[bench-service] {args.check_schema}: "
            + ("INVALID" if errors else f"valid ({len(data['runs'])} runs)")
        )
        return 1 if errors else 0

    if args.artifacts is None:
        parser.error("--artifacts is required (or use --check-schema)")
    if args.requests < 1 or args.clients < 1:
        parser.error("--requests and --clients must be positive")

    from repro.synth import ScenarioError, get_scenario

    try:
        get_scenario(args.scenario)
    except ScenarioError as error:
        parser.error(str(error))

    document = load(args.output)
    if "runs" not in document or not isinstance(document.get("runs"), list):
        document = {"schema": SCHEMA, "runs": []}
    document["schema"] = SCHEMA

    if args.workers_sweep is not None:
        try:
            counts = [int(part) for part in args.workers_sweep.split(",") if part]
        except ValueError:
            parser.error("--workers-sweep must be a comma list of integers")
        if not counts or any(count < 1 for count in counts):
            parser.error("--workers-sweep counts must be positive")
        runs = bench_workers_sweep(
            args.artifacts,
            counts,
            args.requests,
            args.clients,
            args.seed,
            args.label,
            args.scenario,
        )
        document["runs"].extend(runs)
    elif args.ingest is not None:
        run = bench_ingest(args.artifacts, args.ingest, args.label, scenario_name=args.scenario)
        document["runs"].append(run)
        print(
            f"[bench-service] ingest: {run['n_delta']} delta CVEs in "
            f"{run['wall_s']}s ({run['cves_per_s']} CVEs/s) → version "
            f"{run['version']} ({run['n_cves']} total)"
        )
    else:
        run = bench(
            args.artifacts,
            args.requests,
            args.clients,
            args.seed,
            args.label,
            scenario_name=args.scenario,
        )
        document["runs"].append(run)
        print(
            f"[bench-service] {run['rps']} req/s, p50 {run['p50_ms']}ms, "
            f"p95 {run['p95_ms']}ms over {run['requests']} requests"
        )
        for name, stats in run["endpoints"].items():
            print(
                f"  {name:<10} count={stats['count']:<6} "
                f"p50={stats['p50_ms']}ms p95={stats['p95_ms']}ms"
            )

    errors = validate(document)
    if errors:  # defensive: never write a file CI would reject
        for error in errors:
            print(f"[bench-service] internal schema error: {error}")
        return 1
    args.output.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    print(f"[bench-service] wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
