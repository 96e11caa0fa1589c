"""The ``serve-keepalive`` and ``serve-connect`` workloads.

Both run ``python -m repro serve`` (one worker, default knobs, version
pinned) over a store built from the workload seed, and replay the
``baseline`` request trace (a 50/15/15/10/5/5 cve / vendor / product /
predict / stats / healthz mix) from one load-generator process: a
closed loop of 2 client threads, each sending its next request only
after the previous answer.

- ``serve-keepalive``: each client keeps one persistent HTTP/1.1
  connection — what connection-reusing API clients feel, so transport
  changes show here.
- ``serve-connect``: a new connection per request — the same layers
  used differently (accept and a handler thread per connection), and
  the control a keep-alive transport change must not slow.

Every status is checked, and a seeded sample of response bodies
(predict responses included) must be byte-identical to what an
in-process service over the same store returns.  The traced run adds a
second pass against ``serve_traced.py``, which wraps the service entry
points inside the server; each request carries an ``X-Repro-Trace-Id``
so its client round trip joins the server's ``handle`` span.
"""

from __future__ import annotations

import dataclasses
import hashlib
import http.client
import json
import pathlib
import random
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

import common
import fixture
import tracer as tracing

CLIENTS = 2
SETUP_REPEATS = 3
#: requests each client sends before the measured window opens.
WARMUP_PER_CLIENT = 25
#: the measured window is cut into slices this long; the gated latency
#: and rate come from the least-disturbed slice (the machine's speed
#: drifts over seconds, the program's does not).
SLICE_S = 1.0
#: trace length; clients cycle through it if a run outlasts it.
TRACE_REQUESTS = 50_000
SAMPLE_REQUESTS = 160
SAMPLE_PREDICTS = 40
HOST = "127.0.0.1"
HEALTHY_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 20.0
LAUNCHER = pathlib.Path(__file__).resolve().parent / "serve_traced.py"


@dataclasses.dataclass
class Request:
    index: int
    label: str
    method: str
    path: str
    body: bytes | None
    status: int
    rtt_s: float
    trace_id: str
    digest: bytes
    measured: bool
    #: completion time (``time.perf_counter``).
    done_s: float


@dataclasses.dataclass
class Load:
    requests: list[Request]
    start_s: float
    window_s: float
    server_cpu_s: float
    client_cpu_s: float

    @property
    def measured(self) -> list[Request]:
        return [request for request in self.requests if request.measured]


class _Exited(Exception):
    """The server process ended before answering (e.g. its port was taken)."""


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


def _get(port: int, path: str, timeout: float = 5.0) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection(HOST, port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _wait_healthy(proc: subprocess.Popen, port: int) -> None:
    deadline = time.monotonic() + HEALTHY_TIMEOUT_S
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise _Exited(proc.returncode)
        try:
            if _get(port, "/healthz", timeout=2.0)[0] == 200:
                return
        except OSError:
            pass
        time.sleep(0.005)
    raise RuntimeError(f"server on port {port} never answered /healthz")


def stop(proc: subprocess.Popen) -> None:
    """Interrupt the server (it shuts down cleanly on SIGINT) and wait."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def spawn(argv: list[str], log: pathlib.Path) -> tuple[subprocess.Popen, int, float]:
    """Start a server; return it, its port, and the seconds from spawn
    until its first ``/healthz`` 200."""
    for _ in range(3):
        port = _free_port()
        with log.open("ab") as log_handle:
            started = time.perf_counter()
            proc = subprocess.Popen(
                [*argv, "--port", str(port)],
                env=common.child_env(),
                cwd=common.ROOT,
                stdout=log_handle,
                stderr=log_handle,
            )
        try:
            _wait_healthy(proc, port)
            return proc, port, time.perf_counter() - started
        except _Exited:
            proc.wait()
        except BaseException:
            stop(proc)
            raise
    raise RuntimeError(f"server failed to start three times; see {log}")


def run_load(
    port: int,
    items: list[tuple[str, str, bytes | None]],
    seconds: float,
    keepalive: bool,
    tag: int,
    server_pid: int,
) -> Load:
    """Closed-loop replay of ``items`` by :data:`CLIENTS` threads: a
    warm-up of :data:`WARMUP_PER_CLIENT` requests each, then a measured
    window of ``seconds``."""
    lock = threading.Lock()
    next_index = [0]
    window: dict[str, float] = {}

    def open_window() -> None:
        window["server_cpu"] = common.cpu_seconds(server_pid)
        window["client_cpu"] = time.process_time()
        window["start"] = time.perf_counter()
        window["deadline"] = window["start"] + seconds

    barrier = threading.Barrier(CLIENTS, action=open_window)
    results: list[list[Request]] = [[] for _ in range(CLIENTS)]

    def client(slot: int) -> None:
        conn: http.client.HTTPConnection | None = None

        def fire(measured: bool) -> None:
            nonlocal conn
            with lock:
                index = next_index[0]
                next_index[0] += 1
            label, path, body = items[index % len(items)]
            method = "GET" if body is None else "POST"
            trace_id = f"{tag:02x}{index:08x}"
            headers = {"X-Repro-Trace-Id": trace_id}
            if body is not None:
                headers["Content-Type"] = "application/json"
            if not keepalive:
                headers["Connection"] = "close"
            if conn is None:
                conn = http.client.HTTPConnection(HOST, port, timeout=30)
            started = time.perf_counter()
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                data = response.read()
                status = response.status
            except (OSError, http.client.HTTPException):
                status, data = 0, b""
                conn.close()
                conn = None
            done = time.perf_counter()
            rtt = done - started
            if not keepalive and conn is not None:
                conn.close()
                conn = None
            results[slot].append(
                Request(
                    index, label, method, path, body, status, rtt, trace_id,
                    hashlib.sha1(data).digest(), measured, done,
                )
            )

        try:
            for _ in range(WARMUP_PER_CLIENT):
                fire(False)
            barrier.wait(timeout=HEALTHY_TIMEOUT_S)
            while time.perf_counter() < window["deadline"]:
                fire(True)
        finally:
            if conn is not None:
                conn.close()

    threads = [threading.Thread(target=client, args=(slot,)) for slot in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    ended = time.perf_counter()
    if "start" not in window:
        raise RuntimeError("the load generator's clients never finished warming up")
    requests = sorted((r for slot in results for r in slot), key=lambda r: r.index)
    return Load(
        requests=requests,
        start_s=window["start"],
        window_s=ended - window["start"],
        server_cpu_s=common.cpu_seconds(server_pid) - window["server_cpu"],
        client_cpu_s=time.process_time() - window["client_cpu"],
    )


def check_requests(
    requests: list[Request], service, seed: int
) -> dict[int, list[str]]:
    """Problems per request index: every non-2xx status, plus a seeded
    sample of bodies compared byte for byte with an in-process service
    over the same store."""
    problems: dict[int, list[str]] = {}
    answered = []
    for request in requests:
        if 200 <= request.status < 300:
            answered.append(request)
        else:
            problems[request.index] = [
                f"{request.method} {request.path} answered {request.status or 'no response'}"
            ]
    rng = random.Random(seed)
    predicts = [r for r in answered if r.label == "predict"]
    others = [r for r in answered if r.label != "predict"]
    sample = rng.sample(predicts, min(SAMPLE_PREDICTS, len(predicts)))
    sample += rng.sample(others, min(SAMPLE_REQUESTS - len(sample), len(others)))
    for request in sample:
        expected = service.handle(request.method, request.path, request.body).body
        if hashlib.sha1(expected).digest() != request.digest:
            problems.setdefault(request.index, []).append(
                f"{request.method} {request.path}: body differs from the in-process service"
            )
    return problems


def best_slice(load: Load) -> tuple[float, float]:
    """``(lowest median round trip in ms, highest completion rate)``
    over the whole :data:`SLICE_S` slices of the measured window (the
    whole window when it is shorter than one slice).  A slice's rate is
    its completions per second between its first and last completion,
    which is not quantised to whole requests per slice."""
    n_slices = int(load.window_s // SLICE_S)
    slices: dict[int, list[Request]] = {}
    for request in load.measured:
        index = int((request.done_s - load.start_s) // SLICE_S)
        if index < n_slices or not n_slices:
            slices.setdefault(index if n_slices else 0, []).append(request)
    latencies, rates = [], []
    for requests in slices.values():
        latencies.append(statistics.median(r.rtt_s * 1000.0 for r in requests))
        done = sorted(r.done_s for r in requests)
        if len(done) > 1 and done[-1] > done[0]:
            rates.append((len(done) - 1) / (done[-1] - done[0]))
    return min(latencies), max(rates)


def _latency_record(load: Load) -> dict:
    rtts = sorted(r.rtt_s * 1000.0 for r in load.measured)
    predict = sorted(r.rtt_s * 1000.0 for r in load.measured if r.label == "predict")
    tail = common.tail_percentile(rtts)
    slice_p50_ms, slice_rps = best_slice(load)
    return {
        "best_slice": {"seconds": SLICE_S, "p50_ms": slice_p50_ms, "rps": slice_rps},
        "samples": len(rtts),
        "warmup_requests": len(load.requests) - len(rtts),
        "p50_ms": statistics.median(rtts),
        "tail": {"pct": tail[0], "ms": tail[1]} if tail else None,
        "predict_p50_ms": statistics.median(predict) if predict else None,
        "predict_samples": len(predict),
        "rps": len(rtts) / load.window_s,
        "service.cpu_us_per_req": load.server_cpu_s / len(rtts) * 1e6,
        "loadgen.cpu_us_per_req": load.client_cpu_s / len(rtts) * 1e6,
    }


def run(
    seed: int, seconds: float, trace: bool, scale: float, keepalive: bool
) -> common.Measured:
    from repro.service.http import NvdService
    from repro.synth import build_request_trace, get_scenario

    workload = "serve-keepalive" if keepalive else "serve-connect"
    outcome = common.Outcome()
    with common.workdir("serve-") as work:
        store = work / "store"
        built = fixture.build(seed, scale, store)
        version = built["version"]
        problems, checked = common.check_report(built["report"], seed, scale)
        service = NvdService(store, version=version)
        try:
            if service.state.model_used != "cnn":
                problems.append(f"the store serves {service.state.model_used!r}, not the CNN")
            outcome.record(problems)
            items = build_request_trace(
                get_scenario("baseline").trace,
                service.state.snapshot,
                TRACE_REQUESTS,
                seed,
            )
            argv = [
                sys.executable, "-m", "repro", "serve",
                "--artifacts", str(store), "--version", version,
            ]
            log = work / "server.log"
            setup_samples = []
            for repeat in range(SETUP_REPEATS):
                proc, port, setup_s = spawn(argv, log)
                setup_samples.append(setup_s)
                if repeat < SETUP_REPEATS - 1:
                    stop(proc)
            try:
                load = run_load(port, items, seconds, keepalive, 0, proc.pid)
                peak_rss_mb = common.vm_hwm_mb(proc.pid)
                _, metrics_body = _get(port, "/v1/metrics")
            finally:
                stop(proc)
            cache = json.loads(metrics_body).get("cache", {})
            record = {
                "store": {"version": version, "report": built["report"],
                          "expectation_checked": checked,
                          "pv3_digest": built["pv3_digest"]},
                "clients": CLIENTS,
                "loop": "closed",
                "connection": "keep-alive" if keepalive else "new per request",
                "setup_s": common.summary(setup_samples),
                **_latency_record(load),
                "service.cache_hit_ratio": cache.get("hit_ratio"),
            }
            _record_checks(outcome, load.requests, service, seed)
            end_to_end = {
                "setup_s": statistics.median(setup_samples),
                "latency_ms": record["best_slice"]["p50_ms"],
                "ops_per_s": record["best_slice"]["rps"],
                "peak_rss_mb": peak_rss_mb,
            }
            measured = common.Measured(outcome, end_to_end, {}, record)
            if trace:
                _traced(measured, work, store, version, items, seconds, keepalive,
                        seed, workload, service)
        finally:
            service.close()
    return measured


def _record_checks(outcome: common.Outcome, requests, service, seed: int) -> None:
    problems = check_requests(requests, service, seed)
    for request in requests:
        outcome.record(problems.get(request.index, []))


def _traced(measured, work, store, version, items, seconds, keepalive, seed,
            workload, service) -> None:
    trace_out = common.trace_path(workload, seed, "server")
    log = work / "traced-server.log"
    argv = [
        sys.executable, str(LAUNCHER), str(trace_out),
        "--artifacts", str(store), "--version", version,
    ]
    proc, port, _ = spawn(argv, log)
    try:
        load = run_load(port, items, seconds, keepalive, 1, proc.pid)
    finally:
        stop(proc)
    _record_checks(measured.outcome, load.requests, service, seed)
    from repro.obs.trace import load_trace

    spans = tracing.spans_from_trace(load_trace(trace_out))
    metrics, rows, rtt_us = server_layers(load.measured, spans)
    untraced = measured.record
    traced = _latency_record(load)
    metrics["trace.overhead_pct"] = (
        traced["best_slice"]["p50_ms"] / untraced["best_slice"]["p50_ms"] - 1.0
    ) * 100.0
    metrics["service.cache_hit_ratio"] = untraced["service.cache_hit_ratio"] or 0.0
    metrics["service.cpu_us_per_req"] = untraced["service.cpu_us_per_req"]
    metrics["loadgen.cpu_us_per_req"] = untraced["loadgen.cpu_us_per_req"]
    measured.per_layer.update(metrics)
    absent = _absent_layers(log)
    measured.table = [
        f"per-layer self time per request ({len(load.measured)} traced requests, "
        f"mean round trip {rtt_us:.1f} us; traced p50 {traced['p50_ms']:.3f} ms, "
        f"untraced p50 {untraced['p50_ms']:.3f} ms; absent: {absent or 'none'}):",
        *tracing.format_table(rows, rtt_us / 1e6, unit_scale=1e6, unit="us"),
        f"trace written to {trace_out}",
    ]


def _absent_layers(log: pathlib.Path) -> list[str]:
    for line in reversed(log.read_text(encoding="utf-8", errors="replace").splitlines()):
        if line.startswith("absent layers: "):
            return json.loads(line.partition(": ")[2])
    return []


def server_layers(
    requests: list[Request], spans: list[tracing.Span]
) -> tuple[dict[str, float], list[tuple[str, int, float, float]], float]:
    """Join client round trips to the server's spans on trace id.

    Returns the per-layer metrics, table rows (seconds per request) and
    the mean round trip in microseconds.  A request's transport time is
    its round trip minus its ``NvdService.handle`` span.  Work a request
    hands to another server thread (the predict batcher's scoring pass)
    is attributed to the predict ``handle`` span that contains it and
    taken out of that span's self time; what remains of a predict
    ``handle`` beyond that work is ``service.predict_wait_us``.
    """
    handles = {
        span.trace_id: span
        for span in spans
        if span.name == "service.handle" and span.trace_id
    }
    joined = {r.trace_id: r for r in requests if r.trace_id in handles}
    if not joined:  # NvdService.handle is gone: the whole trip is unattributed
        rtt_s = statistics.fmean(r.rtt_s for r in requests)
        return (
            {"service.transport_us": rtt_s * 1e6},
            [("service.transport", len(requests), rtt_s, rtt_s)],
            rtt_s * 1e6,
        )
    predict_handles = sorted(
        (handles[tid] for tid, r in joined.items() if r.label == "predict"),
        key=lambda span: span.start_ns,
    )
    attributed: dict[str, int] = {}
    for span in spans:
        if span.parent >= 0:
            if not span.trace_id:
                span.trace_id = spans[span.parent].trace_id
            continue
        if span.trace_id or span.name == "service.handle":
            continue
        owner = next(
            (h for h in predict_handles
             if h.start_ns <= span.start_ns and span.end_ns <= h.end_ns),
            None,
        )
        if owner is not None:
            span.trace_id = owner.trace_id
            attributed[owner.trace_id] = (
                attributed.get(owner.trace_id, 0) + span.end_ns - span.start_ns
            )
    n = len(joined)
    table = tracing.self_times(spans, keep=lambda span, root: span.trace_id in joined)
    table["service.handle"][2] -= sum(attributed.values()) / 1e9
    transport_s = sum(
        r.rtt_s - (handles[tid].end_ns - handles[tid].start_ns) / 1e9
        for tid, r in joined.items()
    )
    rtt_s = sum(r.rtt_s for r in joined.values())
    waits = [
        (handles[tid].end_ns - handles[tid].start_ns - attributed.get(tid, 0)) / 1e3
        for tid, r in joined.items()
        if r.label == "predict"
    ]
    metrics = {
        "service.transport_us": transport_s / n * 1e6,
        "service.handle_us": table["service.handle"][1] / n * 1e6,
        "service.handle_self_us": table["service.handle"][2] / n * 1e6,
        "service.predict_wait_us": statistics.fmean(waits) if waits else 0.0,
    }
    for name, (calls, total, _) in table.items():
        if name.startswith("service.") and name != "service.handle":
            metrics[f"{name}_us"] = total / calls * 1e6
        elif not name.startswith("service."):
            metrics[f"{name}_s"] = total / n
    startup = tracing.self_times(spans, keep=lambda span, root: span is root and span.name == "artifacts.load")
    if "artifacts.load" in startup:
        metrics["artifacts.load_s"] = startup["artifacts.load"][1]
    rows = [("service.transport", n, transport_s / n, transport_s / n)]
    rows += [(name, int(calls), total / n, own / n) for name, (calls, total, own) in table.items()]
    return metrics, rows, rtt_s / n * 1e6
