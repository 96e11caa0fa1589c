"""The service object behind the HTTP API.

A :class:`NvdService` owns the loaded :class:`ServiceState`, a metrics
registry, the hot-swap logic and the per-request telemetry.
:meth:`NvdService.handle` looks the request up in the route table
(:mod:`repro.service.routes`), calls its handler and encodes the
payload, so the whole API is unit-testable without sockets; the socket
layer (:mod:`repro.service.server`) only frames requests and writes
responses.

Telemetry has one store, the service's
:class:`repro.obs.MetricsRegistry`: request counts by endpoint and
status, a fixed-bucket latency histogram, and hot-swap, reload and
breaker counters.  ``/metrics`` renders it as Prometheus text;
``/v1/metrics`` is a JSON view that sums its series into the
long-standing counter keys.  A request is counted when it finishes, so a
``/v1/metrics`` response never counts itself.  Each request gets a trace
id (or honours one sent as ``X-Repro-Trace-Id``) which is echoed back in
the ``X-Repro-Trace-Id`` response header; with a trace target configured
the service streams one span per request into a Chrome trace-event file,
and with ``--access-log`` it appends one JSONL line per request (ts,
method, path, status, latency ms, trace id) — the structured
replacement for the suppressed ``BaseHTTPRequestHandler`` stderr log.

Hot swap: at most once per ``reload_interval`` seconds the service
re-reads the store's ``CURRENT`` pointer; when it names a different
version (after ``python -m repro ingest``), the new version loads and
the state reference swaps atomically — in-flight requests finish on
the old state, and ``swaps`` increments in ``/v1/metrics``.

The reload path carries a **circuit breaker**: after
``BREAKER_THRESHOLD`` consecutive reload failures (mid-export store,
corrupt pointer target) the service stops probing for
``BREAKER_COOLDOWN_S`` seconds and keeps serving the last good
version; one half-open probe after the cooldown either closes the
breaker or re-opens it.  While the breaker is tripped, or
the supervisor's status file (``ROOT/.supervisor.json``) reports dead
workers, the service reports itself *degraded* — ``/healthz`` answers
``status: "degraded"`` and ``/v1/metrics`` carries the breaker state and
the ``supervisor`` block — instead of flapping or dying.
"""

from __future__ import annotations

import collections
import datetime
import json
import os
import pathlib
import re
import threading
import time
import urllib.parse

from repro import perf
from repro.artifacts import ArtifactError, read_current
from repro.obs import MetricsRegistry, TraceWriter, render_prometheus
from repro.obs.trace import process_name_event
from repro.service.routes import (
    JSON_CONTENT_TYPE,
    SERVICE_NAME,
    Request,
    ServiceResponse,
    resolve,
)
from repro.service.state import ServiceError, ServiceState

__all__ = ["NvdService", "ServiceResponse"]

#: the supervisor's status drop-box, relative to the artifact root.
SUPERVISOR_STATUS = ".supervisor.json"

#: consecutive reload failures that open the circuit breaker, and the
#: seconds it then stays open.
BREAKER_THRESHOLD = 3
BREAKER_COOLDOWN_S = 5.0

#: fixed latency-histogram boundaries (seconds).  Declared, never
#: derived from traffic, so exposition output is deterministic.
REQUEST_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)

#: accepted shape for a client-supplied X-Repro-Trace-Id.
_TRACE_ID_RE = re.compile(r"[0-9a-fA-F-]{1,64}")


class NvdService:
    """Routing, metrics and hot-swap over a ServiceState."""

    def __init__(
        self,
        root: str | os.PathLike[str],
        *,
        version: str | None = None,
        reload_interval: float = 1.0,
        access_log: str | os.PathLike[str] | None = None,
        trace_path: str | os.PathLike[str] | None = None,
    ) -> None:
        self.root = pathlib.Path(root)
        #: a pinned server never hot-swaps (explicit --version).
        self.pinned = version is not None
        self.reload_interval = float(reload_interval)
        self._state = ServiceState.load(self.root, version)
        self._swap_lock = threading.Lock()
        self._last_check = time.monotonic()
        self._started = time.time()
        #: consecutive reload failures; >= threshold trips the breaker.
        self._breaker_failures = 0
        self._breaker_open_until: float | None = None
        self.registry = self._build_registry()
        #: the JSONL access log, one flushed line per request.
        self._access_log = open(access_log, "a", encoding="utf-8") if access_log else None
        self._access_lock = threading.Lock()
        self._trace: TraceWriter | None = None
        if trace_path:
            self._trace = TraceWriter(trace_path)
            self._trace.add_event(
                process_name_event(os.getpid(), f"{SERVICE_NAME} (pid {os.getpid()})")
            )

    def _build_registry(self) -> MetricsRegistry:
        """Declare every service metric once, with fixed buckets."""
        registry = MetricsRegistry()
        self._prom_requests = registry.counter(
            "repro_http_requests_total",
            "HTTP requests handled, labelled by endpoint and status code.",
            labels=("endpoint", "status"),
        )
        self._prom_latency = registry.histogram(
            "repro_http_request_seconds",
            "Request handling latency in seconds, per endpoint.",
            REQUEST_LATENCY_BUCKETS,
            labels=("endpoint",),
        )
        self._prom_swaps = registry.counter(
            "repro_service_hot_swaps_total", "Completed hot swaps to a new artifact version."
        )
        self._prom_reload_failures = registry.counter(
            "repro_service_reload_failures_total", "Failed hot-swap reload attempts."
        )
        self._prom_breaker_opened = registry.counter(
            "repro_service_breaker_opened_total",
            "Times the reload circuit breaker opened.",
        )
        self._g_degraded = registry.gauge(
            "repro_service_degraded",
            "1 while the service is degraded (breaker tripped or dead workers).",
        )
        self._g_breaker_open = registry.gauge(
            "repro_service_breaker_open",
            "1 while the reload circuit breaker is in its cooldown.",
        )
        self._g_breaker_failures = registry.gauge(
            "repro_service_breaker_consecutive_failures",
            "Consecutive reload failures feeding the breaker.",
        )
        self._g_uptime = registry.gauge(
            "repro_service_uptime_seconds", "Seconds since this worker started."
        )
        self._g_info = registry.gauge(
            "repro_service_info",
            "Static service identity; the value is always 1.",
            labels=("service", "version", "model"),
        )
        self._g_sup_alive = registry.gauge(
            "repro_supervisor_workers_alive",
            "Serve workers the supervisor reports alive.",
        )
        self._g_sup_restarts = registry.gauge(
            "repro_supervisor_restarts",
            "Worker restarts performed by the supervisor.",
        )
        self._info_series = None
        return registry

    def close(self) -> None:
        """Release the access log and trace writer."""
        if self._access_log is not None:
            with self._access_lock:
                self._access_log.close()
        if self._trace is not None:
            self._trace.close()

    # -- bookkeeping ---------------------------------------------------------

    @property
    def state(self) -> ServiceState:
        return self._state

    @property
    def breaker_open(self) -> bool:
        """True while the reload circuit breaker is in its cooldown."""
        return (
            self._breaker_open_until is not None
            and time.monotonic() < self._breaker_open_until
        )

    @property
    def degraded(self) -> bool:
        """True when the service is limping: the reload breaker has
        tripped (serving a pinned last-good version) or the supervisor
        reports dead workers."""
        if self._breaker_failures >= BREAKER_THRESHOLD:
            return True
        status = self.supervisor_status()
        return bool(status and status.get("degraded"))

    def supervisor_status(self) -> dict | None:
        """The supervisor's status drop-box, if one is running.

        Read afresh on every call: only ``/healthz``, ``/v1/metrics``
        and ``/metrics`` ask, and two writes of the same size within one
        timestamp granule look identical to ``stat``.
        """
        try:
            status = json.loads(
                (self.root / SUPERVISOR_STATUS).read_text(encoding="utf-8")
            )
        except (OSError, json.JSONDecodeError):
            return None
        return status if isinstance(status, dict) else None

    def maybe_reload(self) -> bool:
        """Hot-swap to the store's ``CURRENT`` version if it moved.

        Rate-limited to one pointer read per ``reload_interval``
        (``0`` checks on every request — the tests use that; pin a
        version to disable polling entirely); the actual reload happens
        under a non-blocking lock so concurrent requests keep serving
        the old state instead of piling up.  Returns True when a swap
        happened.  Reload failures feed the circuit breaker (see the
        module docstring).
        """
        if self.pinned:
            return False
        now = time.monotonic()
        if self._breaker_open_until is not None and now < self._breaker_open_until:
            return False  # breaker open: pinned to the last good version
        if self.reload_interval > 0 and now - self._last_check < self.reload_interval:
            return False
        if not self._swap_lock.acquire(blocking=False):
            return False
        try:
            self._last_check = time.monotonic()
            current = read_current(self.root)
            if current is None or current == self._state.version:
                return False
            try:
                new_state = ServiceState.load(self.root, current)
            except ArtifactError:
                # Mid-export or corrupt pointer target: keep serving
                # the loaded version; the next interval retries.
                self._prom_reload_failures.inc()
                self._breaker_failures += 1
                if self._breaker_failures >= BREAKER_THRESHOLD:
                    self._breaker_open_until = (
                        time.monotonic() + BREAKER_COOLDOWN_S
                    )
                    self._prom_breaker_opened.inc()
                return False
            self._breaker_failures = 0
            self._breaker_open_until = None
            self._state = new_state
            self._prom_swaps.inc()
            return True
        finally:
            self._swap_lock.release()

    # -- request handling ----------------------------------------------------

    def handle(
        self,
        method: str,
        path: str,
        body: bytes | None,
        trace_id: str | None = None,
        read_error: ServiceError | None = None,
    ) -> ServiceResponse:
        """Route one request.

        ``trace_id`` is the client's ``X-Repro-Trace-Id``, if any — an
        unusable value is replaced, never trusted into logs.
        ``read_error`` is a failure the transport hit before it could
        read the request body (a malformed or oversized
        ``Content-Length``, or a ``Transfer-Encoding``); the request is
        answered with it and counted like any other.  The returned
        :class:`ServiceResponse` carries the body, content type, and the
        trace id the transport layer echoes back.
        """
        started = time.perf_counter()
        if trace_id is None or not _TRACE_ID_RE.fullmatch(trace_id):
            trace_id = perf.new_trace_id()
        self.maybe_reload()
        raw_path = path
        path, _, query = path.partition("?")
        route, args = resolve(method, path)
        content_type = JSON_CONTENT_TYPE
        try:
            if read_error is not None:
                raise read_error
            if route is None:
                raise ServiceError(404, f"no route for {method} {path}")
            # One state per request: a hot swap mid-request leaves the
            # handler answering wholly from the version it started on.
            request = Request(self, self._state, args, urllib.parse.parse_qs(query), body)
            status, payload = 200, route.handler(request)
            content_type = route.content_type
        except ServiceError as error:
            status, payload = error.status, {"error": error.message}
        except Exception as error:  # never let a bug kill the worker thread
            status, payload = 500, {"error": f"internal error: {error}"}
        if not isinstance(payload, bytes):  # a stored body goes out as it is
            if content_type == JSON_CONTENT_TYPE:
                payload = json.dumps(payload)
            payload = payload.encode("utf-8")
        response = ServiceResponse(status, payload, content_type, trace_id)
        endpoint = route.endpoint if route is not None else "unknown"
        self._finish(response, endpoint, method, raw_path, started)
        return response

    def _finish(
        self,
        response: ServiceResponse,
        endpoint: str,
        method: str,
        raw_path: str,
        started: float,
    ) -> None:
        """Per-request telemetry: registry series, access log, span."""
        elapsed = time.perf_counter() - started
        self._prom_requests.labels(endpoint, str(response.status)).inc()
        self._prom_latency.labels(endpoint).observe(elapsed)
        if self._access_log is None and self._trace is None:
            return
        record = {
            "method": method,
            "path": raw_path,
            "status": response.status,
            "latency_ms": round(elapsed * 1000.0, 3),
            "trace_id": response.trace_id,
        }
        if self._access_log is not None:
            now = datetime.datetime.now(datetime.timezone.utc)
            line = json.dumps(
                {"ts": now.isoformat(timespec="milliseconds"), **record},
                separators=(",", ":"),
            )
            with self._access_lock:
                self._access_log.write(line + "\n")
                self._access_log.flush()
        if self._trace is not None:
            self._trace.add_event(
                {
                    "name": f"{method} {endpoint}",
                    "cat": "request",
                    "ph": "X",
                    "ts": int(started * 1e6),
                    "dur": int(elapsed * 1e6),
                    "pid": os.getpid(),
                    "tid": threading.get_ident() & 0x7FFFFFFF,
                    "args": record,
                }
            )

    def metrics_payload(self) -> dict:
        """The ``/v1/metrics`` JSON: registry series summed into the
        long-standing counter keys, each present once it is nonzero.
        ``errors_internal`` counts 500s, which only a dispatch bug makes."""
        counters: collections.Counter[str] = collections.Counter()
        for series in self._prom_requests.series():
            endpoint, status = series.labels
            count = int(series.value)
            counters["requests_total"] += count
            if endpoint != "unknown":
                counters[f"endpoint_{endpoint}"] += count
            counters[f"responses_{int(status) // 100}xx"] += count
            if status == "500":
                counters["errors_internal"] += count
        for name, metric in (
            ("hot_swaps", self._prom_swaps),
            ("reload_failures", self._prom_reload_failures),
            ("breaker_opened", self._prom_breaker_opened),
        ):
            for series in metric.series():
                counters[name] += int(series.value)
        payload = {
            "service": SERVICE_NAME,
            "pid": os.getpid(),
            "version": self._state.version,
            "model": self._state.model_used,
            "uptime_s": round(time.time() - self._started, 3),
            "swaps": counters.get("hot_swaps", 0),
            "counters": dict(counters),
            "degraded": self.degraded,
            "breaker": {
                "open": self.breaker_open,
                "consecutive_failures": self._breaker_failures,
                "threshold": BREAKER_THRESHOLD,
            },
        }
        supervisor = self.supervisor_status()
        if supervisor is not None:
            payload["supervisor"] = supervisor
        return payload

    def render_metrics_text(self) -> str:
        """The Prometheus exposition for ``/metrics``.

        Gauges refresh at render time (uptime, breaker and supervisor
        state); the perf recorder's registry renders after
        this service's, so the pipeline counters and phase timers of any
        in-process work (ingest, warmup) are visible too.
        """
        state = self._state
        self._g_uptime.set(round(time.time() - self._started, 3))
        self._g_degraded.set(1.0 if self.degraded else 0.0)
        self._g_breaker_open.set(1.0 if self.breaker_open else 0.0)
        self._g_breaker_failures.set(self._breaker_failures)
        info = self._g_info.labels(SERVICE_NAME, state.version, state.model_used)
        if self._info_series is not None and self._info_series is not info:
            self._info_series.set(0)  # retire the pre-swap identity series
        info.set(1)
        self._info_series = info
        supervisor = self.supervisor_status()
        if supervisor is not None:
            self._g_sup_alive.set(supervisor.get("alive", 0))
            self._g_sup_restarts.set(supervisor.get("restarts", 0))
        return render_prometheus(self.registry, perf.get_recorder().registry)
