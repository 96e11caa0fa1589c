"""Dependency-free HTTP front end over an artifact store.

A :class:`NvdService` owns the loaded :class:`ServiceState`, an LRU
response cache, a metrics registry, and the hot-swap logic; the
:class:`ApiHandler` is a thin stdlib ``ThreadingHTTPServer`` handler
that delegates every request to :meth:`NvdService.handle`.  Keeping
routing and serialization on the service object makes the whole API
unit-testable without sockets.

Endpoints::

    GET  /healthz                         liveness + live version
    GET  /v1/stats                        §3 snapshot statistics
    GET  /v1/metrics                      JSON view of the registry's counters
    GET  /metrics                         Prometheus text exposition 0.0.4
    GET  /v1/cve/<id>                     one rectified CVE
    GET  /v1/vendor/<name>                consolidated vendor view
    GET  /v1/product/<vendor>/<product>   consolidated product view
    POST /v1/severity/predict             §4.3 prediction for a posted body

Any other path, and ``PUT``/``PATCH``/``DELETE``/``OPTIONS`` on any
path, gets a counted JSON ``404``.

Telemetry has one store, the service's
:class:`repro.obs.MetricsRegistry`: request counts by endpoint and
status, a fixed-bucket latency histogram, and cache, hot-swap, reload
and breaker counters.  ``/metrics`` renders it as Prometheus text;
``/v1/metrics`` is a JSON view that sums its series into the
long-standing counter keys.  A request is counted when it finishes, so a
``/v1/metrics`` response never counts itself.  Each request gets a trace
id (or honours one sent as ``X-Repro-Trace-Id``) which is echoed back in
the ``X-Repro-Trace-Id`` response header; with a trace target configured
the service streams one span per request into a Chrome trace-event file,
and with ``--access-log`` it appends one JSONL line per request (ts,
method, path, status, latency ms, cache hit, trace id) — the structured
replacement for the suppressed ``BaseHTTPRequestHandler`` stderr log.

The vendor and product views page their id lists: ``?offset=N`` and
``?limit=N`` (1..500, default 500) select a window, ``next_offset`` in
the response names the next page (``null`` when the list is done), and
``n_cves`` always carries the full count — nothing truncates silently.
Each page also carries ``next_cursor``, an opaque token encoding
``(version, position)``; following it (``?cursor=...``) resolves the
next page in O(page) and pins the walk to one artifact version — after
a hot swap a stale cursor fails with a self-describing 400 instead of
silently paging a reshuffled list (see :mod:`repro.service.cursor`).

``POST /v1/severity/predict`` scores on the request thread, under the
state's predict lock.

Hot swap: at most once per ``reload_interval`` seconds the service
re-reads the store's ``CURRENT`` pointer; when it names a different
version (after ``python -m repro ingest``), the new version loads and
the state reference swaps atomically — in-flight requests finish on
the old state, the response cache clears, and ``swaps`` increments in
``/v1/metrics``.

The reload path carries a **circuit breaker**: after
``BREAKER_THRESHOLD`` consecutive reload failures (mid-export store,
corrupt pointer target, injected ``serve.reload`` fault) the service
stops probing for ``BREAKER_COOLDOWN_S`` seconds and keeps serving the
last good version; one half-open probe after the cooldown either
closes the breaker or re-opens it.  While the breaker is tripped the
service reports itself *degraded* — ``/healthz`` answers ``status:
"degraded"`` and ``/v1/metrics`` carries the breaker state — instead
of flapping or dying.

Multi-process serving: ``serve(root, workers=N)`` (``python -m repro
serve --workers N``) hands off to
:class:`repro.service.supervisor.ServeSupervisor`, which spawns ``N``
single-process servers sharing the port via ``SO_REUSEPORT``, respawns
crashed workers under a restart budget with exponential backoff, and
publishes its status to ``ROOT/.supervisor.json`` — surfaced by every
worker's ``/v1/metrics`` (``supervisor`` block) and folded into the
degraded flag.
"""

from __future__ import annotations

import collections
import dataclasses
import datetime
import http.server
import json
import os
import pathlib
import re
import socket
import threading
import time
import urllib.parse

from repro import faults, perf
from repro.artifacts import ArtifactError, read_current
from repro.obs import (
    PROMETHEUS_CONTENT_TYPE,
    MetricsRegistry,
    TraceWriter,
    registry_from_perf,
    render_prometheus,
)
from repro.obs.trace import process_name_event, trace_target
from repro.service.cursor import CursorError, decode_cursor
from repro.service.state import MAX_IDS, ServiceError, ServiceState

__all__ = ["ApiHandler", "NvdService", "ServiceResponse", "create_server", "serve"]

#: the supervisor's status drop-box, relative to the artifact root.
SUPERVISOR_STATUS = ".supervisor.json"

SERVICE_NAME = "repro-nvd-service/1"

#: entries in each service's response cache.
CACHE_ENTRIES = 1024

#: consecutive reload failures that open the circuit breaker, and the
#: seconds it then stays open.
BREAKER_THRESHOLD = 3
BREAKER_COOLDOWN_S = 5.0

#: query parameters any route consumes — the only ones that can change
#: a response, and therefore the only ones allowed into cache keys.
_QUERY_PARAMS = frozenset({"offset", "limit", "cursor"})

#: fixed latency-histogram boundaries (seconds).  Declared, never
#: derived from traffic, so exposition output is deterministic.
REQUEST_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)

#: the largest request body read; a predict body is well under 1 KiB.
MAX_BODY_BYTES = 1 << 20

#: GET routes named by their exact path (the rest match by shape).
_FIXED_GET_ROUTES = {
    "/healthz": "healthz",
    "/v1/stats": "stats",
    "/v1/metrics": "metrics",
    "/metrics": "prometheus",
}

#: accepted shape for a client-supplied X-Repro-Trace-Id.
_TRACE_ID_RE = re.compile(r"[0-9a-fA-F-]{1,64}")


@dataclasses.dataclass(frozen=True)
class ServiceResponse:
    """One routed response: status, body, content type, and trace id."""

    status: int
    body: bytes
    content_type: str = "application/json"
    trace_id: str | None = None


class AccessLog:
    """Append-only JSONL request log (one flushed line per request)."""

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = pathlib.Path(path)
        self._handle = self.path.open("a", encoding="utf-8")
        self._lock = threading.Lock()

    def write(self, record: dict) -> None:
        line = json.dumps(record, separators=(",", ":"))
        with self._lock:
            self._handle.write(line + "\n")
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()


def _int_param(
    params: dict[str, list[str]],
    name: str,
    default: int,
    minimum: int,
    maximum: int | None = None,
) -> int:
    """A validated integer query parameter (400 on anything off)."""
    values = params.get(name)
    if not values:
        return default
    raw = values[-1]
    try:
        value = int(raw)
    except ValueError:
        raise ServiceError(
            400, f"query parameter {name!r} must be an integer, got {raw!r}"
        ) from None
    if value < minimum or (maximum is not None and value > maximum):
        bounds = f">= {minimum}"
        if maximum is not None:
            bounds += f" and <= {maximum}"
        raise ServiceError(
            400, f"query parameter {name!r} must be {bounds}, got {value}"
        )
    return value


class ResponseCache:
    """A small thread-safe LRU over serialized responses."""

    def __init__(self, maxsize: int = CACHE_ENTRIES) -> None:
        self.maxsize = max(0, int(maxsize))
        self._lock = threading.Lock()
        self._data: collections.OrderedDict[str, tuple[int, bytes]] = (
            collections.OrderedDict()
        )

    def get(self, key: str) -> tuple[int, bytes] | None:
        with self._lock:
            value = self._data.get(key)
            if value is not None:
                self._data.move_to_end(key)
            return value

    def put(self, key: str, value: tuple[int, bytes]) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)


class NvdService:
    """Routing, caching, metrics and hot-swap over a ServiceState."""

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
        self._cache = ResponseCache()
        self._swap_lock = threading.Lock()
        self._last_check = time.monotonic()
        self._started = time.time()
        #: consecutive reload failures; >= threshold trips the breaker.
        self._breaker_failures = 0
        self._breaker_open_until: float | None = None
        self._supervisor_cache: tuple[tuple[int, int], dict | None] | None = None
        self.registry = self._build_registry()
        self._access_log = AccessLog(access_log) if access_log else None
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
        self._prom_cache = registry.counter(
            "repro_http_cache_total",
            "Response-cache lookups on cacheable routes.",
            labels=("outcome",),
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
        self._g_cache_entries = registry.gauge(
            "repro_http_cache_entries", "Entries in the response cache."
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

        Cached on the file's ``(st_mtime_ns, st_size)`` so the
        per-request cost is one ``stat``.  Size joins the key because
        coarse filesystem timestamps can leave ``mtime_ns`` unchanged
        across a rewrite within one clock tick — mtime alone served the
        pre-rewrite status until something else touched the file.
        """
        path = self.root / SUPERVISOR_STATUS
        try:
            stat = path.stat()
            stamp = (stat.st_mtime_ns, stat.st_size)
        except OSError:
            return None
        cached = self._supervisor_cache
        if cached is not None and cached[0] == stamp:
            return cached[1]
        try:
            status = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(status, dict):
            status = None
        self._supervisor_cache = (stamp, status)
        return status

    def maybe_reload(self) -> bool:
        """Hot-swap to the store's ``CURRENT`` version if it moved.

        Rate-limited to one pointer read per ``reload_interval``
        (``0`` checks on every request — the tests use that; pin a
        version to disable polling entirely); the actual reload happens
        under a non-blocking lock so concurrent requests keep serving
        the old state instead of piling up.  Returns True when a swap
        happened.

        Reload failures feed the circuit breaker: after
        ``BREAKER_THRESHOLD`` consecutive failures the breaker opens
        for ``BREAKER_COOLDOWN_S`` seconds — no probing, the last good
        version stays pinned — then a single half-open probe decides
        whether to close it or re-open.
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
                faults.raise_if("serve.reload", "error", token=str(self.root))
                new_state = ServiceState.load(self.root, current)
            except (ArtifactError, faults.FaultInjected):
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
            self._cache.clear()
            self._prom_swaps.inc()
            return True
        finally:
            self._swap_lock.release()

    # -- request handling ----------------------------------------------------

    @staticmethod
    def _route(method: str, path: str) -> tuple[str | None, list[str]]:
        """The endpoint label (``None`` when nothing routes) and the
        unquoted path segments.  The label comes from the path *shape*,
        never from path values, so metric label cardinality stays
        bounded; it is also what :meth:`_dispatch` branches on."""
        parts = [urllib.parse.unquote(part) for part in path.split("/") if part]
        if method == "GET":
            if path in _FIXED_GET_ROUTES:
                return _FIXED_GET_ROUTES[path], parts
            if len(parts) == 3 and parts[:2] == ["v1", "cve"]:
                return "cve", parts
            if len(parts) == 3 and parts[:2] == ["v1", "vendor"]:
                return "vendor", parts
            if len(parts) == 4 and parts[:2] == ["v1", "product"]:
                return "product", parts
        elif method == "POST" and path == "/v1/severity/predict":
            return "predict", parts
        return None, parts

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
        read a POST body (a malformed or oversized ``Content-Length``);
        the request is answered with it and counted like any other.  The returned
        :class:`ServiceResponse` carries the body, content type, and the
        trace id the transport layer echoes back.
        """
        started = time.perf_counter()
        if trace_id is None or not _TRACE_ID_RE.fullmatch(trace_id):
            trace_id = perf.new_trace_id()
        self.maybe_reload()
        # One state snapshot per request: dispatch and the cache key use
        # the same version, so a hot swap mid-request can at worst store
        # an entry under the *old* version's key — never serve stale
        # data under the new one.
        state = self._state
        raw_path = path
        path, _, query = path.partition("?")
        route, parts = self._route(method, path)
        params = urllib.parse.parse_qs(query)
        if route == "prometheus":
            text = self.render_metrics_text()
            response = ServiceResponse(
                200, text.encode("utf-8"), PROMETHEUS_CONTENT_TYPE, trace_id
            )
            return self._finish(response, route, method, raw_path, started, False)
        # Only the read routes cache; a path that routes nowhere never
        # builds a key or counts a lookup.
        cacheable = route in {"stats", "cve", "vendor", "product"}
        if cacheable:
            # The canonical query joins the cache key: paginated pages of
            # one resource cache as distinct entries, never each other.
            # Only parameters a route consumes participate — dispatch
            # ignores the rest, so junk params must not mint fresh LRU
            # entries (and evict real ones) for identical responses.
            canonical_query = urllib.parse.urlencode(
                sorted(
                    (key, value)
                    for key, values in params.items()
                    if key in _QUERY_PARAMS
                    for value in values
                )
            )
            cache_key = f"{state.version}:{path}?{canonical_query}"
            cached = self._cache.get(cache_key)
            if cached is not None:
                self._prom_cache.labels("hit").inc()
                response = ServiceResponse(
                    cached[0], cached[1], "application/json", trace_id
                )
                return self._finish(response, route, method, raw_path, started, True)
            self._prom_cache.labels("miss").inc()
        try:
            if read_error is not None:
                raise read_error
            status, payload = self._dispatch(
                state, route, parts, params, body, f"{method} {path}"
            )
        except ServiceError as error:
            status, payload = error.status, {"error": error.message}
        except Exception as error:  # never let a bug kill the worker thread
            status, payload = 500, {"error": f"internal error: {error}"}
        body_bytes = json.dumps(payload).encode("utf-8")
        if cacheable and status == 200:
            self._cache.put(cache_key, (status, body_bytes))
        response = ServiceResponse(status, body_bytes, "application/json", trace_id)
        return self._finish(response, route, method, raw_path, started, False)

    def _finish(
        self,
        response: ServiceResponse,
        route: str | None,
        method: str,
        raw_path: str,
        started: float,
        cache_hit: bool,
    ) -> ServiceResponse:
        """Per-request telemetry: registry series, access log, span."""
        elapsed = time.perf_counter() - started
        endpoint = route or "unknown"
        self._prom_requests.labels(endpoint, str(response.status)).inc()
        self._prom_latency.labels(endpoint).observe(elapsed)
        if self._access_log is not None:
            self._access_log.write(
                {
                    "ts": datetime.datetime.now(datetime.timezone.utc).isoformat(
                        timespec="milliseconds"
                    ),
                    "method": method,
                    "path": raw_path,
                    "status": response.status,
                    "latency_ms": round(elapsed * 1000.0, 3),
                    "cache_hit": cache_hit,
                    "trace_id": response.trace_id,
                }
            )
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
                    "args": {
                        "path": raw_path,
                        "status": response.status,
                        "cache_hit": cache_hit,
                        "trace_id": response.trace_id,
                    },
                }
            )
        return response

    def _dispatch(
        self,
        state: ServiceState,
        route: str | None,
        parts: list[str],
        params: dict[str, list[str]],
        body: bytes | None,
        request_line: str,
    ) -> tuple[int, object]:
        if route == "healthz":
            return 200, {
                "status": "degraded" if self.degraded else "ok",
                "service": SERVICE_NAME,
                "version": state.version,
                "model": state.model_used,
            }
        if route == "stats":
            return 200, state.stats_payload()
        if route == "metrics":
            return 200, self.metrics_payload()
        if route == "cve":
            return 200, state.cve_payload(parts[2])
        if route in ("vendor", "product"):
            offset = self._resolve_page_start(state, params)
            limit = _int_param(params, "limit", MAX_IDS, minimum=1, maximum=MAX_IDS)
            if route == "vendor":
                return 200, state.vendor_payload(parts[2], offset=offset, limit=limit)
            return 200, state.product_payload(
                parts[2], parts[3], offset=offset, limit=limit
            )
        if route == "predict":
            if not body:
                raise ServiceError(400, "request body is required")
            try:
                parsed = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                raise ServiceError(400, f"bad JSON body: {error}") from None
            return 200, state.predict_payload(parsed)
        raise ServiceError(404, f"no route for {request_line}")

    @staticmethod
    def _resolve_page_start(
        state: ServiceState, params: dict[str, list[str]]
    ) -> int:
        """The starting index for a paged id list.

        ``?cursor=`` wins when present (and conflicts with an explicit
        ``?offset=`` — ambiguous intent is a 400, not a guess).  A
        cursor must both verify and name the *currently served* artifact
        version; one minted before a hot swap fails with a 400 telling
        the client to restart pagination.
        """
        cursors = params.get("cursor")
        if not cursors:
            return _int_param(params, "offset", 0, minimum=0)
        if params.get("offset"):
            raise ServiceError(
                400,
                "query parameters 'cursor' and 'offset' are mutually "
                "exclusive; follow next_cursor or page manually, not both",
            )
        try:
            version, position = decode_cursor(cursors[-1])
        except CursorError as error:
            raise ServiceError(400, f"bad cursor: {error.message}") from None
        if version != state.version:
            raise ServiceError(
                400,
                f"cursor was minted for artifact version {version!r} but "
                f"this service now serves {state.version!r}; restart "
                "pagination from the first page",
            )
        return position

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
        for series in self._prom_cache.series():
            name = "cache_hits" if series.labels == ("hit",) else "cache_misses"
            counters[name] += int(series.value)
        for name, metric in (
            ("hot_swaps", self._prom_swaps),
            ("reload_failures", self._prom_reload_failures),
            ("breaker_opened", self._prom_breaker_opened),
        ):
            for series in metric.series():
                counters[name] += int(series.value)
        hits = counters.get("cache_hits", 0)
        lookups = hits + counters.get("cache_misses", 0)
        payload = {
            "service": SERVICE_NAME,
            "pid": os.getpid(),
            "version": self._state.version,
            "model": self._state.model_used,
            "uptime_s": round(time.time() - self._started, 3),
            "cache_entries": len(self._cache),
            # hit_ratio is null until the first cacheable lookup
            "cache": {
                "entries": len(self._cache),
                "hits": hits,
                "misses": lookups - hits,
                "hit_ratio": round(hits / lookups, 4) if lookups else None,
            },
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

        Gauges refresh at render time (uptime, cache size, breaker and
        supervisor state); the perf recorder's pipeline counters append
        under their own ``repro_*`` families via the bridge, so any
        in-process pipeline work (ingest, warmup) is visible too.
        """
        state = self._state
        self._g_uptime.set(round(time.time() - self._started, 3))
        self._g_cache_entries.set(len(self._cache))
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
        return render_prometheus(self.registry, registry_from_perf(perf.get_recorder()))


class ApiHandler(http.server.BaseHTTPRequestHandler):
    """Thin adapter from the socket layer to :meth:`NvdService.handle`."""

    server_version = SERVICE_NAME
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass  # metrics and the JSONL access log replace stderr chatter

    def _respond(self) -> None:
        service: NvdService = self.server.service  # type: ignore[attr-defined]
        method = self.command
        body, read_error = None, None
        if method != "GET":
            # Every body-carrying method reads its body, even one that
            # routes nowhere, so the next keep-alive request starts at
            # its own request line.
            raw = self.headers.get("Content-Length") or "0"
            try:
                length = int(raw)
            except ValueError:
                length = -1
            if length < 0:
                read_error = ServiceError(
                    400, f"bad Content-Length header {raw[:40]!r}"
                )
            elif length > MAX_BODY_BYTES:
                read_error = ServiceError(
                    413, f"request body over {MAX_BODY_BYTES} bytes"
                )
            else:
                body = self.rfile.read(length) if length else b""
        response = service.handle(
            method,
            self.path,
            body,
            trace_id=self.headers.get("X-Repro-Trace-Id"),
            read_error=read_error,
        )
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(response.body)))
        if response.trace_id:
            self.send_header("X-Repro-Trace-Id", response.trace_id)
        if read_error is not None:
            # The body is left unread, so the stream cannot be
            # resynchronised: answer, then hang up.
            self.send_header("Connection", "close")
        # Status line, headers and body go out in one write.  As two
        # sends (end_headers(), then the body), Nagle holds the body
        # until the client's delayed ACK of the headers: ~40 ms on
        # every keep-alive request.
        self._headers_buffer.extend((b"\r\n", response.body))
        self.flush_headers()

    do_GET = do_POST = _respond  # noqa: N815 - BaseHTTPRequestHandler API
    # Unsupported methods get the service's counted JSON 404, not the
    # stdlib's uncounted HTML 501.
    do_PUT = do_PATCH = do_DELETE = do_OPTIONS = _respond  # noqa: N815


class _ServiceServer(http.server.ThreadingHTTPServer):
    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        service: NvdService,
        reuse_port: bool = False,
    ) -> None:
        # Must be set before super().__init__ binds the socket.
        self._reuse_port = bool(reuse_port)
        self.allow_reuse_port = self._reuse_port
        super().__init__(address, ApiHandler)
        self.service = service

    def server_bind(self) -> None:
        # socketserver honours allow_reuse_port only on Python 3.11+;
        # set the option directly so 3.10 multi-process serving binds
        # the shared port too.
        if self._reuse_port and hasattr(socket, "SO_REUSEPORT"):
            self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        super().server_bind()

    def server_close(self) -> None:
        super().server_close()
        self.service.close()  # flush + close access log and trace file


def create_server(
    root: str | os.PathLike[str],
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    version: str | None = None,
    reload_interval: float = 1.0,
    reuse_port: bool = False,
    access_log: str | os.PathLike[str] | None = None,
    trace_path: str | os.PathLike[str] | None = None,
) -> _ServiceServer:
    """Cold-start a server from an artifact store (no retraining).

    ``port=0`` binds an ephemeral port (see ``server.server_address``);
    call ``serve_forever()`` to run.  ``reuse_port=True`` binds with
    ``SO_REUSEPORT`` so several server processes can share one port —
    the kernel load-balances incoming connections across them (the
    multi-process serving path).  ``access_log`` appends one JSONL line
    per request; ``trace_path`` streams one Chrome trace-event span per
    request (both closed with the server).
    """
    service = NvdService(
        root,
        version=version,
        reload_interval=reload_interval,
        access_log=access_log,
        trace_path=trace_path,
    )
    return _ServiceServer((host, port), service, reuse_port=reuse_port)


def serve(
    root: str | os.PathLike[str],
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    version: str | None = None,
    reload_interval: float = 1.0,
    workers: int = 1,
    access_log: str | os.PathLike[str] | None = None,
    trace_path: str | os.PathLike[str] | None = None,
) -> int:
    """Run the service until interrupted (the ``repro serve`` command).

    ``workers`` (default 1; values below 1 raise :class:`ValueError`
    before anything binds) selects single-process threading or the
    supervised multi-process ``SO_REUSEPORT`` plane
    (:class:`repro.service.supervisor.ServeSupervisor` — crashed
    workers respawn under a restart budget with backoff).

    ``access_log`` (``--access-log``) appends one JSONL line per
    request; under the supervisor every worker appends to the same
    file (O_APPEND, one flushed line per write, so lines never tear).
    ``trace_path`` (default: ``REPRO_TRACE``) streams per-request
    spans; supervised workers each write ``<path>.w<index>`` since a
    JSON array cannot be safely interleaved by several processes.
    """
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    trace_path = trace_path or trace_target()
    if workers > 1:
        from repro.service.supervisor import ServeSupervisor

        return ServeSupervisor(
            root,
            host=host,
            port=port,
            workers=workers,
            version=version,
            reload_interval=reload_interval,
            access_log=access_log,
            trace_path=trace_path,
        ).run()
    server = create_server(
        root,
        host,
        port,
        version=version,
        reload_interval=reload_interval,
        access_log=access_log,
        trace_path=trace_path,
    )
    bound_host, bound_port = server.server_address[:2]
    state = server.service.state
    print(
        f"[serve] {SERVICE_NAME} on http://{bound_host}:{bound_port} "
        f"— version {state.version}, {state.stats['n_cves']} CVEs, "
        f"model {state.model_used}"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("[serve] shutting down")
    finally:
        server.server_close()
    return 0
