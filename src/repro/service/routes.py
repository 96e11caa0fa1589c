"""The HTTP API's route table (every endpoint, declared once) and its
request and response types.

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

:data:`ROUTES` is the only list of endpoints: :func:`resolve` is the one
lookup :meth:`repro.service.http.NvdService.handle` does, so adding an
endpoint means adding one :class:`Route`.  The endpoint label comes
from the path *shape*, never from path values, so metric label
cardinality stays bounded.

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
"""

from __future__ import annotations

import json
import urllib.parse
from collections.abc import Callable
from typing import NamedTuple

from repro.obs import PROMETHEUS_CONTENT_TYPE
from repro.service.cursor import CursorError, decode_cursor
from repro.service.state import MAX_IDS, ServiceError, ServiceState

__all__ = ["ROUTES", "Request", "Route", "ServiceResponse", "resolve"]

SERVICE_NAME = "repro-nvd-service/1"

JSON_CONTENT_TYPE = "application/json"


class Request(NamedTuple):
    """What a handler sees of one request."""

    service: object  # the NvdService answering it
    state: ServiceState  # the artifact version it is answered from
    args: list[str]  # the path values the route's shape captured
    params: dict[str, list[str]]  # the parsed query string
    body: bytes | None


class ServiceResponse(NamedTuple):
    """One routed response: status, body, content type, and trace id."""

    status: int
    body: bytes
    content_type: str
    trace_id: str


class Route(NamedTuple):
    """One endpoint.  A ``path`` without ``{...}`` segments matches the
    request path exactly; one with them matches it segment by unquoted
    segment, each ``{...}`` capturing its segment into ``Request.args``.
    ``handler`` returns the 200 payload (JSON-ready, text for another
    content type, or an encoded body) or raises :class:`ServiceError`."""

    method: str
    path: str
    endpoint: str
    handler: Callable[[Request], object]
    content_type: str = JSON_CONTENT_TYPE


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


def _page_window(request: Request) -> dict:
    """The ``offset`` and ``limit`` of a paged view.

    ``?cursor=`` wins when present (and conflicts with an explicit
    ``?offset=`` — ambiguous intent is a 400, not a guess).  A
    cursor must both verify and name the *currently served* artifact
    version; one minted before a hot swap fails with a 400 telling
    the client to restart pagination.
    """
    params = request.params
    cursors = params.get("cursor")
    if not cursors:
        offset = _int_param(params, "offset", 0, minimum=0)
    elif params.get("offset"):
        raise ServiceError(
            400,
            "query parameters 'cursor' and 'offset' are mutually "
            "exclusive; follow next_cursor or page manually, not both",
        )
    else:
        try:
            version, offset = decode_cursor(cursors[-1])
        except CursorError as error:
            raise ServiceError(400, f"bad cursor: {error.message}") from None
        if version != request.state.version:
            raise ServiceError(
                400,
                f"cursor was minted for artifact version {version!r} but "
                f"this service now serves {request.state.version!r}; restart "
                "pagination from the first page",
            )
    limit = _int_param(params, "limit", MAX_IDS, minimum=1, maximum=MAX_IDS)
    return {"offset": offset, "limit": limit}


def _healthz(request: Request) -> dict:
    return {
        "status": "degraded" if request.service.degraded else "ok",
        "service": SERVICE_NAME,
        "version": request.state.version,
        "model": request.state.model_used,
    }


def _stats(request: Request) -> dict:
    return request.state.stats_payload()


def _metrics(request: Request) -> dict:
    return request.service.metrics_payload()


def _prometheus(request: Request) -> str:
    return request.service.render_metrics_text()


def _cve(request: Request) -> bytes:
    return request.state.cve_payload(*request.args)


def _vendor(request: Request) -> dict:
    return request.state.vendor_payload(*request.args, **_page_window(request))


def _product(request: Request) -> dict:
    return request.state.product_payload(*request.args, **_page_window(request))


def _predict(request: Request) -> dict:
    if not request.body:
        raise ServiceError(400, "request body is required")
    try:
        body = json.loads(request.body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as error:
        # RecursionError: nesting deeper than the decoder's stack allows.
        raise ServiceError(400, f"bad JSON body: {error}") from None
    return request.state.predict_payload(body)


ROUTES: tuple[Route, ...] = (
    Route("GET", "/healthz", "healthz", _healthz),
    Route("GET", "/v1/stats", "stats", _stats),
    Route("GET", "/v1/metrics", "metrics", _metrics),
    Route("GET", "/metrics", "prometheus", _prometheus, content_type=PROMETHEUS_CONTENT_TYPE),
    Route("GET", "/v1/cve/{id}", "cve", _cve),
    Route("GET", "/v1/vendor/{name}", "vendor", _vendor),
    Route("GET", "/v1/product/{vendor}/{product}", "product", _product),
    Route("POST", "/v1/severity/predict", "predict", _predict),
)


#: :data:`ROUTES` indexed for :func:`resolve`: exact paths by
#: ``(method, path)``, and each shaped route with its path segments.
_EXACT = {(route.method, route.path): route for route in ROUTES if "{" not in route.path}
_SHAPED = [(route, route.path.split("/")[1:]) for route in ROUTES if "{" in route.path]


def resolve(method: str, path: str) -> tuple[Route | None, list[str]]:
    """The route a request's method and path (query stripped) select,
    ``None`` when nothing routes, and the path values it captured."""
    route = _EXACT.get((method, path))
    if route is not None:
        return route, []
    parts = [urllib.parse.unquote(part) for part in path.split("/") if part]
    for route, shape in _SHAPED:
        if route.method == method and len(shape) == len(parts) and all(
            segment[0] == "{" or segment == part for segment, part in zip(shape, parts)
        ):
            return route, [part for segment, part in zip(shape, parts) if segment[0] == "{"]
    return None, []

