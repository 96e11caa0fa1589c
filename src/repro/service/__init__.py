"""The query/serving front end over persisted cleaning artifacts.

A dependency-free HTTP API (stdlib ``ThreadingHTTPServer``) that
cold-starts from a :mod:`repro.artifacts` store — no crawling, no
training — and hot-swaps to new versions produced by the incremental
ingest path.  See :mod:`repro.service.routes` for the endpoint table and
:mod:`repro.service.state` for the payload shapes.
"""

from repro.service.cursor import CursorError, decode_cursor, encode_cursor
from repro.service.http import NvdService
from repro.service.server import ApiHandler, create_server, serve
from repro.service.state import ServiceError, ServiceState
from repro.service.supervisor import ServeSupervisor

__all__ = [
    "ApiHandler",
    "CursorError",
    "NvdService",
    "ServeSupervisor",
    "ServiceError",
    "ServiceState",
    "create_server",
    "decode_cursor",
    "encode_cursor",
    "serve",
]
