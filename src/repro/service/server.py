"""The socket layer: a stdlib ``ThreadingHTTPServer`` over one service.

:class:`ApiHandler` frames each request, hands it to
:meth:`repro.service.http.NvdService.handle`, and writes the answer;
routing and telemetry live on the service.

Request bodies follow one rule on every method: a ``Content-Length``
body is read in full (so the next keep-alive request starts at its own
request line), a malformed length is a ``400`` and one over
:data:`MAX_BODY_BYTES` a ``413``, and any ``Transfer-Encoding`` is a
``411``.  Those answers are counted JSON like any other, and carry
``Connection: close`` because the unread body leaves the stream
unsynchronised.  ``HEAD`` still gets the standard library's ``501``.

Each response leaves in one write: status line, headers and body.

``serve(root, workers=N)`` (``python -m repro serve --workers N``) runs
``N`` of these servers on one ``SO_REUSEPORT`` port under
:class:`repro.service.supervisor.ServeSupervisor`.
"""

from __future__ import annotations

import http.server
import os
import socket

from repro.obs.trace import trace_target
from repro.service.http import SERVICE_NAME, NvdService
from repro.service.state import ServiceError

__all__ = ["ApiHandler", "create_server", "serve"]

#: the largest request body read; a predict body is well under 1 KiB.
MAX_BODY_BYTES = 1 << 20


class ApiHandler(http.server.BaseHTTPRequestHandler):
    """Thin adapter from the socket layer to :meth:`NvdService.handle`."""

    server_version = SERVICE_NAME
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass  # metrics and the JSONL access log replace stderr chatter

    def _read_body(self) -> tuple[bytes | None, ServiceError | None]:
        """The request body, or the framing error that left it unread."""
        if "Transfer-Encoding" in self.headers:
            return None, ServiceError(
                411, "Transfer-Encoding is not supported; send a Content-Length"
            )
        raw = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw)
        except ValueError:
            length = -1
        if length < 0:
            return None, ServiceError(400, f"bad Content-Length header {raw[:40]!r}")
        if length > MAX_BODY_BYTES:
            return None, ServiceError(413, f"request body over {MAX_BODY_BYTES} bytes")
        return self.rfile.read(length) if length else b"", None

    def _respond(self) -> None:
        body, read_error = self._read_body()
        response = self.server.service.handle(  # type: ignore[attr-defined]
            self.command,
            self.path,
            body,
            trace_id=self.headers.get("X-Repro-Trace-Id"),
            read_error=read_error,
        )
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(response.body)))
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
        self.allow_reuse_port = reuse_port
        super().__init__(address, ApiHandler)
        self.service = service

    def server_bind(self) -> None:
        # socketserver honours allow_reuse_port only on Python 3.11+;
        # set the option directly so 3.10 multi-process serving binds
        # the shared port too.
        if self.allow_reuse_port and hasattr(socket, "SO_REUSEPORT"):
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
    reuse_port: bool = False,
    **options: object,
) -> _ServiceServer:
    """Cold-start a server from an artifact store (no retraining).

    ``port=0`` binds an ephemeral port (see ``server.server_address``);
    call ``serve_forever()`` to run.  ``reuse_port=True`` binds with
    ``SO_REUSEPORT`` so several server processes can share one port —
    the kernel load-balances incoming connections across them (the
    multi-process serving path).  ``options`` are
    :class:`~repro.service.http.NvdService`'s: ``version``,
    ``reload_interval``, ``access_log`` (one JSONL line per request) and
    ``trace_path`` (one Chrome trace-event span per request), the last
    two closed with the server.
    """
    return _ServiceServer((host, port), NvdService(root, **options), reuse_port)


def serve(
    root: str | os.PathLike[str],
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    workers: int = 1,
    **options: object,
) -> int:
    """Run the service until interrupted (the ``repro serve`` command).

    ``workers`` (default 1; values below 1 raise :class:`ValueError`
    before anything binds) selects single-process threading or the
    supervised multi-process ``SO_REUSEPORT`` plane
    (:class:`repro.service.supervisor.ServeSupervisor` — crashed
    workers respawn under a restart budget with backoff).  ``options``
    (``version``, ``reload_interval``, ``access_log``, ``trace_path``)
    go to :func:`create_server`, in every worker.

    ``access_log`` (``--access-log``) appends one JSONL line per
    request; under the supervisor every worker appends to the same
    file (O_APPEND, one flushed line per write, so lines never tear).
    ``trace_path`` (default: ``REPRO_TRACE``) streams per-request
    spans; supervised workers each write ``<path>.w<index>`` since a
    JSON array cannot be safely interleaved by several processes.
    """
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    options["trace_path"] = options.get("trace_path") or trace_target()
    if workers > 1:
        from repro.service.supervisor import ServeSupervisor

        return ServeSupervisor(root, host=host, port=port, workers=workers, **options).run()
    server = create_server(root, host, port, **options)
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
