"""The HTTP transport for ``repro serve`` (stdlib ``http.server`` only).

Three endpoints, all JSON:

``POST /analyze``
    body: an analysis request (see
    :meth:`repro.service.app.AnalysisService._parse_request`); response:
    the deterministic pipeline document, byte-identical to
    ``repro batch --json`` for the same inputs.  The optional
    ``X-Repro-Tenant`` header names the tenant for rate-limit
    accounting; admission refusals are 429s carrying ``Retry-After``.
``GET /healthz``
    liveness/readiness: 200 ``{"status": "ok", ...}`` while serving,
    503 ``{"status": "draining", ...}`` once shutdown has begun.
``GET /metrics``
    the cumulative ``repro-metrics/1`` document with the ``service``
    section (requests, in-flight and waiting gauges, LRU and pool
    counters, admission).

Shutdown contract: SIGTERM (or SIGINT) starts a **drain** — the
listening socket stops accepting, new requests are refused with 503,
and every in-flight request runs to completion before the process
exits.  The mechanics: request threads are non-daemon
(``daemon_threads = False``) and every response carries ``Connection:
close`` so no idle keep-alive connection can hold a request thread
open forever — ``server_close`` therefore joins exactly the requests
that were genuinely in flight.  The signal handler itself only flips
the draining flag and kicks ``shutdown()`` on a helper thread
(``shutdown`` blocks until the serve loop exits, and must never run on
the serving thread).
"""

from __future__ import annotations

import json
import signal
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.service.app import MAX_REQUEST_BYTES, AnalysisService, _error_body


class _Handler(BaseHTTPRequestHandler):
    """One request; all analysis logic is delegated to the service."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    def _respond(
        self,
        status: int,
        body: bytes,
        headers: Optional[dict] = None,
    ) -> None:
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            # One request per connection: an idle keep-alive connection
            # would pin a non-daemon thread and stall the drain forever.
            self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            # The client gave up mid-response.  Its analysis already
            # ran (and is cached) — that is a disconnect
            # counter, not a failed request, and certainly not a
            # traceback per impatient client under overload.
            self.server.service.note_client_disconnect()
        self.close_connection = True

    def _respond_json(self, status: int, document: dict) -> None:
        body = (json.dumps(document, sort_keys=True) + "\n").encode("utf-8")
        self._respond(status, body)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        service = self.server.service
        if self.path == "/healthz":
            status, document = service.health_document()
            self._respond_json(status, document)
        elif self.path == "/metrics":
            self._respond_json(200, service.metrics_document())
        else:
            self._respond(404, _error_body(f"no such path {self.path}", 404))

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        service = self.server.service
        if self.path != "/analyze":
            self._respond(404, _error_body(f"no such path {self.path}", 404))
            return
        if service.draining:
            self._respond(503, _error_body("service is draining", 503))
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            self._respond(400, _error_body("bad Content-Length", 400))
            return
        if length < 0:
            self._respond(400, _error_body("bad Content-Length", 400))
            return
        if length > MAX_REQUEST_BYTES:
            # Refuse *before* reading: trusting the declared length
            # here used to block this thread on an arbitrarily large
            # body a client never even needs to send.
            self._respond(
                413,
                _error_body(
                    f"request body exceeds {MAX_REQUEST_BYTES} bytes", 413
                ),
            )
            return
        raw = self.rfile.read(length) if length > 0 else b""
        service.note_bytes_read(len(raw))
        tenant = self.headers.get("X-Repro-Tenant")
        status, body, headers = service.analyze_request(raw, tenant=tenant)
        self._respond(status, body, headers)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not getattr(self.server, "quiet", False):
            sys.stderr.write(
                f"repro-serve {self.address_string()} {format % args}\n"
            )


class AnalysisServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`AnalysisService`.

    ``daemon_threads`` is deliberately ``False``: together with
    ``block_on_close`` (the default) it makes ``server_close`` join
    every in-flight request thread — that *is* the drain.

    ``request_queue_size`` raises the TCP accept backlog from the
    ``socketserver`` default of 5: refusing load is the admission
    gauge's job (an explicit 429), not the kernel's (a connection
    reset a client can only see as a network error).  A connection
    waiting in the backlog costs nothing until it is accepted.
    """

    daemon_threads = False
    allow_reuse_address = True
    request_queue_size = 128

    def __init__(self, address, service: AnalysisService, quiet: bool = False):
        self.service = service
        self.quiet = quiet
        super().__init__(address, _Handler)

    @property
    def port(self) -> int:
        """The actually-bound port (useful with ``--port 0``)."""
        return self.server_address[1]


def serve(
    service: AnalysisService,
    host: str = "127.0.0.1",
    port: int = 8765,
    quiet: bool = False,
    install_signal_handlers: bool = True,
    ready: Optional["threading.Event"] = None,
) -> int:
    """Run the service until SIGTERM/SIGINT, then drain and exit 0.

    Binds first (``--port 0`` picks a free port, announced on stdout),
    pre-forks the worker pool *before* any request thread exists, then
    serves.  ``ready`` (an optional event) is set once the socket is
    bound and the pool is warm — the test suite and the CI smoke job
    use it instead of polling.
    """
    server = AnalysisServer((host, port), service, quiet=quiet)

    def _drain(signum: int, frame) -> None:
        if not quiet:
            # locked snapshot: the handler races every request thread
            in_flight, waiting = service.drain_snapshot()
            sys.stderr.write(
                f"repro-serve: signal {signum}; draining "
                f"({in_flight} in flight, {waiting} waiting)\n"
            )
            sys.stderr.flush()
        service.begin_drain()
        # shutdown() blocks until serve_forever returns; never call it
        # on the thread that is running serve_forever.
        threading.Thread(
            target=server.shutdown, name="repro-serve-drain", daemon=True
        ).start()

    if install_signal_handlers:
        signal.signal(signal.SIGTERM, _drain)
        signal.signal(signal.SIGINT, _drain)

    service.warm()  # fork workers before the first request thread exists
    print(
        f"repro-serve: listening on http://{host}:{server.port} "
        f"(jobs={service.jobs}, max_queue={service.max_queue}, cache="
        f"{'off' if service.cache is None else 'on'})",
        flush=True,
    )
    if ready is not None:
        ready.set()
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()  # joins in-flight request threads (drain)
        service.close()
    if not quiet:
        sys.stderr.write("repro-serve: drained, exiting\n")
    return 0
