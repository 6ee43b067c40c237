"""The daemon's HTTP API (stdlib ``http.server``, threaded).

The endpoints, all JSON (see ``docs/service.md`` for the full reference):

=======  ==========================  =========================================
method   path                        semantics
=======  ==========================  =========================================
POST     ``/v1/experiments``         submit a spec ``to_dict()`` payload →
                                     ``201 {"id", "status", "fingerprint"}``
GET      ``/v1/experiments/<id>``    job status/result → ``200`` (``404``
                                     for unknown ids); ``?wait=<s>``
                                     long-polls until the job finishes
                                     (capped at :data:`MAX_WAIT_S`)
GET      ``/v1/experiments``         recent jobs (``?status=`` filter,
                                     ``?limit=``), result documents omitted
GET      ``/v1/tenants``             tenant configurations + per-tenant
                                     accounting (auth-enabled daemons)
GET      ``/v1/store/stats``         shared-store counters + disk footprint
GET      ``/v1/metrics``             Prometheus text exposition (the one
                                     non-JSON endpoint; see
                                     ``docs/observability.md``)
GET      ``/healthz``                liveness: uptime, workers, job counts,
                                     aggregated session counters
=======  ==========================  =========================================

Specs are validated *at submission time* by round-tripping through
:func:`repro.session.specs.spec_from_dict` — a malformed payload is a
``400`` with the validation message, and never reaches the queue.

**Authentication** (:mod:`repro.service.tenancy`): when the daemon has a
token registry, every ``/v1/*`` route demands ``Authorization: Bearer``
(401 missing/unknown token, 403 revoked tenant) — except ``/v1/metrics``,
which stays open alongside ``/healthz`` so probes and scrapers need no
credentials.  Without a registry (legacy/``--no-auth``) everything is
open and submissions run as the anonymous tenant.  Submissions also pass
the tenant's admission control: a broken quota is a ``429`` carrying a
``Retry-After`` header and a structured body (``error`` / ``reason`` /
``retry_after_s``).

**Connections** are persistent (HTTP/1.1 keep-alive): one socket serves
any number of requests, each on the same handler thread.  Every response
carries a ``Content-Length``, and every exit of ``POST`` reads (or drains)
the request body first, so the next request on the socket starts at a
request line.  A connection left idle for :attr:`ServiceRequestHandler.timeout`
seconds is closed, and :meth:`ServiceHTTPServer.close_connections` ends
the rest when the daemon stops.
"""

from __future__ import annotations

import json
import math
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from ..session.specs import spec_from_dict
from ..utils.validation import ValidationError
from .tenancy import AuthError, QuotaExceeded, Tenant

__all__ = ["ServiceHTTPServer", "ServiceRequestHandler", "make_server"]

#: Request bodies above this many bytes are rejected (413) before parsing.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: ``GET /v1/experiments?limit=`` is clamped to this many rows.
MAX_LIST_LIMIT = 1000

#: ``GET /v1/experiments/<id>?wait=`` is clamped to this many seconds.
MAX_WAIT_S = 30.0


class _PayloadTooLarge(Exception):
    """Internal: request body exceeded :data:`MAX_BODY_BYTES` (HTTP 413)."""


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Routes the service's HTTP API onto the owning daemon.

    The handler reaches the daemon through ``self.server.service`` (set by
    :func:`make_server`); it holds no state of its own.
    """

    server_version = "repro-service/1.0"
    protocol_version = "HTTP/1.1"
    #: Headers and body go out in two sends; without ``TCP_NODELAY``,
    #: Nagle's algorithm holds the body for the client's delayed ACK
    #: (tens of milliseconds per request on a reused connection).
    disable_nagle_algorithm = True
    #: Seconds a keep-alive connection may sit idle (or a read or write
    #: may stall) before the handler closes it and its thread exits.
    timeout = 30.0

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        """Silence per-request stderr logging (the daemon logs lifecycle)."""

    def _send_json(self, status: int, payload: dict, headers: dict | None = None) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, body: str, content_type: str) -> None:
        encoded = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(encoded)))
        self.end_headers()
        self.wfile.write(encoded)

    def _body_length(self) -> int | None:
        """The body's ``Content-Length``, or None when it cannot be known.

        A chunked body or a malformed length leaves the end of the body
        unknown, so the connection closes after the answer rather than
        parse the rest of the body as the next request.
        """
        if "Transfer-Encoding" in self.headers:
            self.close_connection = True
            return None
        try:
            return int(self.headers.get("Content-Length") or 0)
        except ValueError:
            self.close_connection = True
            return None

    def _discard_body(self) -> None:
        """Read and drop the request body (bounded chunks, nothing kept).

        Every ``POST`` exit that answers without reading the body calls
        it: the client finishes its upload and reads a clean answer
        instead of a broken pipe, and the next request on the kept-alive
        connection starts at its request line instead of in this body.
        """
        remaining = self._body_length() or 0
        while remaining > 0:
            chunk = self.rfile.read(min(65536, remaining))
            if not chunk:
                break
            remaining -= len(chunk)

    def _read_json_body(self) -> dict:
        length = self._body_length()
        if length is None:
            raise ValidationError("request body needs an integer Content-Length")
        if length <= 0:
            raise ValidationError("request body is empty")
        if length > MAX_BODY_BYTES:
            self._discard_body()
            raise _PayloadTooLarge(f"request body exceeds {MAX_BODY_BYTES} bytes")
        try:
            return json.loads(self.rfile.read(length))
        except json.JSONDecodeError as exc:
            raise ValidationError(f"request body is not valid JSON: {exc}") from exc

    # ------------------------------------------------------------------ #
    # authentication
    # ------------------------------------------------------------------ #
    def _authenticate(self) -> Tenant | None:
        """The requesting tenant, or raise :class:`AuthError`.

        Open mode (no registry on the daemon) returns None — the caller
        treats that as the anonymous tenant with no quotas.  With a
        registry, the ``Authorization: Bearer <token>`` header is
        mandatory and must resolve to a live tenant.
        """
        registry = getattr(self.server.service, "token_registry", None)
        if registry is None:
            return None
        header = self.headers.get("Authorization", "")
        token = None
        if header.startswith("Bearer "):
            token = header[len("Bearer "):].strip() or None
        elif header:
            raise AuthError("Authorization header must be 'Bearer <token>'", status=401)
        return registry.authenticate(token)

    def _send_auth_error(self, exc: AuthError) -> None:
        self._send_json(
            exc.status,
            {"error": str(exc)},
            headers={"WWW-Authenticate": "Bearer"} if exc.status == 401 else None,
        )

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 - stdlib dispatch name
        """Dispatch GET endpoints (health, store stats, job inspection)."""
        url = urlsplit(self.path)
        path = url.path.rstrip("/") or "/"
        service = self.server.service
        if path == "/healthz":
            self._send_json(200, service.health())
            return
        if path == "/v1/metrics":
            self._send_text(
                200, service.metrics_text(), "text/plain; version=0.0.4; charset=utf-8"
            )
            return
        # every other /v1/* route is authenticated when a registry is set
        try:
            self._authenticate()
        except AuthError as exc:
            self._send_auth_error(exc)
            return
        if path == "/v1/store/stats":
            self._send_json(200, service.store_stats())
            return
        if path == "/v1/tenants":
            self._send_json(200, service.tenants())
            return
        if path == "/v1/experiments":
            query = parse_qs(url.query)
            raw_limit = (query.get("limit") or ["100"])[0]
            try:
                limit = int(raw_limit)
            except ValueError:
                self._send_json(
                    400, {"error": f"limit must be an integer, got {raw_limit!r}"}
                )
                return
            if limit < 0:
                self._send_json(
                    400, {"error": f"limit must be non-negative, got {limit}"}
                )
                return
            try:
                jobs = service.queue.jobs(
                    status=(query.get("status") or [None])[0],
                    limit=min(limit, MAX_LIST_LIMIT),
                )
            except ValidationError as exc:
                self._send_json(400, {"error": str(exc)})
                return
            self._send_json(
                200, {"jobs": [job.to_public_dict(include_result=False) for job in jobs]}
            )
            return
        if path.startswith("/v1/experiments/"):
            job_id = path[len("/v1/experiments/"):]
            raw_wait = (parse_qs(url.query).get("wait") or ["0"])[0]
            try:
                wait = float(raw_wait)
            except ValueError:
                wait = math.nan
            if not (math.isfinite(wait) and wait >= 0):
                self._send_json(
                    400,
                    {"error": f"wait must be a finite number >= 0, got {raw_wait!r}"},
                )
                return
            if wait > 0:
                job = service.queue.wait_finished(
                    job_id, min(wait, MAX_WAIT_S), poll_s=service.config.poll_s
                )
            else:
                job = service.queue.get(job_id)
            if job is None:
                self._send_json(404, {"error": f"unknown job id {job_id!r}"})
                return
            self._send_json(200, job.to_public_dict())
            return
        self._send_json(404, {"error": f"no such endpoint: {path}"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib dispatch name
        """Dispatch POST endpoints (spec submission)."""
        path = urlsplit(self.path).path.rstrip("/")
        if path != "/v1/experiments":
            self._discard_body()
            self._send_json(404, {"error": f"no such endpoint: {path}"})
            return
        service = self.server.service
        try:
            tenant = self._authenticate()
        except AuthError as exc:
            self._discard_body()
            self._send_auth_error(exc)
            return
        try:
            payload = self._read_json_body()
            spec = spec_from_dict(payload)  # full validation before queueing
        except _PayloadTooLarge:
            self._send_json(
                413,
                {
                    "error": f"request body exceeds the {MAX_BODY_BYTES}-byte limit",
                    "max_body_bytes": MAX_BODY_BYTES,
                },
            )
            return
        except ValidationError as exc:
            self._send_json(400, {"error": str(exc)})
            return
        except Exception as exc:  # noqa: BLE001 - surface constructor errors as 400
            self._send_json(400, {"error": f"{type(exc).__name__}: {exc}"})
            return
        try:
            job_id = service.submit_for(tenant, spec)
        except QuotaExceeded as exc:
            retry_after = max(exc.retry_after_s, 0.0)
            self._send_json(
                429,
                {
                    "error": str(exc),
                    "reason": exc.reason,
                    "retry_after_s": retry_after,
                },
                headers={"Retry-After": str(max(1, int(retry_after + 0.999)))},
            )
            return
        self._send_json(
            201,
            {
                "id": job_id,
                "status": "queued",
                "kind": spec.kind,
                "fingerprint": spec.fingerprint(),
                "cache_fingerprint": spec.cache_fingerprint(),
            },
        )


class ServiceHTTPServer(ThreadingHTTPServer):
    """The threaded server, tracking its open connections.

    Each accepted connection is served by its own daemonic handler thread
    for as long as the client keeps it alive, so stopping the listener
    alone would leave those threads serving a stopped daemon;
    :meth:`close_connections` ends them.
    """

    daemon_threads = True

    def __init__(self, address: tuple[str, int], service):
        super().__init__(address, ServiceRequestHandler)
        self.service = service
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()

    def process_request(self, request, client_address) -> None:
        """Register the connection, then hand it to a handler thread."""
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        """Unregister the connection as its handler thread closes it."""
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def close_connections(self) -> None:
        """Stop reading from every open connection.

        An idle handler, blocked on its next request line, reads end of
        stream at once and closes its socket; a handler still answering a
        request writes its response first, then does the same.  Call it
        after :meth:`shutdown`, so no connection is accepted afterwards.
        """
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:  # the peer closed it meanwhile
                pass


def make_server(host: str, port: int, service) -> ServiceHTTPServer:
    """A threaded HTTP server bound to ``host:port`` serving ``service``.

    ``port=0`` binds an ephemeral port (read it back from
    ``server.server_address``); threads are daemonic so a hung client
    never blocks daemon shutdown.
    """
    return ServiceHTTPServer((host, port), service)
