"""A thin HTTP client for the experiment service (stdlib ``http.client``).

:class:`ServiceClient` speaks the daemon's JSON API and converts finished
jobs back into first-class
:class:`~repro.session.results.ExperimentResult` objects, so the remote
round trip is symmetric with the in-process one::

    from repro.session import RBSpec
    from repro.service import ServiceClient

    client = ServiceClient("http://127.0.0.1:8765")
    job_id = client.submit(RBSpec(device="montreal", qubits=(0,), seed=7))
    result = client.result(job_id, timeout=300.0)   # long-poll until done
    print(result["error_per_clifford"])

Because the daemon executes through ordinary sessions over the shared
store, a submitted spec's payload is **bit-identical** to running it
locally through ``Session.run_all`` — asserted by ``tests/test_service.py``.

The client is **retry-aware**: transient transport failures (connection
refused/reset during a daemon restart window) and 429 quota rejections
are retried with bounded exponential backoff — full jitter for transport
errors, the server's ``Retry-After`` hint for 429s.  Anything
non-transient (400/401/403/404/413, a failed job) surfaces immediately.
Retried submissions are safe to replay: results are content-addressed,
so a duplicate landing twice deduplicates server-side.

The client keeps its HTTP/1.1 connections open between calls: a small
pool of ``http.client.HTTPConnection`` objects, one per call in flight,
reused newest first.  The daemon closes a connection that stays idle
too long or outlives a restart; a request that fails on such a *reused*
connection before any response arrives is sent once more on a fresh
one, so a stale socket never surfaces as an error.  :meth:`ServiceClient.close`
(or a ``with`` block) closes the idle connections.  Proxy settings from
the environment are not consulted.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from urllib.parse import urlsplit

from ..session.results import ExperimentResult
from ..session.specs import ExperimentSpec
from ..utils.validation import ValidationError

__all__ = ["ServiceClient", "ServiceError", "JobFailedError"]


class ServiceError(RuntimeError):
    """An HTTP-level failure reported by the service.

    Attributes
    ----------
    status : int
        HTTP status code (0 when the server was unreachable).
    payload : dict
        The decoded JSON error document (``{"error": ...}``), if any.
    """

    def __init__(self, message: str, status: int = 0, payload: dict | None = None):
        super().__init__(message)
        self.status = status
        self.payload = payload or {}


class JobFailedError(ServiceError):
    """A submitted job finished in the ``failed`` state."""


class ServiceClient:
    """Typed access to one running experiment service.

    Parameters
    ----------
    base_url : str
        The daemon's base URL (``http://host:port``, no trailing slash
        required).
    timeout : float
        Per-request socket timeout in seconds.
    token : str, optional
        Bearer token sent as ``Authorization: Bearer <token>`` on every
        request (required against auth-enabled daemons; ignored by open
        ones).
    max_retries : int
        Bounded retry budget for *transient* failures — unreachable
        daemon (restart window) and 429 quota rejections.  0 disables
        retrying; other HTTP errors never retry.
    backoff_s : float
        Base of the exponential transport backoff: attempt ``n`` sleeps
        ``uniform(0, backoff_s * 2**n)`` (full jitter, capped at
        ``backoff_cap_s``).  429s sleep the server's ``Retry-After``
        instead.
    backoff_cap_s : float
        Upper bound on any single backoff sleep.

    The client is safe to share between threads: each call checks a
    kept-alive connection out of the client's pool (or opens one) and
    returns it once the response is read.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        token: str | None = None,
        max_retries: int = 3,
        backoff_s: float = 0.2,
        backoff_cap_s: float = 5.0,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout = float(timeout)
        self.token = token
        self.max_retries = max(0, int(max_retries))
        self.backoff_s = float(backoff_s)
        self.backoff_cap_s = float(backoff_cap_s)
        url = urlsplit(self.base_url)
        connection_types = {
            "http": http.client.HTTPConnection,
            "https": http.client.HTTPSConnection,
        }
        if url.scheme not in connection_types or not url.netloc:
            raise ValidationError(
                f"base_url must be http://host:port or https://host:port, got {base_url!r}"
            )
        self._connection_type = connection_types[url.scheme]
        self._netloc = url.netloc
        self._path_prefix = url.path
        #: Idle kept-alive connections, the most recently used last.
        self._idle: list[http.client.HTTPConnection] = []
        self._idle_lock = threading.Lock()

    def __repr__(self) -> str:
        return f"ServiceClient({self.base_url!r})"

    def close(self) -> None:
        """Close every idle connection (the client stays usable)."""
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # transport
    # ------------------------------------------------------------------ #
    def _headers(self, headers: dict) -> dict:
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        return headers

    def _connect(self) -> http.client.HTTPConnection:
        return self._connection_type(self._netloc, timeout=self.timeout)

    def _exchange(
        self, method: str, path: str, body: bytes | None, headers: dict
    ) -> tuple[http.client.HTTPResponse, bytes]:
        """One request on a pooled connection: the response and its body.

        A connection taken from the pool may have been closed by the
        daemon (idle timeout, restart) since its last use.  If it fails
        before the status line arrives, the request goes once more on a
        fresh connection.  Any other failure, and any failure of a fresh
        connection, propagates.  The connection goes back to the pool
        once the whole response is read.
        """
        with self._idle_lock:
            reused = self._idle.pop() if self._idle else None
        connection = reused if reused is not None else self._connect()
        target = self._path_prefix + path
        try:
            try:
                connection.request(method, target, body=body, headers=headers)
                response = connection.getresponse()
            except ConnectionError:  # RemoteDisconnected is one too
                if connection is not reused:
                    raise
                connection.close()
                connection = self._connect()
                connection.request(method, target, body=body, headers=headers)
                response = connection.getresponse()
            data = response.read()
        except BaseException:
            connection.close()
            raise
        if response.will_close:
            connection.close()
        else:
            with self._idle_lock:
                self._idle.append(connection)
        return response, data

    def _round_trip(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        accept: str = "application/json",
    ) -> bytes:
        """One HTTP round trip's body; raises :class:`ServiceError` on failure."""
        headers = self._headers({"Accept": accept})
        if body is not None:
            headers["Content-Type"] = "application/json"
        try:
            response, data = self._exchange(method, path, body, headers)
        except TimeoutError:
            raise  # a slow daemon is not a restart window: never retried
        except (OSError, http.client.HTTPException) as exc:
            raise ServiceError(
                f"service unreachable at {self.base_url}: {exc!r}"
            ) from exc
        if response.status < 300:
            return data
        try:
            document = json.loads(data or b"{}")
        except ValueError:
            document = {}
        if not isinstance(document, dict):
            document = {}
        message = document.get("error", f"HTTP {response.status} on {method} {path}")
        error = ServiceError(message, status=response.status, payload=document)
        retry_after = response.getheader("Retry-After")
        if retry_after is not None:
            try:
                error.retry_after_s = float(retry_after)
            except ValueError:
                pass
        raise error

    def _request_once(self, method: str, path: str, payload: dict | None = None) -> dict:
        """One JSON round trip; raises :class:`ServiceError` on failure."""
        body = None if payload is None else json.dumps(payload).encode()
        return json.loads(self._round_trip(method, path, body) or b"{}")

    def _request(self, method: str, path: str, payload: dict | None = None) -> dict:
        """:meth:`_request_once` plus the bounded transient-retry loop.

        Retryable: status 0 (transport — daemon restarting, connection
        refused/reset) with full-jitter exponential backoff, and 429
        (quota) honoring the server's ``Retry-After``.  Every other
        failure propagates on the first attempt.
        """
        attempt = 0
        while True:
            try:
                return self._request_once(method, path, payload)
            except ServiceError as exc:
                transient = exc.status == 0 or exc.status == 429
                if not transient or attempt >= self.max_retries:
                    raise
                if exc.status == 429:
                    body_hint = exc.payload.get("retry_after_s")
                    delay = getattr(exc, "retry_after_s", None)
                    if delay is None and body_hint is not None:
                        delay = float(body_hint)
                    if delay is None:
                        delay = self.backoff_s * (2 ** attempt)
                else:
                    delay = random.uniform(0.0, self.backoff_s * (2 ** attempt))
                time.sleep(min(max(0.0, delay), self.backoff_cap_s))
                attempt += 1

    # ------------------------------------------------------------------ #
    # API surface
    # ------------------------------------------------------------------ #
    def health(self) -> dict:
        """The daemon's ``/healthz`` document."""
        return self._request("GET", "/healthz")

    def store_stats(self) -> dict:
        """The shared store's counters and disk footprint."""
        return self._request("GET", "/v1/store/stats")

    def metrics(self) -> str:
        """The daemon's ``/v1/metrics`` document (Prometheus text format).

        The one non-JSON endpoint: the raw exposition text is returned
        as-is, ready for a scraper or ``docs/check_metrics.py``.
        """
        return self._round_trip("GET", "/v1/metrics", accept="text/plain").decode("utf-8")

    def submit(self, spec: ExperimentSpec | dict) -> str:
        """Submit one spec (object or ``to_dict`` payload); returns the job id."""
        payload = spec.to_dict() if isinstance(spec, ExperimentSpec) else dict(spec)
        return self._request("POST", "/v1/experiments", payload)["id"]

    def status(self, job_id: str, wait: float = 0.0) -> dict:
        """The job document of one id (404 → :class:`ServiceError`).

        With ``wait > 0`` the daemon holds the request until the job is
        ``done``/``failed`` or ``wait`` seconds pass (server-capped at
        ``MAX_WAIT_S``), then answers with the job as it stands.
        """
        query = f"?wait={wait:g}" if wait > 0 else ""
        return self._request("GET", f"/v1/experiments/{job_id}{query}")

    def jobs(self, status: str | None = None, limit: int = 100) -> list[dict]:
        """Recent job documents, newest first (results omitted)."""
        query = f"?limit={int(limit)}" + (f"&status={status}" if status else "")
        return self._request("GET", f"/v1/experiments{query}")["jobs"]

    def tenants(self) -> dict:
        """The daemon's ``/v1/tenants`` document (configs + accounting)."""
        return self._request("GET", "/v1/tenants")

    def result(self, job_id: str, timeout: float = 600.0) -> ExperimentResult:
        """Long-poll one job to completion and return its result.

        Each status request waits server-side for the job to finish, up
        to the smaller of the time left and half the socket timeout — so
        the result arrives as soon as the job completes, and a long-poll
        never runs into a socket timeout.

        Parameters
        ----------
        job_id : str
            As returned by :meth:`submit`.
        timeout : float
            Overall seconds to wait before raising :class:`TimeoutError`.

        Returns
        -------
        ExperimentResult
            The finished result — payload bit-identical to a local run of
            the same spec (lossless JSON round trip).

        Raises
        ------
        JobFailedError
            When the job finished ``failed`` (message carries the error).
        TimeoutError
            When the job is still pending after ``timeout`` seconds.
        """
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            document = self.status(job_id, wait=max(0.0, min(remaining, self.timeout / 2)))
            state = document["status"]
            if state == "done":
                return ExperimentResult.from_document(document["result"])
            if state == "failed":
                raise JobFailedError(
                    document.get("error", "job failed"), payload=document
                )
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {state!r} after {timeout:g}s"
                )
