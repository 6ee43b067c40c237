"""The service's HTTP transport: persistent connections on both sides.

* **Reuse** — a :class:`ServiceClient` keeps its connections open, so
  sequential calls share one socket and N concurrent callers use N.
* **Framing** — every early ``POST`` exit (404, 401) drains the request
  body, so the next request on a kept-alive socket is answered.
* **Stale sockets** — a pooled connection the daemon closed (idle
  timeout, restart on the same port) is sent on once more, fresh, and
  the caller sees no error even with ``max_retries=0``.
* **Shutdown** — ``stop()`` returns promptly with idle client
  connections open, and closes them.
"""

from __future__ import annotations

import http.client
import os
import socket
import sys
import threading
import time

import pytest

from repro.service import ExperimentService, ServiceClient, ServiceConfig, ServiceError
from repro.service import http as service_http
from repro.session import RBSpec
from repro.utils.validation import ValidationError

FAST_RB = dict(device="montreal", qubits=(0,), lengths=(1, 4, 8), n_seeds=1, shots=100, seed=5)

REGISTRY = {
    "tenants": {
        "bulk": {"tokens": ["bulk-token"], "max_queued": 1},
    }
}


def _service(tmp_path, **overrides):
    defaults = dict(
        host="127.0.0.1", port=0, store=tmp_path / "store",
        queue_path=tmp_path / "queue.sqlite3", workers=0,
    )
    defaults.update(overrides)
    return ExperimentService(ServiceConfig(**defaults))


@pytest.fixture
def accepted(monkeypatch):
    """The peer addresses of every connection the daemon accepts."""
    peers = []
    process_request = service_http.ServiceHTTPServer.process_request

    def counting(server, request, client_address):
        peers.append(client_address)
        process_request(server, request, client_address)

    monkeypatch.setattr(service_http.ServiceHTTPServer, "process_request", counting)
    return peers


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestConnectionReuse:
    def test_sequential_calls_share_one_connection(self, tmp_path, accepted):
        with _service(tmp_path) as service, ServiceClient(service.url) as client:
            job_id = client.submit(RBSpec(**FAST_RB))
            for index in range(49):
                if index % 2:
                    assert client.status(job_id)["status"] == "queued"
                else:
                    assert client.health()["status"] == "ok"
            assert "repro_" in client.metrics()
        assert len(accepted) == 1

    def test_two_threads_use_two_connections(self, tmp_path, accepted):
        with _service(tmp_path) as service, ServiceClient(service.url) as client:
            job_id = client.submit(RBSpec(**FAST_RB))  # parked: no workers
            barrier = threading.Barrier(2)
            errors = []

            def caller():
                try:
                    barrier.wait(timeout=10.0)
                    # both long-polls are in flight at once: two sockets
                    client.status(job_id, wait=0.5)
                    for _ in range(24):
                        client.health()
                except Exception as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)

            threads = [threading.Thread(target=caller) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        assert errors == []
        assert len(accepted) == 2  # the submit's socket is one thread's

    def test_shared_client_under_thread_stress(self, tmp_path, accepted):
        """Eight threads, a tiny switch interval: the pool never hands one
        connection to two callers, and loses none."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with _service(tmp_path) as service, ServiceClient(service.url) as client:
                errors = []

                def caller():
                    try:
                        for _ in range(25):
                            assert client.health()["status"] == "ok"
                    except Exception as exc:  # noqa: BLE001 - reported below
                        errors.append(exc)

                threads = [threading.Thread(target=caller) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                assert not any(thread.is_alive() for thread in threads)
                idle = list(client._idle)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len({id(connection) for connection in idle}) == len(idle) == len(accepted) <= 8

    def test_base_url_must_be_http(self):
        for bad in ("127.0.0.1:8765", "ftp://host:21", "http://"):
            with pytest.raises(ValidationError):
                ServiceClient(bad)


class TestKeptAliveFraming:
    def _exchange(self, connection, method, path, body=None, headers=None):
        connection.request(method, path, body=body, headers=headers or {})
        response = connection.getresponse()
        return response.status, response.read()

    def test_unknown_post_then_get_on_one_socket(self, tmp_path):
        with _service(tmp_path) as service:
            connection = http.client.HTTPConnection("127.0.0.1", service.port, timeout=10)
            try:
                status, _ = self._exchange(
                    connection, "POST", "/v1/nope", b'{"kind": "rb"}',
                    {"Content-Type": "application/json"},
                )
                assert status == 404
                status, body = self._exchange(connection, "GET", "/healthz")
                assert status == 200 and b'"status": "ok"' in body
            finally:
                connection.close()

    def test_unauthenticated_post_then_get_on_one_socket(self, tmp_path):
        with _service(tmp_path, tokens=REGISTRY) as service:
            connection = http.client.HTTPConnection("127.0.0.1", service.port, timeout=10)
            try:
                status, _ = self._exchange(
                    connection, "POST", "/v1/experiments", b'{"kind": "rb"}',
                    {"Content-Type": "application/json"},
                )
                assert status == 401
                status, _ = self._exchange(connection, "GET", "/healthz")
                assert status == 200
            finally:
                connection.close()

    @pytest.mark.parametrize(
        "framing",
        [{"Transfer-Encoding": "chunked"}, {"Content-Length": "abc"}],
        ids=["chunked", "bad-length"],
    )
    def test_unframed_body_closes_the_connection(self, tmp_path, framing):
        """A body the handler cannot delimit ends the connection after the
        answer, instead of being parsed as the next request."""
        with _service(tmp_path) as service:
            with socket.create_connection(("127.0.0.1", service.port), timeout=10) as sock:
                headers = "".join(f"{name}: {value}\r\n" for name, value in framing.items())
                sock.sendall(
                    f"POST /v1/experiments HTTP/1.1\r\nHost: x\r\n{headers}\r\n".encode()
                    + b"5\r\nhello\r\n0\r\n\r\n"
                )
                reply = b""
                while chunk := sock.recv(65536):
                    reply += chunk
        status_lines = [line for line in reply.split(b"\r\n") if line.startswith(b"HTTP/1.1")]
        assert status_lines == [b"HTTP/1.1 400 Bad Request"]
        assert b"Connection: close" in reply

    def test_auth_and_quota_errors_keep_their_fields(self, tmp_path, accepted):
        spec = RBSpec(**FAST_RB)
        with _service(tmp_path, tokens=REGISTRY) as service:
            with ServiceClient(service.url, max_retries=0) as anonymous:
                for _ in range(2):
                    with pytest.raises(ServiceError) as err:
                        anonymous.submit(spec)
                    assert err.value.status == 401
            with ServiceClient(service.url, token="bulk-token", max_retries=0) as bulk:
                bulk.submit(spec)
                with pytest.raises(ServiceError) as err:
                    bulk.submit({**spec.to_dict(), "seed": 6})
                assert err.value.status == 429
                assert err.value.payload["reason"] == "max_queued"
                assert err.value.retry_after_s >= 1.0
                assert bulk.tenants()["tenants"]["bulk"]["accounting"]["submitted"] == 1
        assert len(accepted) == 2  # one socket per client, errors included


class TestStaleConnections:
    def test_idle_timeout_close_is_invisible(self, tmp_path, accepted, monkeypatch):
        monkeypatch.setattr(service_http.ServiceRequestHandler, "timeout", 0.2)
        with _service(tmp_path) as service:
            with ServiceClient(service.url, max_retries=0) as client:
                assert client.health()["status"] == "ok"
                time.sleep(0.6)  # the daemon closes the idle socket
                assert client.health()["status"] == "ok"
                job_id = client.submit(RBSpec(**FAST_RB))
                time.sleep(0.6)
                assert client.status(job_id)["status"] == "queued"
        assert len(accepted) == 3

    def test_daemon_restart_on_the_same_port_is_invisible(self, tmp_path, accepted):
        service = _service(tmp_path, port=_free_port())
        service.start()
        try:
            with ServiceClient(service.url, max_retries=0) as client:
                job_id = client.submit(RBSpec(**FAST_RB))
                service.stop()
                service.start()  # same instance, same port
                assert client.status(job_id)["status"] == "queued"
                assert client.health()["status"] == "ok"
        finally:
            service.stop()
        assert len(accepted) == 2

    def test_fresh_connection_failure_is_a_status_0_error(self):
        with ServiceClient(f"http://127.0.0.1:{_free_port()}", max_retries=0) as client:
            with pytest.raises(ServiceError) as err:
                client.health()
        assert err.value.status == 0
        assert "unreachable" in str(err.value)


class TestShutdown:
    def test_stop_is_prompt_and_closes_idle_connections(self, tmp_path):
        service = _service(tmp_path)
        service.start()
        with ServiceClient(service.url) as client:
            client.health()
            [connection] = client._idle
            started = time.monotonic()
            service.stop()
            assert time.monotonic() - started < 5.0
            if os.name == "posix":  # SHUT_RD wakes a blocked reader there
                connection.sock.settimeout(5.0)
                assert connection.sock.recv(1) == b""  # the daemon closed it
