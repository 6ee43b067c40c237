"""End-to-end smoke check of the service daemon (used by CI).

``python -m repro.service.smoke`` boots a real :class:`ExperimentService`
on an ephemeral localhost port over a throwaway store, submits the reduced
Fig. 3 custom-X IRB spec (GRAPE calibration nested) over actual HTTP, and
asserts the full contract end to end:

* ``/healthz`` answers 200 with ``status: ok``,
* ``POST /v1/experiments`` answers 201 with a job id,
* the job reaches ``done`` and its result replays the IRB payload,
* a duplicate submission of the same spec is served from the result
  cache (``cache_hit`` provenance, zero additional executions), and its
  ``result()`` takes exactly one status request — the ``?wait=``
  long-poll answers on completion instead of a client-side poll loop,
* ``/v1/store/stats`` shows exactly one result write,
* ``/v1/metrics`` answers with a Prometheus text document carrying the
  core series (optionally written to ``--metrics-out`` for the CI
  ``metrics-smoke`` validation step).

With ``--shadow-rate 1.0`` the run doubles as the **shadow canary**: the
cached replay is re-executed on the live engine and compared bit-for-bit
— the smoke then asserts ``shadow_checks >= 1`` and
``shadow_mismatches == 0`` (and exactly two executions instead of one).

With ``--auth`` the run is the **multi-tenant auth leg** instead: a
daemon boots with a token registry (accept-only, zero workers — cheap),
and the smoke asserts the control-plane surfaces end to end: no token →
401, an unknown token → 401, a valid token → 201, and a ``max_queued=1``
quota turning the second submission into a 429 carrying ``Retry-After``.

Exit code 0 on success, 1 with a diagnostic on any failed expectation —
the CI ``service-smoke`` and ``shadow-canary`` jobs run exactly this
module.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import tempfile
import time

from . import ExperimentService, ServiceClient, ServiceConfig, ServiceError
from ..session import GRAPESpec, IRBSpec


def reduced_fig3_spec() -> IRBSpec:
    """The reduced-size Fig. 3 custom-X IRB spec (seconds, not minutes)."""
    calibration = GRAPESpec(
        device="montreal", gate="x", qubits=(0,), duration_ns=56.0, n_ts=8,
        include_decoherence=False, max_iter=40, seed=2022,
    )
    return IRBSpec(
        device="montreal", gate="x", qubits=(0,), lengths=(1, 4, 8),
        n_seeds=2, shots=100, seed=2022, calibration=calibration,
    )


def run_smoke(
    store_root=None,
    timeout: float = 300.0,
    metrics_out=None,
    shadow_rate: float | None = None,
    worker_mode: str = "thread",
) -> int:
    """Boot, submit, verify; returns a shell exit code (prints progress).

    Parameters
    ----------
    store_root : optional
        Store root to run over (default: a throwaway temp directory).
    timeout : float
        Seconds to wait for the first (cold) job.
    metrics_out : str or Path, optional
        When given, the final ``/v1/metrics`` document is written here
        for out-of-process validation (``docs/check_metrics.py``).
    shadow_rate : float, optional
        Shadow-verification rate the daemon runs with; ``1.0`` turns the
        smoke into the shadow canary (see module docstring).
    worker_mode : str
        Worker-pool execution mode (``thread`` | ``process``); the full
        contract below must hold identically in both.
    """
    spec = reduced_fig3_spec()
    shadowing = shadow_rate is not None and shadow_rate >= 1.0
    with tempfile.TemporaryDirectory(prefix="repro-service-smoke-") as scratch:
        config = ServiceConfig(
            host="127.0.0.1", port=0, store=store_root or f"{scratch}/store", workers=1,
            shadow_rate=shadow_rate, worker_mode=worker_mode,
        )
        with ExperimentService(config) as service, ServiceClient(service.url) as client:
            health = client.health()
            _expect(health.get("status") == "ok", f"healthz not ok: {health}")
            _expect(health.get("worker_mode") == worker_mode,
                    f"healthz worker_mode mismatch: {health}")
            print(f"healthz ok at {service.url} "
                  f"(workers={health['workers']}, mode={health['worker_mode']})")

            started = time.perf_counter()
            job_id = client.submit(spec)
            print(f"submitted reduced fig3 spec: job {job_id}")
            result = client.result(job_id, timeout=timeout)
            wall = time.perf_counter() - started
            _expect(client.status(job_id)["status"] == "done", "job did not finish 'done'")
            _expect(result.kind == "irb", f"unexpected result kind {result.kind!r}")
            _expect("gate_error" in result.payload, "IRB payload missing gate_error")
            print(f"finished in {wall:.1f}s: gate_error={result['gate_error']:.3e}")

            replay_id = client.submit(spec)
            status_requests = []
            status = client.status
            client.status = lambda *args, **kwargs: (
                status_requests.append(args) or status(*args, **kwargs)
            )
            try:
                replay = client.result(replay_id, timeout=60.0)
            finally:
                del client.status
            _expect(replay.cache_hit, "duplicate submission was not served from the cache")
            _expect(
                len(status_requests) == 1,
                f"cached replay took {len(status_requests)} status requests, "
                "expected a single long-poll",
            )
            _expect(
                replay.payload_fingerprint() == result.payload_fingerprint(),
                "cached replay payload is not bit-identical",
            )
            stats = client.store_stats()["stats"]["results"]
            _expect(
                stats.get("writes") == 1,
                f"expected exactly one result write, saw {stats}",
            )
            sessions = client.health()["sessions"]
            expected_executions = 2 if shadowing else 1
            _expect(
                sessions.get("executions") == expected_executions,
                f"expected exactly {expected_executions} execution(s), saw {sessions}",
            )
            if shadowing:
                _expect(
                    replay.provenance.get("shadow_verified") is True,
                    f"replay was not shadow-verified: {replay.provenance}",
                )
                _expect(
                    sessions.get("shadow_checks", 0) >= 1,
                    f"expected at least one shadow check, saw {sessions}",
                )
                _expect(
                    sessions.get("shadow_mismatches", 0) == 0,
                    f"SHADOW MISMATCH: cached result diverged from live engine: {sessions}",
                )
                print(
                    f"shadow canary ok (checks={sessions['shadow_checks']}, mismatches=0)"
                )
            print(f"cached replay ok (result writes=1, executions={expected_executions})")

            exposition = client.metrics()
            _expect(
                "# TYPE repro_jobs gauge" in exposition
                and "repro_session_events_total" in exposition
                and "repro_job_queue_latency_seconds_bucket" in exposition,
                "metrics exposition is missing core series",
            )
            if metrics_out is not None:
                with open(metrics_out, "w", encoding="utf-8") as fh:
                    fh.write(exposition)
                print(f"metrics exposition written to {metrics_out}")
            print("metrics endpoint ok")
    print("service smoke passed")
    return 0


def run_auth_smoke(timeout: float = 60.0) -> int:
    """The CI auth leg: 401 without a token, 201 with one, 429 on quota.

    Boots an accept-only daemon (zero workers — quota checks run on
    queued counts, no execution needed) with two tenants: ``ci-interactive``
    (interactive class) and ``ci-batch`` with ``max_queued=1`` so its
    second submission breaks the quota deterministically.
    """
    registry = {
        "tenants": {
            "ci-interactive": {
                "tokens": ["smoke-interactive-token"],
                "priority": "interactive",
                "weight": 4.0,
            },
            "ci-batch": {
                "tokens": ["smoke-batch-token"],
                "priority": "batch",
                "max_queued": 1,
            },
        }
    }
    spec = reduced_fig3_spec()
    with tempfile.TemporaryDirectory(prefix="repro-service-auth-smoke-") as scratch:
        config = ServiceConfig(
            host="127.0.0.1", port=0, store=f"{scratch}/store", workers=0,
            tokens=registry,
        )
        with ExperimentService(config) as service, contextlib.ExitStack() as clients:

            def connect(**kwargs) -> ServiceClient:
                return clients.enter_context(ServiceClient(service.url, **kwargs))

            health = connect().health()
            _expect(
                health.get("auth", {}).get("enabled") is True,
                f"daemon did not report auth enabled: {health}",
            )
            print(f"auth-enabled daemon up at {service.url} (2 tenants)")

            for label, client in (
                ("no token", connect(max_retries=0)),
                ("unknown token", connect(token="not-a-real-token", max_retries=0)),
            ):
                try:
                    client.submit(spec)
                    raise AssertionError(f"{label}: submission was accepted")
                except ServiceError as exc:
                    _expect(
                        exc.status == 401,
                        f"{label}: expected 401, got {exc.status}: {exc}",
                    )
                print(f"{label} -> 401 ok")

            interactive = connect(token="smoke-interactive-token", timeout=timeout)
            job_id = interactive.submit(spec)
            document = interactive.status(job_id)
            _expect(
                document["tenant"] == "ci-interactive"
                and document["priority"] == "interactive",
                f"job does not carry its tenancy: {document}",
            )
            print(f"valid token -> 201 ok (job {job_id}, tenant ci-interactive)")

            batch = connect(token="smoke-batch-token", max_retries=0)
            batch.submit(spec)
            try:
                batch.submit(spec)
                raise AssertionError("second submission over max_queued=1 was accepted")
            except ServiceError as exc:
                _expect(
                    exc.status == 429,
                    f"expected 429 over quota, got {exc.status}: {exc}",
                )
                _expect(
                    exc.payload.get("reason") == "max_queued",
                    f"429 body missing quota reason: {exc.payload}",
                )
                _expect(
                    getattr(exc, "retry_after_s", None) is not None,
                    "429 response carried no Retry-After header",
                )
            print("quota of 1 -> second submit 429 ok (Retry-After present)")

            tenants = interactive.tenants()["tenants"]
            _expect(
                tenants["ci-batch"]["accounting"]["submitted"] == 1
                and tenants["ci-interactive"]["accounting"]["submitted"] == 1,
                f"accounting does not reflect the submissions: {tenants}",
            )
            print("per-tenant accounting ok")
    print("service auth smoke passed")
    return 0


def _expect(condition: bool, message: str) -> None:
    """Fail fast with a diagnostic on a broken expectation."""
    if not condition:
        raise AssertionError(message)


def main(argv=None) -> int:
    """CLI entry point; returns a shell exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.smoke",
        description="End-to-end smoke check of the experiment service daemon.",
    )
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write the final /v1/metrics document to this file")
    parser.add_argument("--shadow-rate", type=float, default=None, metavar="RATE",
                        help="daemon shadow-verification rate (1.0 = shadow canary)")
    parser.add_argument("--auth", action="store_true",
                        help="run the multi-tenant auth leg instead "
                             "(401/201/429 against a token-enabled daemon)")
    parser.add_argument("--worker-mode", choices=("thread", "process"), default="thread",
                        help="worker-pool execution mode the daemon runs with "
                             "(default: thread)")
    args = parser.parse_args(argv)
    try:
        if args.auth:
            return run_auth_smoke()
        return run_smoke(metrics_out=args.metrics_out, shadow_rate=args.shadow_rate,
                         worker_mode=args.worker_mode)
    except AssertionError as exc:
        print(f"SMOKE FAIL: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
