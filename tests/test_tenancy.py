"""The multi-tenant control plane: auth, quotas, weighted-fair scheduling.

Covers the PR acceptance criteria of the tenancy subsystem:

* **Token auth** — missing/unknown bearer tokens are 401s, a revoked
  tenant's token is a 403, ``/healthz`` and ``/v1/metrics`` stay open,
  and an authenticated job carries its tenant identity end to end.
* **Admission control** — ``max_queued``/``max_running`` bounds and the
  per-tenant token bucket reject with 429 + ``Retry-After``; a rejected
  tenant is admitted again once the bucket refills (injectable clock)
  or the queue drains.
* **Weighted-fair scheduling** — an interactive-class job is claimed
  ahead of a 20-deep batch backlog; within one tier, claims follow the
  stride schedule (a weight-3 tenant drains 3x as fast as a weight-1
  peer); tenantless legacy submissions keep exact FIFO order.
* **Cross-daemon safety** — the conditional-UPDATE claim race keeps its
  exactly-one-winner guarantee for tenant-scheduled jobs, and per-tenant
  accounting totals survive the full submit/complete/fail lifecycle.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.service import (
    AdmissionController,
    AuthError,
    ExperimentService,
    JobQueue,
    QuotaExceeded,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    Tenant,
    TokenRegistry,
)
from repro.service.tenancy import TokenBucket, resolve_token_registry
from repro.session import RBSpec
from repro.utils.validation import ValidationError
from harness.leases import claim, complete, fail

#: Small-but-real RB workload for submissions that must validate.
FAST_RB = dict(device="montreal", qubits=(0,), lengths=(1, 4, 8), n_seeds=1, shots=100, seed=5)

#: Two-tenant registry used by the HTTP-level tests.
REGISTRY = {
    "tenants": {
        "live": {
            "tokens": ["live-token"],
            "priority": "interactive",
            "weight": 4.0,
        },
        "bulk": {
            "tokens": ["bulk-token", "bulk-token-2"],
            "priority": "batch",
            "max_queued": 1,
        },
        "barred": {"tokens": ["barred-token"], "revoked": True},
    }
}


def _service(tmp_path, **overrides):
    defaults = dict(
        host="127.0.0.1", port=0, store=tmp_path / "store",
        queue_path=tmp_path / "queue.sqlite3", workers=0, tokens=REGISTRY,
    )
    defaults.update(overrides)
    return ExperimentService(ServiceConfig(**defaults))


class FakeClock:
    """A manually advanced monotonic clock for deterministic bucket tests."""

    def __init__(self, start: float = 1000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------- #
# registry parsing and resolution
# ---------------------------------------------------------------------- #
class TestTokenRegistry:
    def test_json_document_round_trip(self):
        registry = TokenRegistry.from_dict(REGISTRY)
        assert len(registry) == 3
        live = registry.authenticate("live-token")
        assert live.id == "live" and live.priority == "interactive"
        assert live.weight == 4.0
        # several tokens may map to one tenant
        assert registry.authenticate("bulk-token-2").id == "bulk"

    def test_auth_failures_carry_their_status(self):
        registry = TokenRegistry.from_dict(REGISTRY)
        with pytest.raises(AuthError) as err:
            registry.authenticate(None)
        assert err.value.status == 401
        with pytest.raises(AuthError) as err:
            registry.authenticate("no-such-token")
        assert err.value.status == 401
        with pytest.raises(AuthError) as err:
            registry.authenticate("barred-token")
        assert err.value.status == 403
        # token values never leak into error messages
        assert "no-such-token" not in str(err.value)

    def test_compact_env_form(self):
        registry = TokenRegistry.from_env(
            "a-secret:alice:interactive:4,b-secret:bob,b2-secret:bob"
        )
        alice = registry.authenticate("a-secret")
        assert alice.priority == "interactive" and alice.weight == 4.0
        assert registry.authenticate("b-secret").priority == "batch"
        assert registry.authenticate("b2-secret").id == "bob"

    def test_malformed_configurations_are_rejected(self):
        with pytest.raises(ValidationError):  # duplicate token across tenants
            TokenRegistry.from_dict(
                {"tenants": {"a": {"tokens": ["t"]}, "b": {"tokens": ["t"]}}}
            )
        with pytest.raises(ValidationError):  # unknown priority class
            Tenant(id="x", priority="supersonic")
        with pytest.raises(ValidationError):  # non-positive weight
            Tenant(id="x", weight=0.0)
        with pytest.raises(ValidationError):  # unknown config field
            TokenRegistry.from_dict(
                {"tenants": {"a": {"tokens": ["t"], "quota": 5}}}
            )
        with pytest.raises(ValidationError):  # compact form needs token:tenant
            TokenRegistry.from_env("just-a-token")

    def test_public_dict_never_includes_tokens(self):
        document = TokenRegistry.from_dict(REGISTRY).get("live").to_public_dict()
        assert document["id"] == "live" and document["priority"] == "interactive"
        assert "tokens" not in document and "token" not in document

    def test_resolution_sources(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_API_TOKENS", "env-secret:env-tenant")
        assert resolve_token_registry(False) is None  # --no-auth beats the env
        assert resolve_token_registry(None).authenticate("env-secret").id == "env-tenant"
        monkeypatch.delenv("REPRO_API_TOKENS")
        assert resolve_token_registry(None) is None  # open mode without the env
        path = tmp_path / "tokens.json"
        path.write_text(json.dumps(REGISTRY))
        assert len(resolve_token_registry(path)) == 3
        registry = resolve_token_registry(REGISTRY)
        assert resolve_token_registry(registry) is registry


# ---------------------------------------------------------------------- #
# admission control (quotas + rate)
# ---------------------------------------------------------------------- #
class TestAdmission:
    def test_token_bucket_rejects_then_refills(self):
        clock = FakeClock()
        bucket = TokenBucket(rate_per_s=2.0, burst=2, clock=clock)
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() == 0.0
        retry_after = bucket.try_acquire()  # burst exhausted
        assert retry_after == pytest.approx(0.5)
        clock.advance(0.25)  # half a token: still rejected, shorter hint
        assert bucket.try_acquire() == pytest.approx(0.25)
        clock.advance(0.25)
        assert bucket.try_acquire() == 0.0  # refilled -> admitted again

    def test_rate_quota_rejects_and_recovers(self, tmp_path):
        clock = FakeClock()
        controller = AdmissionController(clock=clock)
        tenant = Tenant(id="metered", rate_per_s=1.0, burst=1)
        queue = JobQueue(tmp_path / "queue.sqlite3")
        controller.admit(tenant, queue)
        with pytest.raises(QuotaExceeded) as err:
            controller.admit(tenant, queue)
        assert err.value.reason == "rate"
        assert err.value.retry_after_s == pytest.approx(1.0)
        clock.advance(1.0)
        controller.admit(tenant, queue)  # bucket refilled
        queue.close()

    def test_queue_bounds_reject_before_charging_the_bucket(self, tmp_path):
        queue = JobQueue(tmp_path / "queue.sqlite3")
        controller = AdmissionController(clock=FakeClock())
        tenant = Tenant(id="capped", max_queued=1, rate_per_s=1.0, burst=1)
        queue.submit({"kind": "rb", "seed": 1}, tenant="capped")
        with pytest.raises(QuotaExceeded) as err:
            controller.admit(tenant, queue)
        assert err.value.reason == "max_queued"
        # the max_queued rejection did not burn the rate token: once the
        # job starts running the submission is admitted on that token
        claim(queue)
        controller.admit(tenant, queue)
        queue.close()

    def test_max_running_bound(self, tmp_path):
        queue = JobQueue(tmp_path / "queue.sqlite3")
        controller = AdmissionController(clock=FakeClock())
        tenant = Tenant(id="runcap", max_running=1)
        queue.submit({"kind": "rb", "seed": 1}, tenant="runcap")
        controller.admit(tenant, queue)  # queued jobs don't count
        claim(queue)
        with pytest.raises(QuotaExceeded) as err:
            controller.admit(tenant, queue)
        assert err.value.reason == "max_running"
        assert err.value.retry_after_s > 0.0
        queue.close()


# ---------------------------------------------------------------------- #
# weighted-fair scheduling in the queue
# ---------------------------------------------------------------------- #
class TestFairScheduling:
    def test_interactive_claims_ahead_of_deep_batch_backlog(self, tmp_path):
        queue = JobQueue(tmp_path / "queue.sqlite3")
        batch_ids = [
            queue.submit({"kind": "rb", "seed": n}, tenant="bulk", priority="batch")
            for n in range(20)
        ]
        live_id = queue.submit(
            {"kind": "rb", "seed": 99}, tenant="live", priority="interactive"
        )
        first = claim(queue)
        assert first.id == live_id  # claimed ahead of all 20 queued batch jobs
        assert first.tenant == "live" and first.priority == "interactive"
        assert claim(queue).id == batch_ids[0]  # then the batch tier, FIFO
        queue.close()

    def test_weights_shape_the_claim_ratio(self, tmp_path):
        queue = JobQueue(tmp_path / "queue.sqlite3")
        for n in range(12):
            queue.submit({"kind": "rb", "seed": n}, tenant="heavy", weight=3.0)
        for n in range(12):
            queue.submit({"kind": "rb", "seed": 100 + n}, tenant="light", weight=1.0)
        claimed = [claim(queue).tenant for _ in range(16)]
        # stride scheduling: while both tenants have queued jobs, weight 3
        # is claimed exactly 3x as often as weight 1
        assert claimed.count("heavy") == 12 and claimed.count("light") == 4
        queue.close()

    def test_late_tenant_cannot_bank_credit_while_idle(self, tmp_path):
        queue = JobQueue(tmp_path / "queue.sqlite3")
        for n in range(4):
            queue.submit({"kind": "rb", "seed": n}, tenant="steady")
        assert claim(queue).tenant == "steady"
        assert claim(queue).tenant == "steady"
        # a tenant arriving after the virtual time advanced is clamped to
        # the current queued minimum, not zero — it cannot monopolize the
        # queue to "repay" time it spent idle
        queue.submit({"kind": "rb", "seed": 50}, tenant="late")
        queue.submit({"kind": "rb", "seed": 51}, tenant="late")
        claimed = [claim(queue).tenant for _ in range(4)]
        assert claimed == ["steady", "late", "steady", "late"]  # not late x2 first
        queue.close()

    def test_legacy_tenantless_fifo_is_preserved(self, tmp_path):
        queue = JobQueue(tmp_path / "queue.sqlite3")
        ids = [queue.submit({"kind": "rb", "seed": n}) for n in range(5)]
        assert [claim(queue).id for _ in range(5)] == ids
        queue.close()

    def test_claim_race_has_exactly_one_winner_under_tenancy(self, tmp_path):
        """Two daemons racing on one tenant-scheduled job: one winner.

        The weighted-fair candidate SELECT runs outside the conditional
        UPDATE, so both connections pick the same candidate — the
        rowcount-checked flip must still hand it to exactly one.
        """
        path = tmp_path / "queue.sqlite3"
        left, right = JobQueue(path), JobQueue(path)
        job_id = left.submit(
            {"kind": "rb", "seed": 1}, tenant="live", priority="interactive"
        )
        barrier = threading.Barrier(2)
        outcomes = [None, None]

        def _race(slot, queue):
            barrier.wait()
            outcomes[slot] = queue.claim(owner_id=f"daemon-{slot}", lease_s=30.0)

        threads = [
            threading.Thread(target=_race, args=(slot, queue))
            for slot, queue in enumerate((left, right))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        winners = [job for job in outcomes if job is not None]
        assert len(winners) == 1
        assert winners[0].id == job_id and winners[0].lease_generation == 1
        assert winners[0].tenant == "live" and winners[0].priority == "interactive"
        left.close(), right.close()

    def test_fencing_charges_accounting_exactly_once(self, tmp_path):
        """A fenced-out stale owner cannot double-charge the tenant.

        Claim with a tiny lease, let it expire, reclaim from a peer
        connection, finish there — then the stale owner's publication
        raises ``StaleLeaseError`` and the tenant's accounting records
        exactly one completion.
        """
        from repro.service import StaleLeaseError

        path = tmp_path / "queue.sqlite3"
        stale, peer = JobQueue(path), JobQueue(path)
        job_id = stale.submit({"kind": "rb", "seed": 1}, tenant="live")
        first = stale.claim(owner_id="stale", lease_s=0.05)
        assert first.id == job_id
        deadline = first.lease_expiry + 0.2
        time.sleep(max(0.0, deadline - time.time()))
        takeover = peer.claim(owner_id="peer", lease_s=30.0)
        assert takeover.id == job_id and takeover.lease_generation == 2
        peer.complete(job_id, '{"kind": "rb"}', owner_id="peer",
                      lease_generation=2, execute_s=1.0)
        with pytest.raises(StaleLeaseError):
            stale.complete(job_id, '{"kind": "rb"}', owner_id="stale",
                           lease_generation=1, execute_s=99.0)
        totals = stale.tenant_accounting()["live"]
        assert totals["completed"] == 1 and totals["failed"] == 0
        assert totals["execute_seconds"] == pytest.approx(1.0)
        stale.close(), peer.close()

    def test_accounting_tracks_the_full_lifecycle(self, tmp_path):
        queue = JobQueue(tmp_path / "queue.sqlite3")
        done_id = queue.submit({"kind": "rb", "seed": 1}, tenant="acct")
        failed_id = queue.submit({"kind": "rb", "seed": 2}, tenant="acct")
        assert queue.tenant_counts("acct") == {"queued": 2, "running": 0}
        assert queue.tenant_queue_depths()["acct"] == 2

        done, failed = claim(queue), claim(queue)
        assert (done.id, failed.id) == (done_id, failed_id)
        complete(queue, done, '{"kind": "rb"}', execute_s=1.5)
        fail(queue, failed, "boom", execute_s=0.5)

        totals = queue.tenant_accounting()["acct"]
        assert totals["submitted"] == 2
        assert totals["completed"] == 1 and totals["failed"] == 1
        assert totals["execute_seconds"] == pytest.approx(2.0)
        assert queue.tenant_queue_depths()["acct"] == 0  # known but drained
        queue.close()


# ---------------------------------------------------------------------- #
# the HTTP surface end to end
# ---------------------------------------------------------------------- #
class TestAuthOverHttp:
    def test_status_codes_per_credential(self, tmp_path):
        spec = RBSpec(**FAST_RB)
        with _service(tmp_path) as service:
            # open endpoints answer without credentials
            with ServiceClient(service.url, max_retries=0) as anonymous:
                health = anonymous.health()
                assert health["auth"]["enabled"] is True and health["auth"]["tenants"] == 3
                assert "repro_tenant_queue_depth" in anonymous.metrics()

            for token, status in (None, 401), ("wrong", 401), ("barred-token", 403):
                with ServiceClient(service.url, token=token, max_retries=0) as client:
                    with pytest.raises(ServiceError) as err:
                        client.submit(spec)
                    assert err.value.status == status
                    with pytest.raises(ServiceError) as err:
                        client.jobs()
                    assert err.value.status == status

            with ServiceClient(service.url, token="live-token") as live:
                document = live.status(live.submit(spec))
            assert document["tenant"] == "live"
            assert document["priority"] == "interactive"

    def test_quota_429_then_admitted_after_drain(self, tmp_path):
        spec = RBSpec(**FAST_RB)
        with (
            _service(tmp_path) as service,
            ServiceClient(service.url, token="bulk-token", max_retries=0) as bulk,
        ):
            job_id = bulk.submit(spec)
            with pytest.raises(ServiceError) as err:
                bulk.submit({**spec.to_dict(), "seed": 6})
            assert err.value.status == 429
            assert err.value.payload["reason"] == "max_queued"
            assert err.value.retry_after_s >= 1.0
            # the rejection is visible in both metrics and accounting
            assert (
                'repro_tenant_quota_rejections_total{tenant="bulk"} 1'
                in bulk.metrics()
            )
            # drain the queued job out of the quota window -> admitted
            job = claim(service.queue)
            assert job.id == job_id
            fail(service.queue, job, "drained by test")
            bulk.submit({**spec.to_dict(), "seed": 6})
            accounting = bulk.tenants()["tenants"]["bulk"]["accounting"]
            assert accounting["submitted"] == 2

    def test_rate_429_retried_by_the_client_succeeds(self, tmp_path):
        """Satellite: the client's bounded retry turns a 429 into success.

        The daemon's admission clock is real here — a 20/s bucket with
        burst 1 refills within the client's Retry-After sleep, so a
        retrying client succeeds where a ``max_retries=0`` one 429s.
        """
        registry = {
            "tenants": {
                "metered": {"tokens": ["m-token"], "rate_per_s": 20.0, "burst": 1}
            }
        }
        spec = RBSpec(**FAST_RB)
        with _service(tmp_path, tokens=registry) as service:
            with ServiceClient(service.url, token="m-token", max_retries=0) as bare:
                bare.submit(spec)
                with pytest.raises(ServiceError) as err:
                    bare.submit({**spec.to_dict(), "seed": 6})
            assert err.value.status == 429 and err.value.payload["reason"] == "rate"

            with ServiceClient(service.url, token="m-token", max_retries=3) as retrying:
                retrying.submit({**spec.to_dict(), "seed": 7})  # retried past the 429
                tenants = retrying.tenants()["tenants"]
            assert tenants["metered"]["accounting"]["submitted"] == 2

    def test_no_auth_service_stays_open(self, tmp_path):
        with (
            _service(tmp_path, tokens=None, no_auth=True) as service,
            ServiceClient(service.url, max_retries=0) as client,
        ):
            assert client.health()["auth"]["enabled"] is False
            job_id = client.submit(RBSpec(**FAST_RB))
            assert client.status(job_id)["tenant"] == "anonymous"
            document = client.tenants()
            assert document["auth_enabled"] is False
            assert document["tenants"]["anonymous"]["accounting"]["submitted"] == 1
