"""The experiment service daemon, the dedup protocol and the result GC.

Covers the PR acceptance criteria of the multi-session service:

* **HTTP round trip** — a spec submitted over the wire finishes ``done``
  with a payload bit-identical to running it directly through
  ``Session.run_all``; bad payloads are 400s, unknown ids 404s.
* **Restart-resume** — queued jobs survive a daemon restart (SQLite
  journal), and jobs left ``running`` by a dead daemon are re-queued and
  completed by the next boot.
* **Exactly-once execution** — two concurrently cold submissions of an
  identical spec perform exactly one execution and one result
  publication, proven by session/store counters — both through the
  daemon's worker pool and through plain concurrent ``Session``s on one
  store root (the cross-process lock-or-wait protocol).
* **Bounded result retention** — ``prune(results_max_bytes=,
  results_max_age=)`` evicts least-recently-used entries, honours both
  bounds, refreshes recency on hits, and never evicts in-flight keys.
* **Long-poll** — ``GET /v1/experiments/<id>?wait=`` answers on
  completion (local notification, or a re-read for a peer daemon's),
  validates and clamps ``wait``, and is released by ``stop()``;
  ``ServiceClient.result`` keeps every long-poll below its socket
  timeout and honours its own ``timeout``.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.service import (
    ExperimentService,
    JobFailedError,
    JobQueue,
    ServiceClient,
    ServiceConfig,
    ServiceError,
)
from repro.session import RBSpec, Session, spec_from_dict
from repro.session.results import ExperimentResult
from repro.store import ArtifactStore
from repro.store.__main__ import main as store_cli
from repro.utils.validation import ValidationError
from harness.leases import OWNER, claim, complete, fail

#: Small-but-real RB workload shared by the service tests (sub-second).
FAST_RB = dict(device="montreal", qubits=(0,), lengths=(1, 4, 8), n_seeds=1, shots=100, seed=5)

#: The long-poll tests' workload: as fast, and its decay fits with a
#: finite covariance.
LONG_POLL_RB = dict(FAST_RB, lengths=(1, 16, 48, 96), n_seeds=2)


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


def _service(tmp_path, store, **overrides):
    defaults = dict(
        host="127.0.0.1", port=0, store=store,
        queue_path=tmp_path / "queue.sqlite3", workers=1,
    )
    defaults.update(overrides)
    return ExperimentService(ServiceConfig(**defaults))


def _result_for(spec, payload_value: float = 1.0) -> ExperimentResult:
    """A tiny synthetic result document for queue/GC tests."""
    return ExperimentResult(
        kind=spec["kind"] if isinstance(spec, dict) else spec.kind,
        spec=spec if isinstance(spec, dict) else spec.to_dict(),
        payload={"value": payload_value},
        provenance={"spec_fingerprint": "s" * 64, "properties_fingerprint": "p" * 64},
    )


class TestJobQueue:
    def test_submit_claim_complete_round_trip(self, tmp_path):
        queue = JobQueue(tmp_path / "queue.sqlite3")
        spec = RBSpec(**FAST_RB).to_dict()
        job_id = queue.submit(spec)
        assert queue.counts() == {"queued": 1, "running": 0, "done": 0, "failed": 0}

        job = claim(queue)
        assert job.id == job_id and job.status == "running" and job.attempts == 1
        assert job.spec == spec
        assert claim(queue) is None  # nothing else queued

        complete(queue, job, _result_for(spec).to_json(indent=None))
        done = queue.get(job_id)
        assert done.status == "done" and done.finished_at is not None
        assert json.loads(done.result_json)["kind"] == "rb"
        assert done.to_public_dict()["result"]["kind"] == "rb"
        queue.close()

    def test_fifo_order_and_listing(self, tmp_path):
        queue = JobQueue(tmp_path / "queue.sqlite3")
        ids = [queue.submit({"kind": "rb", "seed": n}) for n in range(3)]
        assert [claim(queue).id for _ in range(3)] == ids
        listed = queue.jobs(status="running")
        assert {job.id for job in listed} == set(ids)
        with pytest.raises(ValidationError):
            queue.jobs(status="bogus")
        queue.close()

    def test_submission_survives_reopen(self, tmp_path):
        path = tmp_path / "queue.sqlite3"
        first = JobQueue(path)
        job_id = first.submit({"kind": "rb", "seed": 1})
        first.close()
        reopened = JobQueue(path)
        assert reopened.get(job_id).status == "queued"
        assert reopened.counts()["queued"] == 1
        reopened.close()

    def test_recover_requeues_running_jobs(self, tmp_path):
        path = tmp_path / "queue.sqlite3"
        crashed = JobQueue(path)
        job_id = crashed.submit({"kind": "rb", "seed": 1})
        assert claim(crashed, lease_s=0.01).id == job_id  # daemon died mid-execution here
        crashed.close()
        time.sleep(0.05)  # its lease runs out

        rebooted = JobQueue(path)
        assert rebooted.recover() == 1
        job = rebooted.get(job_id)
        assert job.status == "queued" and job.started_at is None
        assert job.attempts == 1  # the lost attempt stays on the record
        rebooted.close()

    def test_bad_submissions_and_unknown_ids(self, tmp_path):
        queue = JobQueue(tmp_path / "queue.sqlite3")
        with pytest.raises(ValidationError):
            queue.submit({"no": "kind"})
        with pytest.raises(KeyError):
            queue.complete("nope", "{}", OWNER, 1)
        assert queue.get("nope") is None
        queue.close()

    @pytest.mark.parametrize("wal_bytes", [b"", b"not a wal journal" * 32],
                             ids=["zero-byte", "corrupted"])
    def test_recover_survives_damaged_wal_sibling(self, tmp_path, wal_bytes):
        """A truncated/garbage ``-wal`` sibling never loses committed jobs.

        A crash can leave the WAL journal in any state; every committed
        transition lives in the main database file after the close-time
        checkpoint, so reopen + recover must work regardless of what is
        sitting in the sibling.
        """
        path = tmp_path / "queue.sqlite3"
        crashed = JobQueue(path)
        queued_id = crashed.submit({"kind": "rb", "seed": 1})
        running_id = crashed.submit({"kind": "rb", "seed": 2})
        assert crashed.claim(owner_id="dead", lease_s=0.01).id == queued_id
        time.sleep(0.05)
        crashed.close()

        (path.parent / (path.name + "-wal")).write_bytes(wal_bytes)
        rebooted = JobQueue(path)
        assert rebooted.recover() == 1
        assert rebooted.get(queued_id).status == "queued"
        assert rebooted.get(running_id).status == "queued"
        assert claim(rebooted).id == queued_id  # FIFO order preserved
        rebooted.close()

    def test_duplicate_claim_race_has_exactly_one_winner(self, tmp_path):
        """Two connections racing on one queued job: one Job, one miss.

        Two :class:`JobQueue` instances on the same file model two daemon
        processes; the conditional-``UPDATE`` claim must hand the single
        job to exactly one of them.
        """
        path = tmp_path / "queue.sqlite3"
        left, right = JobQueue(path), JobQueue(path)
        job_id = left.submit({"kind": "rb", "seed": 1})

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
        assert winners[0].id == job_id and winners[0].attempts == 1
        assert winners[0].lease_generation == 1
        left.close(), right.close()

    def test_non_utf8_error_text_is_sanitized(self, tmp_path):
        """Failed-job errors with undecodable bytes stay JSON-serializable.

        ``repr`` of binary data surfaces as lone surrogate escapes; stored
        verbatim they would blow up ``json.dumps`` on every later
        ``to_public_dict`` — the queue coerces them at ``fail`` time.
        """
        queue = JobQueue(tmp_path / "queue.sqlite3")
        job_id = queue.submit({"kind": "rb", "seed": 1})
        job = claim(queue)
        dirty = "solver exploded on " + b"\xff\xfe raw".decode("utf-8", "surrogateescape")
        fail(queue, job, dirty)
        job = queue.get(job_id)
        assert job.status == "failed"
        assert "solver exploded on" in job.error
        # round trip through the API surface: encodable and serializable
        job.error.encode("utf-8")
        document = json.loads(json.dumps(job.to_public_dict()))
        assert document["error"] == job.error
        queue.close()


class TestServiceRoundTrip:
    def test_submit_poll_bit_identical_to_direct_session(self, tmp_path, store):
        spec = RBSpec(**FAST_RB)
        # the reference: a direct session over its own (separate) store
        with Session(store=ArtifactStore(tmp_path / "direct"), num_workers=1) as session:
            [direct] = session.run_all([spec])

        with _service(tmp_path, store) as service, ServiceClient(service.url) as client:
            assert client.health()["status"] == "ok"
            job_id = client.submit(spec)
            remote = client.result(job_id, timeout=120.0)
        assert remote.kind == "rb" and not remote.cache_hit
        assert remote.payload_fingerprint() == direct.payload_fingerprint()
        assert spec_from_dict(remote.spec) == spec
        # the daemon executed through the shared store: one publication
        assert store.namespace_stats("results")["writes"] == 1

    def test_http_error_surface(self, tmp_path, store):
        with _service(tmp_path, store, workers=0) as service, ServiceClient(service.url) as client:
            with pytest.raises(ServiceError) as err:
                client.status("no-such-job")
            assert err.value.status == 404
            with pytest.raises(ServiceError) as err:
                client.submit({"kind": "bogus"})
            assert err.value.status == 400
            with pytest.raises(ServiceError) as err:
                client._request("GET", "/v1/nothing")
            assert err.value.status == 404
            oversized = {"kind": "rb", "padding": "x" * (9 * 1024 * 1024)}
            with pytest.raises(ServiceError) as err:
                client._request("POST", "/v1/experiments", oversized)
            assert err.value.status == 413
            # the 413 is structured JSON carrying the actual limit
            assert err.value.payload["max_body_bytes"] == 8 * 1024 * 1024
            assert "byte limit" in err.value.payload["error"]
            # listing limit validation: non-integers and negatives are 400s
            for bad_limit in ("abc", "-1", "1.5"):
                with pytest.raises(ServiceError) as err:
                    client._request("GET", f"/v1/experiments?limit={bad_limit}")
                assert err.value.status == 400
            # oversized limits clamp instead of erroring
            assert client._request("GET", "/v1/experiments?limit=999999")["jobs"] == []
            # jobs listing and store stats answer while idle
            assert client.jobs() == []
            assert client.store_stats()["stats"]["results"]["writes"] == 0

    def test_unrunnable_spec_is_rejected_before_queueing(self, tmp_path, store):
        with _service(tmp_path, store, workers=0) as service, ServiceClient(service.url) as client:
            for bad in ({"shots": 0}, {"n_seeds": 0}, {"lengths": [0, 4, 8]},
                        {"qubits": [0, 0]}, {"lengths": [1.9, 4, 8, 16]}):
                with pytest.raises(ServiceError) as err:
                    client.submit({"kind": "rb", **bad})
                assert err.value.status == 400
            # nothing reached the queue
            assert client.jobs() == []

    def test_spec_num_workers_is_rejected(self, tmp_path, store):
        """Process fan-out is the daemon's: a spec cannot size the pool."""
        bodies = [{"kind": kind, "num_workers": 3} for kind in ("rb", "irb", "xeb", "cycle")]
        for body in bodies:
            with pytest.raises(ValidationError, match="num_workers"):
                spec_from_dict(body)
        with _service(tmp_path, store, workers=0) as service, ServiceClient(service.url) as client:
            for body in bodies:
                with pytest.raises(ServiceError) as err:
                    client.submit(body)
                assert err.value.status == 400
            assert client.jobs() == []

    def test_failed_job_reports_the_error(self, tmp_path, store):
        bad = RBSpec(**{**FAST_RB, "qubits": (5,)})  # valid spec, uncalibrated qubit
        with _service(tmp_path, store) as service, ServiceClient(service.url) as client:
            job_id = client.submit(bad)
            with pytest.raises(JobFailedError):
                client.result(job_id, timeout=120.0)
            document = client.status(job_id)
        assert document["status"] == "failed" and document["error"]

    def test_service_requires_a_store(self):
        with pytest.raises(ValidationError):
            ExperimentService(ServiceConfig(store=None))

    def test_second_daemon_on_same_queue_is_supported(self, tmp_path, store):
        """Scale-out: an accept-only daemon and a worker daemon share one
        queue — a job submitted to the first completes on the second."""
        spec = RBSpec(**FAST_RB)
        with _service(tmp_path, store, workers=0) as frontend:
            with _service(tmp_path, ArtifactStore(store.root), workers=1) as backend:
                with ServiceClient(frontend.url) as client:
                    job_id = client.submit(spec)
                    result = client.result(job_id, timeout=120.0)
                assert result.kind == "rb"
                # the worker daemon's lease identity is on the record
                done = backend.queue.get(job_id)
                assert done.status == "done"
                assert done.attempts == 1 and done.lease_generation == 1
                with ServiceClient(backend.url) as client:
                    health = client.health()
                assert health["lease"]["owner_id"] == backend.owner_id
                assert health["sessions"]["executions"] == 1
                # the publication landed on the worker daemon's store
                assert backend.store.namespace_stats("results")["writes"] == 1


class TestLongPoll:
    """``GET /v1/experiments/<id>?wait=`` and the client built on it."""

    def test_wait_finished_wakes_on_local_completion(self, tmp_path):
        queue = JobQueue(tmp_path / "queue.sqlite3")
        job_id = queue.submit({"kind": "rb", "seed": 1})
        timer = threading.Timer(0.2, complete, args=(queue, claim(queue)))
        timer.start()
        started = time.monotonic()
        # the re-read interval is far away: only the notification can wake it
        job = queue.wait_finished(job_id, timeout=10.0, poll_s=30.0)
        timer.join(timeout=10.0)
        assert not timer.is_alive()
        assert job.status == "done"
        assert time.monotonic() - started < 5.0
        assert queue.wait_finished("nope", timeout=10.0) is None  # at once
        queue.close()

    def test_wait_finished_sees_peer_daemon_completion(self, tmp_path):
        """A job finished through another connection sends no local
        notification: the wait sees it within one re-read interval."""
        path = tmp_path / "queue.sqlite3"
        waiter, peer = JobQueue(path), JobQueue(path)
        job_id = waiter.submit({"kind": "rb", "seed": 1})
        job = claim(peer)
        finished_at = []

        def finish():
            time.sleep(0.3)
            complete(peer, job)
            finished_at.append(time.monotonic())

        thread = threading.Thread(target=finish)
        thread.start()
        poll_s = 0.25
        job = waiter.wait_finished(job_id, timeout=10.0, poll_s=poll_s)
        returned = time.monotonic()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert job.status == "done"
        assert returned - finished_at[0] < poll_s + 0.5
        waiter.close(), peer.close()

    def test_no_completion_is_lost_between_read_and_wait(self, tmp_path):
        """Waiters racing completions, more threads than cores, with a
        shortened switch interval.  The 60 s re-read interval is out of
        reach, so a completion landing between a waiter's read and its
        wait would leave that waiter to run out its 10 s timeout."""
        import sys

        queue = JobQueue(tmp_path / "queue.sqlite3")

        def wait(job_id, outcomes):
            outcomes[job_id] = queue.wait_finished(job_id, timeout=10.0, poll_s=60.0)

        def finish(jobs):
            for job in jobs:
                complete(queue, job)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            started = time.monotonic()
            for _ in range(250):
                job_ids = [queue.submit({"kind": "rb", "seed": n}) for n in range(8)]
                jobs = [claim(queue) for _ in job_ids]
                outcomes = {}
                waiters = [
                    threading.Thread(target=wait, args=(job_id, outcomes))
                    for job_id in job_ids
                ]
                finishers = [
                    threading.Thread(target=finish, args=(jobs[half::2],))
                    for half in (0, 1)
                ]
                for thread in waiters + finishers:
                    thread.start()
                for thread in waiters + finishers:
                    thread.join(timeout=30.0)
                assert not any(thread.is_alive() for thread in waiters + finishers)
                assert all(outcomes[job_id].status == "done" for job_id in job_ids)
            elapsed = time.monotonic() - started
        finally:
            sys.setswitchinterval(interval)
        assert elapsed < 10.0  # no waiter ran out its timeout
        queue.close()

    def test_wait_returns_on_completion(self, tmp_path, store, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_EXECUTE_DELAY_S", "1.0")
        with _service(tmp_path, store) as service, ServiceClient(service.url) as client:
            job_id = client.submit(RBSpec(**LONG_POLL_RB))
            document = client._request("GET", f"/v1/experiments/{job_id}?wait=5")
            returned = time.time()
        assert document["status"] == "done" and document["result"]["kind"] == "rb"
        assert returned - document["finished_at"] < 1.0

    def test_wait_parameter_validation(self, tmp_path, store, monkeypatch):
        from repro.service import http

        with (
            _service(tmp_path, store, workers=0) as service,
            ServiceClient(service.url, max_retries=0) as client,
        ):
            job_id = client.submit(RBSpec(**LONG_POLL_RB))  # parked: no workers
            for bad_wait in ("abc", "-1", "nan", "inf"):
                with pytest.raises(ServiceError) as err:
                    client._request("GET", f"/v1/experiments/{job_id}?wait={bad_wait}")
                assert err.value.status == 400
            # an unknown id is a 404 at once, whatever the wait
            started = time.monotonic()
            with pytest.raises(ServiceError) as err:
                client.status("no-such-job", wait=30.0)
            assert err.value.status == 404
            assert time.monotonic() - started < 1.0
            # a wait above the cap is clamped to it, not refused
            monkeypatch.setattr(http, "MAX_WAIT_S", 0.2)
            started = time.monotonic()
            document = client.status(job_id, wait=1000.0)
            assert document["status"] == "queued"
            assert 0.15 < time.monotonic() - started < 5.0

    def test_result_stays_below_the_socket_timeout(self, tmp_path, store, monkeypatch):
        """Every long-poll waits at most half the socket timeout, so a
        job outlasting the timeout needs no transport retry."""
        monkeypatch.setenv("REPRO_FAULT_EXECUTE_DELAY_S", "1.5")
        with _service(tmp_path, store) as service, ServiceClient(service.url, timeout=0.5) as client:
            job_id = client.submit(RBSpec(**LONG_POLL_RB))
            paths, errors = [], []
            request_once = client._request_once

            def recording(method, path, payload=None):
                paths.append(path)
                try:
                    return request_once(method, path, payload)
                except Exception as exc:
                    errors.append(exc)
                    raise

            monkeypatch.setattr(client, "_request_once", recording)
            result = client.result(job_id, timeout=60.0)
        assert result.kind == "rb"
        assert errors == []
        waits = [float(path.split("?wait=")[1]) for path in paths]
        assert len(waits) == len(paths) >= 2
        assert all(0.0 < wait <= 0.25 for wait in waits)

    def test_result_timeout_on_parked_job(self, tmp_path, store, monkeypatch):
        with _service(tmp_path, store, workers=0) as service, ServiceClient(service.url) as client:
            job_id = client.submit(RBSpec(**LONG_POLL_RB))
            calls = []
            status = client.status
            monkeypatch.setattr(
                client, "status",
                lambda *args, **kwargs: calls.append(args) or status(*args, **kwargs),
            )
            started = time.monotonic()
            with pytest.raises(TimeoutError):
                client.result(job_id, timeout=0.3)
            elapsed = time.monotonic() - started
        assert 0.25 < elapsed < 2.0
        assert 1 <= len(calls) <= 2  # one long-poll, not a poll loop

    def test_stop_releases_pending_long_poll(self, tmp_path, store, monkeypatch, capsys):
        """A long-poll pending at shutdown is answered before the worker
        drain ends, not left waiting on the queue the daemon closes."""
        monkeypatch.setenv("REPRO_FAULT_EXECUTE_DELAY_S", "3.0")
        service = _service(tmp_path, store, workers=1)
        service.start()
        client = ServiceClient(service.url)
        client.submit(RBSpec(**LONG_POLL_RB))  # occupies the only worker
        parked = client.submit(RBSpec(**{**LONG_POLL_RB, "seed": 6}))
        outcome = {}

        def long_poll():
            outcome["document"] = client.status(parked, wait=30.0)
            outcome["returned"] = time.monotonic()

        poll = threading.Thread(target=long_poll)
        poll.start()
        time.sleep(0.3)
        assert poll.is_alive()  # genuinely parked in the long-poll
        started = time.monotonic()
        service.stop()
        stopped = time.monotonic()
        poll.join(timeout=10.0)
        client.close()
        assert not poll.is_alive()
        assert stopped - started < 10.0  # the drain of the busy worker
        assert outcome["returned"] < stopped - 1.0  # released before the drain ended
        assert outcome["document"]["status"] == "queued"
        assert "Traceback" not in capsys.readouterr().err


class TestRestartResume:
    def test_queued_jobs_survive_restart(self, tmp_path, store):
        spec = RBSpec(**FAST_RB)
        # accept-only daemon: jobs queue durably, nothing executes
        with _service(tmp_path, store, workers=0) as service, ServiceClient(service.url) as client:
            job_ids = [client.submit(spec), client.submit(RBSpec(**{**FAST_RB, "seed": 6}))]
            assert client.health()["jobs"]["queued"] == 2

        # simulate a crash mid-execution: claim one job, let its lease lapse
        queue = JobQueue(tmp_path / "queue.sqlite3")
        assert claim(queue, lease_s=0.01) is not None
        queue.close()
        time.sleep(0.05)

        # a fresh daemon over the same queue+store resumes and finishes
        with _service(tmp_path, store, workers=1) as service:
            assert service.recovered_jobs == 1
            with ServiceClient(service.url) as client:
                results = [client.result(job_id, timeout=120.0) for job_id in job_ids]
        assert [r.kind for r in results] == ["rb", "rb"]
        assert results[0].payload_fingerprint() != results[1].payload_fingerprint()

    def test_same_instance_restart(self, tmp_path, store):
        """stop() then start() on one daemon object must work end to end."""
        service = _service(tmp_path, store, workers=1)
        service.start()
        with ServiceClient(service.url) as client:
            client.result(client.submit(RBSpec(**FAST_RB)), timeout=120.0)
        service.stop()

        service.start()  # same instance: queue reconnects, pool restarts
        with ServiceClient(service.url) as client:
            client.result(client.submit(RBSpec(**{**FAST_RB, "seed": 11})), timeout=120.0)
            # stale first-run sessions were dropped: only the live worker counts
            assert client.health()["sessions"]["executions"] == 1
        service.stop()


class TestExactlyOnceExecution:
    def test_daemon_duplicate_submissions_execute_once(self, tmp_path, store):
        spec = RBSpec(**FAST_RB)
        with _service(tmp_path, store, workers=2) as service, ServiceClient(service.url) as client:
            job_ids = [client.submit(spec) for _ in range(2)]
            results = [client.result(job_id, timeout=120.0) for job_id in job_ids]
            sessions = client.health()["sessions"]
        # exactly one execution and one publication across the pool,
        # proven by the aggregated session counters and the store's
        assert sessions["executions"] == 1
        assert sessions["cache_hits"] == 1  # the duplicate, however it waited
        assert store.namespace_stats("results")["writes"] == 1
        assert results[0].payload_fingerprint() == results[1].payload_fingerprint()
        served_from_store = [r for r in results if r.cache_hit]
        assert len(served_from_store) == 1

    def test_concurrent_sessions_execute_once(self, tmp_path):
        """The plain (daemon-less) cross-process protocol on one store root."""
        spec = RBSpec(**FAST_RB)
        root = tmp_path / "store"
        stores = [ArtifactStore(root), ArtifactStore(root)]
        barrier = threading.Barrier(2)
        results: dict[int, object] = {}
        stats: dict[int, dict] = {}

        def run(index: int):
            with Session(store=stores[index], num_workers=1) as session:
                barrier.wait()
                results[index] = session.run(spec)
                stats[index] = dict(session.stats)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        executions = sum(s["executions"] for s in stats.values())
        writes = sum(st.namespace_stats("results")["writes"] for st in stores)
        assert executions == 1, f"dedup failed: {stats}"
        assert writes == 1
        assert results[0].payload_fingerprint() == results[1].payload_fingerprint()
        # the session that did not execute was served the publication
        waited = [i for i in (0, 1) if stats[i]["executions"] == 0]
        assert len(waited) == 1 and results[waited[0]].cache_hit

    def test_waiter_blocks_until_publication_lands(self, tmp_path):
        """Deterministic in-flight wait: hold the lock, then publish."""
        spec = RBSpec(**FAST_RB)
        root = tmp_path / "store"
        holder_store = ArtifactStore(root)
        cache_fp = spec.cache_fingerprint()

        # compute the reference result cold, in a *separate* root
        with Session(store=ArtifactStore(tmp_path / "other"), num_workers=1) as session:
            reference = session.run(spec)
        props_fp = reference.provenance["properties_fingerprint"]

        lock = holder_store.inflight_lock(cache_fp, props_fp)
        lock.acquire()
        try:
            assert holder_store.result_inflight(cache_fp, props_fp)
            done = threading.Event()
            outcome: dict[str, object] = {}

            def waiter():
                with Session(store=ArtifactStore(root), num_workers=1) as session:
                    outcome["result"] = session.run(spec)
                    outcome["stats"] = dict(session.stats)
                done.set()

            thread = threading.Thread(target=waiter)
            thread.start()
            assert not done.wait(timeout=1.0)  # genuinely blocked on the key
            # the "executor" publishes while still holding the lock
            holder_store.save_result(
                reference, cache_fingerprint=cache_fp, properties_fingerprint=props_fp
            )
            assert done.wait(timeout=10.0)  # waiter unblocks on the publication
        finally:
            lock.release()
        thread.join()
        result = outcome["result"]
        assert result.cache_hit and result.provenance.get("inflight_wait")
        assert outcome["stats"]["executions"] == 0
        assert outcome["stats"]["dedup_waits"] == 1
        assert outcome["stats"]["cache_hits"] == 1  # the wait IS a hit
        assert result.payload_fingerprint() == reference.payload_fingerprint()

    def test_opt_out_disables_dedup(self, tmp_path, monkeypatch):
        """REPRO_RESULT_CACHE=0 must keep forced-cold runs independent."""
        monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
        spec = RBSpec(**FAST_RB)
        root = tmp_path / "store"
        totals = []

        def run():
            with Session(store=ArtifactStore(root), num_workers=1) as session:
                session.run(spec)
                totals.append(session.stats["executions"])

        threads = [threading.Thread(target=run) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sum(totals) == 2  # both executed: the baseline semantics


class TestResultRetention:
    def _publish(self, store, index: int, age_s: float) -> tuple[str, str]:
        """One synthetic cached result whose mtime is ``age_s`` in the past."""
        import os

        spec = {"kind": "rb", "seed": index}
        cache_fp, props_fp = f"spec{index:02d}" + "a" * 58, "p" * 64
        store.save_result(_result_for(spec, float(index)),
                         cache_fingerprint=cache_fp, properties_fingerprint=props_fp)
        path = store.result_path(cache_fp, props_fp)
        stamp = time.time() - age_s
        os.utime(path, (stamp, stamp))
        return cache_fp, props_fp

    def test_age_bound_evicts_only_expired_entries(self, store):
        old = self._publish(store, 0, age_s=3600.0)
        young = self._publish(store, 1, age_s=1.0)
        assert store.prune(results_max_age=600.0) == 1
        assert not store.has_result(*old)
        assert store.has_result(*young)
        assert store.namespace_stats("results")["evictions"] == 1

    def test_size_bound_evicts_lru_first(self, store):
        keys = [self._publish(store, i, age_s=100.0 - i) for i in range(3)]
        entry_bytes = store.result_path(*keys[0]).stat().st_size
        # bound at ~1.5 entries: the two least-recently-used must go
        assert store.prune(results_max_bytes=int(1.5 * entry_bytes)) == 2
        assert not store.has_result(*keys[0]) and not store.has_result(*keys[1])
        assert store.has_result(*keys[2])

    def test_hit_refreshes_recency(self, store):
        keys = [self._publish(store, i, age_s=100.0 - i) for i in range(2)]
        entry_bytes = store.result_path(*keys[0]).stat().st_size
        assert store.load_result(*keys[0]) is not None  # touch the oldest
        assert store.prune(results_max_bytes=entry_bytes) == 1
        assert store.has_result(*keys[0])       # refreshed: survives
        assert not store.has_result(*keys[1])   # now the LRU: evicted

    def test_inflight_keys_are_never_evicted(self, store):
        protected = self._publish(store, 0, age_s=3600.0)
        doomed = self._publish(store, 1, age_s=3600.0)
        lock = store.inflight_lock(*protected)
        lock.acquire()
        try:
            assert store.prune(results_max_bytes=0, results_max_age=0.0) == 1
        finally:
            lock.release()
        assert store.has_result(*protected)
        assert not store.has_result(*doomed)
        # once released, the next sweep may collect it
        assert store.prune(results_max_bytes=0) == 1
        assert not store.has_result(*protected)

    def test_mid_sweep_hit_spares_the_entry(self, store):
        """An entry refreshed after the sweep's scan must not be evicted."""
        import os

        keys = self._publish(store, 0, age_s=3600.0)
        path = store.result_path(*keys)
        snapshot = path.stat().st_mtime
        os.utime(path)  # a cache hit lands between the scan and the eviction
        key = "/".join(keys)
        assert store._evict_result(key, snapshot_mtime=snapshot) is False
        assert store.has_result(*keys)
        # with an up-to-date snapshot the (genuinely cold) entry goes
        assert store._evict_result(key, snapshot_mtime=path.stat().st_mtime) is True
        assert not store.has_result(*keys)

    def test_default_prune_leaves_results_untouched(self, store):
        keys = self._publish(store, 0, age_s=3600.0)
        assert store.prune(grace_seconds=0.0) == 0
        assert store.has_result(*keys)

    def test_cli_prune_applies_result_bounds(self, store, capsys):
        self._publish(store, 0, age_s=3600.0)
        code = store_cli([
            "--root", str(store.root), "prune", "--results-max-age", "600",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "pruned 1" in out and "evicted" in out
        assert store.ls("results") == []

    def test_daemon_background_sweep(self, tmp_path, store):
        self._publish(store, 0, age_s=3600.0)
        with _service(
            tmp_path, store, workers=0,
            gc_interval_s=3600.0, results_max_age_s=600.0,
        ) as service:
            swept = service.sweep()
            assert swept["removed"] == 1
            with ServiceClient(service.url) as client:
                assert client.health()["last_gc"]["removed"] == 1
        assert store.ls("results") == []
