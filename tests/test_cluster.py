"""Crash/fault-injection tests of the multi-daemon service cluster.

Drives the subprocess harness (``tests/harness/cluster.py`` →
:mod:`repro.service.cluster`) against the lease-based queue — the PR's
acceptance criteria live here:

* **Scale-out drain** — two daemons over one queue split distinct jobs
  between them, each finishing under its own lease identity.
* **Kill-one-of-N takeover** — a SIGKILLed daemon's running job is
  reclaimed after lease expiry and completes on a survivor with exactly
  one execution and one published result, ``attempts == 2``, lease
  generation 2, and a payload bit-identical to a direct single-session
  run (the full :func:`run_cluster_smoke` choreography, which is also
  CI's ``cluster-smoke`` job).
* **Fencing** — a SIGSTOPped (wedged) daemon loses its lease to a
  reclaimer; when it wakes up and tries to finish, the fencing token
  blocks the republish (``StaleLeaseError`` → ``lost_leases``) and the
  reclaimer's result stands untouched.

Everything runs real ``python -m repro.service`` subprocesses over one
shared SQLite queue and one shared store root; POSIX-only.
"""

from __future__ import annotations

import pytest

from harness.cluster import ServiceCluster, posix_only, run_cluster_smoke, wait_for

pytestmark = [posix_only]

#: Tiny-but-real RB payload (sub-second per execution).
FAST_RB = dict(device="montreal", qubits=(0,), lengths=(1, 4, 8), n_seeds=1, shots=100)


def _status(daemon, job_id: str) -> dict:
    return daemon.client().status(job_id)


def _finished(daemon, job_id: str):
    document = _status(daemon, job_id)
    return document if document["status"] in ("done", "failed") else None


class TestClusterDrain:
    def test_two_daemons_drain_one_queue(self, tmp_path):
        """Distinct jobs submitted to one daemon spread across the cluster."""
        from repro.session import RBSpec

        specs = [RBSpec(**FAST_RB, seed=seed) for seed in (21, 22, 23, 24)]
        with ServiceCluster(tmp_path, n_daemons=2, workers=1, lease_s=30.0) as cluster:
            client = cluster.client(0)
            job_ids = [client.submit(spec) for spec in specs]
            documents = [
                wait_for(
                    lambda job_id=job_id: _finished(cluster.daemons[1], job_id),
                    timeout_s=300.0, what=f"job {job_id}",
                )
                for job_id in job_ids
            ]
        assert all(document["status"] == "done" for document in documents)
        owners = {document["owner"] for document in documents}
        # every job finished under some daemon's lease identity; with one
        # worker each and 4 jobs, both daemons get work in practice, but
        # only the lease bookkeeping is guaranteed — assert exactly that
        assert owners <= {"daemon-0", "daemon-1"}
        assert all(document["attempts"] == 1 for document in documents)
        assert all(document["lease_generation"] == 1 for document in documents)

    def test_healthz_reports_lease_configuration(self, tmp_path):
        with ServiceCluster(
            tmp_path, n_daemons=1, workers=0, lease_s=7.0, heartbeat_s=2.0
        ) as cluster:
            lease = cluster.client(0).health()["lease"]
        assert lease["owner_id"] == "daemon-0"
        assert lease["lease_s"] == 7.0 and lease["heartbeat_s"] == 2.0
        assert lease["active"] == lease["expired"] == lease["unleased"] == 0
        assert lease["reclaimed"] == lease["lease_expirations"] == 0
        assert lease["lost_leases"] == 0


    def test_close_releases_the_output_pipe(self, tmp_path):
        with ServiceCluster(tmp_path, n_daemons=1, workers=0) as cluster:
            process = cluster.daemons[0].process
            assert not process.stdout.closed
        assert process.stdout.closed


class TestKillOneOfN:
    def test_sigkilled_daemons_job_migrates_exactly_once(self, tmp_path):
        """The PR acceptance criterion, via the full smoke choreography."""
        proof = run_cluster_smoke(
            tmp_path,
            n_daemons=3,
            lease_s=2.0,
            heartbeat_s=0.5,
            fault_delay_s=6.0,
            timeout_s=300.0,
            log=lambda *args, **kwargs: None,
        )
        # run_cluster_smoke raises on any violated invariant; re-assert
        # the headline numbers here so the test reads as the contract
        assert proof["executions"] == 1
        assert proof["result_writes"] == 1
        assert proof["reclaims"] == 1
        assert proof["attempts"] == 2 and proof["lease_generation"] == 2
        assert proof["finished_by"] in ("daemon-1", "daemon-2")


class TestFencing:
    def test_stale_owner_cannot_publish_over_the_reclaimer(self, tmp_path):
        """SIGSTOP manufactures a stale owner; the fencing token stops it."""
        from repro.session import RBSpec

        spec = RBSpec(**FAST_RB, seed=77)
        victim_env = {"REPRO_FAULT_EXECUTE_DELAY_S": "6"}
        with ServiceCluster(
            tmp_path, n_daemons=2, workers=1, lease_s=2.0, heartbeat_s=0.5,
            daemon_env=[victim_env],
        ) as cluster:
            victim, survivor = cluster.daemons
            survivor.pause()
            job_id = victim.client().submit(spec.to_dict())
            wait_for(
                lambda: _status(victim, job_id)["status"] == "running",
                timeout_s=60.0, what="the victim claiming the job",
            )
            # wedge the victim mid-park: its heartbeats stop, but unlike a
            # SIGKILL it will wake up later and try to finish
            victim.pause()
            survivor.resume()

            document = wait_for(
                lambda: _finished(survivor, job_id),
                timeout_s=300.0, what="the survivor finishing the job",
            )
            assert document["status"] == "done"
            assert document["owner"] == "daemon-1"
            assert document["lease_generation"] == 2

            # the stale owner wakes, finishes its sleep, runs (a cache
            # hit — the survivor already published) and hits the fence
            victim.resume()
            lease = wait_for(
                lambda: (lambda d: d if d["lost_leases"] else None)(
                    victim.client().health()["lease"]
                ),
                timeout_s=120.0, what="the stale owner dropping its outcome",
            )
            assert lease["lost_leases"] == 1

            # the record still carries the reclaimer's outcome, untouched
            final = _status(survivor, job_id)
            assert final["owner"] == "daemon-1"
            assert final["lease_generation"] == 2
            assert final["status"] == "done"

            # exactly one publication across both daemons: the victim's
            # late run was served from the cache, not re-published
            writes = sum(
                daemon.client().store_stats()["stats"]["results"]["writes"]
                for daemon in cluster.daemons
            )
            assert writes == 1


class TestQueueLeaseUnit:
    """Fast in-process lease-protocol tests (no subprocesses)."""

    def test_leased_claim_heartbeat_and_fenced_complete(self, tmp_path):
        from repro.service import JobQueue, StaleLeaseError

        queue = JobQueue(tmp_path / "queue.sqlite3")
        job_id = queue.submit({"kind": "rb", "seed": 1})
        job = queue.claim(owner_id="a", lease_s=30.0)
        assert job.owner == "a" and job.lease_generation == 1
        assert job.lease_expiry is not None

        # a heartbeat extends the lease
        before = queue.get(job_id).lease_expiry
        assert queue.heartbeat(job_id, "a", 60.0, lease_generation=1)
        assert queue.get(job_id).lease_expiry > before
        # wrong owner or stale generation: no extension
        assert not queue.heartbeat(job_id, "b", 60.0, lease_generation=1)
        assert not queue.heartbeat(job_id, "a", 60.0, lease_generation=0)

        # a fenced finish from a non-owner is refused
        with pytest.raises(StaleLeaseError):
            queue.complete(job_id, "{}", owner_id="b", lease_generation=1)
        queue.complete(job_id, "{}", owner_id="a", lease_generation=1)
        done = queue.get(job_id)
        assert done.status == "done" and done.owner == "a"
        queue.close()

    def test_expired_lease_is_reclaimed_with_a_new_generation(self, tmp_path):
        from repro.service import JobQueue, StaleLeaseError

        queue = JobQueue(tmp_path / "queue.sqlite3")
        job_id = queue.submit({"kind": "rb", "seed": 1})
        stale = queue.claim(owner_id="dead", lease_s=0.05)
        import time

        time.sleep(0.1)  # let the lease expire
        reclaimed = queue.claim(owner_id="alive", lease_s=30.0)
        assert reclaimed is not None and reclaimed.id == job_id
        assert reclaimed.owner == "alive"
        assert reclaimed.lease_generation == 2 and reclaimed.attempts == 2
        assert queue.reclaimed == 1 and queue.lease_expirations == 1
        assert queue.lease_stats()["active"] == 1

        # the dead owner's finish is fenced off; the reclaimer's wins
        with pytest.raises(StaleLeaseError):
            queue.complete(job_id, "{}", owner_id=stale.owner,
                           lease_generation=stale.lease_generation)
        queue.complete(job_id, "{}", owner_id="alive", lease_generation=2)
        assert queue.get(job_id).status == "done"
        queue.close()

    def test_live_leases_survive_recover(self, tmp_path):
        import sqlite3

        from repro.service import JobQueue

        path = tmp_path / "queue.sqlite3"
        queue = JobQueue(path)
        live_id = queue.submit({"kind": "rb", "seed": 1})
        dead_id = queue.submit({"kind": "rb", "seed": 2})
        legacy_id = queue.submit({"kind": "rb", "seed": 3})
        assert queue.claim(owner_id="healthy-peer", lease_s=60.0).id == live_id
        assert queue.claim(owner_id="dead-peer", lease_s=0.05).id == dead_id
        # a running row without a lease, as a queue file written before
        # every claim held a lease may contain
        older_version = sqlite3.connect(path)
        with older_version:
            older_version.execute(
                "UPDATE jobs SET status = 'running', attempts = 1 WHERE id = ?",
                (legacy_id,),
            )
        older_version.close()
        assert queue.lease_stats()["unleased"] == 1
        import time

        time.sleep(0.1)
        # a booting daemon recovers the expired and the unleased job,
        # but never steals the healthy peer's live lease
        assert queue.recover() == 2
        assert queue.get(live_id).status == "running"
        assert queue.get(dead_id).status == "queued"
        assert queue.get(legacy_id).status == "queued"
        assert queue.lease_expirations == 1
        queue.close()

    @pytest.mark.parametrize("lease_s", [0.0, -1.0])
    def test_every_claim_needs_a_positive_lease(self, tmp_path, lease_s):
        """No entry point takes a claim without a lease: the queue, the
        pool, the daemon's config and both ``--lease`` command lines
        reject a lease that is not > 0."""
        from repro.service import JobQueue, ServiceConfig
        from repro.service.__main__ import build_parser
        from repro.service.cluster import main as cluster_main
        from repro.service.workers import WorkerPool
        from repro.utils.validation import ValidationError

        queue = JobQueue(tmp_path / "queue.sqlite3")
        queue.submit({"kind": "rb", "seed": 1})
        with pytest.raises(ValidationError):
            queue.claim("a", lease_s)
        assert queue.counts()["running"] == 0
        with pytest.raises(ValidationError):
            WorkerPool(queue, None, owner_id="a", lease_s=lease_s)
        with pytest.raises(ValidationError):
            ServiceConfig(lease_s=lease_s)
        for parse in (build_parser().parse_args, cluster_main):
            with pytest.raises(SystemExit) as exited:
                parse(["--lease", str(lease_s)])
            assert exited.value.code == 2
        queue.close()

    @pytest.mark.parametrize("heartbeat_s", [0.0, -1.0])
    def test_every_heartbeat_must_be_positive(self, tmp_path, heartbeat_s):
        """A heartbeat that is not > 0 would rewrite the queue in a tight
        loop: the pool, the daemon's config and both ``--heartbeat``
        command lines reject it."""
        from repro.service import JobQueue, ServiceConfig
        from repro.service.__main__ import build_parser
        from repro.service.cluster import main as cluster_main
        from repro.service.workers import WorkerPool
        from repro.utils.validation import ValidationError

        queue = JobQueue(tmp_path / "queue.sqlite3")
        with pytest.raises(ValidationError):
            WorkerPool(queue, None, owner_id="a", lease_s=1.0, heartbeat_s=heartbeat_s)
        with pytest.raises(ValidationError):
            ServiceConfig(heartbeat_s=heartbeat_s)
        for parse in (build_parser().parse_args, cluster_main):
            with pytest.raises(SystemExit) as exited:
                parse(["--heartbeat", str(heartbeat_s)])
            assert exited.value.code == 2
        queue.close()

    def test_booting_peer_cannot_steal_a_live_claim(self, tmp_path):
        """Daemon A claims a job; daemon B boots on the same queue file.

        B's recovery and claims leave A's live lease alone.  Once A wedges
        past its lease, B takes the job over and completes it; A's late
        completion is fenced off, so the tenant is charged exactly once.
        """
        import time

        from repro.service import JobQueue, StaleLeaseError

        path = tmp_path / "queue.sqlite3"
        daemon_a, daemon_b = JobQueue(path), JobQueue(path)
        job_id = daemon_a.submit({"kind": "rb", "seed": 1}, tenant="live")
        claimed = daemon_a.claim("daemon-a", 1.0)
        assert daemon_b.recover() == 0
        assert daemon_b.claim("daemon-b", 1.0) is None
        assert daemon_b.get(job_id).owner == "daemon-a"

        time.sleep(max(0.0, claimed.lease_expiry + 0.1 - time.time()))
        takeover = daemon_b.claim("daemon-b", 30.0)
        assert takeover.id == job_id and takeover.lease_generation == 2
        daemon_b.complete(job_id, '{"by": "b"}', "daemon-b", 2)
        with pytest.raises(StaleLeaseError):
            daemon_a.complete(job_id, '{"by": "a"}', "daemon-a", claimed.lease_generation)
        assert daemon_a.get(job_id).result_json == '{"by": "b"}'
        accounting = daemon_a.tenant_accounting()["live"]
        assert accounting["submitted"] == accounting["completed"] == 1
        daemon_a.close(), daemon_b.close()


class TestProcessWorkerIsolation:
    """``worker_mode="process"``: a crashing job kills one subprocess, never
    the daemon — and the lease machinery is byte-for-byte the thread-mode
    path, so kill-takeover still holds."""

    def test_crashing_job_fails_alone_and_daemon_stays_healthy(self, tmp_path):
        """A self-SIGKILLing job fails with the signal name; the daemon
        survives it and executes the next job on a respawned subprocess."""
        from repro.session import RBSpec

        crash_spec = RBSpec(**FAST_RB, seed=31)
        ok_spec = RBSpec(**FAST_RB, seed=32)
        crash_env = {
            "REPRO_FAULT_CRASH_FINGERPRINT": crash_spec.fingerprint()[:16],
        }
        with ServiceCluster(
            tmp_path, n_daemons=1, workers=1, lease_s=30.0,
            daemon_env=[crash_env], worker_mode="process",
        ) as cluster:
            daemon = cluster.daemons[0]
            assert daemon.client().health()["worker_mode"] == "process"

            crash_id = daemon.client().submit(crash_spec.to_dict())
            document = wait_for(
                lambda: _finished(daemon, crash_id),
                timeout_s=300.0, what="the crashing job failing",
            )
            assert document["status"] == "failed"
            assert "WorkerCrashed" in document["error"]
            assert "SIGKILL" in document["error"]

            # the daemon is still healthy and serves the next job through
            # a freshly respawned subprocess
            health = daemon.client().health()
            assert health["status"] == "ok"
            ok_id = daemon.client().submit(ok_spec.to_dict())
            document = wait_for(
                lambda: _finished(daemon, ok_id),
                timeout_s=300.0, what="the follow-up job finishing",
            )
            assert document["status"] == "done"
            # the post-crash execution is visible in the aggregated
            # counters (shipped back from the new subprocess)
            assert daemon.client().health()["sessions"]["executions"] >= 1

    def test_os_exit_job_is_isolated_in_the_pool(self, tmp_path, monkeypatch):
        """In-process pool check of the ``os._exit`` flavor: the error text
        carries the exit code, counters survive the respawn, and a healthy
        job completes afterwards."""
        import time

        from repro.service import JobQueue
        from repro.service.workers import WorkerPool
        from repro.session import RBSpec
        from repro.store import ArtifactStore

        crash_spec = RBSpec(**FAST_RB, seed=41)
        ok_spec = RBSpec(**FAST_RB, seed=42)
        monkeypatch.setenv(
            "REPRO_FAULT_CRASH_FINGERPRINT",
            f"{crash_spec.fingerprint()[:16]}:exit",
        )
        store = ArtifactStore(tmp_path / "store")
        queue = JobQueue(tmp_path / "queue.sqlite3")
        pool = WorkerPool(
            queue, store, owner_id="pool", lease_s=30.0, workers=1, worker_mode="process"
        )
        pool.start()
        try:
            ok_id = queue.submit(ok_spec.to_dict())
            crash_id = queue.submit(crash_spec.to_dict())
            deadline = time.time() + 300.0
            while time.time() < deadline:
                counts = queue.counts()
                if counts["done"] == 1 and counts["failed"] == 1:
                    break
                time.sleep(0.2)
            else:
                raise TimeoutError(f"jobs did not settle: {queue.counts()}")
            assert queue.get(ok_id).status == "done"
            failed = queue.get(crash_id)
            assert failed.status == "failed"
            assert "WorkerCrashed" in failed.error
            assert "exited with code 3" in failed.error
            assert pool.worker_crashes == 1
            # the pre-crash execution was retired into the accumulator,
            # not lost with the dead subprocess
            assert pool.aggregate_stats()["executions"] == 1
        finally:
            pool.stop()
            queue.close()

    def test_forked_worker_child_exits_when_its_parent_is_killed(self):
        """A SIGKILLed parent leaves no orphaned worker subprocess: the
        forked child must not hold the parent's end of its own pipe, or
        it never sees EOF."""
        import os
        import subprocess
        import sys
        import time

        from repro.service.cluster import _repro_pythonpath

        helper = (
            "import time\n"
            "from repro.service.process_worker import ProcessSessionWorker\n"
            "worker = ProcessSessionWorker(None, {'num_workers': 1})\n"
            "print(worker.process.pid, flush=True)\n"
            "time.sleep(600)\n"
        )
        env = dict(os.environ, REPRO_MP_START="fork", PYTHONPATH=_repro_pythonpath())
        parent = subprocess.Popen(
            [sys.executable, "-c", helper], stdout=subprocess.PIPE, env=env, text=True
        )
        try:
            child_pid = int(parent.stdout.readline())
        finally:
            parent.kill()
            parent.wait()
            parent.stdout.close()

        def alive(pid: int) -> bool:
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    # the state follows the parenthesised command name
                    return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
            except FileNotFoundError:
                return False

        deadline = time.monotonic() + 10.0
        while alive(child_pid) and time.monotonic() < deadline:
            time.sleep(0.1)
        if alive(child_pid):
            os.kill(child_pid, 9)
            pytest.fail(f"worker child {child_pid} outlived its killed parent by 10 s")

    def test_kill_takeover_with_process_workers(self, tmp_path):
        """The full kill-one-of-N choreography holds in process mode: the
        lease/fencing path is untouched by the execution-mode change."""
        proof = run_cluster_smoke(
            tmp_path,
            n_daemons=3,
            lease_s=2.0,
            heartbeat_s=0.5,
            fault_delay_s=6.0,
            timeout_s=300.0,
            log=lambda *args, **kwargs: None,
            worker_mode="process",
        )
        assert proof["executions"] == 1
        assert proof["result_writes"] == 1
        assert proof["reclaims"] == 1
        assert proof["attempts"] == 2 and proof["lease_generation"] == 2
        assert proof["finished_by"] in ("daemon-1", "daemon-2")
