"""Multi-daemon crash/fault-injection harness (and the CI cluster smoke).

Boots N ``python -m repro.service`` daemons as **real subprocesses** over
one shared job queue and one shared store root — the deployment shape the
lease-based queue exists for — and exposes the fault injection points the
crash tests need:

* :meth:`DaemonProcess.kill` — SIGKILL, the "daemon died" case: no
  cleanup, no final heartbeat, the OS reaps the process mid-job;
* :meth:`DaemonProcess.pause` / :meth:`DaemonProcess.resume` — SIGSTOP /
  SIGCONT, the "daemon wedged, then woke up" case: heartbeats stop while
  the process still exists, which is how a *stale owner* is manufactured
  deterministically for the fencing tests;
* the ``REPRO_FAULT_EXECUTE_DELAY_S`` environment hook (see
  :mod:`repro.service.workers`), which parks a claimed job in a sleep so
  the signals above provably land mid-execution.

``python -m repro.service.cluster`` runs the end-to-end smoke CI's
``cluster-smoke`` job executes: 3 daemons, one SIGKILLed mid-job, the job
reclaimed after lease expiry and finished by a survivor with exactly one
execution and one published result (store counters as the oracle), bit
identical to a direct single-session run.

POSIX-only (SIGSTOP/SIGKILL); the tier-1 tests built on this harness
(``tests/test_cluster.py``) skip themselves on Windows.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path

from .client import ServiceClient

__all__ = ["DaemonProcess", "ServiceCluster", "run_cluster_smoke"]

_LISTENING_PREFIX = "repro.service listening on "


def _repro_pythonpath() -> str:
    """PYTHONPATH putting this very ``repro`` package on a child's path."""
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    existing = os.environ.get("PYTHONPATH")
    return src if not existing else src + os.pathsep + existing


class DaemonProcess:
    """One service daemon subprocess with signal-level fault injection.

    Parameters
    ----------
    store_root : str or Path
        The shared artifact-store root (``--root``).
    queue_path : str or Path
        The shared job database (``--queue``).
    workers : int
        Worker threads of this daemon (``--workers``).
    lease_s : float
        Claim-lease duration (``--lease``).
    heartbeat_s : float, optional
        Lease-extension cadence (``--heartbeat``).
    poll_s : float, optional
        Idle-worker queue poll (``--poll``) — the discovery latency for
        jobs submitted through a peer daemon.
    owner_id : str, optional
        Explicit lease identity (``--owner-id``); defaults to the
        daemon's own unique identity.
    tokens : str or Path, optional
        A ``tokens.json`` registry enabling bearer-token auth on this
        daemon (``--tokens``).  Without it the daemon is started with
        ``--no-auth``, so a ``REPRO_API_TOKENS`` leaking in from the
        harness environment can never flip auth on under a test.
    env : dict, optional
        Extra environment variables for this daemon only — e.g.
        ``{"REPRO_FAULT_EXECUTE_DELAY_S": "4"}`` to park its jobs
        mid-execution.
    boot_timeout_s : float
        Seconds to wait for the daemon's "listening on" line.
    """

    def __init__(
        self,
        store_root: str | Path,
        queue_path: str | Path,
        workers: int = 1,
        lease_s: float = 30.0,
        heartbeat_s: float | None = None,
        poll_s: float | None = None,
        owner_id: str | None = None,
        tokens: str | Path | None = None,
        env: dict[str, str] | None = None,
        boot_timeout_s: float = 120.0,
        worker_mode: str = "thread",
    ):
        self.store_root = Path(store_root)
        self.queue_path = Path(queue_path)
        self.workers = int(workers)
        self.worker_mode = worker_mode
        self.lease_s = float(lease_s)
        self.heartbeat_s = heartbeat_s
        self.poll_s = poll_s
        self.owner_id = owner_id
        self.tokens = tokens
        self.extra_env = dict(env or {})
        self.boot_timeout_s = float(boot_timeout_s)
        self.url: str | None = None
        self.process: subprocess.Popen | None = None
        self._paused = False
        self._output: deque[str] = deque(maxlen=200)
        self._clients: dict[str | None, ServiceClient] = {}
        self._url_ready = threading.Event()
        self._drain_thread: threading.Thread | None = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "DaemonProcess":
        """Launch the daemon and wait for its HTTP address (idempotent)."""
        if self.process is not None:
            return self
        command = [
            sys.executable, "-u", "-m", "repro.service",
            "--host", "127.0.0.1", "--port", "0",
            "--root", str(self.store_root),
            "--queue", str(self.queue_path),
            "--workers", str(self.workers),
            "--worker-mode", self.worker_mode,
            "--lease", str(self.lease_s),
        ]
        if self.heartbeat_s is not None:
            command += ["--heartbeat", str(self.heartbeat_s)]
        if self.poll_s is not None:
            command += ["--poll", str(self.poll_s)]
        if self.owner_id is not None:
            command += ["--owner-id", self.owner_id]
        if self.tokens is not None:
            command += ["--tokens", str(self.tokens)]
        else:
            command += ["--no-auth"]
        env = dict(os.environ)
        env["PYTHONPATH"] = _repro_pythonpath()
        env["PYTHONUNBUFFERED"] = "1"
        env.update(self.extra_env)
        self.process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        self._drain_thread = threading.Thread(
            target=self._drain, name=f"daemon-stdout-{self.process.pid}", daemon=True
        )
        self._drain_thread.start()
        if not self._url_ready.wait(timeout=self.boot_timeout_s):
            output = "".join(self._output)
            self.close()
            raise TimeoutError(
                f"daemon did not report its address within {self.boot_timeout_s}s;"
                f" output so far:\n{output}"
            )
        return self

    def _drain(self) -> None:
        """Continuously read the daemon's output (never block its pipe)."""
        stream = self.process.stdout
        for line in stream:
            self._output.append(line)
            if line.startswith(_LISTENING_PREFIX):
                self.url = line[len(_LISTENING_PREFIX):].strip()
                self._url_ready.set()
        self._url_ready.set()  # EOF: unblock a start() waiting on a dead boot

    # ------------------------------------------------------------------ #
    # fault injection
    # ------------------------------------------------------------------ #
    def kill(self) -> None:
        """SIGKILL — the crash case: no cleanup, no final heartbeat."""
        if self.process is not None and self.process.poll() is None:
            self.process.kill()
            self.process.wait()

    def pause(self) -> None:
        """SIGSTOP — freeze the daemon (heartbeats included); idempotent."""
        if self.process is not None and self.process.poll() is None and not self._paused:
            os.kill(self.process.pid, signal.SIGSTOP)
            self._paused = True

    def resume(self) -> None:
        """SIGCONT — unfreeze a paused daemon; idempotent."""
        if self.process is not None and self.process.poll() is None and self._paused:
            os.kill(self.process.pid, signal.SIGCONT)
            self._paused = False

    def terminate(self, timeout: float = 15.0) -> None:
        """SIGTERM and wait — the graceful shutdown path."""
        if self.process is not None and self.process.poll() is None:
            self.resume()  # a stopped process cannot handle SIGTERM
            self.process.terminate()
            try:
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.kill()

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def alive(self) -> bool:
        """Whether the subprocess is currently running (paused counts)."""
        return self.process is not None and self.process.poll() is None

    def client(self, token: str | None = None) -> ServiceClient:
        """The :class:`ServiceClient` bound to this daemon's address.

        One client per token, kept (with its open connections) until
        :meth:`close`.
        """
        if self.url is None:
            raise RuntimeError("daemon has no address yet; call start() first")
        client = self._clients.get(token)
        if client is None:  # setdefault: racing callers share one client
            client = self._clients.setdefault(token, ServiceClient(self.url, token=token))
        return client

    def output(self) -> str:
        """The daemon's captured stdout/stderr so far (ring-buffered)."""
        return "".join(self._output)

    def close(self) -> None:
        """Tear the subprocess down (terminate, then kill), join and close IO."""
        for client in self._clients.values():
            client.close()
        self._clients.clear()
        if self.process is not None:
            self.terminate()
        if self._drain_thread is not None:
            self._drain_thread.join(timeout=5.0)
            if not self._drain_thread.is_alive():
                self.process.stdout.close()  # the drain hit EOF: no reader left
            self._drain_thread = None

    def __repr__(self) -> str:
        pid = self.process.pid if self.process is not None else None
        return f"DaemonProcess(pid={pid}, url={self.url!r}, alive={self.alive})"


class ServiceCluster:
    """N daemons over one queue and one store root, as subprocesses.

    Parameters
    ----------
    root : str or Path
        Scratch directory; the shared store goes to ``<root>/store`` and
        the shared queue to ``<root>/queue.sqlite3``.
    n_daemons : int
        Cluster size.
    workers : int
        Worker threads per daemon.
    lease_s, heartbeat_s : float
        Lease tuning shared by every daemon (crash tests use a short
        lease so takeover happens in test time).
    poll_s : float, optional
        Idle-worker queue poll shared by every daemon (``--poll``).
    tokens : str or Path, optional
        A ``tokens.json`` registry shared by every daemon (``--tokens``);
        daemons run ``--no-auth`` without it.
    daemon_env : list of dict, optional
        Per-daemon extra environment (index-aligned; shorter lists leave
        the remaining daemons unmodified) — the fault-injection surface.
    boot_timeout_s : float
        Per-daemon boot timeout.

    Use as a context manager::

        with ServiceCluster(tmp, n_daemons=3, lease_s=2.0) as cluster:
            job_id = cluster.client(0).submit(spec)
            cluster.daemons[0].kill()
            result = cluster.client(1).result(job_id, timeout=60.0)
    """

    def __init__(
        self,
        root: str | Path,
        n_daemons: int = 2,
        workers: int = 1,
        lease_s: float = 30.0,
        heartbeat_s: float | None = None,
        poll_s: float | None = None,
        tokens: str | Path | None = None,
        daemon_env: list[dict[str, str]] | None = None,
        boot_timeout_s: float = 120.0,
        worker_mode: str = "thread",
    ):
        self.root = Path(root)
        self.store_root = self.root / "store"
        self.queue_path = self.root / "queue.sqlite3"
        self.daemons: list[DaemonProcess] = []
        per_daemon_env = list(daemon_env or [])
        for index in range(int(n_daemons)):
            env = per_daemon_env[index] if index < len(per_daemon_env) else None
            self.daemons.append(
                DaemonProcess(
                    self.store_root,
                    self.queue_path,
                    workers=workers,
                    lease_s=lease_s,
                    heartbeat_s=heartbeat_s,
                    poll_s=poll_s,
                    owner_id=f"daemon-{index}",
                    tokens=tokens,
                    env=env,
                    boot_timeout_s=boot_timeout_s,
                    worker_mode=worker_mode,
                )
            )

    def start(self) -> "ServiceCluster":
        """Boot every daemon (sequentially; addresses resolve in order)."""
        for daemon in self.daemons:
            daemon.start()
        return self

    def client(self, index: int = 0, token: str | None = None) -> ServiceClient:
        """A client bound to daemon ``index``."""
        return self.daemons[index].client(token=token)

    def close(self) -> None:
        """Tear every daemon down (alive or not)."""
        for daemon in self.daemons:
            daemon.close()

    def __enter__(self) -> "ServiceCluster":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        alive = sum(1 for daemon in self.daemons if daemon.alive)
        return f"ServiceCluster({alive}/{len(self.daemons)} daemon(s) alive)"


# ---------------------------------------------------------------------- #
# the CI cluster smoke
# ---------------------------------------------------------------------- #
def _wait_for(predicate, timeout_s: float, poll_s: float = 0.25, what: str = "condition"):
    """Poll ``predicate`` until it returns a truthy value; return it."""
    deadline = time.time() + timeout_s
    while time.time() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(poll_s)
    raise TimeoutError(f"timed out after {timeout_s}s waiting for {what}")


def run_cluster_smoke(
    root: str | Path,
    n_daemons: int = 3,
    lease_s: float = 2.0,
    heartbeat_s: float = 0.5,
    fault_delay_s: float = 6.0,
    timeout_s: float = 300.0,
    log=print,
    worker_mode: str = "thread",
) -> dict:
    """Kill one of N daemons mid-job; prove takeover, exactly-once, fencing.

    The choreography (deterministic, no sleeps where a state can be
    polled):

    1. Boot ``n_daemons`` over one queue + one store.  Daemon 0 is the
       designated victim: its jobs park ``fault_delay_s`` seconds before
       executing (``REPRO_FAULT_EXECUTE_DELAY_S``), guaranteeing the kill
       lands mid-job.
    2. Pause the survivors (SIGSTOP), submit one RB spec, and wait until
       the victim has the job ``running``.
    3. SIGKILL the victim, resume the survivors.
    4. The job's lease expires (the dead victim heartbeats no more); a
       survivor reclaims it, executes, publishes, completes.

    Returns the proof document; raises on any violated invariant:
    exactly one execution and one store write across the survivors, the
    finished job carries a survivor's lease identity at generation 2 and
    ``attempts == 2``, some survivor counted one reclaim, and the payload
    is bit-identical to a direct single-session run of the same spec.
    """
    from ..session import RBSpec, Session
    from ..store import ArtifactStore

    spec = RBSpec(
        device="montreal", qubits=(0,), lengths=(1, 4, 8),
        n_seeds=1, shots=100, seed=99,
    )
    root = Path(root)
    victim_env = {"REPRO_FAULT_EXECUTE_DELAY_S": str(fault_delay_s)}
    cluster = ServiceCluster(
        root / "cluster",
        n_daemons=n_daemons,
        workers=1,
        lease_s=lease_s,
        heartbeat_s=heartbeat_s,
        daemon_env=[victim_env],
        worker_mode=worker_mode,
    )
    with cluster:
        victim, survivors = cluster.daemons[0], cluster.daemons[1:]
        log(f"cluster up: {cluster!r}")

        for survivor in survivors:
            survivor.pause()
        job_id = victim.client().submit(spec.to_dict())
        log(f"submitted {job_id}; waiting for the victim to claim it")
        _wait_for(
            lambda: victim.client().status(job_id)["status"] == "running",
            timeout_s=60.0, what="the victim claiming the job",
        )

        log(f"killing the victim (pid {victim.process.pid}) mid-job")
        victim.kill()
        for survivor in survivors:
            survivor.resume()

        document = _wait_for(
            lambda: (lambda d: d if d["status"] in ("done", "failed") else None)(
                survivors[0].client().status(job_id)
            ),
            timeout_s=timeout_s, what="a survivor finishing the job",
        )
        if document["status"] != "done":
            raise AssertionError(f"job failed instead of migrating: {document.get('error')}")

        survivor_ids = {daemon.owner_id for daemon in survivors}
        if document["owner"] not in survivor_ids:
            raise AssertionError(
                f"finished by {document['owner']!r}, expected one of {sorted(survivor_ids)}"
            )
        if document["attempts"] != 2 or document["lease_generation"] != 2:
            raise AssertionError(
                f"expected attempts=2/generation=2 (claim + reclaim), got"
                f" attempts={document['attempts']}"
                f" generation={document['lease_generation']}"
            )

        executions = writes = reclaims = 0
        for survivor in survivors:
            health = survivor.client().health()
            executions += health["sessions"]["executions"]
            reclaims += health["lease"]["reclaimed"]
            writes += survivor.client().store_stats()["stats"]["results"]["writes"]
        if (executions, writes, reclaims) != (1, 1, 1):
            raise AssertionError(
                f"exactly-once violated: executions={executions} writes={writes}"
                f" reclaims={reclaims} (all should be 1)"
            )

        result = cluster.client(1).result(job_id, timeout=30.0)

    with Session(store=ArtifactStore(root / "reference"), num_workers=1) as session:
        reference = session.run(spec)
    if result.payload_fingerprint() != reference.payload_fingerprint():
        raise AssertionError("migrated result is not bit-identical to a direct run")

    proof = {
        "job_id": job_id,
        "finished_by": document["owner"],
        "attempts": document["attempts"],
        "lease_generation": document["lease_generation"],
        "executions": executions,
        "result_writes": writes,
        "reclaims": reclaims,
        "payload_fingerprint": result.payload_fingerprint(),
    }
    log(f"cluster smoke OK: {proof}")
    return proof


def main(argv=None) -> int:
    """CLI entry point of the cluster smoke (CI's ``cluster-smoke`` job)."""
    import argparse
    import tempfile

    from .__main__ import positive_seconds

    parser = argparse.ArgumentParser(
        prog="python -m repro.service.cluster",
        description="Boot N daemons over one queue, SIGKILL one mid-job and"
                    " prove lease takeover with exactly-once publication.",
    )
    parser.add_argument("--daemons", type=int, default=3,
                        help="cluster size (default: 3)")
    parser.add_argument("--lease", type=positive_seconds, default=2.0, metavar="SECONDS",
                        help="claim-lease duration, > 0 (default: 2)")
    parser.add_argument("--heartbeat", type=positive_seconds, default=0.5, metavar="SECONDS",
                        help="lease-extension cadence, > 0 (default: 0.5)")
    parser.add_argument("--fault-delay", type=float, default=6.0, metavar="SECONDS",
                        help="seconds the victim parks its job before executing "
                             "(default: 6)")
    parser.add_argument("--timeout", type=float, default=300.0, metavar="SECONDS",
                        help="overall completion timeout (default: 300)")
    parser.add_argument("--worker-mode", choices=("thread", "process"), default="thread",
                        help="execution mode of every daemon's worker pool "
                             "(default: thread)")
    args = parser.parse_args(argv)
    if os.name == "nt":
        print("cluster smoke requires POSIX signals (SIGSTOP/SIGKILL); skipping")
        return 0
    with tempfile.TemporaryDirectory(prefix="repro-cluster-smoke-") as scratch:
        try:
            run_cluster_smoke(
                scratch,
                n_daemons=args.daemons,
                lease_s=args.lease,
                heartbeat_s=args.heartbeat,
                fault_delay_s=args.fault_delay,
                timeout_s=args.timeout,
                worker_mode=args.worker_mode,
            )
        except (AssertionError, TimeoutError) as failure:
            print(f"cluster smoke FAILED: {failure}")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
