"""The daemon's execution side: a pool of worker ``Session``s.

Each worker thread owns one :class:`~repro.session.session.Session`, and
every session shares the daemon's single
:class:`~repro.store.ArtifactStore` — so all the store-level guarantees
compose for free:

* a job whose spec is already cached replays it (zero prep, zero
  execution),
* two workers claiming *duplicate* specs coordinate on the result key's
  in-flight lock (one executes, the other serves the publication — the
  same lock-or-wait protocol that deduplicates across daemon processes),
* every artifact a job builds (groups, channel tables, GRAPE pulses,
  results) is published once and reused by every later job.

Workers pull from the :class:`~repro.service.queue.JobQueue`; a failed
execution marks the job ``failed`` with the exception message and the
worker moves on — one bad spec never takes the pool down.

With ``worker_mode="process"`` each worker thread delegates execution to
a dedicated **subprocess** session
(:class:`~repro.service.process_worker.ProcessSessionWorker`): a job
that segfaults or exhausts memory kills one subprocess, not the daemon —
the job fails with the worker's exit signal in the error text, the
subprocess is respawned, and the claim/lease/fencing path is exactly the
thread-mode one (all of it stays in the parent).  See
``docs/performance.md``.

Every claim holds a **lease** under the pool's ``owner_id``: a per-job
heartbeat thread extends the lease while the job runs, and completion is
fenced on the claim's ``lease_generation`` — if the lease was reclaimed
by a peer daemon in the meantime, the finish raises
:class:`~repro.service.queue.StaleLeaseError`, the outcome is dropped
(counted in :attr:`WorkerPool.lost_leases`) and the reclaimer's result
stands.  See ``docs/operations.md`` ("Running multiple daemons").
"""

from __future__ import annotations

import os
import threading
import time

from .process_worker import (
    FAULT_EXECUTE_SPIN_ENV,
    ProcessSessionWorker,
    WorkerCrashed,
    fault_spin,
)
from .queue import JobQueue, StaleLeaseError
from ..session import Session, spec_from_dict
from ..utils.validation import check_positive

__all__ = ["WorkerPool", "WORKER_MODES", "FAULT_EXECUTE_SPIN_ENV"]

#: Supported execution modes: ``thread`` runs jobs in-process (one
#: ``Session`` per worker thread), ``process`` isolates each worker's
#: session in a dedicated subprocess.
WORKER_MODES = ("thread", "process")

#: Test/fault-injection hook: seconds each job execution sleeps before
#: running its session (holding its claim).  Lets the crash harness park
#: a job mid-execution deterministically, so a SIGKILL provably lands
#: while the job is running.  Unset (production) it costs nothing.
FAULT_EXECUTE_DELAY_ENV = "REPRO_FAULT_EXECUTE_DELAY_S"


class WorkerPool:
    """N worker threads, each executing queue jobs through its own session.

    Parameters
    ----------
    queue : JobQueue
        The job source (shared with the HTTP submission side).
    store : ArtifactStore
        The persistent store **shared by every worker session** — the
        single root all caching, deduplication and publication goes
        through.
    owner_id : str
        The daemon identity every claim's lease is written under (non-empty).
    lease_s : float
        Lease duration of each claim (> 0).
    workers : int
        Number of worker threads (0 is allowed: jobs queue up and survive
        until a pool with workers attaches, which the restart-resume test
        exercises).
    session_num_workers : int
        The per-experiment process fan-out each worker session uses
        (``Session(num_workers=...)``); keep it small — service
        parallelism should come from the worker count, not from deep
        per-job fan-out.
    poll_s : float
        Idle-worker fallback poll of the queue (submissions also notify,
        so this is a safety net, not the latency floor).
    shadow_rate : float, optional
        Shadow-verification sampling rate passed to every worker session
        (``Session(shadow_rate=...)``; the daemon's ``--shadow-rate``).
    trace_sink : optional
        Trace sink shared by every worker session (the daemon's
        ``--trace-file``); each executed job emits one JSON line.
    heartbeat_s : float, optional
        Lease-extension cadence (default: a third of ``lease_s``).
    worker_mode : str
        ``"thread"`` (default) or ``"process"``; see
        :data:`WORKER_MODES` and the module docstring.
    """

    def __init__(
        self,
        queue: JobQueue,
        store,
        owner_id: str,
        lease_s: float,
        workers: int = 2,
        session_num_workers: int = 1,
        poll_s: float = 0.5,
        shadow_rate: float | None = None,
        trace_sink=None,
        heartbeat_s: float | None = None,
        worker_mode: str = "thread",
    ):
        self.queue = queue
        self.store = store
        self.workers = max(0, int(workers))
        self.session_num_workers = int(session_num_workers)
        self.poll_s = float(poll_s)
        self.shadow_rate = shadow_rate
        self.trace_sink = trace_sink
        self.owner_id = owner_id
        self.lease_s = check_positive(lease_s, "lease_s")
        self.heartbeat_s = (
            self.lease_s / 3.0 if heartbeat_s is None else check_positive(heartbeat_s, "heartbeat_s")
        )
        if worker_mode not in WORKER_MODES:
            raise ValueError(f"worker_mode must be one of {WORKER_MODES}, got {worker_mode!r}")
        self.worker_mode = worker_mode
        #: Jobs whose outcome this pool had to drop because the lease was
        #: reclaimed mid-execution (fencing did its job).
        self.lost_leases = 0
        #: Worker subprocesses that died mid-job and were respawned
        #: (process mode only; 0 in thread mode).
        self.worker_crashes = 0
        self._lost_lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        self._sessions: list[Session] = []
        self._process_workers: list[ProcessSessionWorker] = []
        #: Counters harvested from subprocesses that exited or crashed —
        #: kept so ``aggregate_stats`` never loses work a dead child did.
        self._retired_stats: dict[str, int] = {key: 0 for key in self.STAT_KEYS}
        self._retired_store_stats: dict[str, dict[str, int]] = {}
        self._sessions_lock = threading.Lock()
        self._stop = threading.Event()
        self._started = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Start the worker threads (idempotent)."""
        if self._started:
            return
        self._started = True
        # a FRESH stop event per worker generation: a previous generation's
        # thread that outlived stop()'s join timeout (stuck in a long job)
        # still holds its own — permanently set — event, so it exits when
        # the job finishes instead of resuming claims alongside the new
        # generation
        self._stop = threading.Event()
        with self._sessions_lock:
            # drop closed sessions/subprocesses of a previous run so a
            # restarted pool's aggregate_stats reports only the live workers
            self._sessions.clear()
            self._process_workers.clear()
            self._retired_stats = {key: 0 for key in self.STAT_KEYS}
            self._retired_store_stats = {}
        self._threads.clear()
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._run_worker,
                args=(self._stop,),
                name=f"repro-service-worker-{index}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def stop(self, timeout: float = 10.0) -> None:
        """Signal every worker to finish its current job and join them."""
        self._stop.set()
        self.queue.kick()  # wake idle workers (and long-polls) immediately
        for thread in self._threads:
            thread.join(timeout=timeout)
        # threads that outlived the timeout keep their (set) generation
        # event and die after their current job; they are dropped here
        self._threads.clear()
        self._started = False

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    #: Counters always present in :meth:`aggregate_stats`, even at zero —
    #: so ``/healthz`` consumers and the ``/v1/metrics`` mirror see every
    #: series from the first scrape (the lazily counted ones included).
    STAT_KEYS = (
        "cache_hits", "cache_misses", "executions", "prep_builds",
        "dedup_waits", "shadow_checks", "shadow_mismatches",
    )

    def aggregate_stats(self) -> dict[str, int]:
        """Sum of every worker session's counters (executions, hits, …).

        The daemon's ``/healthz`` and ``/v1/metrics`` expose this —
        together with the store's ``results`` write counters it proves
        the exactly-once contract from the outside: N duplicate
        submissions show N-1 ``cache_hits``/``dedup_waits`` and exactly
        one ``executions``.

        Each session contributes a :meth:`Session.stats_snapshot
        <repro.session.session.Session.stats_snapshot>` — a copy taken
        under the session's counter lock — so a scrape racing job
        execution never reads a torn dictionary, and all
        :data:`STAT_KEYS` are pre-seeded to 0 so the reported shape is
        stable regardless of which counters have fired yet.

        In process mode the counters live in worker subprocesses, so each
        child ships its snapshot back with every job reply; the pool sums
        the latest snapshot per live subprocess plus a retired-totals
        accumulator for subprocesses that crashed or exited — the numbers
        stay truthful across respawns.
        """
        totals: dict[str, int] = {key: 0 for key in self.STAT_KEYS}
        with self._sessions_lock:
            sessions = list(self._sessions)
            process_snapshots = [dict(w.latest_stats) for w in self._process_workers]
            retired = dict(self._retired_stats)
        for session in sessions:
            for counter, value in session.stats_snapshot().items():
                totals[counter] = totals.get(counter, 0) + value
        for snapshot in process_snapshots:
            for counter, value in snapshot.items():
                totals[counter] = totals.get(counter, 0) + value
        for counter, value in retired.items():
            totals[counter] = totals.get(counter, 0) + value
        return totals

    def aggregate_store_stats(self) -> dict[str, dict[str, int]]:
        """Per-namespace store counters accumulated in worker subprocesses.

        Empty in thread mode (workers share the daemon's store instance,
        whose own counters are authoritative).  In process mode each
        child writes through its *own* store instance, so the daemon
        merges these into its ``/v1/store/stats`` document and metrics
        mirror — result writes stay observable regardless of mode.
        """
        totals: dict[str, dict[str, int]] = {}
        with self._sessions_lock:
            snapshots = [w.latest_store_stats for w in self._process_workers]
            snapshots.append(self._retired_store_stats)
            snapshots = [
                {ns: dict(counters) for ns, counters in snap.items()} for snap in snapshots
            ]
        for snapshot in snapshots:
            for namespace, counters in snapshot.items():
                bucket = totals.setdefault(namespace, {})
                for counter, value in counters.items():
                    bucket[counter] = bucket.get(counter, 0) + value
        return totals

    def _retire_worker_stats(self, worker) -> None:
        """Fold a (dead) subprocess's last counters into the accumulators."""
        with self._sessions_lock:
            for counter, value in worker.latest_stats.items():
                self._retired_stats[counter] = self._retired_stats.get(counter, 0) + value
            for namespace, counters in worker.latest_store_stats.items():
                bucket = self._retired_store_stats.setdefault(namespace, {})
                for counter, value in counters.items():
                    bucket[counter] = bucket.get(counter, 0) + value

    # ------------------------------------------------------------------ #
    # the worker loop
    # ------------------------------------------------------------------ #
    def _run_worker(self, stop: threading.Event) -> None:
        """One worker thread: claim → execute → record, until stopped.

        ``stop`` is this worker *generation's* event (not read from
        ``self``), so a restarted pool can never un-stop a straggler from
        the previous generation.  Claims, lease heartbeats and fencing
        stay in this thread in both modes; only the runner differs.
        """
        if self.worker_mode == "thread":
            run, close = self._session_runner()
        else:
            run, close = self._process_runner()
        try:
            while not stop.is_set():
                job = self.queue.claim(self.owner_id, self.lease_s)
                if job is None:
                    self.queue.wait(timeout=self.poll_s)
                    continue
                self._execute_job(run, job)
        finally:
            close()

    def _session_runner(self):
        """Thread mode: ``(run, close)`` over this worker's own ``Session``."""
        session = Session(
            store=self.store, num_workers=self.session_num_workers, max_concurrency=1,
            shadow_rate=self.shadow_rate, trace_sink=self.trace_sink,
        )
        with self._sessions_lock:
            self._sessions.append(session)

        def run(spec_dict: dict) -> str:
            # the GIL-held spin hook runs here — inside the job's
            # execution context — so it contends with sibling worker
            # threads exactly like the job's own interpreter-bound work
            # (in process mode the child runs it under its own GIL)
            fault_spin()
            return session.run(spec_from_dict(spec_dict)).to_json(indent=None)

        return run, session.close

    def _process_runner(self):
        """Process mode: ``(run, close)`` over a dedicated subprocess session.

        A crashed subprocess fails the current job with its exit signal,
        rolls its counters into the retired accumulator and is respawned
        — the daemon itself never notices beyond one failed job.
        """
        worker = ProcessSessionWorker(
            store_root=None if self.store is None else str(self.store.root),
            session_kwargs=dict(
                num_workers=self.session_num_workers, max_concurrency=1,
                shadow_rate=self.shadow_rate,
            ),
        )
        with self._sessions_lock:
            self._process_workers.append(worker)

        def run(spec_dict: dict) -> str:
            try:
                return worker.run(spec_dict)
            except WorkerCrashed:
                self._retire_worker_stats(worker)
                with self._lost_lock:
                    self.worker_crashes += 1
                worker.respawn()
                raise

        def close() -> None:
            self._retire_worker_stats(worker)
            with self._sessions_lock:
                if worker in self._process_workers:
                    self._process_workers.remove(worker)
            worker.close()

        return run, close

    def _start_heartbeat(self, job) -> threading.Event:
        """Keep one job's lease alive until the returned event is set.

        The heartbeat carries the claim's ``lease_generation``, so it
        stops extending (and the thread exits) the moment the lease is
        reclaimed — a stale owner must not keep a lease it lost looking
        fresh.  Heartbeat errors are swallowed: the queue being briefly
        unreachable is survivable as long as one beat lands per lease
        interval, and a genuinely lost lease is caught by the fencing
        check at completion either way.
        """
        done = threading.Event()

        def beat() -> None:
            while not done.wait(timeout=self.heartbeat_s):
                try:
                    alive = self.queue.heartbeat(
                        job.id, self.owner_id, self.lease_s, job.lease_generation
                    )
                except Exception:  # noqa: BLE001 - transient queue errors
                    continue
                if not alive:
                    return

        thread = threading.Thread(
            target=beat, name=f"repro-lease-heartbeat-{job.id}", daemon=True
        )
        thread.start()
        return done

    def _execute_job(self, runner, job) -> None:
        """Run one claimed job; never lets an exception escape the loop.

        ``runner`` maps a spec dict to a result-JSON string — a session
        call in thread mode, a subprocess round-trip in process mode.
        The fault-delay hook, heartbeats and fencing run here in the
        worker thread regardless of mode.

        Every finish carries the claim's fencing token: a
        :class:`StaleLeaseError` means a peer reclaimed the job while it
        ran here — the outcome is dropped (``lost_leases``), because the
        reclaimer's generation owns the right to publish.
        """
        heartbeat_done = self._start_heartbeat(job)
        execute_started = time.monotonic()
        try:
            delay = float(os.environ.get(FAULT_EXECUTE_DELAY_ENV, 0) or 0)
            if delay > 0:
                time.sleep(delay)
            result_json = runner(job.spec)
            self.queue.complete(
                job.id, result_json, self.owner_id, job.lease_generation,
                execute_s=time.monotonic() - execute_started,
            )
        except StaleLeaseError:
            with self._lost_lock:
                self.lost_leases += 1
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            # process-mode errors carry the child-side failure text
            # (``job_error``) so failed jobs read identically across modes
            message = getattr(exc, "job_error", None) or f"{type(exc).__name__}: {exc}"
            try:
                self.queue.fail(
                    job.id, message, self.owner_id, job.lease_generation,
                    execute_s=time.monotonic() - execute_started,
                )
            except StaleLeaseError:
                with self._lost_lock:
                    self.lost_leases += 1
            except Exception:  # noqa: BLE001 - queue gone mid-shutdown
                pass
        finally:
            heartbeat_done.set()

    def __repr__(self) -> str:
        state = "started" if self._started else "stopped"
        return f"WorkerPool(workers={self.workers}, {state})"
