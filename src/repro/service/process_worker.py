"""Process-isolated job execution for the service worker pool.

With ``WorkerPool(worker_mode="process")`` each worker *thread* owns one
dedicated **subprocess** that hosts the actual
:class:`~repro.session.session.Session`.  The parent keeps everything
queue-shaped — claims, leases, heartbeats, fencing, fault-injection
delays — and only the ``session.run(spec)`` call crosses the process
boundary.  The payoff is failure isolation with real teeth:

* a job that segfaults, gets OOM-killed or calls ``os._exit`` takes down
  **its worker subprocess only** — the daemon thread detects the death,
  fails that one job with the worker's exit signal in the error text,
  respawns a fresh subprocess and moves on,
* CPU-bound jobs (GRAPE optimizations) run under separate GILs, so two
  concurrent heavy jobs scale with cores instead of serializing,
* each worker gets a dedicated process + pipe pair (NOT a shared pool):
  one crashing job can never corrupt or abort a sibling's in-flight work.

The child is spawn-safe: :func:`_child_main` is a module-level function,
the parent ships its ``REPRO_*`` environment explicitly (the
:func:`~repro.utils.parallel._worker_init` idiom), and the store is
re-opened by root path — so ``REPRO_MP_START=spawn`` works exactly like
``fork``.  Results travel back as the lossless-JSON
``ExperimentResult`` encoding, so payloads are bit-identical to
thread-mode execution.  Session counters ride along with every reply so
:meth:`WorkerPool.aggregate_stats <repro.service.workers.WorkerPool>`
stays truthful in process mode.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import time

from ..utils.parallel import _propagated_environment, _worker_init, pool_start_method

__all__ = ["ProcessSessionWorker", "RemoteJobError", "WorkerCrashed"]

#: Test/fault-injection hook: when set to ``<fingerprint-prefix>`` (or
#: ``<fingerprint-prefix>:<mode>`` with mode one of ``kill`` | ``segv`` |
#: ``exit``), a process-mode worker child **kills itself** just before
#: executing any spec whose fingerprint starts with the prefix — a
#: deterministic stand-in for a segfaulting or OOM-killed job.  Unset
#: (production) it costs one ``os.environ.get`` per job.
FAULT_CRASH_FINGERPRINT_ENV = "REPRO_FAULT_CRASH_FINGERPRINT"

#: Bench/fault-injection hook: seconds of **GIL-held CPU time** each job
#: burns (in its execution context) before its session runs.  Unlike the
#: sleep hook — which releases the GIL, so thread-mode workers overlap it
#: — the spin runs pure Python bytecode: thread-mode workers serialize it
#: on the one shared GIL while process-mode workers overlap it across
#: cores.  It is the deterministic stand-in for the GIL-bound share of a
#: CPU-heavy job that the ``process_pool_gain`` benchmark measures.
#: Unset (production) it costs one ``os.environ.get`` per job.
FAULT_EXECUTE_SPIN_ENV = "REPRO_FAULT_EXECUTE_SPIN_S"


def fault_spin() -> None:
    """Honor the GIL-held spin fault hook (both worker modes).

    Burns ``REPRO_FAULT_EXECUTE_SPIN_S`` seconds of *this thread's* CPU
    time in a pure-Python loop.  Measured on the per-thread CPU clock,
    the burn is the same amount of GIL-held work however many threads or
    cores contend for it.
    """
    spin = float(os.environ.get(FAULT_EXECUTE_SPIN_ENV, 0) or 0)
    if spin <= 0:
        return
    deadline = time.thread_time() + spin
    while time.thread_time() < deadline:
        # interpreter-bound inner loop: the clock (a real syscall on
        # Linux) is consulted only once per batch, so the burn is
        # bytecode execution, not clock_gettime churn
        for _ in range(10_000):
            pass

#: Counter keys a child ships back with every reply (mirrors
#: ``WorkerPool.STAT_KEYS``; defined here so the child does not import
#: the pool module).
_SENTINEL_STOP = ("stop",)


def _maybe_crash(fingerprint: str) -> None:
    """Honor the crash fault hook for a matching spec (child side)."""
    raw = os.environ.get(FAULT_CRASH_FINGERPRINT_ENV, "")
    if not raw:
        return
    prefix, _, mode = raw.partition(":")
    if not prefix or not fingerprint.startswith(prefix):
        return
    mode = mode or "kill"
    if mode == "exit":
        os._exit(3)
    sig = signal.SIGSEGV if mode == "segv" else signal.SIGKILL
    os.kill(os.getpid(), sig)


def _child_main(
    conn, parent_end, environment: dict, store_root: str | None, session_kwargs: dict
) -> None:
    """Subprocess entry point: serve ``run`` requests over the pipe.

    ``parent_end`` is the parent's end of the pipe.  A forked child
    inherits it and closes it first thing: otherwise the pipe stays open
    after the parent dies (even by SIGKILL), ``conn.recv()`` never sees
    EOF and the child is orphaned for good.

    Protocol (parent → child): ``("run", spec_dict)`` executes one spec,
    ``("stop",)`` (or EOF) exits cleanly.  Replies (child → parent):
    ``("ok", result_json, stats, store_stats)`` or ``("error", exc_type,
    message, stats, store_stats)`` where ``stats`` is the session's
    counter snapshot and ``store_stats`` the child store's per-namespace
    counters, both taken *after* the job — the parent keeps the latest
    snapshots per worker so pool aggregation (``/healthz`` sessions,
    ``/v1/store/stats`` writes/hits) sees process-mode counters too.
    """
    parent_end.close()
    _worker_init(environment)
    # imports deferred past _worker_init so REPRO_* knobs (store root,
    # smoke flags, optimizer caps) are in place before module init code runs
    from ..session import Session, spec_from_dict
    from ..store import ArtifactStore

    store = ArtifactStore(store_root) if store_root is not None else None
    session = Session(store=store, **session_kwargs)

    def _store_stats() -> dict:
        return session.store.stats if session.store is not None else {}

    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if not isinstance(message, tuple) or not message or message[0] != "run":
                break
            spec_dict = message[1]
            try:
                spec = spec_from_dict(spec_dict)
                _maybe_crash(spec.fingerprint())
                fault_spin()
                result = session.run(spec)
                reply = ("ok", result.to_json(indent=None),
                         session.stats_snapshot(), _store_stats())
            except Exception as exc:  # noqa: BLE001 - shipped to the parent
                reply = ("error", type(exc).__name__, str(exc),
                         session.stats_snapshot(), _store_stats())
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                break
    finally:
        session.close()
        conn.close()


class RemoteJobError(RuntimeError):
    """A job raised inside the worker subprocess (the process survived).

    Carries the child-side exception type and message; ``job_error`` is
    the exact failure string the pool records on the job — identical in
    shape to thread-mode failures (``"TypeName: message"``), so clients
    cannot tell the modes apart from a failed job's error text.
    """

    def __init__(self, exc_type: str, message: str):
        super().__init__(f"{exc_type}: {message}")
        self.job_error = f"{exc_type}: {message}"


class WorkerCrashed(RuntimeError):
    """The worker subprocess died mid-job (signal, ``os._exit``, OOM kill).

    ``job_error`` names the exit signal (e.g. ``SIGKILL``/``SIGSEGV``)
    or exit code, so the failed job's error text tells operators *how*
    the worker died; the pool respawns a fresh subprocess afterwards.
    """

    def __init__(self, description: str, exitcode: int | None):
        super().__init__(description)
        self.exitcode = exitcode
        self.job_error = f"WorkerCrashed: {description}"


def _describe_exit(exitcode: int | None) -> str:
    """Human-readable death description from a ``Process.exitcode``."""
    if exitcode is None:
        return "worker process died (no exit code)"
    if exitcode < 0:
        try:
            name = signal.Signals(-exitcode).name
        except ValueError:  # pragma: no cover - unknown signal number
            name = f"signal {-exitcode}"
        return f"worker process died with {name} (exitcode {exitcode})"
    return f"worker process exited with code {exitcode}"


class ProcessSessionWorker:
    """One dedicated session subprocess + pipe, owned by one worker thread.

    Parameters
    ----------
    store_root : str | None
        Root path the child re-opens its ``ArtifactStore`` from (local
        filesystem — the process mode's store-sharing assumption).
    session_kwargs : dict
        Keyword arguments for the child's ``Session`` (``num_workers``,
        ``max_concurrency``, ``shadow_rate``, …).  Must be picklable;
        in-memory trace sinks therefore stay in the parent.
    poll_s : float
        Liveness-check cadence while waiting for a reply.
    """

    def __init__(self, store_root: str | None, session_kwargs: dict, poll_s: float = 0.1):
        self.store_root = store_root
        self.session_kwargs = dict(session_kwargs)
        self.poll_s = float(poll_s)
        self._ctx = mp.get_context(pool_start_method())
        #: Latest counter snapshots shipped back by the live child (zeroed
        #: on respawn — the pool rolls pre-crash counters into its
        #: retired accumulators first).
        self.latest_stats: dict[str, int] = {}
        self.latest_store_stats: dict[str, dict[str, int]] = {}
        #: Subprocesses spawned over this worker's lifetime (1 = never
        #: crashed); surfaced for tests and operator forensics.
        self.spawn_count = 0
        self._spawn()

    def _spawn(self) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        self.process = self._ctx.Process(
            target=_child_main,
            args=(
                child_conn,
                parent_conn,
                _propagated_environment(),
                self.store_root,
                self.session_kwargs,
            ),
            name="repro-service-session-worker",
            daemon=True,
        )
        self.process.start()
        child_conn.close()  # parent keeps one end only: EOF tracks child death
        self.conn = parent_conn
        self.latest_stats = {}
        self.latest_store_stats = {}
        self.spawn_count += 1

    def run(self, spec_dict: dict) -> str:
        """Execute one spec in the subprocess; return the result JSON.

        Raises
        ------
        RemoteJobError
            The job failed in the child (subprocess still healthy).
        WorkerCrashed
            The subprocess died mid-job.  The caller must
            :meth:`respawn` (after harvesting :attr:`latest_stats`)
            before reusing this worker.
        """
        try:
            self.conn.send(("run", spec_dict))
        except (BrokenPipeError, OSError):
            raise WorkerCrashed(self._death_description(), self.process.exitcode) from None
        while True:
            try:
                if self.conn.poll(self.poll_s):
                    reply = self.conn.recv()
                    break
            except (EOFError, OSError):
                raise WorkerCrashed(self._death_description(), self.process.exitcode) from None
            if not self.process.is_alive():
                # drain a reply that raced the death before declaring a crash
                try:
                    if self.conn.poll(0):
                        reply = self.conn.recv()
                        break
                except (EOFError, OSError):
                    pass
                raise WorkerCrashed(self._death_description(), self.process.exitcode)
        kind = reply[0]
        self.latest_stats = dict(reply[-2])
        self.latest_store_stats = {
            namespace: dict(counters) for namespace, counters in reply[-1].items()
        }
        if kind == "ok":
            return reply[1]
        raise RemoteJobError(reply[1], reply[2])

    def _death_description(self) -> str:
        """Join the dead child (reaping its exit code) and describe it."""
        self.process.join(timeout=5.0)
        return _describe_exit(self.process.exitcode)

    def respawn(self) -> None:
        """Replace a dead subprocess with a fresh one (same settings)."""
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if self.process.is_alive():  # pragma: no cover - defensive
            self.process.terminate()
        self.process.join(timeout=5.0)
        self._spawn()

    def close(self, timeout: float = 10.0) -> None:
        """Ask the child to exit, escalating to terminate/kill on timeout."""
        try:
            self.conn.send(_SENTINEL_STOP)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=timeout)
        if self.process.is_alive():  # pragma: no cover - stuck child
            self.process.terminate()
            self.process.join(timeout=5.0)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=5.0)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def __repr__(self) -> str:
        alive = self.process.is_alive()
        return f"ProcessSessionWorker(pid={self.process.pid}, alive={alive}, spawns={self.spawn_count})"
