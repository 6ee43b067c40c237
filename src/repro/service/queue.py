"""The persistent job queue behind the experiment service daemon(s).

Jobs — submitted experiment specs plus their lifecycle state — are
journaled in a single SQLite database (WAL mode), so the queue survives
daemon restarts: queued jobs are still queued, finished jobs keep their
result document, and jobs orphaned by a dead daemon are recovered (their
``attempts`` counter records the retry).

**Horizontal scale-out** (the ROADMAP's top open item): the queue is no
longer single-daemon.  Claims are **leases** — a claim writes
``(owner, lease_expiry)`` and the owner heartbeats to extend it — so N
daemon processes can drain one queue through SQLite's cross-process WAL
locking.  Liveness and safety come from two mechanisms:

* **Reclaim** (liveness): any daemon's :meth:`JobQueue.claim` may take
  over a ``running`` job whose lease expired — the generalization of
  :meth:`JobQueue.recover` from "I restarted" to "someone died".  A
  crashed (or wedged) daemon's jobs migrate to its peers after at most
  one lease interval, no restart required.
* **Fencing** (safety): every (re)claim increments the job's monotonic
  ``lease_generation``.  Completion is conditional on the caller still
  holding the generation it claimed, so a stale owner that wakes up
  *after* its lease was reclaimed gets :class:`StaleLeaseError` instead
  of publishing over the reclaimer's result.

Every claim holds a lease and every finish is fenced; there is no
owner-less claim.  Running rows without a lease can only come from a
queue file an older version wrote, and :meth:`JobQueue.recover`
re-queues them.

**Multi-tenant scheduling** (the tenancy control plane of
:mod:`repro.service.tenancy`): every job carries its submitting
``(tenant, priority, weight)``, and :meth:`JobQueue.claim` picks the
next candidate by **strict priority tier** first (``interactive`` jobs
always drain ahead of queued ``batch`` jobs), then **stride-weighted
round-robin across tenants** within the tier: each tenant has a
monotonically increasing *pass* value (persisted in the
``tenant_sched`` table, shared by all daemons), the tenant with the
lowest pass is served next, and a claim advances the winner's pass by
``stride = 1000 / weight`` — so a weight-2 tenant is claimed twice as
often as a weight-1 peer while both have queued work.  Within one
tenant, jobs stay strictly FIFO (``submitted_at`` order), which is also
exactly the legacy single-tenant behavior.  The fair ordering only
changes *which queued row the claim loop selects*; the atomic
conditional-``UPDATE`` flip, lease generations and :meth:`recover`
semantics are untouched, so N daemons still get exactly one winner.

Per-tenant accounting (jobs submitted/completed/failed and
execute-seconds consumed) is journaled in the ``tenant_accounting``
table next to the jobs table, atomically with the lifecycle transitions.

Job lifecycle::

    queued ──claim(owner)──▶ running ──complete()──▶ done
       ▲                    │      ▲ │
       │          heartbeat └──────┘ ├──fail()──▶ failed
       │                             │
       └──recover() / expired-lease reclaim by any daemon──┘
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
import uuid
from dataclasses import dataclass, replace
from pathlib import Path

from .tenancy.auth import ANONYMOUS_TENANT, DEFAULT_PRIORITY, PRIORITY_CLASSES
from ..utils.validation import ValidationError, check_positive

__all__ = ["Job", "JobQueue", "JOB_STATUSES", "StaleLeaseError"]

#: The four job lifecycle states, in progression order.
JOB_STATUSES = ("queued", "running", "done", "failed")

#: The terminal states :meth:`JobQueue.wait_finished` returns on.
_FINISHED = ("done", "failed")

#: Stride-scheduling scale: a claim advances its tenant's pass by
#: ``_STRIDE_SCALE / weight``, so relative claim frequency is
#: proportional to weight (the scale itself cancels out of the ratio).
_STRIDE_SCALE = 1000.0

#: Seconds SQLite retries a locked database before erroring — generous,
#: because N daemons share the file and writes are all sub-millisecond.
_BUSY_TIMEOUT_MS = 10_000

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id               TEXT PRIMARY KEY,
    spec             TEXT NOT NULL,
    status           TEXT NOT NULL,
    submitted_at     REAL NOT NULL,
    started_at       REAL,
    finished_at      REAL,
    attempts         INTEGER NOT NULL DEFAULT 0,
    error            TEXT,
    result           TEXT,
    owner            TEXT,
    lease_expiry     REAL,
    lease_generation INTEGER NOT NULL DEFAULT 0,
    tenant           TEXT,
    priority         TEXT,
    weight           REAL
);
CREATE INDEX IF NOT EXISTS jobs_status ON jobs (status, submitted_at);
CREATE INDEX IF NOT EXISTS jobs_tenant ON jobs (tenant, status);
CREATE TABLE IF NOT EXISTS tenant_accounting (
    tenant          TEXT PRIMARY KEY,
    submitted       INTEGER NOT NULL DEFAULT 0,
    completed       INTEGER NOT NULL DEFAULT 0,
    failed          INTEGER NOT NULL DEFAULT 0,
    execute_seconds REAL NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS tenant_sched (
    tenant     TEXT PRIMARY KEY,
    pass_value REAL NOT NULL DEFAULT 0
);
"""

#: Columns added after the first released schema, applied by the
#: idempotent migration in :meth:`JobQueue._connect` so a pre-lease
#: (or pre-tenancy) queue file keeps working — its jobs simply carry
#: NULL leases and NULL tenancy (treated as anonymous/batch/weight 1).
_MIGRATIONS = (
    ("owner", "ALTER TABLE jobs ADD COLUMN owner TEXT"),
    ("lease_expiry", "ALTER TABLE jobs ADD COLUMN lease_expiry REAL"),
    (
        "lease_generation",
        "ALTER TABLE jobs ADD COLUMN lease_generation INTEGER NOT NULL DEFAULT 0",
    ),
    ("tenant", "ALTER TABLE jobs ADD COLUMN tenant TEXT"),
    ("priority", "ALTER TABLE jobs ADD COLUMN priority TEXT"),
    ("weight", "ALTER TABLE jobs ADD COLUMN weight REAL"),
)

_COLUMNS = (
    "id", "spec", "status", "submitted_at", "started_at", "finished_at",
    "attempts", "error", "result", "owner", "lease_expiry", "lease_generation",
    "tenant", "priority", "weight",
)

#: The jobs columns qualified for joined queries (claim's fair ordering
#: joins ``tenant_sched``, so bare column names would be ambiguous).
_QUALIFIED_COLUMNS = ", ".join(f"jobs.{column}" for column in _COLUMNS)

#: Strict priority tiers: interactive rows sort ahead of everything
#: else; NULL/legacy priorities land in the batch tier.
_TIER_SQL = "CASE WHEN jobs.priority = 'interactive' THEN 0 ELSE 1 END"

#: The current *global virtual time*: the minimum pass among tenants
#: that have queued work (0 when the queue is empty).  New tenants join
#: at this value and lagging tenants are clamped up to it, so nobody
#: accumulates unbounded credit while idle.
_MIN_QUEUED_PASS_SQL = (
    "SELECT MIN(COALESCE(ts.pass_value, 0.0)) FROM jobs"
    " LEFT JOIN tenant_sched ts ON ts.tenant = COALESCE(jobs.tenant, 'anonymous')"
    " WHERE jobs.status = 'queued'"
)


class StaleLeaseError(RuntimeError):
    """A finish/heartbeat lost the fencing check: the lease moved on.

    Raised by :meth:`JobQueue.complete` / :meth:`JobQueue.fail` when the
    caller's ``(owner_id, lease_generation)`` no longer matches the job —
    its lease expired and another daemon reclaimed (or recovery re-queued)
    the job.  The caller must drop its outcome on the floor: the current
    generation's owner is the only one allowed to publish.  Results being
    content-addressed makes this loss harmless — the reclaimer recomputes
    or replays the bit-identical payload.
    """


@dataclass(frozen=True)
class Job:
    """One submitted experiment: its spec, lifecycle state and outcome.

    Attributes
    ----------
    id : str
        Opaque job identifier (returned by ``POST /v1/experiments``).
    spec : dict
        The submitted spec's ``to_dict`` form (validated on submission).
    status : str
        One of :data:`JOB_STATUSES`.
    submitted_at, started_at, finished_at : float or None
        Unix timestamps of the lifecycle transitions.
    attempts : int
        How many times the job has been claimed by a worker (> 1 after a
        restart-recovery, retry or expired-lease reclaim).
    error : str or None
        Failure message (``failed`` jobs only).
    result_json : str or None
        The finished :class:`~repro.session.results.ExperimentResult`
        document (``done`` jobs only).
    owner : str or None
        Identity of the daemon holding (or, for finished jobs, last
        having held) the job's lease; None while the job is queued.
    lease_expiry : float or None
        Unix timestamp the current lease expires at; past it, any daemon
        may reclaim the job.  ``None`` unless the job is running.
    lease_generation : int
        Monotonic fencing token, incremented by every (re)claim and
        recovery — completion is conditional on it, so a stale owner can
        never publish over the current one.
    tenant : str
        The submitting tenant's id (``anonymous`` for unauthenticated
        legacy submissions).
    priority : str
        Scheduling tier the job was admitted under (``interactive`` or
        ``batch``).
    weight : float
        The tenant's fair-share weight at submission time (snapshot, so
        the scheduler needs no registry access at claim time).
    """

    id: str
    spec: dict
    status: str
    submitted_at: float
    started_at: float | None
    finished_at: float | None
    attempts: int
    error: str | None
    result_json: str | None
    owner: str | None = None
    lease_expiry: float | None = None
    lease_generation: int = 0
    tenant: str = ANONYMOUS_TENANT
    priority: str = DEFAULT_PRIORITY
    weight: float = 1.0

    def to_public_dict(self, include_result: bool = True) -> dict:
        """The job as the HTTP API reports it (``GET /v1/experiments/<id>``)."""
        payload = {
            "id": self.id,
            "status": self.status,
            "spec": self.spec,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "attempts": self.attempts,
            "tenant": self.tenant,
            "priority": self.priority,
        }
        if self.owner is not None:
            payload["owner"] = self.owner
        if self.lease_expiry is not None:
            payload["lease_expiry"] = self.lease_expiry
        if self.lease_generation:
            payload["lease_generation"] = self.lease_generation
        if self.error is not None:
            payload["error"] = self.error
        if include_result and self.result_json is not None:
            payload["result"] = json.loads(self.result_json)
        return payload


def _row_to_job(row: tuple) -> Job:
    values = dict(zip(_COLUMNS, row))
    values["spec"] = json.loads(values["spec"])
    values["result_json"] = values.pop("result")
    # pre-tenancy rows carry NULL tenancy columns: normalize to the
    # anonymous/batch/weight-1 defaults the scheduler treats them as
    if values.get("tenant") is None:
        values["tenant"] = ANONYMOUS_TENANT
    if values.get("priority") is None:
        values["priority"] = DEFAULT_PRIORITY
    if values.get("weight") is None:
        values["weight"] = 1.0
    return Job(**values)


def _sanitize_text(text: str) -> str:
    """Coerce arbitrary text to valid UTF-8 (lone surrogates replaced).

    Exception messages can carry undecodable bytes (``repr`` of binary
    data surfaces as surrogate escapes); stored verbatim they would make
    the job row unserializable by ``json.dumps`` later.  Round-tripping
    through UTF-8 with replacement keeps the message readable and the
    API JSON-safe.
    """
    return text.encode("utf-8", "replace").decode("utf-8")


class JobQueue:
    """SQLite-journaled job queue (restart-durable, multi-daemon safe).

    Parameters
    ----------
    path : str or Path
        Database file (created, with parents, on first use).  The WAL
        journal keeps every transition durable across daemon restarts
        and serializes writers across daemon *processes*.

    Notes
    -----
    In-process, all operations serialize on one lock around a shared
    connection (``check_same_thread=False``); across processes, SQLite's
    WAL locking plus conditional-``UPDATE`` claims (checked by rowcount)
    make every lifecycle transition atomic, so N daemons can open the
    same file and drain it together.  Workers block in :meth:`wait` on an
    internal condition that :meth:`submit` notifies, so an idle pool
    wakes immediately on local submission (remote daemons' submissions
    are picked up by the poll timeout).  Long-polling readers block in
    :meth:`wait_finished` on a second condition of the same lock, which
    every completion notifies; jobs finished by a peer daemon are caught
    by re-reading the row on the poll interval.

    When a :class:`~repro.obs.metrics.MetricsRegistry` is attached (the
    daemon does this), the queue feeds two live histograms:
    ``repro_job_queue_latency_seconds`` (submission → claim, observed at
    claim time) and ``repro_job_duration_seconds{status=...}``
    (claim → completion, observed when the job finishes).  The
    :attr:`reclaimed` / :attr:`lease_expirations` counters back the
    ``repro_jobs_reclaimed_total`` / ``repro_lease_expirations_total``
    series.
    """

    def __init__(self, path: str | Path, metrics=None):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._new_job = threading.Condition(self._lock)
        self._job_finished = threading.Condition(self._lock)
        #: Set by :meth:`kick` on shutdown: :meth:`wait_finished` stops
        #: blocking until :meth:`ensure_open` re-arms the queue.
        self._released = False
        self._closed = True
        self._queue_latency = None
        self._job_duration = None
        self._submitted_total = None
        #: Expired-lease jobs this instance took over from dead owners.
        self.reclaimed = 0
        #: Lease expirations this instance observed (reclaims + expired
        #: leases re-queued by :meth:`recover`).
        self.lease_expirations = 0
        if metrics is not None:
            self.attach_metrics(metrics)
        with self._lock:
            self._connect()

    def attach_metrics(self, metrics) -> None:
        """Register the queue's histograms on a shared metrics registry."""
        self._queue_latency = metrics.histogram(
            "repro_job_queue_latency_seconds",
            "Seconds jobs spent queued before a worker claimed them.",
        )
        self._job_duration = metrics.histogram(
            "repro_job_duration_seconds",
            "Seconds from claim to completion, labeled by final status.",
        )
        self._submitted_total = metrics.counter(
            "repro_jobs_submitted_total",
            "Jobs accepted into the queue, labeled by tenant and priority class.",
        )
        # initialize the series at zero so a freshly booted daemon's
        # exposition already carries every required family (scrapers and
        # the CI validator never see a present-only-after-traffic series)
        self._queue_latency.labels()
        for status in ("done", "failed"):
            self._job_duration.labels(status=status)
        self._submitted_total.labels(
            tenant=ANONYMOUS_TENANT, priority=DEFAULT_PRIORITY
        )

    def _connect(self) -> None:
        """(Re-)establish the connection; caller holds ``self._lock``."""
        self._conn = sqlite3.connect(str(self.path), check_same_thread=False)
        self._conn.execute(f"PRAGMA busy_timeout={_BUSY_TIMEOUT_MS}")
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.executescript(_SCHEMA)
        existing = {row[1] for row in self._conn.execute("PRAGMA table_info(jobs)")}
        for column, statement in _MIGRATIONS:
            if column not in existing:
                self._conn.execute(statement)
        self._conn.commit()
        self._closed = False

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        with self._lock:
            self._closed = True
            try:
                self._conn.close()
            except sqlite3.ProgrammingError:  # already closed
                pass

    @property
    def closed(self) -> bool:
        """Whether the connection is currently closed."""
        return self._closed

    def ensure_open(self) -> None:
        """Reconnect after a :meth:`close` (same path, same journal).

        Lets one daemon object be stopped and started again in-process:
        ``ExperimentService.start`` calls this before recovery, so the
        restart path works on the same instance exactly as it does on a
        fresh one.  It also re-arms the :meth:`wait_finished` long-polls
        a shutdown :meth:`kick` released.
        """
        with self._lock:
            self._released = False
            if self._closed:
                self._connect()

    def __repr__(self) -> str:
        return f"JobQueue(path={str(self.path)!r})"

    # ------------------------------------------------------------------ #
    # submission / claiming
    # ------------------------------------------------------------------ #
    def submit(
        self,
        spec_dict: dict,
        tenant: str | None = None,
        priority: str | None = None,
        weight: float = 1.0,
    ) -> str:
        """Enqueue one spec (its ``to_dict`` form); returns the job id.

        Parameters
        ----------
        spec_dict : dict
            The spec's ``to_dict()`` payload (must carry a ``kind``).
        tenant : str, optional
            The submitting tenant's id; defaults to the anonymous tenant
            (unauthenticated legacy submissions).
        priority : str, optional
            Scheduling tier (``interactive`` or ``batch``; default
            batch).  Interactive jobs are always claimed ahead of queued
            batch jobs.
        weight : float
            Fair-share weight within the tier (claim frequency is
            proportional to weight while tenants have queued work).

        Notes
        -----
        Atomically with the insert, the tenant's accounting row counts
        the submission, and the tenant joins the stride scheduler at the
        current global virtual time (the minimum pass among tenants with
        queued work) — so a newly arriving tenant is served promptly but
        cannot leapfrog the whole queue with accumulated idle credit.
        """
        if not isinstance(spec_dict, dict) or "kind" not in spec_dict:
            raise ValidationError("job spec must be a spec to_dict() payload with a 'kind'")
        tenant = tenant or ANONYMOUS_TENANT
        priority = priority or DEFAULT_PRIORITY
        if priority not in PRIORITY_CLASSES:
            raise ValidationError(
                f"unknown priority class {priority!r}; known: {PRIORITY_CLASSES}"
            )
        weight = float(weight)
        if not weight > 0:
            raise ValidationError(f"job weight must be positive, got {weight}")
        job_id = uuid.uuid4().hex[:16]
        with self._lock:
            # a first-time tenant joins at the global virtual time (see
            # the docstring); the subquery runs before this job's insert
            self._conn.execute(
                "INSERT OR IGNORE INTO tenant_sched (tenant, pass_value)"
                f" VALUES (?, COALESCE(({_MIN_QUEUED_PASS_SQL}), 0.0))",
                (tenant,),
            )
            self._conn.execute(
                "INSERT INTO jobs (id, spec, status, submitted_at, attempts,"
                " tenant, priority, weight)"
                " VALUES (?, ?, 'queued', ?, 0, ?, ?, ?)",
                (job_id, json.dumps(spec_dict, sort_keys=True), time.time(),
                 tenant, priority, weight),
            )
            self._conn.execute(
                "INSERT INTO tenant_accounting (tenant, submitted) VALUES (?, 1)"
                " ON CONFLICT(tenant) DO UPDATE SET submitted = submitted + 1",
                (tenant,),
            )
            self._conn.commit()
            self._new_job.notify_all()
        if self._submitted_total is not None:
            self._submitted_total.labels(tenant=tenant, priority=priority).inc()
        return job_id

    def claim(self, owner_id: str, lease_s: float) -> Job | None:
        """Claim the next job for this owner: fair-ordered, else a reclaim.

        Parameters
        ----------
        owner_id : str
            Identity the lease is written under.
        lease_s : float
            Lease duration in seconds (> 0).  The owner must
            :meth:`heartbeat` well within this interval (a third is a
            good cadence) or its job becomes reclaimable.

        Returns
        -------
        Job or None
            The claimed job (``running``, lease fields set), or None when
            there is neither a queued job nor an expired-lease job to
            take over.

        Raises
        ------
        ValidationError
            When ``lease_s`` is not > 0.

        Notes
        -----
        Candidate order is the weighted-fair schedule (see the module
        docstring): strict priority tier, then the tenant with the lowest
        persisted pass value, then FIFO within the tenant.  A won claim
        advances the tenant's pass by ``stride = 1000 / weight``, clamped
        up to the global virtual time first so a tenant that idled cannot
        spend accumulated credit.

        Cross-process safety: the queued→running flip is a conditional
        ``UPDATE … WHERE status = 'queued'`` checked by rowcount, so two
        daemons selecting the same candidate race harmlessly — exactly
        one wins, the loser retries the next candidate.  (The loser may
        have advanced the same tenant's pass too; that over-advance only
        delays the tenant by one stride and decays at its next idle
        clamp, so fairness degrades gracefully under races rather than
        double-serving anyone.)  A reclaim is additionally fenced on the
        generation it observed, then increments it, stamping the previous
        owner stale.
        """
        lease_s = check_positive(lease_s, "lease_s")
        while True:
            now = time.time()
            expiry = now + lease_s
            with self._lock:
                row = self._conn.execute(
                    f"SELECT {_QUALIFIED_COLUMNS},"
                    " COALESCE(tenant_sched.pass_value, 0.0) FROM jobs"
                    " LEFT JOIN tenant_sched ON tenant_sched.tenant ="
                    " COALESCE(jobs.tenant, 'anonymous')"
                    " WHERE jobs.status = 'queued'"
                    f" ORDER BY {_TIER_SQL},"
                    " COALESCE(tenant_sched.pass_value, 0.0),"
                    " jobs.submitted_at, jobs.rowid LIMIT 1"
                ).fetchone()
                if row is not None:
                    job = _row_to_job(row[:-1])
                    tenant_pass = float(row[-1])
                    won = self._conn.execute(
                        "UPDATE jobs SET status = 'running', started_at = ?,"
                        " attempts = attempts + 1, owner = ?, lease_expiry = ?,"
                        " lease_generation = lease_generation + 1"
                        " WHERE id = ? AND status = 'queued'",
                        (now, owner_id, expiry, job.id),
                    ).rowcount
                    if won:
                        self._advance_pass(job.tenant, tenant_pass, job.weight)
                    self._conn.commit()
                    if won and self._queue_latency is not None:
                        self._queue_latency.observe(max(0.0, now - job.submitted_at))
                else:
                    row = self._conn.execute(
                        f"SELECT {', '.join(_COLUMNS)} FROM jobs WHERE status = 'running'"
                        " AND lease_expiry < ? ORDER BY lease_expiry, rowid LIMIT 1",
                        (now,),
                    ).fetchone()
                    if row is None:
                        return None
                    job = _row_to_job(row)
                    won = self._conn.execute(
                        "UPDATE jobs SET owner = ?, lease_expiry = ?, started_at = ?,"
                        " attempts = attempts + 1,"
                        " lease_generation = lease_generation + 1"
                        " WHERE id = ? AND status = 'running' AND lease_generation = ?",
                        (owner_id, expiry, now, job.id, job.lease_generation),
                    ).rowcount
                    self._conn.commit()
                    if won:
                        self.reclaimed += 1
                        self.lease_expirations += 1
            # a lost flip raced another daemon's claim, reclaim or finish: retry
            if won:
                return replace(
                    job, status="running", started_at=now,
                    attempts=job.attempts + 1, owner=owner_id, lease_expiry=expiry,
                    lease_generation=job.lease_generation + 1,
                )

    def _advance_pass(self, tenant: str, current_pass: float, weight: float) -> None:
        """Advance one tenant's stride pass after a won claim.

        Caller holds ``self._lock`` (the advance commits with the claim's
        own transaction).  The pass is clamped up to the global virtual
        time before the stride is added, so a tenant rejoining after idle
        time pays full price for its next claim instead of spending
        credit accumulated while absent.
        """
        stride = _STRIDE_SCALE / max(float(weight or 1.0), 1e-9)
        floor_row = self._conn.execute(f"{_MIN_QUEUED_PASS_SQL}").fetchone()
        floor = float(floor_row[0]) if floor_row and floor_row[0] is not None else 0.0
        new_pass = max(float(current_pass), floor) + stride
        self._conn.execute(
            "INSERT INTO tenant_sched (tenant, pass_value) VALUES (?, ?)"
            " ON CONFLICT(tenant) DO UPDATE"
            " SET pass_value = MAX(pass_value, excluded.pass_value)",
            (tenant, new_pass),
        )

    def heartbeat(
        self, job_id: str, owner_id: str, lease_s: float, lease_generation: int
    ) -> bool:
        """Extend one running job's lease; False when the lease is lost.

        A False return is the owner's signal to abandon the job: its
        lease expired and was reclaimed (or the job already finished).
        The owner keeps computing at its own risk — the fencing check in
        :meth:`complete` is what actually protects the result.
        """
        with self._lock:
            extended = self._conn.execute(
                "UPDATE jobs SET lease_expiry = ? WHERE id = ? AND owner = ?"
                " AND lease_generation = ? AND status = 'running'",
                (time.time() + lease_s, job_id, owner_id, lease_generation),
            ).rowcount
            self._conn.commit()
        return bool(extended)

    def wait(self, timeout: float) -> None:
        """Block up to ``timeout`` seconds for a submission notification."""
        with self._new_job:
            self._new_job.wait(timeout=timeout)

    def kick(self) -> None:
        """Wake every blocked worker and long-poll (used on shutdown).

        :meth:`wait`-blocked workers wake to see their stop event;
        :meth:`wait_finished` callers return the job as it stands, and
        later calls stop blocking until :meth:`ensure_open` — so no
        request handler is left waiting while the workers drain.
        """
        with self._lock:
            self._released = True
            self._new_job.notify_all()
            self._job_finished.notify_all()

    # ------------------------------------------------------------------ #
    # completion
    # ------------------------------------------------------------------ #
    def complete(
        self,
        job_id: str,
        result_json: str,
        owner_id: str,
        lease_generation: int,
        execute_s: float | None = None,
    ) -> None:
        """Mark one running job ``done``, storing its result document.

        The transition is fenced: it only applies while the caller still
        holds the lease ``(owner_id, lease_generation)`` of its claim, and
        raises :class:`StaleLeaseError` otherwise.  ``execute_s`` is the
        measured execution time charged to the tenant's accounting (wall
        time since the claim when omitted).
        """
        self._finish(job_id, "done", owner_id, lease_generation, execute_s, result=result_json)

    def fail(
        self,
        job_id: str,
        error: str,
        owner_id: str,
        lease_generation: int,
        execute_s: float | None = None,
    ) -> None:
        """Mark one running job ``failed``, storing the error message.

        The message is coerced to valid UTF-8 (see ``_sanitize_text``);
        fencing and accounting work as in :meth:`complete`.
        """
        self._finish(
            job_id, "failed", owner_id, lease_generation, execute_s, error=_sanitize_text(error)
        )

    def _finish(
        self,
        job_id: str,
        status: str,
        owner_id: str,
        lease_generation: int,
        execute_s: float | None,
        result: str | None = None,
        error: str | None = None,
    ) -> None:
        now = time.time()
        with self._lock:
            row = self._conn.execute(
                "SELECT started_at, COALESCE(tenant, 'anonymous')"
                " FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
            if row is None:
                raise KeyError(f"unknown job id {job_id!r}")
            started_at, tenant = row
            # the lease itself ends here (expiry cleared) but the owner
            # stays on the record — "which daemon finished this job" is the
            # takeover oracle of the crash harness and of operators
            updated = self._conn.execute(
                "UPDATE jobs SET status = ?, finished_at = ?, result = ?, error = ?,"
                " lease_expiry = NULL WHERE id = ? AND owner = ?"
                " AND lease_generation = ? AND status = 'running'",
                (status, now, result, error, job_id, owner_id, lease_generation),
            ).rowcount
            if updated:
                # charge the tenant atomically with the transition (the
                # fenced UPDATE guarantees at most one caller gets here
                # per lease generation, so nothing is double-counted)
                if execute_s is None:
                    execute_s = max(0.0, now - started_at) if started_at else 0.0
                column = "completed" if status == "done" else "failed"
                self._conn.execute(
                    f"INSERT INTO tenant_accounting (tenant, {column},"
                    " execute_seconds) VALUES (?, 1, ?)"
                    f" ON CONFLICT(tenant) DO UPDATE SET {column} = {column} + 1,"
                    " execute_seconds = execute_seconds + ?",
                    (tenant, float(execute_s), float(execute_s)),
                )
            self._conn.commit()
            if not updated:
                raise StaleLeaseError(
                    f"job {job_id!r}: lease generation {lease_generation} of"
                    f" owner {owner_id!r} is stale — the job was reclaimed;"
                    " dropping this outcome"
                )
            self._job_finished.notify_all()
        if self._job_duration is not None and started_at is not None:
            self._job_duration.labels(status=status).observe(max(0.0, now - started_at))

    # ------------------------------------------------------------------ #
    # inspection / recovery
    # ------------------------------------------------------------------ #
    def _row(self, job_id: str) -> tuple | None:
        """One job's row; caller holds ``self._lock``."""
        return self._conn.execute(
            f"SELECT {', '.join(_COLUMNS)} FROM jobs WHERE id = ?", (job_id,)
        ).fetchone()

    def get(self, job_id: str) -> Job | None:
        """The job of one id, or None."""
        with self._lock:
            row = self._row(job_id)
        return None if row is None else _row_to_job(row)

    def wait_finished(self, job_id: str, timeout: float, poll_s: float = 0.5) -> Job | None:
        """Block until one job is ``done``/``failed``, or ``timeout`` runs out.

        Parameters
        ----------
        job_id : str
            The job to wait on.
        timeout : float
            Upper bound on the wait, in seconds.
        poll_s : float
            Re-read interval of the row.  A completion through this
            instance wakes the wait at once; one written by a peer daemon
            into the shared file sends no notification, so it is seen at
            the next re-read (the daemon passes ``ServiceConfig.poll_s``,
            its cross-daemon discovery latency).

        Returns
        -------
        Job or None
            The job as last read — finished, or still pending when the
            timeout ran out or a shutdown (:meth:`kick`, :meth:`close`)
            released the wait; None at once for an unknown id.

        Notes
        -----
        Every read and the wait happen under the one queue lock, which
        :meth:`complete` / :meth:`fail` hold while committing and
        notifying, so a completion cannot slip in between a read and
        the wait that follows it.
        """
        deadline = time.monotonic() + timeout
        with self._lock:
            row = self._row(job_id)
            while row is not None:
                remaining = deadline - time.monotonic()
                status = row[_COLUMNS.index("status")]
                if status in _FINISHED or remaining <= 0 or self._released:
                    break
                self._job_finished.wait(timeout=min(remaining, poll_s))
                if self._closed:  # shutdown closed the connection meanwhile
                    break
                row = self._row(job_id)
        return None if row is None else _row_to_job(row)

    def jobs(self, status: str | None = None, limit: int = 100) -> list[Job]:
        """Recent jobs, newest first (optionally filtered by status)."""
        query = f"SELECT {', '.join(_COLUMNS)} FROM jobs"
        params: tuple = ()
        if status is not None:
            if status not in JOB_STATUSES:
                raise ValidationError(
                    f"unknown job status {status!r}; known: {JOB_STATUSES}"
                )
            query += " WHERE status = ?"
            params = (status,)
        query += " ORDER BY submitted_at DESC, rowid DESC LIMIT ?"
        with self._lock:
            rows = self._conn.execute(query, params + (int(limit),)).fetchall()
        return [_row_to_job(row) for row in rows]

    def counts(self) -> dict[str, int]:
        """Job counts per lifecycle status (all four keys always present)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT status, COUNT(*) FROM jobs GROUP BY status"
            ).fetchall()
        counts = {status: 0 for status in JOB_STATUSES}
        counts.update(dict(rows))
        return counts

    def tenant_counts(self, tenant: str) -> dict[str, int]:
        """One tenant's live ``queued``/``running`` job counts.

        The admission controller's quota oracle: counts read the shared
        database, so ``max_queued``/``max_running`` bounds hold across
        every daemon on the queue.
        """
        with self._lock:
            rows = self._conn.execute(
                "SELECT status, COUNT(*) FROM jobs"
                " WHERE COALESCE(tenant, 'anonymous') = ?"
                " AND status IN ('queued', 'running') GROUP BY status",
                (tenant,),
            ).fetchall()
        counts = {"queued": 0, "running": 0}
        counts.update(dict(rows))
        return counts

    def tenant_queue_depths(self) -> dict[str, int]:
        """Queued-job count per tenant (the per-tenant depth gauge feed).

        Tenants with accounting history but an empty queue report 0, so
        the gauge series drops back instead of going stale at its last
        non-zero value.
        """
        with self._lock:
            rows = self._conn.execute(
                "SELECT COALESCE(tenant, 'anonymous'), COUNT(*) FROM jobs"
                " WHERE status = 'queued' GROUP BY COALESCE(tenant, 'anonymous')"
            ).fetchall()
            known = self._conn.execute(
                "SELECT tenant FROM tenant_accounting"
            ).fetchall()
        depths = {tenant: 0 for (tenant,) in known}
        depths.update(dict(rows))
        return depths

    def tenant_accounting(self) -> dict[str, dict]:
        """Per-tenant usage totals (``GET /v1/tenants`` backing data).

        Returns
        -------
        dict
            ``tenant id -> {submitted, completed, failed,
            execute_seconds}``, cumulative over the queue file's
            lifetime.
        """
        with self._lock:
            rows = self._conn.execute(
                "SELECT tenant, submitted, completed, failed, execute_seconds"
                " FROM tenant_accounting ORDER BY tenant"
            ).fetchall()
        return {
            tenant: {
                "submitted": int(submitted),
                "completed": int(completed),
                "failed": int(failed),
                "execute_seconds": float(execute_seconds),
            }
            for tenant, submitted, completed, failed, execute_seconds in rows
        }

    def lease_stats(self) -> dict[str, int]:
        """Lease health of the running set (for ``/healthz`` and metrics).

        Returns
        -------
        dict
            ``active`` / ``expired`` / ``unleased`` running-job counts
            (a point-in-time snapshot of the whole queue, i.e. all
            daemons), plus this instance's cumulative ``reclaimed`` and
            ``lease_expirations`` counters.  ``unleased`` counts running
            rows without a lease, which only a queue file written before
            every claim held a lease can contain; it reads 0 otherwise.
        """
        now = time.time()
        with self._lock:
            rows = self._conn.execute(
                "SELECT"
                " SUM(CASE WHEN lease_expiry IS NULL THEN 1 ELSE 0 END),"
                " SUM(CASE WHEN lease_expiry >= ? THEN 1 ELSE 0 END),"
                " SUM(CASE WHEN lease_expiry < ? THEN 1 ELSE 0 END)"
                " FROM jobs WHERE status = 'running'",
                (now, now),
            ).fetchone()
        unleased, active, expired = (int(v or 0) for v in rows)
        return {
            "active": active,
            "expired": expired,
            "unleased": unleased,
            "reclaimed": self.reclaimed,
            "lease_expirations": self.lease_expirations,
        }

    def recover(self) -> int:
        """Re-queue orphaned ``running`` jobs; return the count.

        Called once at service start, *before* any worker claims.  Two
        kinds of orphan go back to the head of the queue (``submitted_at``
        unchanged, so FIFO order is preserved):

        * **unleased** running jobs — rows a queue file written before
          every claim held a lease may still contain;
        * **expired-lease** running jobs — some daemon (this one or a
          peer) died or wedged past its lease.

        Jobs under a *live* lease belong to a healthy peer daemon and are
        left alone — recovery is lease-aware, so booting a new daemon
        into a running cluster never steals work.  Each re-queue bumps
        ``lease_generation``, fencing off the previous owner exactly as a
        reclaim does.  Re-execution is safe — results are
        content-addressed, so a re-run either replays the
        already-published entry from the cache or recomputes the
        bit-identical payload.
        """
        now = time.time()
        with self._lock:
            expired = self._conn.execute(
                "SELECT COUNT(*) FROM jobs WHERE status = 'running'"
                " AND lease_expiry IS NOT NULL AND lease_expiry < ?",
                (now,),
            ).fetchone()[0]
            recovered = self._conn.execute(
                "UPDATE jobs SET status = 'queued', started_at = NULL,"
                " owner = NULL, lease_expiry = NULL,"
                " lease_generation = lease_generation + 1"
                " WHERE status = 'running'"
                " AND (lease_expiry IS NULL OR lease_expiry < ?)",
                (now,),
            ).rowcount
            self._conn.commit()
            self.lease_expirations += int(expired)
            if recovered:
                self._new_job.notify_all()
        return recovered
