""":class:`ExperimentService` — the multi-session experiment daemon.

Composes the service out of the pieces this package and the layers below
provide:

* one shared :class:`~repro.store.ArtifactStore` (every cache, lock and
  counter goes through it),
* a restart-durable :class:`~repro.service.queue.JobQueue` (SQLite WAL),
* a :class:`~repro.service.workers.WorkerPool` of ``Session``s executing
  claimed jobs,
* the stdlib HTTP API of :mod:`repro.service.http`,
* an optional background GC sweep applying the store's bounded result
  retention (``prune(results_max_bytes=, results_max_age=)``).

Start it programmatically::

    from repro.service import ExperimentService, ServiceConfig

    config = ServiceConfig(store="auto", port=8765, workers=2)
    with ExperimentService(config) as service:
        print(service.url)          # http://127.0.0.1:8765
        service.serve_forever()     # until KeyboardInterrupt

or from the command line: ``python -m repro.service`` (see
``docs/operations.md`` for deployment guidance).
"""

from __future__ import annotations

import os
import socket
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path

from .http import make_server
from .queue import JobQueue
from .tenancy import (
    ANONYMOUS_TENANT,
    AdmissionController,
    QuotaExceeded,
    resolve_token_registry,
)
from .workers import WorkerPool
from ..obs import MetricsRegistry, SpanTimingSink, resolve_trace_sink
from ..store import resolve_store
from ..utils.validation import ValidationError, check_positive

__all__ = ["ServiceConfig", "ExperimentService"]


@dataclass(frozen=True)
class ServiceConfig:
    """Static configuration of one :class:`ExperimentService`.

    Attributes
    ----------
    host, port : str, int
        HTTP bind address (``port=0`` binds an ephemeral port — useful in
        tests; read the resolved port from :attr:`ExperimentService.port`).
    store : str or Path or ArtifactStore
        Persistent-store selector (``"auto"`` | path | instance).  The
        service *requires* persistence — the store is its shared state —
        so ``None`` is rejected; so is any other non-store value
        (``False`` included), by :func:`~repro.store.resolve_store`.
    queue_path : str or Path, optional
        Job-database file; defaults to ``<store root>/service/queue.sqlite3``
        so the queue lives (and survives) next to the artifacts.
    workers : int
        Worker-session threads (0 = accept-only: jobs queue durably and
        wait for a pool).
    session_num_workers : int
        Per-experiment process fan-out of each worker session.
    worker_mode : str
        ``"thread"`` (default, in-process sessions) or ``"process"``
        (each worker's session lives in a dedicated subprocess —
        crash/memory isolation and per-worker GILs; ``--worker-mode``).
        See ``docs/performance.md``.
    gc_interval_s : float, optional
        Period of the background store-GC sweep; ``None`` disables it
        (the CLI `prune` remains available).
    results_max_bytes : int, optional
        Size bound handed to the sweep (see ``ArtifactStore.prune``).
    results_max_age_s : float, optional
        Age bound handed to the sweep.
    shadow_rate : float, optional
        Shadow-verification sampling rate every worker session runs with
        (``--shadow-rate``; ``$REPRO_SHADOW_RATE`` always wins).  ``None``
        leaves shadowing off unless the environment enables it.
    trace_file : str or Path, optional
        JSON-lines trace sink shared by every worker session
        (``--trace-file``; defaults to ``$REPRO_TRACE_FILE`` when unset).
    owner_id : str, optional
        This daemon's identity in the queue's lease columns.  Defaults to
        ``<hostname>-<pid>-<random>`` — unique per process, which is what
        fencing requires.  Set it explicitly only for debugging/tests.
    lease_s : float
        Job-claim lease duration (``--lease``, > 0).  A daemon that misses
        heartbeats for this long forfeits its running jobs to its peers.
    heartbeat_s : float, optional
        Lease-extension cadence (``--heartbeat``; default ``lease_s/3``).
    poll_s : float
        Idle-worker queue poll (``--poll``).  Local submissions notify
        workers instantly; this is the discovery latency for jobs
        submitted *through a peer daemon* on the same queue, and for
        ``?wait=`` long-polls on jobs a peer daemon finishes — tighten it
        in latency-sensitive multi-daemon deployments.
    tokens : object, optional
        Token-registry source (``--tokens``): a ``tokens.json`` path, a
        registry document dict, or a
        :class:`~repro.service.tenancy.TokenRegistry`.  ``None`` falls
        back to ``$REPRO_API_TOKENS`` when set, else the daemon runs
        open (unauthenticated, anonymous tenant).
    no_auth : bool
        Force open mode (``--no-auth``) even when ``$REPRO_API_TOKENS``
        is set — the legacy escape hatch smoke/cluster harnesses use.
    """

    host: str = "127.0.0.1"
    port: int = 8765
    store: object = "auto"
    queue_path: str | Path | None = None
    workers: int = 2
    session_num_workers: int = 1
    worker_mode: str = "thread"
    gc_interval_s: float | None = None
    results_max_bytes: int | None = None
    results_max_age_s: float | None = None
    shadow_rate: float | None = None
    trace_file: str | Path | None = None
    owner_id: str | None = None
    lease_s: float = 30.0
    heartbeat_s: float | None = None
    poll_s: float = 0.5
    tokens: object = None
    no_auth: bool = False

    def __post_init__(self):
        check_positive(self.lease_s, "lease_s")
        if self.heartbeat_s is not None:
            check_positive(self.heartbeat_s, "heartbeat_s")


class ExperimentService:
    """The daemon: queue + worker pool + HTTP API over one shared store.

    Parameters
    ----------
    config : ServiceConfig
        Static configuration (bind address, store root, pool sizing, GC
        policy).

    Notes
    -----
    ``start()``/``stop()`` are explicit (and idempotent); the context
    manager form wraps them.  Everything the daemon does is observable
    from the outside: ``/healthz`` aggregates the worker sessions'
    counters and the queue's per-status job counts, ``/v1/store/stats``
    exposes the shared store's namespace counters and disk footprint.
    """

    def __init__(self, config: ServiceConfig | None = None, **overrides):
        if config is None:
            config = ServiceConfig(**overrides)
        elif overrides:
            raise ValidationError("pass either a ServiceConfig or keyword overrides, not both")
        self.config = config
        self.store = resolve_store(config.store)
        if self.store is None:
            raise ValidationError(
                "the experiment service requires a persistent store "
                "(store='auto', a path, or an ArtifactStore instance)"
            )
        queue_path = (
            Path(config.queue_path)
            if config.queue_path is not None
            else self.store.root / "service" / "queue.sqlite3"
        )
        #: The daemon's single metrics registry: the queue feeds its
        #: latency histograms live, everything else is mirrored into it
        #: at scrape time by :meth:`metrics_text` (``GET /v1/metrics``).
        self.metrics = MetricsRegistry()
        self.queue = JobQueue(queue_path, metrics=self.metrics)
        #: Bearer-token → tenant registry; None runs the API open
        #: (legacy ``--no-auth`` mode, submissions land as anonymous).
        self.token_registry = resolve_token_registry(
            False if config.no_auth else config.tokens
        )
        #: Per-tenant admission control (quota + rate checks at submit).
        self.admission = AdmissionController()
        self._quota_rejections = self.metrics.counter(
            "repro_tenant_quota_rejections_total",
            "Submissions rejected by per-tenant admission control (429s).",
        )
        self._tenant_depth = self.metrics.gauge(
            "repro_tenant_queue_depth",
            "Queued jobs per tenant (refreshed at scrape time).",
        )
        # pre-seed the per-tenant families so a fresh daemon's exposition
        # carries them before any traffic (CI's check_metrics contract)
        self._quota_rejections.labels(tenant=ANONYMOUS_TENANT)
        self._tenant_depth.labels(tenant=ANONYMOUS_TENANT).set(0)
        if self.token_registry is not None:
            for tenant_id in self.token_registry.tenants:
                self._quota_rejections.labels(tenant=tenant_id)
                self._tenant_depth.labels(tenant=tenant_id).set(0)
        #: This daemon's lease identity: unique per process by default,
        #: which is exactly what the fencing protocol requires.
        self.owner_id = config.owner_id or (
            f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"
        )
        self.pool = WorkerPool(
            self.queue,
            self.store,
            owner_id=self.owner_id,
            lease_s=config.lease_s,
            heartbeat_s=config.heartbeat_s,
            workers=config.workers,
            session_num_workers=config.session_num_workers,
            worker_mode=config.worker_mode,
            shadow_rate=config.shadow_rate,
            # wrap the configured sink so every job's trace also feeds the
            # per-span duration histograms of /v1/metrics
            trace_sink=SpanTimingSink(
                self.metrics, inner=resolve_trace_sink(config.trace_file)
            ),
            poll_s=config.poll_s,
        )
        self._server = None
        self._server_thread: threading.Thread | None = None
        self._gc_thread: threading.Thread | None = None
        self._gc_stop = threading.Event()
        self._started_at: float | None = None
        self.recovered_jobs = 0
        #: Outcome of the most recent background GC sweep (observability).
        self.last_gc: dict | None = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "ExperimentService":
        """Recover the queue, start workers, GC sweep and the HTTP server.

        Any number of daemons may share one queue database: boot-time
        recovery is lease-aware (:meth:`JobQueue.recover` only re-queues
        *orphaned* jobs — lease expired, or none — never a healthy peer's),
        so joining a running cluster steals no work.  See
        ``docs/operations.md`` ("Running multiple daemons").
        """
        if self._server is not None:
            return self
        self.queue.ensure_open()  # restarting a stopped instance reconnects
        self.recovered_jobs = self.queue.recover()
        self.pool.start()
        if self.config.gc_interval_s is not None:
            self._gc_stop.clear()
            self._gc_thread = threading.Thread(
                target=self._gc_loop, name="repro-service-gc", daemon=True
            )
            self._gc_thread.start()
        self._server = make_server(self.config.host, self.config.port, self)
        self._server_thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-service-http",
            daemon=True,
        )
        self._server_thread.start()
        self._started_at = time.time()
        return self

    def stop(self) -> None:
        """Shut everything down in dependency order (idempotent).

        The HTTP server stops accepting first.  :meth:`JobQueue.kick` then
        releases pending ``?wait=`` long-polls, each answering with its job
        as it stands, and the server closes its kept-alive client
        connections once their responses are out.  Then the workers drain
        their current jobs, and the GC thread and the queue close.  A job
        still running at shutdown is re-queued by :meth:`JobQueue.recover`
        on the next start — nothing is lost.
        """
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self.queue.kick()
            self._server.close_connections()
            self._server = None
        if self._server_thread is not None:
            self._server_thread.join(timeout=10.0)
            self._server_thread = None
        self.pool.stop()
        self._gc_stop.set()
        if self._gc_thread is not None:
            self._gc_thread.join(timeout=10.0)
            self._gc_thread = None
        self.queue.close()
        self._started_at = None

    def __enter__(self) -> "ExperimentService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def serve_forever(self) -> None:
        """Block until interrupted (SIGINT/KeyboardInterrupt), then stop."""
        try:
            while self._server is not None:
                time.sleep(0.5)
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    # ------------------------------------------------------------------ #
    # addresses
    # ------------------------------------------------------------------ #
    @property
    def port(self) -> int:
        """The bound HTTP port (resolves ``port=0`` to the real one)."""
        if self._server is None:
            return self.config.port
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        """Base URL clients should use (``http://host:port``)."""
        return f"http://{self.config.host}:{self.port}"

    def __repr__(self) -> str:
        state = "running" if self._server is not None else "stopped"
        return (
            f"ExperimentService({self.url}, store={str(self.store.root)!r}, "
            f"workers={self.pool.workers}, {state})"
        )

    # ------------------------------------------------------------------ #
    # observability (the HTTP handler calls these)
    # ------------------------------------------------------------------ #
    def health(self) -> dict:
        """The ``/healthz`` document: liveness plus the proof counters.

        The ``lease`` block is the scale-out surface: this daemon's
        identity and lease tuning, the cluster-wide lease health of the
        running set (``active``/``expired``/``unleased``), and this
        instance's ``reclaimed``/``lease_expirations``/``lost_leases``
        counters — how a kill-one-of-N takeover is proven from outside.
        """
        return {
            "status": "ok",
            "uptime_s": (time.time() - self._started_at) if self._started_at else 0.0,
            "workers": self.pool.workers,
            "worker_mode": self.pool.worker_mode,
            "jobs": self.queue.counts(),
            "recovered_jobs": self.recovered_jobs,
            "sessions": self.pool.aggregate_stats(),
            "lease": {
                "owner_id": self.owner_id,
                "lease_s": self.pool.lease_s,
                "heartbeat_s": self.pool.heartbeat_s,
                "lost_leases": self.pool.lost_leases,
                **self.queue.lease_stats(),
            },
            "auth": {
                "enabled": self.token_registry is not None,
                "tenants": (
                    len(self.token_registry) if self.token_registry is not None else 0
                ),
            },
            "store_root": str(self.store.root),
            "queue_path": str(self.queue.path),
            "last_gc": self.last_gc,
        }

    def _merged_store_stats(self) -> dict:
        """This daemon's store counters plus its worker subprocesses'.

        In thread mode the pool contributes nothing (every worker writes
        through ``self.store``); in process mode each child has its own
        store instance, whose shipped-back counters are folded in here so
        writes/hits stay observable regardless of ``worker_mode``.
        """
        stats = {namespace: dict(counters) for namespace, counters in self.store.stats.items()}
        for namespace, counters in self.pool.aggregate_store_stats().items():
            bucket = stats.setdefault(namespace, {})
            for counter, value in counters.items():
                bucket[counter] = bucket.get(counter, 0) + value
        return stats

    def store_stats(self) -> dict:
        """The ``/v1/store/stats`` document: counters + disk footprint."""
        return {
            "root": str(self.store.root),
            "stats": self._merged_store_stats(),
            "disk": self.store.disk_stats(),
        }

    # ------------------------------------------------------------------ #
    # tenancy (the HTTP handler calls these)
    # ------------------------------------------------------------------ #
    def submit_for(self, tenant, spec) -> str:
        """Admit and enqueue one validated spec for one tenant.

        ``tenant`` is None in open mode (no registry): the submission
        runs as the anonymous tenant with no quotas.  A broken admission
        bound raises :class:`~repro.service.tenancy.QuotaExceeded` (the
        HTTP layer's 429), counted in the per-tenant rejection metric.
        """
        if tenant is None:
            return self.queue.submit(spec.to_dict())
        try:
            self.admission.admit(tenant, self.queue)
        except QuotaExceeded:
            self._quota_rejections.labels(tenant=tenant.id).inc()
            raise
        return self.queue.submit(
            spec.to_dict(),
            tenant=tenant.id,
            priority=tenant.priority,
            weight=tenant.weight,
        )

    def tenants(self) -> dict:
        """The ``GET /v1/tenants`` document: configs + usage accounting.

        Configured tenants (when a registry is set) and every tenant
        with accounting history are merged, so revoked or de-configured
        tenants keep reporting their consumed totals.
        """
        accounting = self.queue.tenant_accounting()
        depths = self.queue.tenant_queue_depths()
        tenants: dict[str, dict] = {}
        if self.token_registry is not None:
            for tenant_id, tenant in self.token_registry.tenants.items():
                tenants[tenant_id] = {"config": tenant.to_public_dict()}
        for tenant_id in set(accounting) | set(depths):
            tenants.setdefault(tenant_id, {})
        for tenant_id, entry in tenants.items():
            entry["accounting"] = accounting.get(
                tenant_id,
                {"submitted": 0, "completed": 0, "failed": 0, "execute_seconds": 0.0},
            )
            entry["queued"] = depths.get(tenant_id, 0)
        return {"auth_enabled": self.token_registry is not None, "tenants": tenants}

    def metrics_text(self) -> str:
        """The ``/v1/metrics`` document (Prometheus text exposition).

        The queue's latency/duration histograms are fed live as jobs move
        through it; everything whose source of truth lives elsewhere —
        job counts per status, the worker sessions' aggregated counters
        (a locked snapshot per session), the store's namespace counters,
        recovery and GC outcomes — is mirrored into the registry here, at
        scrape time, so the exposition is always a consistent
        point-in-time view.  See ``docs/observability.md`` for the full
        series table.
        """
        metrics = self.metrics
        jobs = metrics.gauge(
            "repro_jobs", "Jobs in the queue database by lifecycle status."
        )
        for status, count in self.queue.counts().items():
            jobs.labels(status=status).set(count)
        for tenant, depth in self.queue.tenant_queue_depths().items():
            self._tenant_depth.labels(tenant=tenant).set(depth)

        sessions = self.pool.aggregate_stats()
        events = metrics.counter(
            "repro_session_events_total",
            "Aggregated worker-session counters (executions, cache hits, ...).",
        )
        for counter, value in sessions.items():
            events.labels(counter=counter).set(value)
        lookups = sessions.get("cache_hits", 0) + sessions.get("cache_misses", 0)
        metrics.gauge(
            "repro_cache_hit_ratio",
            "Result-cache hit ratio across worker sessions (0 before any lookup).",
        ).set(sessions.get("cache_hits", 0) / lookups if lookups else 0.0)
        metrics.counter(
            "repro_shadow_checks_total",
            "Result-cache hits re-executed by shadow verification.",
        ).set(sessions.get("shadow_checks", 0))
        metrics.counter(
            "repro_shadow_mismatches_total",
            "Shadow verifications that failed bit-identity (entry quarantined).",
        ).set(sessions.get("shadow_mismatches", 0))
        metrics.counter(
            "repro_dedup_waits_total",
            "Submissions that waited on another in-flight execution of their key.",
        ).set(sessions.get("dedup_waits", 0))
        metrics.counter(
            "repro_recovered_jobs_total",
            "Jobs re-queued at boot after a previous daemon died mid-execution.",
        ).set(self.recovered_jobs)
        metrics.counter(
            "repro_jobs_reclaimed_total",
            "Expired-lease jobs this daemon took over from dead peers.",
        ).set(self.queue.reclaimed)
        metrics.counter(
            "repro_lease_expirations_total",
            "Lease expirations this daemon observed (reclaims + boot recovery).",
        ).set(self.queue.lease_expirations)

        store_events = metrics.counter(
            "repro_store_events_total",
            "Artifact-store namespace counters (writes, hits, evictions, ...).",
        )
        store_stats = self._merged_store_stats()
        for namespace, counters in store_stats.items():
            for counter, value in counters.items():
                store_events.labels(namespace=namespace, counter=counter).set(value)
        metrics.counter(
            "repro_gc_evictions_total",
            "Result-cache entries evicted by the store's bounded-retention GC.",
        ).set(store_stats.get("results", {}).get("evictions", 0))
        metrics.gauge(
            "repro_uptime_seconds", "Seconds since the daemon started."
        ).set((time.time() - self._started_at) if self._started_at else 0.0)
        return metrics.render()

    # ------------------------------------------------------------------ #
    # background GC
    # ------------------------------------------------------------------ #
    def _gc_loop(self) -> None:
        """Periodic ``store.prune`` applying the configured result bounds."""
        interval = float(self.config.gc_interval_s)
        while not self._gc_stop.wait(timeout=interval):
            self.sweep()

    def sweep(self) -> dict:
        """One GC sweep now (also what the background loop runs).

        Returns (and records in :attr:`last_gc`) the number of files
        removed and the sweep wall clock; failures are recorded, never
        raised — a GC hiccup must not take the daemon down.
        """
        started = time.time()
        try:
            removed = self.store.prune(
                results_max_bytes=self.config.results_max_bytes,
                results_max_age=self.config.results_max_age_s,
            )
            self.last_gc = {
                "at": started, "removed": removed, "wall_s": time.time() - started,
            }
        except Exception as exc:  # noqa: BLE001 - sweep isolation boundary
            self.last_gc = {"at": started, "error": f"{type(exc).__name__}: {exc}"}
        return self.last_gc
