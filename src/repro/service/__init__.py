"""The multi-session experiment service daemon (``repro.service``).

The library's many-user serving layer: a long-running daemon that accepts
:class:`~repro.session.specs.ExperimentSpec` submissions over a stdlib
HTTP API, journals them in a restart-durable SQLite job queue, and
executes them through a pool of :class:`~repro.session.session.Session`
workers sharing one :class:`~repro.store.ArtifactStore` — so every
store-level guarantee (content-addressed caching, exactly-once
publication, **exactly-once execution** via the in-flight lock-or-wait
protocol, bounded result retention) holds across all users of the daemon
and across daemon restarts.

Pieces:

* :mod:`~repro.service.queue` — :class:`JobQueue`, the SQLite-journaled
  job store (``queued → running → done | failed``) with **lease-based
  claims**: N daemons drain one queue, heartbeats keep claims alive,
  expired leases are reclaimed by any peer, and a monotonic fencing
  token (:class:`StaleLeaseError`) keeps stale owners from publishing,
* :mod:`~repro.service.workers` — :class:`WorkerPool`, N worker threads
  each owning a session over the shared store,
* :mod:`~repro.service.http` — the JSON endpoints
  (``POST/GET /v1/experiments``, ``GET /v1/store/stats``, ``/healthz``),
* :mod:`~repro.service.daemon` — :class:`ExperimentService` +
  :class:`ServiceConfig`, composing the above with a background GC sweep,
* :mod:`~repro.service.tenancy` — the multi-tenant control plane:
  bearer-token auth (:class:`TokenRegistry`), per-tenant admission
  control/quotas (:class:`AdmissionController`), and the tenant records
  the queue's weighted-fair scheduler runs on,
* :mod:`~repro.service.client` — :class:`ServiceClient`, the thin
  ``http.client`` client returning first-class ``ExperimentResult``
  objects over a pool of persistent connections (bearer-token aware,
  with bounded transient-failure retry),
* :mod:`~repro.service.smoke` — the self-contained end-to-end check CI
  boots (``python -m repro.service.smoke``),
* :mod:`~repro.service.cluster` — the multi-daemon subprocess harness
  (:class:`ServiceCluster`) with SIGKILL/SIGSTOP fault injection, and
  the CI ``cluster-smoke`` check (``python -m repro.service.cluster``).

Run the daemon with ``python -m repro.service`` (see ``docs/service.md``
for the API reference and ``docs/operations.md`` for deployment).
"""

from .client import JobFailedError, ServiceClient, ServiceError
from .daemon import ExperimentService, ServiceConfig
from .queue import JOB_STATUSES, Job, JobQueue, StaleLeaseError
from .tenancy import (
    AdmissionController,
    AuthError,
    QuotaExceeded,
    Tenant,
    TokenRegistry,
)
from .workers import WorkerPool

__all__ = [
    "ExperimentService",
    "ServiceConfig",
    "ServiceClient",
    "ServiceError",
    "JobFailedError",
    "JobQueue",
    "Job",
    "JOB_STATUSES",
    "StaleLeaseError",
    "WorkerPool",
    "AdmissionController",
    "AuthError",
    "QuotaExceeded",
    "Tenant",
    "TokenRegistry",
]
