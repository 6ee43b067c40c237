"""Leased claims and fenced finishes for queue tests.

Every :class:`~repro.service.queue.JobQueue` claim holds a lease and every
finish carries the claim's fencing token; these helpers let a test claim
and finish a job as one daemon would, without spelling out the lease.
"""

from __future__ import annotations

#: The lease identity of the test's own claims.
OWNER = "test-daemon"


def claim(queue, owner_id: str = OWNER, lease_s: float = 30.0):
    """Claim the next job under ``owner_id``; None when there is none."""
    return queue.claim(owner_id, lease_s)


def complete(queue, job, result_json: str = "{}", **kwargs) -> None:
    """Finish a claimed job ``done`` under its claim's lease."""
    queue.complete(job.id, result_json, job.owner, job.lease_generation, **kwargs)


def fail(queue, job, error: str, **kwargs) -> None:
    """Finish a claimed job ``failed`` under its claim's lease."""
    queue.fail(job.id, error, job.owner, job.lease_generation, **kwargs)
