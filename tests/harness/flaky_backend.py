"""A fault-injecting storage backend for the store's failure-path tests.

:class:`FlakyBackend` wraps another :class:`~repro.store.StorageBackend`
and makes a configurable number of calls per operation raise
:class:`OSError`, so the tests can prove the store's fail-open reads and
exactly-once writes survive storage hiccups.
"""

from __future__ import annotations

import threading

from repro.store import StorageBackend, StorageStat


class FlakyBackend(StorageBackend):
    """Fault-injecting decorator around another storage backend.

    Parameters
    ----------
    inner : StorageBackend
        The backend doing the real work.
    failures : dict, optional
        ``operation name -> number of calls to fail`` — e.g.
        ``{"write_bytes": 1}`` makes the first write raise
        :class:`OSError` and every later one succeed.  Budgets are
        consumed thread-safely; :attr:`faults_injected` counts the faults
        actually raised, so tests can assert the failure path was really
        exercised.
    """

    def __init__(self, inner: StorageBackend, failures: dict[str, int] | None = None):
        self.inner = inner
        self._failures = dict(failures or {})
        self._lock = threading.Lock()
        self.faults_injected = 0

    def inject(self, operation: str, times: int = 1) -> None:
        """Arm ``times`` more failures of one operation."""
        with self._lock:
            self._failures[operation] = self._failures.get(operation, 0) + times

    def _maybe_fail(self, operation: str) -> None:
        with self._lock:
            budget = self._failures.get(operation, 0)
            if budget <= 0:
                return
            self._failures[operation] = budget - 1
            self.faults_injected += 1
        raise OSError(f"injected storage fault: {operation}")

    def read_bytes(self, key: str, size: int | None = None) -> bytes:
        """Forward, unless a read fault is armed."""
        self._maybe_fail("read_bytes")
        return self.inner.read_bytes(key, size=size)

    def write_bytes(self, key: str, data: bytes) -> None:
        """Forward, unless a write fault is armed."""
        self._maybe_fail("write_bytes")
        self.inner.write_bytes(key, data)

    def exists(self, key: str) -> bool:
        """Forward, unless an exists fault is armed."""
        self._maybe_fail("exists")
        return self.inner.exists(key)

    def delete(self, key: str) -> bool:
        """Forward, unless a delete fault is armed."""
        self._maybe_fail("delete")
        return self.inner.delete(key)

    def list_keys(self, prefix: str = "") -> list[str]:
        """Forward, unless a list fault is armed."""
        self._maybe_fail("list_keys")
        return self.inner.list_keys(prefix)

    def stat(self, key: str) -> StorageStat | None:
        """Forward, unless a stat fault is armed."""
        self._maybe_fail("stat")
        return self.inner.stat(key)

    def touch(self, key: str, mtime: float | None = None) -> None:
        """Forward, unless a touch fault is armed."""
        self._maybe_fail("touch")
        self.inner.touch(key, mtime=mtime)

    def rename(self, key: str, new_key: str) -> bool:
        """Forward, unless a rename fault is armed."""
        self._maybe_fail("rename")
        return self.inner.rename(key, new_key)

    def sweep_empty(self, prefix: str = "") -> None:
        """Forward (never fails — cleanup is best-effort anyway)."""
        self.inner.sweep_empty(prefix)

    def __repr__(self) -> str:
        with self._lock:
            armed = {op: n for op, n in self._failures.items() if n > 0}
        return f"FlakyBackend({self.inner!r}, armed={armed})"
