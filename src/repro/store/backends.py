"""Pluggable byte-level storage backends behind the artifact store.

The scale-out seam of the store (ROADMAP: horizontal scale-out): the
``results`` namespace — the one namespace whose entry count grows with
user traffic — reads and writes through a :class:`StorageBackend` instead
of touching the filesystem directly, so daemons on different machines can
later point the hot result cache at shared object storage.  Keys are
POSIX-style relative paths (``results/<spec fp>/<props fp>.json``); being
content-addressed fingerprints, they shard trivially by prefix.

Two in-tree backends:

* :class:`LocalFSBackend` — the default: keys map 1:1 onto files under
  the store root, published with the same tmp-file + atomic-rename
  protocol the rest of the store uses.  An :class:`~repro.store.ArtifactStore`
  constructed without an explicit backend behaves exactly as before.
* :class:`DictBackend` — an in-memory object store (thread-safe), for
  tests and ephemeral sessions that want result caching without disk.

Scope: the backend carries the *payload bytes* of the results namespace.
Advisory coordination (writer locks, in-flight locks) stays on the local
filesystem under ``<root>/locks/`` — it is the coordination plane of the
daemons sharing one root — and the byte-oriented maintenance surface
(``ls``, ``disk_stats``, ``rm``) enumerates the filesystem, i.e. reflects
non-FS backends only through :attr:`StoreCore.stats` counters.  The
mmap-dependent namespaces (channel tables, groups, pulses) are
deliberately not routed: they require real files.
"""

from __future__ import annotations

import abc
import os
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "StorageStat",
    "StorageBackend",
    "LocalFSBackend",
    "DictBackend",
]


@dataclass(frozen=True)
class StorageStat:
    """Metadata of one stored object.

    Attributes
    ----------
    mtime : float
        Last-modified Unix timestamp — the LRU recency key of the result
        GC (refreshed by :meth:`StorageBackend.touch` on cache hits).
    size : int
        Payload size in bytes.
    """

    mtime: float
    size: int


class StorageBackend(abc.ABC):
    """Byte-level key-value storage: the seam under the results namespace.

    Keys are POSIX-style relative paths (``"/"``-separated, no leading
    slash).  Implementations must make :meth:`write_bytes` atomic —
    readers observe either the previous object or the full new one, never
    a truncated intermediate — and absent keys raise :class:`KeyError`
    from :meth:`read_bytes` (transient faults raise :class:`OSError`,
    which readers treat fail-open as a miss).
    """

    @abc.abstractmethod
    def read_bytes(self, key: str, size: int | None = None) -> bytes:
        """The object's bytes (first ``size`` bytes when given).

        Raises :class:`KeyError` when the key does not exist.
        """

    @abc.abstractmethod
    def write_bytes(self, key: str, data: bytes) -> None:
        """Publish one object atomically (parents implied by the key)."""

    @abc.abstractmethod
    def exists(self, key: str) -> bool:
        """Whether the key currently holds an object."""

    @abc.abstractmethod
    def delete(self, key: str) -> bool:
        """Remove one object; returns False when it was already absent."""

    @abc.abstractmethod
    def list_keys(self, prefix: str = "") -> list[str]:
        """Every key under ``prefix``, sorted (prefix sharding surface)."""

    @abc.abstractmethod
    def stat(self, key: str) -> StorageStat | None:
        """Size and recency of one object, or None when absent."""

    @abc.abstractmethod
    def touch(self, key: str, mtime: float | None = None) -> None:
        """Refresh (or pin, when ``mtime`` is given) an object's recency."""

    @abc.abstractmethod
    def rename(self, key: str, new_key: str) -> bool:
        """Atomically move one object; returns False when absent."""

    def sweep_empty(self, prefix: str = "") -> None:
        """Collect empty containers under ``prefix`` (no-op by default).

        Only backends with a physical container concept (directories)
        need this; object stores have nothing to sweep.
        """


class LocalFSBackend(StorageBackend):
    """The default backend: keys are files under a root directory.

    Parameters
    ----------
    root : str or Path
        Directory the keys live under (created on first write).  With the
        store's own root here, every key lands exactly where the pre-seam
        store wrote it — on-disk layout, maintenance CLI and operator
        tooling are unchanged.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def _path(self, key: str) -> Path:
        return self.root / key

    def read_bytes(self, key: str, size: int | None = None) -> bytes:
        """Read a file's bytes; :class:`KeyError` when it does not exist."""
        try:
            with open(self._path(key), "rb") as fh:
                return fh.read(size) if size is not None else fh.read()
        except FileNotFoundError:
            raise KeyError(key) from None

    def write_bytes(self, key: str, data: bytes) -> None:
        """Publish atomically: unique tmp sibling, then ``os.replace``."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + f".tmp-{uuid.uuid4().hex[:8]}")
        try:
            tmp.write_bytes(data)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    def exists(self, key: str) -> bool:
        """Whether the key's file exists."""
        return self._path(key).is_file()

    def delete(self, key: str) -> bool:
        """Unlink the key's file; False when already absent."""
        try:
            self._path(key).unlink()
        except FileNotFoundError:
            return False
        except OSError:
            return False
        return True

    def list_keys(self, prefix: str = "") -> list[str]:
        """Every file key under ``prefix``, as relative POSIX paths."""
        base = self._path(prefix) if prefix else self.root
        if not base.exists():
            return []
        keys = [
            path.relative_to(self.root).as_posix()
            for path in base.rglob("*")
            if path.is_file()
        ]
        return sorted(keys)

    def stat(self, key: str) -> StorageStat | None:
        """mtime + size of the key's file, or None."""
        try:
            stat = self._path(key).stat()
        except OSError:
            return None
        return StorageStat(mtime=stat.st_mtime, size=stat.st_size)

    def touch(self, key: str, mtime: float | None = None) -> None:
        """``os.utime`` the file (best-effort: recency is advisory)."""
        try:
            os.utime(self._path(key), None if mtime is None else (mtime, mtime))
        except OSError:
            pass

    def rename(self, key: str, new_key: str) -> bool:
        """``os.replace`` the file to the new key; False when absent."""
        destination = self._path(new_key)
        destination.parent.mkdir(parents=True, exist_ok=True)
        try:
            os.replace(self._path(key), destination)
        except FileNotFoundError:
            return False
        return True

    def sweep_empty(self, prefix: str = "") -> None:
        """Remove empty directories left behind by deletions."""
        base = self._path(prefix) if prefix else self.root
        if not base.is_dir():
            return
        for directory in sorted(base.rglob("*"), reverse=True):
            if directory.is_dir():
                try:
                    directory.rmdir()  # fails (kept) unless empty
                except OSError:
                    pass

    def __repr__(self) -> str:
        return f"LocalFSBackend(root={str(self.root)!r})"


class DictBackend(StorageBackend):
    """An in-memory object store (thread-safe) for tests and ephemera.

    Objects live in one dictionary as ``key -> (bytes, mtime)``; nothing
    touches the disk, so a store constructed over this backend serves the
    whole result-cache contract (hits, exactly-once writes, LRU
    retention) against pure memory — the shape a remote object-store
    backend will take.
    """

    def __init__(self):
        self._objects: dict[str, tuple[bytes, float]] = {}
        self._lock = threading.Lock()

    def read_bytes(self, key: str, size: int | None = None) -> bytes:
        """The stored bytes; :class:`KeyError` when absent."""
        with self._lock:
            if key not in self._objects:
                raise KeyError(key)
            data = self._objects[key][0]
        return data[:size] if size is not None else data

    def write_bytes(self, key: str, data: bytes) -> None:
        """Store the bytes (a dict assignment is naturally atomic)."""
        with self._lock:
            self._objects[key] = (bytes(data), time.time())

    def exists(self, key: str) -> bool:
        """Whether the key is present."""
        with self._lock:
            return key in self._objects

    def delete(self, key: str) -> bool:
        """Drop the key; False when it was absent."""
        with self._lock:
            return self._objects.pop(key, None) is not None

    def list_keys(self, prefix: str = "") -> list[str]:
        """Every key with the given prefix, sorted."""
        with self._lock:
            return sorted(key for key in self._objects if key.startswith(prefix))

    def stat(self, key: str) -> StorageStat | None:
        """Recency + size of one object, or None."""
        with self._lock:
            entry = self._objects.get(key)
        if entry is None:
            return None
        return StorageStat(mtime=entry[1], size=len(entry[0]))

    def touch(self, key: str, mtime: float | None = None) -> None:
        """Refresh (or pin) the object's recency."""
        with self._lock:
            entry = self._objects.get(key)
            if entry is not None:
                self._objects[key] = (entry[0], time.time() if mtime is None else mtime)

    def rename(self, key: str, new_key: str) -> bool:
        """Move the object under a new key; False when absent."""
        with self._lock:
            entry = self._objects.pop(key, None)
            if entry is None:
                return False
            self._objects[new_key] = entry
        return True

    def __repr__(self) -> str:
        return f"DictBackend({len(self._objects)} object(s))"

