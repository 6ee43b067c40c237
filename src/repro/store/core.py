"""Core mechanics of the content-addressed artifact store.

Every persistent artifact of the system — Clifford channel tables, group
enumerations, optimized GRAPE pulses, experiment results — goes through the
same small set of on-disk mechanics defined here:

* **Namespaces** (:class:`StoreNamespace`): each artifact kind owns one
  subdirectory of the store root and one set of observational counters.
* **Atomic publication**: payload files are written under unique temporary
  names and published by an atomic ``os.replace``; entries are either fully
  present or absent, never truncated.
* **Manifest generations**: manifested namespaces (channel tables, pulses)
  publish a small ``<key>.json`` manifest whose ``*_file`` fields name the
  current payload generation.  Superseded generations are left in place for
  concurrent readers and collected by :meth:`StoreCore.prune`.
* **Cross-process locking**: writers of one key serialize on an advisory
  :class:`~repro.utils.locks.FileLock` under ``<root>/locks/``; readers
  never take a lock (atomic renames are their consistency protocol).
* **Counters**: every namespace counts ``writes`` / ``write_skips`` /
  ``hits`` / ``misses`` (and kind-specific extras) per store instance, so
  tests and benchmarks can prove exactly-once publication and zero-work
  warm paths.

The typed APIs of each namespace live in the sibling modules
(:mod:`~repro.store.channels`, :mod:`~repro.store.groups`,
:mod:`~repro.store.pulses`, :mod:`~repro.store.results`) and are composed
into :class:`~repro.store.ArtifactStore`.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path

from .results import RESULTS_PREFIX
from ..utils.locks import FileLock

__all__ = [
    "NAMESPACES",
    "StoreNamespace",
    "StoreCore",
    "default_store_root",
    "atomic_write",
    "atomic_save_array",
    "atomic_write_text",
]


def default_store_root() -> Path:
    """Default on-disk location of the persistent store.

    ``$REPRO_STORE_DIR`` when set, else ``$XDG_CACHE_HOME/repro/store``,
    else ``~/.cache/repro/store``.
    """
    env = os.environ.get("REPRO_STORE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "store"


def atomic_write(path: Path, writer) -> None:
    """Publish a file atomically: ``writer(binary_fh)`` to a tmp, then rename."""
    tmp = path.with_name(path.name + f".tmp-{uuid.uuid4().hex[:8]}")
    try:
        with open(tmp, "wb") as fh:
            writer(fh)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def atomic_save_array(path: Path, array) -> None:
    """Write an ``.npy`` file atomically (tmp file + rename)."""
    import numpy as np

    atomic_write(path, lambda fh: np.save(fh, array))


def atomic_write_text(path: Path, text: str) -> None:
    """Write a text file atomically (tmp file + rename)."""
    atomic_write(path, lambda fh: fh.write(text.encode()))


@dataclass(frozen=True)
class StoreNamespace:
    """Static description of one artifact namespace.

    Attributes
    ----------
    name : str
        Logical namespace name (``channel_tables``, ``groups``, ``pulses``,
        ``results``).
    directory : str
        Subdirectory of the store root holding the namespace's files.
    entry_glob : str
        Glob (relative to the namespace directory) matching the *identity*
        file of every entry — the manifest for manifested namespaces, the
        single payload file otherwise.
    generation_glob : str or None
        Glob matching payload-generation files subject to :meth:`prune`
        (``None`` for namespaces without superseded generations).
    nested : bool
        Whether keys contain a ``/`` (entries live one directory deeper,
        as in ``results/v<N>/<spec>/<properties>.json``).
    counters : tuple of str
        Counter names pre-seeded to zero in :attr:`StoreCore.stats`.
    """

    name: str
    directory: str
    entry_glob: str
    generation_glob: str | None
    nested: bool
    counters: tuple[str, ...]


#: The four typed namespaces of the artifact store, in display order.
NAMESPACES: tuple[StoreNamespace, ...] = (
    StoreNamespace(
        name="channel_tables",
        directory="channels",
        entry_glob="*.json",
        generation_glob="*.npy",
        nested=False,
        counters=("writes", "write_skips", "elements_written", "hits", "misses"),
    ),
    StoreNamespace(
        name="groups",
        directory="groups",
        entry_glob="*.npz",
        generation_glob=None,
        nested=False,
        counters=("writes", "hits", "misses"),
    ),
    StoreNamespace(
        name="pulses",
        directory="pulses",
        entry_glob="*.json",
        generation_glob="*.npz",
        nested=False,
        counters=("writes", "write_skips", "hits", "misses", "corrupt"),
    ),
    StoreNamespace(
        name="results",
        directory=RESULTS_PREFIX,
        entry_glob="*/*.json",
        generation_glob=None,
        nested=True,
        counters=(
            "writes", "write_skips", "hits", "misses", "corrupt",
            "evictions", "quarantined",
        ),
    ),
)


class StoreCore:
    """Root, locks, counters and maintenance shared by every namespace.

    Parameters
    ----------
    root : str or Path
        Directory holding the store (created on first write).  Layout::

            <root>/channels/<key>.json               channel-table manifests
            <root>/channels/<key>-<n>-<tok>.*.npy    channel array generations
            <root>/groups/clifford_<n>q_v<V>.npz     group enumerations
            <root>/pulses/<key>.json                 pulse manifests
            <root>/pulses/<key>-<tok>.npz            pulse array generations
            <root>/results/v<N>/<spec>/<props>.json  cached experiment results
            <root>/locks/<name>.lock                 advisory writer locks

        Every namespace, results included, reads and writes these files
        directly, so the maintenance surface (:meth:`ls`,
        :meth:`disk_stats`, :meth:`rm`, :meth:`prune`) sees every entry.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._stats_lock = threading.Lock()
        self._counters: dict[str, dict[str, int]] = {
            ns.name: {counter: 0 for counter in ns.counters} for ns in NAMESPACES
        }

    def __repr__(self) -> str:
        return f"{type(self).__name__}(root={str(self.root)!r})"

    # ------------------------------------------------------------------ #
    # namespaces and counters
    # ------------------------------------------------------------------ #
    @staticmethod
    def namespaces() -> tuple[StoreNamespace, ...]:
        """The namespace descriptors of the store (static)."""
        return NAMESPACES

    def namespace(self, name: str) -> StoreNamespace:
        """The descriptor of one namespace by logical name."""
        for ns in NAMESPACES:
            if ns.name == name:
                return ns
        raise KeyError(f"unknown store namespace {name!r}; known: {[n.name for n in NAMESPACES]}")

    def namespace_dir(self, name: str) -> Path:
        """The on-disk directory of one namespace."""
        return self.root / self.namespace(name).directory

    def namespace_stats(self, name: str) -> dict[str, int]:
        """The live counter dictionary of one namespace (per instance)."""
        return self._counters[self.namespace(name).name]

    def _bump(self, namespace: str, counter: str, n: int = 1) -> None:
        """Increment one namespace counter (thread-safe)."""
        with self._stats_lock:
            counters = self._counters[namespace]
            counters[counter] = counters.get(counter, 0) + n

    @property
    def stats(self) -> dict[str, dict[str, int]]:
        """Per-namespace observational counters (a read-only snapshot)."""
        with self._stats_lock:
            return {name: dict(counters) for name, counters in self._counters.items()}

    # ------------------------------------------------------------------ #
    # locks
    # ------------------------------------------------------------------ #
    def _lock(self, name: str) -> FileLock:
        """Advisory cross-process lock scoped to one store resource.

        Lock names derived from nested keys flatten their separators, so
        every resource maps to a single flat file under ``<root>/locks/``.
        """
        safe = name.replace("/", "-").replace("\\", "-")
        return FileLock(self.root / "locks" / f"{safe}.lock")

    def _entry_lock_name(self, namespace: str, entry_key: str) -> str:
        """Canonical writer-lock name of one entry.

        This is the **single source** of per-entry lock naming: every
        namespace's writers and the maintenance ``rm`` derive their lock
        from here, so deletion genuinely serializes with publication.
        """
        if namespace == "pulses":
            return f"pulse-{entry_key}"
        if namespace == "results":
            spec, _, props = entry_key.partition("/")
            return f"result-{spec[:16]}-{props[:16]}"
        # channel tables lock on the content key, groups on the file stem —
        # both of which are exactly the entry key
        return entry_key

    # ------------------------------------------------------------------ #
    # generic entry enumeration (ls / stats / rm)
    # ------------------------------------------------------------------ #
    def _entry_key(self, ns: StoreNamespace, path: Path) -> str:
        """The entry key encoded by an identity file's path."""
        if ns.nested:
            return f"{path.parent.name}/{path.stem}"
        return path.stem

    def _entry_files(self, ns: StoreNamespace, path: Path) -> list[Path]:
        """Identity file plus every payload file its manifest references."""
        files = [path]
        if ns.generation_glob is None or path.suffix != ".json":
            return files
        try:
            manifest = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return files
        for field_name, value in manifest.items():
            if field_name.endswith("_file") and isinstance(value, str):
                candidate = path.parent / value
                if candidate.exists():
                    files.append(candidate)
        return files

    def ls(self, namespace: str | None = None) -> list[dict]:
        """Enumerate store entries (for the CLI and maintenance tooling).

        Parameters
        ----------
        namespace : str, optional
            Restrict the listing to one namespace.

        Returns
        -------
        list of dict
            One entry per artifact: ``namespace``, ``key``, ``files``
            (count, manifest included), ``bytes`` (manifest + current
            payload generation) and ``age_s`` (seconds since the identity
            file was last published).
        """
        selected = [self.namespace(namespace)] if namespace else list(NAMESPACES)
        now = time.time()
        entries: list[dict] = []
        for ns in selected:
            directory = self.root / ns.directory
            if not directory.exists():
                continue
            for path in sorted(directory.glob(ns.entry_glob)):
                files = self._entry_files(ns, path)
                try:
                    size = sum(f.stat().st_size for f in files)
                    age = now - path.stat().st_mtime
                except OSError:
                    continue
                entries.append(
                    {
                        "namespace": ns.name,
                        "key": self._entry_key(ns, path),
                        "files": len(files),
                        "bytes": size,
                        "age_s": age,
                    }
                )
        return entries

    def disk_stats(self) -> dict[str, dict[str, int]]:
        """Per-namespace on-disk footprint: entries, files and bytes.

        Unlike :attr:`stats` (per-instance write/hit counters), this walks
        the store directory and reports what is durably there — including
        superseded generations still awaiting :meth:`prune`.
        """
        out: dict[str, dict[str, int]] = {}
        for ns in NAMESPACES:
            directory = self.root / ns.directory
            entries = files = total = 0
            if directory.exists():
                entries = sum(1 for _ in directory.glob(ns.entry_glob))
                for path in directory.rglob("*"):
                    if path.is_file():
                        files += 1
                        try:
                            total += path.stat().st_size
                        except OSError:
                            continue
            out[ns.name] = {"entries": entries, "files": files, "bytes": total}
        return out

    def rm(
        self, key: str, namespace: str | None = None, lock_timeout: float = 10.0
    ) -> list[Path]:
        """Remove one entry (identity file plus referenced payload files).

        Parameters
        ----------
        key : str
            Entry key as reported by :meth:`ls` — for results either the
            full ``<spec>/<properties>`` pair or the bare spec fingerprint
            (removing every snapshot of that spec).
        namespace : str, optional
            Restrict the search to one namespace.
        lock_timeout : float
            Seconds to wait for each entry's writer lock before raising
            :class:`TimeoutError` (fail fast instead of hanging behind a
            busy writer).

        Returns
        -------
        list of Path
            The files actually removed (empty when the key was not found).
        """
        selected = [self.namespace(namespace)] if namespace else list(NAMESPACES)
        removed: list[Path] = []
        for ns in selected:
            directory = self.root / ns.directory
            if not directory.exists():
                continue
            for path in list(directory.glob(ns.entry_glob)):
                entry_key = self._entry_key(ns, path)
                matches = entry_key == key or (ns.nested and entry_key.split("/", 1)[0] == key)
                if not matches:
                    continue
                # take the entry's *writer* lock so a publication in
                # flight completes before its files are yanked; fail fast
                # (TimeoutError) instead of hanging behind a busy writer
                with self._lock(
                    self._entry_lock_name(ns.name, entry_key)
                ).acquired(timeout=lock_timeout):
                    for file in self._entry_files(ns, path):
                        file.unlink(missing_ok=True)
                        removed.append(file)
            if ns.nested:
                for subdir in directory.glob("*"):
                    if subdir.is_dir() and not any(subdir.iterdir()):
                        subdir.rmdir()
        return removed

    # ------------------------------------------------------------------ #
    # garbage collection
    # ------------------------------------------------------------------ #
    def prune(
        self,
        grace_seconds: float = 60.0,
        results_max_bytes: int | None = None,
        results_max_age: float | None = None,
    ) -> int:
        """The store's one GC sweep; returns the number of files removed.

        Two policies run in one call:

        * **Unreferenced generations** (always): payload generations no
          manifest references are deleted after ``grace_seconds``.
          Superseded generations are left behind by merges so that
          concurrent readers never lose the file under their memory map;
          run this occasionally (or never — generations are only produced
          when new payloads are materialized).  This covers every
          manifested namespace (channel tables and pulses); groups publish
          single self-identifying files and never leave garbage behind.
        * **Result retention** (only when a bound is given): cached
          results beyond ``results_max_bytes`` or ``results_max_age`` are
          evicted least-recently-used first — see
          :meth:`~repro.store.results.ResultMixin._prune_results` for the
          exact policy, including the in-flight and busy-writer
          protections.  With both bounds ``None`` (the default) cached
          results are never removed implicitly, exactly as before.

        Parameters
        ----------
        grace_seconds : float
            Unreferenced files younger than this are kept: a concurrent
            writer publishes its payload files *before* the manifest, so a
            freshly written generation is briefly unreferenced by design.
        results_max_bytes : int, optional
            Size bound (bytes) on the ``results`` namespace's entries.
        results_max_age : float, optional
            Age bound (seconds since last read or write) on cached
            results.
        """
        removed = 0
        prune_results = getattr(self, "_prune_results", None)
        if prune_results is not None:
            removed += prune_results(max_bytes=results_max_bytes, max_age=results_max_age)
        cutoff = time.time() - grace_seconds
        for ns in NAMESPACES:
            if ns.generation_glob is None:
                continue
            directory = self.root / ns.directory
            if not directory.exists():
                continue
            live: set[str] = set()
            for manifest_path in directory.glob("*.json"):
                try:
                    manifest = json.loads(manifest_path.read_text())
                except (OSError, json.JSONDecodeError):
                    continue
                for field_name, value in manifest.items():
                    if field_name.endswith("_file") and isinstance(value, str):
                        live.add(value)
            for payload in directory.glob(ns.generation_glob):
                if payload.name in live:
                    continue
                try:
                    if payload.stat().st_mtime > cutoff:
                        continue
                except OSError:
                    continue
                payload.unlink(missing_ok=True)
                removed += 1
        return removed
