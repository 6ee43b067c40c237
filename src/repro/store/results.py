"""The ``results`` namespace: the spec-fingerprint result cache.

Every concrete spec executed through a
:class:`~repro.session.session.Session` produces an
:class:`~repro.session.results.ExperimentResult` whose provenance pins the
spec fingerprint and the backend-properties fingerprint.  Since all
randomness flows from the spec's own seed, that pair fully determines the
payload — so the result itself is content-addressable::

    <root>/results/v<N>/<spec cache fingerprint>/<properties fingerprint>.json

where ``N`` is :data:`RESULT_FORMAT_VERSION`.

The cached document is exactly ``ExperimentResult.to_json()`` — lossless,
self-describing, and bit-identical on reload (see
:mod:`repro.session.results`).  Entries are plain files under the store
root, so every session, daemon and worker process sharing a root reads and
publishes the same cache.  The namespace guarantees:

* **exactly-once publication** — writers of one key pair serialize on an
  advisory lock and skip (counted in ``write_skips``) when a racing
  session already published the identical content; the one writer
  publishes by tmp file + atomic rename
  (:func:`~repro.store.core.atomic_write_text`);
* **fail-open reads** — a corrupt or truncated entry is counted
  (``corrupt``) and reported as a miss, so the caller transparently falls
  back to a cold run and republishes;
* **exactly-once execution** — concurrently *cold* sessions of one key
  pair coordinate through the key's :meth:`~ResultMixin.inflight_lock`
  (see the lock-or-wait protocol in
  :meth:`repro.session.session.Session._run_spec`): one session executes
  while the rest wait for the publication instead of recomputing;
* **opt-out** — :func:`result_cache_enabled` honours the
  ``REPRO_RESULT_CACHE=0`` environment override (and the
  ``Session(result_cache=False)`` argument), so bit-identity baselines can
  always force a cold run;
* **bounded retention** — every successful read refreshes the entry's
  recency (its file mtime), and :meth:`~ResultMixin._prune_results` evicts
  least-recently-used entries beyond a size or age bound — never touching
  keys whose in-flight lock is held (see
  :meth:`repro.store.core.StoreCore.prune`).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from ..utils.locks import FileLock

__all__ = ["RESULT_FORMAT_VERSION", "ResultMixin", "result_cache_enabled"]

#: Version of the cached result documents, part of the namespace's path.  A
#: change to what a payload holds or how it is computed (version 2: every
#: decay fit by variable projection, with its status and reduced χ²) bumps
#: it, so results of older code are never replayed; spec fingerprints stay.
RESULT_FORMAT_VERSION = 2
#: Directory of the namespace under the store root.
RESULTS_PREFIX = f"results/v{RESULT_FORMAT_VERSION}"

#: Environment variable disabling result/pulse reuse when set to a falsy
#: value (``0``, ``false``, ``off``, ``no`` or empty).
RESULT_CACHE_ENV = "REPRO_RESULT_CACHE"

_FALSY = ("0", "false", "off", "no", "")


def result_cache_enabled(flag: bool | None = None) -> bool:
    """Resolve the result-cache switch from an argument and the environment.

    Parameters
    ----------
    flag : bool, optional
        The ``Session(result_cache=...)`` argument; ``None`` defers to the
        default (enabled).

    Returns
    -------
    bool
        False when either the argument or ``$REPRO_RESULT_CACHE`` disables
        the cache — the environment override always wins, so a cold
        bit-identity baseline can be forced without touching code.
    """
    env = os.environ.get(RESULT_CACHE_ENV)
    env_ok = env is None or env.strip().lower() not in _FALSY
    flag_ok = True if flag is None else bool(flag)
    return env_ok and flag_ok


class ResultMixin:
    """Typed API of the ``results`` namespace (mixed into the store)."""

    def _results_dir(self) -> Path:
        return self.namespace_dir("results")

    def result_path(self, cache_fingerprint: str, properties_fingerprint: str) -> Path:
        """The file one cached result lives in."""
        return self._results_dir() / cache_fingerprint / f"{properties_fingerprint}.json"

    # ------------------------------------------------------------------ #
    # in-flight execution coordination
    # ------------------------------------------------------------------ #
    def _inflight_lock_name(self, cache_fingerprint: str, properties_fingerprint: str) -> str:
        """Lock name of one key pair's *execution* (distinct from the
        publication lock of :meth:`save_result`, so an executor holding
        this lock can still publish without self-deadlocking)."""
        return f"inflight-{cache_fingerprint[:16]}-{properties_fingerprint[:16]}"

    def inflight_lock(self, cache_fingerprint: str, properties_fingerprint: str) -> FileLock:
        """The cross-process in-flight execution lock of one result key.

        The lock-or-wait protocol behind exactly-once *execution* (ROADMAP
        open item closed by the service PR): a cold session holds this
        lock while it executes and publishes the key; racing cold sessions
        fail the non-blocking acquire and instead poll the ``results``
        namespace until the publication lands (or the lock frees, which
        means the executor crashed and the waiter takes over).  The lock
        is advisory and scoped to the store root, so it coordinates
        sessions in one process, across processes, and across the service
        daemon's worker pool alike.

        Parameters
        ----------
        cache_fingerprint, properties_fingerprint : str
            The result-cache key pair (see :meth:`result_path`).

        Returns
        -------
        FileLock
            A fresh lock instance (one per acquire scope; not shared
            between threads).
        """
        return self._lock(
            self._inflight_lock_name(cache_fingerprint, properties_fingerprint)
        )

    def result_inflight(self, cache_fingerprint: str, properties_fingerprint: str) -> bool:
        """Whether some session currently executes this key (racy snapshot).

        A non-blocking probe of :meth:`inflight_lock` — used by the GC to
        skip entries that are being computed or actively consumed, and by
        service observability.  ``True`` means "in use right now"; it is
        advice, not exclusion.
        """
        return self.inflight_lock(cache_fingerprint, properties_fingerprint).probe()

    def has_result(self, cache_fingerprint: str, properties_fingerprint: str) -> bool:
        """Whether a cached result appears to exist (no counters touched).

        Used by the cache-aware planner to drop preparation steps, so it
        is deliberately cheap: only a small prefix of the document is read
        and probed for the format marker, not the full (potentially large)
        payload.  A truncated entry may therefore be reported present —
        harmlessly: the run-time :meth:`load_result` detects the
        corruption, falls back to a cold run that builds its own
        preparation, and the re-publication repairs the entry.
        """
        try:
            with self.result_path(cache_fingerprint, properties_fingerprint).open("rb") as fh:
                head = fh.read(512)
        except OSError:
            return False
        return head.lstrip().startswith(b"{") and b'"format"' in head

    def has_valid_result(self, cache_fingerprint: str, properties_fingerprint: str) -> bool:
        """Full-document validity check (no counters touched).

        Unlike the prefix-probing :meth:`has_result`, this parses the whole
        entry, so a truncated or corrupt file is reported absent.  Used by
        the exactly-once writer (:meth:`save_result`) and by the session's
        under-lock re-check in the in-flight dedup protocol — both places
        where acting on a half-valid entry would be wrong and where the
        miss/corrupt counters must stay untouched.
        """
        path = self.result_path(cache_fingerprint, properties_fingerprint)
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            return False
        return isinstance(document, dict) and "format" in document

    def load_result(self, cache_fingerprint: str, properties_fingerprint: str):
        """The cached :class:`ExperimentResult` of a key pair, or None.

        Counts a ``hits`` on success and a ``misses`` otherwise; an entry
        that exists but cannot be parsed additionally counts ``corrupt``
        and behaves exactly like a miss (the caller re-runs and the
        re-publication overwrites the broken file).

        A successful read also refreshes the entry's recency (its file
        mtime, best-effort): the mtime is the LRU ordering key of
        :meth:`_prune_results`, so a size-bounded store evicts the entries
        nobody replays, never the hot ones.
        """
        from ..session.results import ExperimentResult
        from ..utils.validation import ValidationError

        path = self.result_path(cache_fingerprint, properties_fingerprint)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            self._bump("results", "misses")
            return None
        except (OSError, UnicodeDecodeError):
            # present but unreadable — an I/O fault or mangled bytes;
            # fail open as a corrupt miss so the caller re-runs
            self._bump("results", "corrupt")
            self._bump("results", "misses")
            return None
        try:
            result = ExperimentResult.from_json(text)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError, ValidationError):
            self._bump("results", "corrupt")
            self._bump("results", "misses")
            return None
        try:
            os.utime(path)  # refresh LRU recency (see _prune_results)
        except OSError:
            pass  # best-effort: recency is advisory
        self._bump("results", "hits")
        return result

    def save_result(
        self, result, cache_fingerprint: str, properties_fingerprint: str
    ) -> bool:
        """Publish one result exactly once; returns True when written.

        Racing sessions executing the same spec serialize on the key's
        advisory lock: the first writer publishes atomically (tmp file +
        rename), later ones observe the valid entry and skip
        (``write_skips``) — the write counters are how tests prove
        exactly-once publication.  A writer that finds a *corrupt* entry
        under the lock replaces it.  An I/O fault (:class:`OSError`)
        propagates: publication must fail loudly, never half-succeed.
        """
        from .core import atomic_write_text  # core imports this module

        text = result.to_json()
        key = f"{cache_fingerprint}/{properties_fingerprint}"
        with self._lock(self._entry_lock_name("results", key)):
            if self.has_valid_result(cache_fingerprint, properties_fingerprint):
                self._bump("results", "write_skips")
                return False
            path = self.result_path(cache_fingerprint, properties_fingerprint)
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_text(path, text + "\n")
            self._bump("results", "writes")
        return True

    def quarantine_result(
        self, cache_fingerprint: str, properties_fingerprint: str
    ) -> Path | None:
        """Move a mismatched entry aside (marked corrupt, counted).

        Shadow verification's mismatch handler: the entry is renamed to a
        ``.quarantined`` sibling — no longer matching the namespace's
        entry glob, so it is invisible to ``ls``/``prune``/``load_result``
        but preserved on disk as evidence for the post-mortem — and the
        ``quarantined`` counter is bumped.  The rename happens under the
        entry's writer lock, so it serializes with a racing
        :meth:`save_result`; the caller (see
        :meth:`repro.session.session.Session`) then re-executes and
        republishes, repairing the key.

        Returns
        -------
        Path or None
            The quarantine file, or None when the entry did not exist.
        """
        path = self.result_path(cache_fingerprint, properties_fingerprint)
        quarantined = path.with_name(path.name + ".quarantined")
        key = f"{cache_fingerprint}/{properties_fingerprint}"
        with self._lock(self._entry_lock_name("results", key)):
            try:
                os.replace(path, quarantined)
            except FileNotFoundError:
                return None
            self._bump("results", "quarantined")
        return quarantined

    # ------------------------------------------------------------------ #
    # garbage collection (size/age-bounded LRU eviction)
    # ------------------------------------------------------------------ #
    def _prune_results(
        self,
        max_bytes: int | None = None,
        max_age: float | None = None,
        lock_timeout: float = 1.0,
    ) -> int:
        """Evict cached results beyond a size or age bound; return the count.

        The long-running-service GC policy (ROADMAP open item closed by
        the service PR).  Entries are ordered **least-recently-used
        first** by their file mtime — refreshed on every cache hit by
        :meth:`load_result` — and evicted until both bounds hold:

        * ``max_age`` — entries not read or written for more than this
          many seconds are evicted regardless of the size bound;
        * ``max_bytes`` — while the namespace's total entry bytes exceed
          the bound, the least-recently-used entry is evicted.

        Two classes of entry are never evicted:

        * **in-flight keys** — an entry whose
          :meth:`inflight_lock` probes held is being computed or actively
          consumed right now; it is skipped this sweep (the next sweep
          reconsiders it);
        * **busy keys** — eviction takes the entry's *writer* lock (the
          same lock :meth:`save_result` publishes under), so it can never
          yank a file mid-publication; a writer busy past ``lock_timeout``
          seconds is skipped, not waited for.

        A bounded sweep also deletes every result an older format wrote
        outside :data:`RESULTS_PREFIX` (e.g. ``results/<spec>/<props>.json``
        or ``results/v1/...``), and counts it: such an entry is never
        replayed, so no bound keeps it.

        Both bounds ``None`` make this a no-op, which keeps the default
        :meth:`~repro.store.core.StoreCore.prune` behaviour unchanged:
        cached results are only removed when a retention policy is asked
        for explicitly (CLI flags, daemon sweep).
        """
        if max_bytes is None and max_age is None:
            return 0
        namespace_root = self.root / "results"
        current = self._results_dir()
        try:
            # quarantined evidence and tmp litter do not end in .json
            files = sorted(namespace_root.rglob("*.json"))
        except OSError:
            return 0  # I/O hiccup: skip this sweep, the next retries
        entries: list[tuple[float, int, str]] = []
        stale = 0
        for path in files:
            if not path.is_relative_to(current):
                # an older format's result, which is never replayed
                try:
                    path.unlink()
                    stale += 1
                except OSError:
                    pass
                continue
            parts = path.relative_to(current).parts
            if len(parts) != 2:
                continue
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, f"{parts[0]}/{path.stem}"))
        entries.sort()  # least-recently-used first
        now = time.time()
        total = sum(size for _, size, _ in entries)
        evicted = 0
        for mtime, size, entry_key in entries:
            expired = max_age is not None and (now - mtime) > max_age
            oversize = max_bytes is not None and total > max_bytes
            if not (expired or oversize):
                # LRU order: every later entry is younger (not expired
                # either) and the size bound already holds — done.
                break
            if self._evict_result(entry_key, snapshot_mtime=mtime, lock_timeout=lock_timeout):
                total -= size
                evicted += 1
        for directory in sorted(namespace_root.rglob("*"), reverse=True):
            if directory.is_dir():
                try:
                    directory.rmdir()  # fails (kept) unless empty
                except OSError:
                    pass
        return stale + evicted

    def _evict_result(
        self,
        key: str,
        snapshot_mtime: float | None = None,
        lock_timeout: float = 1.0,
    ) -> bool:
        """Evict one entry unless it is in flight, being written, or hot.

        ``key`` is the entry key (``<spec fp>/<properties fp>``).
        ``snapshot_mtime`` is the recency the sweep *decided* on; the
        entry is re-stat'ed under the writer lock and spared when a cache
        hit refreshed it in the meantime (the sweep scan and the eviction
        can be seconds apart behind busy-writer waits) — "never the hot
        ones" holds even against mid-sweep replays.
        """
        spec, _, props = key.partition("/")
        if self.result_inflight(spec, props):
            return False
        path = self.result_path(spec, props)
        writer = self._lock(self._entry_lock_name("results", key))
        try:
            with writer.acquired(timeout=lock_timeout):
                mtime = path.stat().st_mtime  # already gone: OSError
                if snapshot_mtime is not None and mtime > snapshot_mtime:
                    return False  # touched since the sweep decided: hot
                path.unlink()
        except (TimeoutError, OSError):
            return False
        self._bump("results", "evictions")
        return True
