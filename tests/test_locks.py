"""Tests for the cross-process advisory file lock and the hardened store.

Covers the :class:`repro.utils.locks.FileLock` primitive itself
(acquire/release semantics, context manager, non-reentrancy) and its two
consumers in :mod:`repro.store`: racing channel-table writers
merge into one consistent generation instead of last-writer-wins
overwrites, and redundant saves are skipped entirely (observable through
the store's write counters).
"""

import json
import multiprocessing
import sys
import time

import numpy as np
import pytest

from repro.store import ArtifactStore
from repro.utils.locks import FileLock

fork_only = pytest.mark.skipif(
    sys.platform.startswith("win") or "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)

#: Start methods to stress the lock under — fork children inherit open
#: descriptors (the subtle case for flock), spawn children re-open
#: everything from scratch (the portable case).
_STRESS_START_METHODS = [
    method
    for method in ("fork", "spawn")
    if method in multiprocessing.get_all_start_methods()
]


class TestFileLock:
    def test_acquire_release_cycle(self, tmp_path):
        lock = FileLock(tmp_path / "a.lock")
        assert not lock.held
        lock.acquire()
        assert lock.held
        lock.release()
        assert not lock.held
        # releasing again is a no-op
        lock.release()

    def test_context_manager(self, tmp_path):
        lock = FileLock(tmp_path / "a.lock")
        with lock as held:
            assert held is lock
            assert lock.held
        assert not lock.held

    def test_creates_parent_directories(self, tmp_path):
        lock = FileLock(tmp_path / "deep" / "nested" / "a.lock")
        with lock:
            assert lock.path.exists()

    def test_not_reentrant(self, tmp_path):
        lock = FileLock(tmp_path / "a.lock")
        with lock:
            with pytest.raises(RuntimeError):
                lock.acquire()

    def test_two_instances_same_path_serialize_in_process(self, tmp_path):
        # flock is per open file description: a second instance must block,
        # so verify it acquires cleanly once the first releases
        path = tmp_path / "a.lock"
        first = FileLock(path).acquire()
        first.release()
        with FileLock(path):
            pass

    def test_timed_acquire_uncontended(self, tmp_path):
        lock = FileLock(tmp_path / "a.lock")
        with lock.acquired(timeout=5.0):
            assert lock.held
        assert not lock.held

    def test_timed_acquire_times_out_while_held(self, tmp_path):
        """A second open file description cannot acquire within the timeout.

        flock exclusion is per open file description, so two FileLock
        instances on the same path contend even within one process.
        """
        path = tmp_path / "a.lock"
        holder = FileLock(path).acquire()
        try:
            contender = FileLock(path)
            with pytest.raises(TimeoutError):
                contender.acquire(timeout=0.2)
            assert not contender.held
        finally:
            holder.release()
        # once released, the timed path succeeds immediately
        with FileLock(path).acquired(timeout=0.2):
            pass

    def test_nested_with_fails_loudly(self, tmp_path):
        """Entering a held lock raises instead of silently early-releasing."""
        lock = FileLock(tmp_path / "a.lock")
        with lock:
            with pytest.raises(RuntimeError):
                with lock:
                    pass
            assert lock.held  # the failed inner enter did not release

    def test_zero_timeout_is_single_attempt(self, tmp_path):
        path = tmp_path / "a.lock"
        holder = FileLock(path).acquire()
        try:
            with pytest.raises(TimeoutError):
                FileLock(path).acquire(timeout=0)
        finally:
            holder.release()

    def test_timed_acquire_fails_promptly_under_contention(self, tmp_path):
        """``acquire(timeout=)`` overshoots by at most the poll interval.

        Regression guard: the timed path polls non-blockingly, so a held
        lock must produce :class:`TimeoutError` very close to the deadline
        — not after some multiple of it (e.g. a blocking flock sneaking
        back in, or a sleep longer than the remaining budget).
        """
        path = tmp_path / "a.lock"
        holder = FileLock(path).acquire()
        try:
            contender = FileLock(path)
            start = time.monotonic()
            with pytest.raises(TimeoutError):
                contender.acquire(timeout=0.3)
            elapsed = time.monotonic() - start
            assert not contender.held
            # generous upper bound (scheduler noise), but far below 2x
            # the timeout plus slop — catches any non-prompt regression
            assert elapsed < 0.3 + 10 * FileLock._POLL_INTERVAL
        finally:
            holder.release()


def _locked_increment_worker(path, lock_path, iterations):
    """Read-modify-write a counter file under the lock (racy without it)."""
    for _ in range(iterations):
        with FileLock(lock_path):
            value = int(path.read_text())
            path.write_text(str(value + 1))


@fork_only
class TestCrossProcessExclusion:
    def test_counter_survives_two_racing_processes(self, tmp_path):
        counter = tmp_path / "counter.txt"
        counter.write_text("0")
        lock_path = tmp_path / "counter.lock"
        ctx = multiprocessing.get_context("fork")
        iterations = 60
        workers = [
            ctx.Process(target=_locked_increment_worker, args=(counter, lock_path, iterations))
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert worker.exitcode == 0
        # without mutual exclusion the read-modify-write loses updates
        assert int(counter.read_text()) == 2 * iterations


def _stress_round_worker(counter_path, lock_path, rounds):
    """Hammer one shared counter: ``rounds`` timed acquire/release cycles.

    Each round is a full lock lifecycle (fresh instance, timed acquire,
    read-modify-write, release) so the stress covers acquisition churn,
    not just one long hold.  Lost updates mean broken mutual exclusion.
    """
    for _ in range(rounds):
        with FileLock(lock_path).acquired(timeout=120.0):
            value = int(counter_path.read_text())
            counter_path.write_text(str(value + 1))


@pytest.mark.parametrize("start_method", _STRESS_START_METHODS)
class TestFileLockStress:
    """N processes x M acquire/release rounds, under fork AND spawn."""

    def test_no_lost_updates_under_churn(self, tmp_path, start_method):
        counter = tmp_path / "counter.txt"
        counter.write_text("0")
        lock_path = tmp_path / "counter.lock"
        ctx = multiprocessing.get_context(start_method)
        n_processes, rounds = 4, 12
        workers = [
            ctx.Process(
                target=_stress_round_worker, args=(counter, lock_path, rounds)
            )
            for _ in range(n_processes)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
            assert worker.exitcode == 0
        assert int(counter.read_text()) == n_processes * rounds


def _store_writer_worker(root, key, start, stop):
    """Persist a slice of synthetic channels under one key."""
    store = ArtifactStore(root)
    channels = {
        i: np.full((4, 4), i + 1, dtype=complex) for i in range(start, stop)
    }
    store.save_channel_table(key, channels)


@fork_only
class TestConcurrentStoreWriters:
    def test_racing_writers_merge_to_union(self, tmp_path):
        """Two processes writing overlapping slices end with the union."""
        root = tmp_path / "store"
        key = "k" * 64
        ctx = multiprocessing.get_context("fork")
        workers = [
            ctx.Process(target=_store_writer_worker, args=(root, key, 0, 12)),
            ctx.Process(target=_store_writer_worker, args=(root, key, 8, 20)),
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert worker.exitcode == 0
        store = ArtifactStore(root)
        loaded = store.load_channel_table(key)
        assert loaded is not None
        ids, channels = loaded
        assert list(ids) == list(range(20))
        for pos, element in enumerate(ids):
            assert np.array_equal(channels[pos], np.full((4, 4), int(element) + 1))
        # the manifest names a generation holding the full union
        manifest = store.manifest(key)
        assert manifest["n_entries"] == 20


class TestWriteCounters:
    def test_redundant_save_is_skipped(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        key = "a" * 64
        channels = {0: np.eye(4, dtype=complex), 3: np.ones((4, 4), dtype=complex)}
        tables = store.namespace_stats("channel_tables")
        store.save_channel_table(key, channels)
        assert tables["writes"] == 1
        assert tables["elements_written"] == 2
        assert tables["write_skips"] == 0
        # identical content again: no new generation, counted as a skip
        store.save_channel_table(key, channels)
        assert tables["writes"] == 1
        assert tables["write_skips"] == 1
        # a strict subset is also fully covered -> still skipped
        store.save_channel_table(key, {0: channels[0]})
        assert tables["writes"] == 1
        assert tables["write_skips"] == 2
        # genuinely new elements produce exactly one more generation
        store.save_channel_table(key, {7: np.zeros((4, 4), dtype=complex)})
        assert store.stats["channel_tables"]["writes"] == 2
        assert store.stats["channel_tables"]["elements_written"] == 3
        ids, _ = store.load_channel_table(key)
        assert list(ids) == [0, 3, 7]

    def test_group_write_counted_once(self, tmp_path):
        from repro.benchmarking.clifford import clifford_group

        store = ArtifactStore(tmp_path / "store")
        group = clifford_group(1)
        assert store.ensure_group_saved(group) is True
        assert store.ensure_group_saved(group) is False
        assert store.stats["groups"]["writes"] == 1

    def test_manifest_metadata_survives_merge(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        key = "b" * 64
        store.save_channel_table(key, {1: np.eye(4, dtype=complex)}, metadata={"backend": "m"})
        manifest_path = store._manifest_path(key)
        manifest = json.loads(manifest_path.read_text())
        assert manifest["metadata"] == {"backend": "m"}
