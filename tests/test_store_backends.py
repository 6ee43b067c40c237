"""Tests for the pluggable byte-level storage backends of the store.

Three layers of coverage:

* the :class:`~repro.store.StorageBackend` **contract** — one parametrized
  suite every in-tree backend must pass (atomic publish, KeyError on
  absence, prefix listing, recency, rename);
* a full **store round trip over** :class:`~repro.store.DictBackend` —
  the results namespace (save/load/hit/exactly-once/LRU retention) works
  against pure memory, proving the seam really carries the cache and the
  filesystem was only ever one backend among others;
* :class:`~harness.flaky_backend.FlakyBackend` **fault injection** — reads fail
  open (a storage hiccup is a cache miss, never an exception), writes
  fail loudly (publication errors propagate), and the armed-budget
  bookkeeping tests rely on is exact.
"""

from __future__ import annotations

import time

import pytest

from harness.flaky_backend import FlakyBackend
from repro.session import RBSpec, Session
from repro.session.results import ExperimentResult
from repro.store import (
    ArtifactStore,
    DictBackend,
    LocalFSBackend,
    StorageStat,
)

#: Small-but-real RB workload (sub-second) for end-to-end round trips.
FAST_RB = dict(device="montreal", qubits=(0,), lengths=(1, 4, 8), n_seeds=1, shots=100, seed=5)


def _result_for(spec_dict: dict, payload_value: float = 1.0) -> ExperimentResult:
    """A tiny synthetic result document for retention tests."""
    return ExperimentResult(
        kind=spec_dict["kind"],
        spec=spec_dict,
        payload={"value": payload_value},
        provenance={"spec_fingerprint": "s" * 64, "properties_fingerprint": "p" * 64},
    )


@pytest.fixture(params=["localfs", "dict"])
def backend(request, tmp_path):
    if request.param == "localfs":
        return LocalFSBackend(tmp_path / "objects")
    return DictBackend()


class TestBackendContract:
    """The behavioural contract every StorageBackend must satisfy."""

    def test_write_read_round_trip(self, backend):
        backend.write_bytes("results/a/b.json", b"payload")
        assert backend.read_bytes("results/a/b.json") == b"payload"
        assert backend.exists("results/a/b.json")

    def test_prefix_read(self, backend):
        backend.write_bytes("k", b"0123456789")
        assert backend.read_bytes("k", size=4) == b"0123"

    def test_absent_key_raises_keyerror(self, backend):
        with pytest.raises(KeyError):
            backend.read_bytes("nope")
        assert not backend.exists("nope")
        assert backend.stat("nope") is None

    def test_overwrite_replaces_atomically(self, backend):
        backend.write_bytes("k", b"old")
        backend.write_bytes("k", b"new and longer")
        assert backend.read_bytes("k") == b"new and longer"

    def test_delete(self, backend):
        backend.write_bytes("k", b"x")
        assert backend.delete("k") is True
        assert backend.delete("k") is False
        assert not backend.exists("k")

    def test_list_keys_sorted_and_prefix_filtered(self, backend):
        for key in ("results/b/2.json", "results/a/1.json", "groups/g.npz"):
            backend.write_bytes(key, b"x")
        assert backend.list_keys("results/") == [
            "results/a/1.json",
            "results/b/2.json",
        ]
        assert backend.list_keys() == sorted(
            ["groups/g.npz", "results/a/1.json", "results/b/2.json"]
        )

    def test_stat_and_touch(self, backend):
        backend.write_bytes("k", b"12345")
        stat = backend.stat("k")
        assert isinstance(stat, StorageStat) and stat.size == 5
        past = time.time() - 3600.0
        backend.touch("k", mtime=past)
        assert backend.stat("k").mtime == pytest.approx(past, abs=1.0)
        backend.touch("k")  # refresh to "now"
        assert backend.stat("k").mtime > past + 1800.0
        backend.touch("absent")  # best-effort: never raises

    def test_rename(self, backend):
        backend.write_bytes("k", b"x")
        assert backend.rename("k", "moved/k") is True
        assert not backend.exists("k")
        assert backend.read_bytes("moved/k") == b"x"
        assert backend.rename("k", "elsewhere") is False

    def test_sweep_empty_is_safe(self, backend):
        backend.write_bytes("results/a/1.json", b"x")
        backend.delete("results/a/1.json")
        backend.sweep_empty("results")  # no-op or rmdir; never raises


class TestLocalFSLayout:
    def test_keys_map_onto_files(self, tmp_path):
        backend = LocalFSBackend(tmp_path)
        backend.write_bytes("results/a/b.json", b"x")
        assert (tmp_path / "results" / "a" / "b.json").read_bytes() == b"x"
        # no tmp-file litter from the atomic publish
        assert [p.name for p in (tmp_path / "results" / "a").iterdir()] == ["b.json"]

    def test_sweep_empty_collects_empty_directories(self, tmp_path):
        backend = LocalFSBackend(tmp_path)
        backend.write_bytes("results/a/b.json", b"x")
        backend.delete("results/a/b.json")
        backend.sweep_empty("results")
        assert not (tmp_path / "results" / "a").exists()


class TestDictBackendStoreRoundTrip:
    """The full results-namespace contract against pure memory."""

    def test_session_cache_hit_without_touching_disk(self, tmp_path):
        spec = RBSpec(**FAST_RB)
        backend = DictBackend()
        store = ArtifactStore(tmp_path / "store", backend=backend)
        with Session(store=store, num_workers=1) as session:
            cold = session.run(spec)
            warm = session.run(spec)
        assert not cold.cache_hit and warm.cache_hit
        assert warm.payload_fingerprint() == cold.payload_fingerprint()
        # the entry lives in memory, not in the results directory
        assert backend.list_keys("results/") != []
        assert not (tmp_path / "store" / "results").exists() or not any(
            (tmp_path / "store" / "results").rglob("*.json")
        )
        assert store.namespace_stats("results")["writes"] == 1
        assert store.namespace_stats("results")["hits"] == 1

    def test_lru_retention_over_memory(self, tmp_path):
        backend = DictBackend()
        store = ArtifactStore(tmp_path / "store", backend=backend)
        keys = []
        for index in range(2):
            spec = {"kind": "rb", "seed": index}
            cache_fp, props_fp = f"spec{index:02d}" + "a" * 58, "p" * 64
            store.save_result(_result_for(spec, float(index)),
                              cache_fingerprint=cache_fp,
                              properties_fingerprint=props_fp)
            keys.append((cache_fp, props_fp))
        # age entry 0 far into the past (backend recency, no filesystem)
        backend.touch(store.result_storage_key(*keys[0]), mtime=time.time() - 3600.0)
        assert store.prune(results_max_age=600.0) == 1
        assert not store.has_result(*keys[0])
        assert store.has_result(*keys[1])
        assert store.namespace_stats("results")["evictions"] == 1

    def test_exactly_once_write_over_memory(self, tmp_path):
        spec = {"kind": "rb", "seed": 1}
        store = ArtifactStore(tmp_path / "store", backend=DictBackend())
        assert store.save_result(_result_for(spec), cache_fingerprint="c" * 64,
                                 properties_fingerprint="p" * 64) is True
        assert store.save_result(_result_for(spec), cache_fingerprint="c" * 64,
                                 properties_fingerprint="p" * 64) is False
        stats = store.namespace_stats("results")
        assert stats["writes"] == 1 and stats["write_skips"] == 1


class TestFlakyBackend:
    def test_reads_fail_open_as_cache_misses(self, tmp_path):
        """A storage hiccup on the read path is a miss, never an exception."""
        spec = {"kind": "rb", "seed": 1}
        flaky = FlakyBackend(DictBackend())
        store = ArtifactStore(tmp_path / "store", backend=flaky)
        store.save_result(_result_for(spec), cache_fingerprint="c" * 64,
                          properties_fingerprint="p" * 64)
        flaky.inject("read_bytes", times=2)  # has_result probe + full read
        assert store.has_result("c" * 64, "p" * 64) is False
        assert store.load_result("c" * 64, "p" * 64) is None
        assert flaky.faults_injected == 2
        stats = store.namespace_stats("results")
        assert stats["misses"] == 1 and stats["corrupt"] == 1
        # the fault budget is spent: the same reads now succeed
        assert store.has_result("c" * 64, "p" * 64) is True
        assert store.load_result("c" * 64, "p" * 64) is not None

    def test_write_faults_propagate_then_retry_succeeds(self, tmp_path):
        """Publication must fail loudly — and an immediate retry publishes."""
        spec = {"kind": "rb", "seed": 1}
        flaky = FlakyBackend(DictBackend(), failures={"write_bytes": 1})
        store = ArtifactStore(tmp_path / "store", backend=flaky)
        with pytest.raises(OSError, match="injected storage fault"):
            store.save_result(_result_for(spec), cache_fingerprint="c" * 64,
                              properties_fingerprint="p" * 64)
        assert flaky.faults_injected == 1
        assert store.save_result(_result_for(spec), cache_fingerprint="c" * 64,
                                 properties_fingerprint="p" * 64) is True
        assert store.load_result("c" * 64, "p" * 64) is not None

    def test_sweep_survives_listing_faults(self, tmp_path):
        """A prune over flaky storage skips the sweep instead of crashing."""
        spec = {"kind": "rb", "seed": 1}
        flaky = FlakyBackend(DictBackend())
        store = ArtifactStore(tmp_path / "store", backend=flaky)
        store.save_result(_result_for(spec), cache_fingerprint="c" * 64,
                          properties_fingerprint="p" * 64)
        flaky.inject("list_keys")
        assert store.prune(results_max_age=0.0) == 0  # hiccup: skipped sweep
        assert store.prune(results_max_age=0.0) == 1  # next sweep collects
