"""Persistent Clifford channel store: round-trip, invalidation, concurrency.

Covers the PR acceptance criteria for the store layer: write → reopen →
bit-identical channels, key invalidation on properties drift, concurrent
readers over the memory-mapped table, the ``store=`` knob semantics, and
group-enumeration persistence.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import PulseBackend
from repro.benchmarking import RBExperiment, clifford_channel_table
from repro.benchmarking.clifford import CliffordGroup, clifford_group
from repro.store import (
    GROUP_FORMAT_VERSION,
    STORE_FORMAT_VERSION,
    ArtifactStore,
    default_store_root,
    resolve_store,
)
from repro.utils import parallel
from repro.utils.parallel import parallel_map, shutdown_pool
from repro.utils.validation import ValidationError


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


class TestResolveStore:
    def test_none_disables(self):
        assert resolve_store(None) is None

    def test_false_is_rejected(self):
        with pytest.raises(ValidationError):
            resolve_store(False)

    def test_path_and_instance_pass_through(self, tmp_path):
        resolved = resolve_store(tmp_path)
        assert type(resolved) is ArtifactStore
        assert resolved.root == tmp_path
        assert resolve_store(resolved) is resolved

    def test_auto_uses_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "envstore"))
        assert resolve_store("auto").root == tmp_path / "envstore"
        assert default_store_root() == tmp_path / "envstore"

    def test_rejects_garbage(self):
        with pytest.raises(ValidationError):
            resolve_store(12345)


class TestChannelTableRoundTrip:
    def test_write_reopen_bit_identical(self, montreal_props, store):
        """Cold-built channels reopen from a fresh store bit-for-bit."""
        backend = PulseBackend(montreal_props, calibrated_qubits=[0, 1], seed=1)
        group = clifford_group(1)
        table = clifford_channel_table(backend, [0], group, store=store)
        indices = range(len(group))
        table.ensure(indices)
        reference = {i: np.array(table.channel_by_index(i)) for i in indices}

        # fresh store object + fresh backend = a new session
        store2 = ArtifactStore(store.root)
        backend2 = PulseBackend(montreal_props, calibrated_qubits=[0, 1], seed=1)
        table2 = clifford_channel_table(backend2, [0], group, store=store2)
        assert len(table2) == len(group)  # served from disk, nothing rebuilt
        for i in indices:
            assert np.array_equal(np.asarray(table2.channel_by_index(i)), reference[i])

    def test_merge_accumulates_entries(self, montreal_props, store):
        backend = PulseBackend(montreal_props, calibrated_qubits=[0, 1], seed=1)
        group = clifford_group(1)
        table = clifford_channel_table(backend, [0], group, store=store)
        table.ensure([0, 1, 2])
        table.ensure([5, 6])
        ids, channels = store.load_channel_table(table.store_key)
        assert list(ids) == [0, 1, 2, 5, 6]
        assert channels.shape == (5, 4, 4)

    def test_prune_removes_superseded_generations(self, montreal_props, store):
        backend = PulseBackend(montreal_props, calibrated_qubits=[0, 1], seed=1)
        group = clifford_group(1)
        table = clifford_channel_table(backend, [0], group, store=store)
        table.ensure([0, 1])
        table.ensure([2, 3])  # second generation supersedes the first
        assert store.prune() == 0  # grace period protects young files
        removed = store.prune(grace_seconds=0.0)
        assert removed == 2  # old ids + channels files
        ids, _ = store.load_channel_table(table.store_key)
        assert list(ids) == [0, 1, 2, 3]

    def test_rb_results_identical_with_and_without_store(self, montreal_props, store):
        kwargs = dict(lengths=(1, 4, 8), n_seeds=2, shots=200, seed=9)
        plain = PulseBackend(montreal_props, calibrated_qubits=[0, 1], seed=5)
        stored = PulseBackend(montreal_props, calibrated_qubits=[0, 1], seed=5)
        r_plain = RBExperiment(plain, [0], **kwargs).run()
        r_cold = RBExperiment(stored, [0], **kwargs, store=store).run()
        warm = PulseBackend(montreal_props, calibrated_qubits=[0, 1], seed=5)
        r_warm = RBExperiment(warm, [0], **kwargs, store=store).run()
        np.testing.assert_array_equal(r_plain.survival_mean, r_cold.survival_mean)
        np.testing.assert_array_equal(r_plain.survival_mean, r_warm.survival_mean)

    def test_store_none_persists_nothing(self, montreal_props, store):
        """A store reaches an experiment only through its ``store=``: runs
        without one persist nothing, even on a backend whose table an
        earlier run persisted."""
        backend = PulseBackend(montreal_props, calibrated_qubits=[0, 1], seed=77)
        kwargs = dict(lengths=(1, 4, 8), n_seeds=1, shots=100)
        key = ArtifactStore.channel_table_key(backend, (0,), clifford_group(1))
        RBExperiment(backend, [0], **kwargs, seed=2, store=store).run()
        persisted = np.array(store.load_channel_table(key)[0])
        RBExperiment(backend, [0], **kwargs, seed=3, store=None).run()
        built = clifford_channel_table(backend, [0], clifford_group(1))._channels
        assert set(built) - set(persisted)  # the store-less runs built more
        np.testing.assert_array_equal(store.load_channel_table(key)[0], persisted)


class TestInvalidation:
    def test_drifted_properties_produce_a_different_key(self, montreal_props, store):
        backend = PulseBackend(montreal_props, calibrated_qubits=[0, 1], seed=1)
        group = clifford_group(1)
        key = ArtifactStore.channel_table_key(backend, (0,), group)
        backend.properties = montreal_props.with_qubit(0, t1=5_000.0, t2=5_000.0)
        drifted_key = ArtifactStore.channel_table_key(backend, (0,), group)
        assert key != drifted_key

    def test_drift_busts_the_store_and_rebuilds(self, montreal_props, store):
        """After a drift, the engine cold-builds under the new key and the
        old entry stays valid for the old snapshot."""
        backend = PulseBackend(montreal_props, calibrated_qubits=[0, 1], seed=1)
        group = clifford_group(1)
        table = clifford_channel_table(backend, [0], group, store=store)
        table.ensure(range(len(group)))
        old_key = table.store_key
        old_channel = np.array(table.channel_by_index(3))

        backend.properties = montreal_props.with_qubit(0, t1=5_000.0, t2=5_000.0)
        drifted_table = clifford_channel_table(backend, [0], group, store=store)
        assert drifted_table is not table  # in-memory table dropped on drift
        assert drifted_table.store_key != old_key
        assert store.load_channel_table(drifted_table.store_key) is None  # cold
        drifted_table.ensure([3])
        drifted_channel = np.asarray(drifted_table.channel_by_index(3))
        assert not np.allclose(drifted_channel, old_channel)  # shorter T1 is visible
        # the old snapshot's entry is untouched and still bit-identical
        ids, channels = store.load_channel_table(old_key)
        pos = int(np.searchsorted(ids, 3))
        assert np.array_equal(np.asarray(channels[pos]), old_channel)

    def test_custom_schedule_map_entry_busts_the_key(self, montreal_props, store):
        backend = PulseBackend(montreal_props, calibrated_qubits=[0, 1], seed=1)
        group = clifford_group(1)
        key = ArtifactStore.channel_table_key(backend, (0,), group)
        # override the default x calibration with the sx schedule
        sx_schedule = backend.instruction_schedule_map.get("sx", (0,))
        backend.instruction_schedule_map.add("x", (0,), sx_schedule)
        assert ArtifactStore.channel_table_key(backend, (0,), group) != key

    def test_format_version_busts_everything(self, montreal_props, store, monkeypatch):
        backend = PulseBackend(montreal_props, calibrated_qubits=[0, 1], seed=1)
        group = clifford_group(1)
        table = clifford_channel_table(backend, [0], group, store=store)
        table.ensure([0])
        monkeypatch.setattr("repro.store.channels.STORE_FORMAT_VERSION", STORE_FORMAT_VERSION + 1)
        assert store.load_channel_table(table.store_key) is None
        assert ArtifactStore.channel_table_key(backend, (0,), group) != table.store_key

    def test_group_format_version_busts_group_files_only(self, montreal_props, store, monkeypatch):
        backend = PulseBackend(montreal_props, calibrated_qubits=[0, 1], seed=1)
        group = clifford_group(1)
        store.ensure_group_saved(group)
        table = clifford_channel_table(backend, [0], group, store=store)
        table.ensure([0])
        monkeypatch.setattr("repro.store.groups.GROUP_FORMAT_VERSION", GROUP_FORMAT_VERSION + 1)
        assert store.load_group_arrays(1) is None
        assert store.namespace_stats("groups")["misses"] == 1
        # channel tables version independently of group files
        assert store.load_channel_table(table.store_key) is not None


class TestConcurrentReaders:
    def test_worker_processes_read_the_same_mmap_table(self, montreal_props, store):
        """num_workers>1 with a store ships handles, not channel dicts, and
        every worker reads the identical bytes."""
        backend = PulseBackend(montreal_props, calibrated_qubits=[0, 1], seed=3)
        kwargs = dict(lengths=(1, 4, 8, 16), n_seeds=3, shots=200, seed=4, store=store)
        serial = RBExperiment(backend, [0], **kwargs, num_workers=1).run()
        fanned = RBExperiment(backend, [0], **kwargs, num_workers=2).run()
        np.testing.assert_array_equal(serial.survival_mean, fanned.survival_mean)

    def test_handle_is_picklable_and_consistent_across_processes(self, montreal_props, store):
        backend = PulseBackend(montreal_props, calibrated_qubits=[0, 1], seed=3)
        group = clifford_group(1)
        table = clifford_channel_table(backend, [0], group, store=store)
        table.ensure(range(len(group)))
        handle = table.handle()
        local = [np.asarray(handle.channel(i)).copy() for i in range(len(group))]
        results = parallel_map(_trace_of_channel, [(handle, i) for i in range(len(group))],
                               num_workers=2)
        for i, trace in enumerate(results):
            assert trace == pytest.approx(complex(np.trace(local[i])))

    def test_stale_handle_generation_falls_back_to_pickled_channels(
        self, montreal_props, store, monkeypatch
    ):
        """If a concurrent merge published a generation missing some of our
        elements (last-writer-wins), the engine must fall back instead of
        crashing workers with KeyError."""
        from repro.benchmarking.engine import CliffordChannelTable

        backend = PulseBackend(montreal_props, calibrated_qubits=[0, 1], seed=6)
        kwargs = dict(lengths=(1, 4, 8), n_seeds=2, shots=150, seed=12)
        reference = RBExperiment(
            PulseBackend(montreal_props, calibrated_qubits=[0, 1], seed=6), [0], **kwargs
        ).run()

        # a "loser" generation holding only element 0, as a racing writer
        # that started from an empty table would publish
        losing_store = ArtifactStore(store.root)
        probe = clifford_channel_table(backend, [0], clifford_group(1), store=store)
        probe.ensure([0])
        stale_handle = losing_store.handle(probe.store_key)
        monkeypatch.setattr(CliffordChannelTable, "handle", lambda self: stale_handle)

        result = RBExperiment(backend, [0], **kwargs, store=store).run()
        np.testing.assert_array_equal(result.survival_mean, reference.survival_mean)

    def test_persistent_pool_is_reused_between_calls(self):
        shutdown_pool()
        parallel_map(_square, [1, 2, 3, 4], num_workers=2)
        first_pool = parallel._POOL
        assert first_pool is not None
        out = parallel_map(_square, [5, 6, 7, 8], num_workers=2)
        assert parallel._POOL is first_pool
        assert out == [25, 36, 49, 64]
        shutdown_pool()
        assert parallel._POOL is None


class TestGroupPersistence:
    def test_group_arrays_round_trip_exactly(self, store):
        group = clifford_group(1)
        assert store.ensure_group_saved(group) is True
        assert store.ensure_group_saved(group) is False  # already on disk
        arrays = store.load_group_arrays(1)
        rebuilt = CliffordGroup.from_arrays(1, arrays)
        assert len(rebuilt) == len(group)
        for original, loaded in zip(group._elements, rebuilt._elements):
            assert original.word == loaded.word
            assert np.array_equal(original.matrix, loaded.matrix)
        # lookups and tableau operations survive the round trip
        rng = np.random.default_rng(8)
        for first, second in rng.integers(0, len(group), size=(10, 2)):
            assert rebuilt.compose_index(int(first), int(second)) == group.compose_index(
                int(first), int(second)
            )
            assert rebuilt.inverse_index(int(first)) == group.inverse_index(int(first))

    def test_corrupt_group_file_self_heals(self, store, tmp_path, monkeypatch):
        """A loadable-but-invalid group file is dropped and rebuilt, not fatal."""
        import repro.benchmarking.clifford as clifford_module

        group = clifford_group(1)
        arrays = group.to_arrays()
        arrays["word_offsets"] = arrays["word_offsets"][:-3]  # wrong element count
        path = store._group_path(1)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, **arrays)
        monkeypatch.setattr(clifford_module, "_GROUP_CACHE", {})  # force a reload
        healed = clifford_group(1, store=store)
        assert len(healed) == 24
        # the corrupt file was replaced by a valid one
        rebuilt = CliffordGroup.from_arrays(1, store.load_group_arrays(1))
        assert len(rebuilt) == 24

    @pytest.mark.parametrize(
        "tamper", ["duplicate_element", "tableau_mismatch", "phase_parity", "row_out_of_range"]
    )
    def test_tampered_group_file_self_heals(self, store, monkeypatch, tamper):
        """A file whose words and tableaux disagree, whose elements repeat, or
        whose tableaux are not Pauli images, is rebuilt."""
        import repro.benchmarking.clifford as clifford_module

        arrays = clifford_group(1).to_arrays()
        words, offsets = arrays["words"], arrays["word_offsets"]
        rows, phases = arrays["tableau_rows"].copy(), arrays["tableau_phases"].copy()
        if tamper == "duplicate_element":
            # the last element becomes a consistent copy of the one before it
            last_word = words[offsets[-3] : offsets[-2]]
            arrays["words"] = np.concatenate([words[: offsets[-2]], last_word])
            arrays["word_offsets"] = np.append(offsets[:-1], offsets[-2] + len(last_word))
            rows[-1], phases[-1] = rows[-2], phases[-2]
        elif tamper == "tableau_mismatch":
            # distinct tableaux, but two of them swapped against their words
            rows[[3, 7]], phases[[3, 7]] = rows[[7, 3]], phases[[7, 3]]
        elif tamper == "phase_parity":
            # i^p P(v) is Hermitian only for p ≡ popcount(x & z) (mod 2)
            phases[5, 0] ^= 1
        else:
            rows[5, 1] = 4  # one qubit has 2-bit rows
        arrays["tableau_rows"], arrays["tableau_phases"] = rows, phases
        with pytest.raises(ValidationError):
            CliffordGroup.from_arrays(1, arrays)

        path = store._group_path(1)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, **arrays)
        monkeypatch.setattr(clifford_module, "_GROUP_CACHE", {})  # force a reload
        healed = clifford_group(1, store=store)
        fresh = CliffordGroup(1).to_arrays()
        for name, array in healed.to_arrays().items():
            assert array.tobytes() == fresh[name].tobytes()
        rebuilt = CliffordGroup.from_arrays(1, store.load_group_arrays(1))
        assert [e.word for e in rebuilt._elements] == [e.word for e in healed._elements]

    def test_clifford_group_accessor_persists_via_store(self, store):
        group = clifford_group(1, store=store)
        assert store.load_group_arrays(1) is not None
        # cached accessor returns the same object with or without a store
        assert clifford_group(1) is group


def _square(x):
    return x * x


def _trace_of_channel(args):
    handle, index = args
    return complex(np.trace(np.asarray(handle.channel(index))))
