"""Tests for the batched execution engine: vectorized kernels, the
gate-channel fingerprint cache, and the channels-based RB executor."""

import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import PulseBackend, SimulationOptions
from repro.backend.pulse_simulator import PulseSimulator
from repro.benchmarking import InterleavedRBExperiment, RBExperiment, StandardRB, clifford_group
from repro.benchmarking.engine import clifford_channel_table
from repro.benchmarking.rb import rb_circuits, rb_sequences
from repro.circuits.gate import Gate
from repro.devices import fake_montreal
from repro.pulse import DriveChannel, Play, Schedule, pwc_waveform
from repro.pulse.calibrations import default_cx_schedule, default_drag_x
from repro.solvers.expm_utils import (
    expm_batch,
    expm_frechet_batch,
    expm_hermitian,
    expm_hermitian_batch,
)
from repro.solvers.propagator import (
    chain_propagator_product,
    pwc_liouvillian_step_propagators,
    pwc_liouvillian_total,
    pwc_step_propagators,
    pwc_total_propagator,
)
from repro.utils.parallel import auto_chunksize, available_workers, parallel_map, pool_submit


def _random_hermitian_stack(rng, n, d):
    h = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    return h + np.conj(np.swapaxes(h, -1, -2))


# --------------------------------------------------------------------------- #
# vectorized kernels vs. looped references
# --------------------------------------------------------------------------- #
class TestBatchedKernels:
    def test_expm_hermitian_batch_matches_loop(self):
        rng = np.random.default_rng(0)
        h = _random_hermitian_stack(rng, 9, 4)
        batched = expm_hermitian_batch(h, scale=-1j * 0.37)
        looped = np.stack([expm_hermitian(hk, scale=-1j * 0.37) for hk in h])
        assert np.allclose(batched, looped, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=7),
        d=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_expm_hermitian_batch_property(self, n, d, seed):
        """Property-style equivalence over random stack shapes and spectra."""
        rng = np.random.default_rng(seed)
        h = _random_hermitian_stack(rng, n, d)
        batched = expm_hermitian_batch(h, scale=-1j * 0.2)
        looped = np.stack([expm_hermitian(hk, scale=-1j * 0.2) for hk in h])
        assert np.allclose(batched, looped, atol=1e-11)

    def test_expm_batch_matches_scipy(self):
        rng = np.random.default_rng(1)
        for scale in (0.05, 1.0, 7.0):
            a = (rng.normal(size=(6, 9, 9)) + 1j * rng.normal(size=(6, 9, 9))) * scale
            batched = expm_batch(a)
            looped = np.stack([la.expm(ak) for ak in a])
            ref_scale = max(1.0, float(np.max(np.abs(looped))))
            assert np.max(np.abs(batched - looped)) / ref_scale < 1e-12

    def test_expm_batch_identity_and_empty(self):
        z = np.zeros((3, 4, 4), dtype=complex)
        assert np.allclose(expm_batch(z), np.broadcast_to(np.eye(4), (3, 4, 4)))
        empty = np.zeros((0, 4, 4), dtype=complex)
        assert expm_batch(empty).shape == (0, 4, 4)

    def test_expm_frechet_batch_matches_scipy(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(5, 6, 6)) + 1j * rng.normal(size=(5, 6, 6))
        e = rng.normal(size=(5, 6, 6)) + 1j * rng.normal(size=(5, 6, 6))
        steps, frechets = expm_frechet_batch(a, e)
        for k in range(5):
            expm_ref, frechet_ref = la.expm_frechet(a[k], e[k], compute_expm=True)
            assert np.allclose(steps[k], expm_ref, atol=1e-10)
            assert np.allclose(frechets[k], frechet_ref, atol=1e-9)

    def test_chain_propagator_product_matches_sequential(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 3, 7, 16, 33):
            steps = rng.normal(size=(n, 3, 3)) + 1j * rng.normal(size=(n, 3, 3))
            sequential = np.eye(3, dtype=complex)
            for u in steps:
                sequential = u @ sequential
            assert np.allclose(chain_propagator_product(steps), sequential, atol=1e-10)

    def test_chain_propagator_product_initial(self):
        rng = np.random.default_rng(4)
        steps = rng.normal(size=(5, 2, 2)) + 0j
        init = rng.normal(size=(2, 2)) + 0j
        expected = chain_propagator_product(steps) @ init
        assert np.allclose(chain_propagator_product(steps, initial=init), expected)


class TestBatchedPropagators:
    """Batched PWC propagators vs. per-slot looped references."""

    def setup_method(self):
        rng = np.random.default_rng(11)
        self.drift = np.diag([0.0, 1.0, 2.5]).astype(complex)
        c1 = rng.normal(size=(3, 3))
        self.controls = [
            (c1 + c1.T).astype(complex),
            np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex),
        ]
        self.amps = rng.normal(scale=0.4, size=(2, 13))
        self.dt = 0.31
        self.c_ops = [np.sqrt(0.02) * np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)]

    def test_step_propagators_vs_loop(self):
        steps = pwc_step_propagators(self.drift, self.controls, self.amps, self.dt)
        for k in range(self.amps.shape[1]):
            h_k = self.drift + sum(self.amps[j, k] * c for j, c in enumerate(self.controls))
            assert np.allclose(steps[k], la.expm(-1j * self.dt * h_k), atol=1e-11)

    def test_total_propagator_vs_loop(self):
        total = pwc_total_propagator(self.drift, self.controls, self.amps, self.dt)
        u = np.eye(3, dtype=complex)
        for k in range(self.amps.shape[1]):
            h_k = self.drift + sum(self.amps[j, k] * c for j, c in enumerate(self.controls))
            u = la.expm(-1j * self.dt * h_k) @ u
        assert np.allclose(total, u, atol=1e-10)

    def test_liouvillian_steps_vs_scipy_loop(self):
        from repro.qobj.superop import liouvillian

        steps = pwc_liouvillian_step_propagators(
            self.drift, self.controls, self.amps, self.dt, self.c_ops
        )
        for k in (0, 5, 12):
            h_k = self.drift + sum(self.amps[j, k] * c for j, c in enumerate(self.controls))
            lv = liouvillian(h_k, self.c_ops)
            assert np.allclose(steps[k], la.expm(lv * self.dt), atol=1e-11)

    def test_liouvillian_total_vs_loop(self):
        total = pwc_liouvillian_total(self.drift, self.controls, self.amps, self.dt, self.c_ops)
        steps = pwc_liouvillian_step_propagators(
            self.drift, self.controls, self.amps, self.dt, self.c_ops
        )
        s = np.eye(9, dtype=complex)
        for sk in steps:
            s = sk @ s
        assert np.allclose(total, s, atol=1e-10)

    @pytest.mark.parametrize("kind", ["1q", "cr"])
    def test_distinct_slot_steps_equal_full_stack(self, montreal_props, monkeypatch, kind):
        """Exponentiating each distinct slot once is bit-identical to the full stack."""
        from repro.backend import pulse_simulator
        from repro.solvers.propagator import assemble_pwc_hamiltonians, assemble_pwc_liouvillians
        from repro.solvers.expm_utils import expm_unitary_step_batch

        calls = []
        for name in ("pwc_liouvillian_total", "pwc_total_propagator"):
            def recording(*args, _name=name, _original=getattr(pulse_simulator, name)):
                calls.append((_name, args))
                return _original(*args)

            monkeypatch.setattr(pulse_simulator, name, recording)
        if kind == "1q":  # a GRAPE-style pulse: 12 piecewise-constant slots
            rng = np.random.default_rng(3)
            waveform = pwc_waveform(rng.uniform(-0.2, 0.2, 12), rng.uniform(-0.2, 0.2, 12), samples_per_slot=40)
            schedule, qubits = Schedule(), [0]
            schedule.append(Play(waveform, DriveChannel(0)))
        else:
            schedule, qubits = default_cx_schedule(montreal_props, 0, 1), [0, 1]
        for decoherence in (True, False):
            simulator = PulseSimulator(
                montreal_props, options=SimulationOptions(include_decoherence=decoherence)
            )
            simulator.schedule_channel(schedule, qubits=qubits)
        assert [name for name, _ in calls] == ["pwc_liouvillian_total", "pwc_total_propagator"]
        (_, (drift, controls, amps, dt, c_ops)), (_, closed) = calls
        assert np.unique(amps, axis=1).shape[1] < amps.shape[1]
        full = expm_batch(assemble_pwc_liouvillians(drift, controls, amps, c_ops) * dt)
        steps = pwc_liouvillian_step_propagators(drift, controls, amps, dt, c_ops)
        assert np.array_equal(steps, full)
        assert np.array_equal(pwc_liouvillian_total(drift, controls, amps, dt, c_ops),
                              chain_propagator_product(full))
        full = expm_unitary_step_batch(assemble_pwc_hamiltonians(*closed[:3]), closed[3])
        assert np.array_equal(pwc_step_propagators(*closed), full)


# --------------------------------------------------------------------------- #
# gate-channel fingerprint cache
# --------------------------------------------------------------------------- #
class TestChannelCache:
    def test_schedule_fingerprint_content_based(self, montreal_props):
        a = default_drag_x(0, montreal_props.qubit(0), montreal_props.dt)
        b = default_drag_x(0, montreal_props.qubit(0), montreal_props.dt)
        assert a is not b
        assert a.fingerprint() == b.fingerprint()
        c = default_drag_x(0, montreal_props.qubit(0), montreal_props.dt, amplitude_error=0.01)
        assert a.fingerprint() != c.fingerprint()

    def test_simulator_cache_hit(self, montreal_props):
        sim = PulseSimulator(montreal_props)
        sched = default_drag_x(0, montreal_props.qubit(0), montreal_props.dt)
        first = sim.schedule_channel(sched)
        info = sim.cache_info()
        assert info["misses"] == 1 and info["hits"] == 0
        # a structurally identical but distinct schedule object hits the cache
        clone = default_drag_x(0, montreal_props.qubit(0), montreal_props.dt)
        second = sim.schedule_channel(clone)
        info = sim.cache_info()
        assert info["hits"] == 1 and info["misses"] == 1
        assert second is first

    def test_concurrent_requests_simulate_a_schedule_once(self, montreal_props):
        """Threads asking for one uncached schedule at once share one simulation."""
        import sys
        import threading

        sim = PulseSimulator(montreal_props)
        sched = default_cx_schedule(montreal_props, 0, 1)
        n_threads = 4
        barrier = threading.Barrier(n_threads)
        channels = [None] * n_threads

        def request(slot):
            barrier.wait(30)
            channels[slot] = sim.schedule_channel(sched, qubits=[0, 1])

        threads = [threading.Thread(target=request, args=(i,)) for i in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        info = sim.cache_info()
        assert info["misses"] == 1
        assert info["hits"] == n_threads - 1
        assert all(channel.tobytes() == channels[0].tobytes() for channel in channels)

    def test_failed_simulation_is_retried_by_the_next_request(self, montreal_props, monkeypatch):
        sim = PulseSimulator(montreal_props)
        sched = default_drag_x(0, montreal_props.qubit(0), montreal_props.dt)
        real = sim._single_qubit_channel
        calls = []

        def fail_once(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("integrator failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(sim, "_single_qubit_channel", fail_once)
        with pytest.raises(RuntimeError, match="integrator failure"):
            sim.schedule_channel(sched)
        assert sim.schedule_channel(sched) is sim.schedule_channel(sched)
        assert len(calls) == 2 and sim.cache_info()["misses"] == 2

    def test_simulator_cache_invalidated_by_drift(self, montreal_props):
        sim = PulseSimulator(montreal_props)
        sched = default_drag_x(0, montreal_props.qubit(0), montreal_props.dt)
        before = sim.schedule_channel(sched).copy()
        # drift qubit 0: shorter T1 -> visibly different channel
        sim.properties = montreal_props.with_qubit(0, t1=5_000.0, t2=5_000.0)
        after = sim.schedule_channel(sched)
        info = sim.cache_info()
        assert info["misses"] == 2  # the drifted snapshot re-simulates
        assert not np.allclose(before, after)

    def test_backend_properties_fingerprint_changes_on_drift(self, montreal_props):
        drifted = montreal_props.with_qubit(0, t1=10_000.0, t2=10_000.0)
        assert montreal_props.fingerprint() != drifted.fingerprint()
        assert montreal_props.fingerprint() == fake_montreal().fingerprint()

    def test_backend_custom_schedule_cached_by_content(self, montreal_props):
        backend = PulseBackend(montreal_props, calibrated_qubits=[0, 1], seed=0)
        a = default_drag_x(0, montreal_props.qubit(0), montreal_props.dt, amplitude_error=0.0)
        b = default_drag_x(0, montreal_props.qubit(0), montreal_props.dt, amplitude_error=0.0)
        ch_a = backend.gate_channel("x", (0,), schedule=a)
        ch_b = backend.gate_channel("x", (0,), schedule=b)
        assert ch_a is ch_b  # distinct objects, same content, one cache entry

    def test_backend_cache_invalidated_when_properties_swapped(self, montreal_props):
        backend = PulseBackend(montreal_props, calibrated_qubits=[0, 1], seed=0)
        before = backend.gate_channel("x", (0,)).copy()
        drifted = montreal_props.with_qubit(0, t1=4_000.0, t2=4_000.0)
        backend.properties = drifted
        after = backend.gate_channel("x", (0,))
        assert backend.simulator.properties is drifted
        assert not np.allclose(before, after)

    def test_clifford_table_dropped_on_drift(self, montreal_props):
        backend = PulseBackend(montreal_props, calibrated_qubits=[0, 1], seed=0)
        group = clifford_group(1)
        table = clifford_channel_table(backend, [0], group)
        table.channel(group.element(3))
        assert len(table) == 1
        backend.properties = montreal_props.with_qubit(0, t1=4_000.0, t2=4_000.0)
        fresh = clifford_channel_table(backend, [0], group)
        assert fresh is not table and len(fresh) == 0


# --------------------------------------------------------------------------- #
# batched RB executor vs. the circuit path
# --------------------------------------------------------------------------- #
class TestChannelEngine:
    def test_rb_sequences_match_circuit_generation(self):
        with_circuits = rb_circuits([0], lengths=[2, 5], n_seeds=2, seed=42)
        without = rb_sequences([0], lengths=[2, 5], n_seeds=2, seed=42, build_circuits=False)
        assert len(with_circuits) == len(without)
        for a, b in zip(with_circuits, without):
            assert a.clifford_indices == b.clifford_indices
            assert a.recovery_index == b.recovery_index
            assert b.circuit is None and a.circuit is not None

    def test_recovery_index_inverts_sequence(self):
        group = clifford_group(1)
        for seq in rb_sequences([0], lengths=[6], n_seeds=3, seed=9, build_circuits=False):
            net = group.identity
            for idx in seq.clifford_indices:
                net = group.compose(net, group.element(idx))
            product = group.element(seq.recovery_index).matrix @ net.matrix
            overlap = abs(np.trace(product)) / 2.0
            assert overlap == pytest.approx(1.0, abs=1e-9)

    def test_engines_agree_standard_rb(self, montreal_props):
        kwargs = dict(lengths=[1, 8, 24], n_seeds=3, shots=300, seed=13)
        loop = RBExperiment(
            PulseBackend(montreal_props, calibrated_qubits=[0, 1], seed=1),
            [0], engine="circuits", **kwargs,
        ).run()
        fast = RBExperiment(
            PulseBackend(montreal_props, calibrated_qubits=[0, 1], seed=1),
            [0], engine="channels", **kwargs,
        ).run()
        assert abs(loop.error_per_clifford - fast.error_per_clifford) <= 1e-6
        assert np.max(np.abs(loop.survival_mean - fast.survival_mean)) <= 1e-6

    def test_engines_agree_interleaved_with_custom_calibration(self, montreal_props):
        custom = default_drag_x(
            0, montreal_props.qubit(0), montreal_props.dt, amplitude_error=0.0, drag_error=0.0
        )
        kwargs = dict(lengths=[1, 8, 24], n_seeds=3, shots=300, seed=17, custom_calibration=custom)
        loop = InterleavedRBExperiment(
            PulseBackend(montreal_props, calibrated_qubits=[0, 1], seed=2),
            "x", [0], engine="circuits", **kwargs,
        ).run()
        fast = InterleavedRBExperiment(
            PulseBackend(montreal_props, calibrated_qubits=[0, 1], seed=2),
            "x", [0], engine="channels", **kwargs,
        ).run()
        assert abs(loop.gate_error - fast.gate_error) <= 1e-6
        assert abs(loop.reference.error_per_clifford - fast.reference.error_per_clifford) <= 1e-6

    def test_engines_agree_two_qubit(self, montreal_props):
        kwargs = dict(lengths=[1, 2, 4], n_seeds=2, shots=200, seed=23)
        loop = RBExperiment(
            PulseBackend(montreal_props, calibrated_qubits=[0, 1], seed=3),
            [0, 1], engine="circuits", **kwargs,
        ).run()
        fast = RBExperiment(
            PulseBackend(montreal_props, calibrated_qubits=[0, 1], seed=3),
            [0, 1], engine="channels", **kwargs,
        ).run()
        assert abs(loop.error_per_clifford - fast.error_per_clifford) <= 1e-6

    def test_num_workers_parallel_matches_serial(self, montreal_props):
        kwargs = dict(lengths=[1, 8, 16], n_seeds=2, shots=200, seed=31)
        backend = PulseBackend(montreal_props, calibrated_qubits=[0, 1], seed=4)
        serial = StandardRB(backend, [0], num_workers=1, **kwargs).run()
        parallel = StandardRB(backend, [0], num_workers=2, **kwargs).run()
        assert serial.per_sequence == parallel.per_sequence

    def test_compose_index_matches_matrix_compose(self):
        group = clifford_group(1)
        rng = np.random.default_rng(5)
        for _ in range(50):
            i, j = rng.integers(24, size=2)
            by_index = group.compose_index(int(i), int(j))
            by_matrix = group.lookup(
                group.element(int(j)).matrix @ group.element(int(i)).matrix
            ).index
            assert by_index == by_matrix
        for i in range(24):
            assert group.compose_index(i, group.inverse_index(i)) == 0


# --------------------------------------------------------------------------- #
# parallel_map ergonomics
# --------------------------------------------------------------------------- #
class TestParallelMap:
    def test_auto_chunksize(self):
        assert auto_chunksize(100, 1) == 1
        assert auto_chunksize(100, 4) == 6
        assert auto_chunksize(3, 8) == 1

    def test_num_workers_zero_uses_available(self):
        # num_workers=0 must resolve to available_workers() and still work
        assert available_workers() >= 1
        out = parallel_map(_square, [1, 2, 3, 4], num_workers=0)
        assert out == [1, 4, 9, 16]

    def test_order_preserved_with_pool(self):
        items = list(range(20))
        assert parallel_map(_square, items, num_workers=2) == [i * i for i in items]

    @pytest.mark.parametrize("num_workers", [1, 2])
    def test_pool_submit_returns_value_or_raises(self, num_workers):
        """One call, inline or on the pool: its value, or its exception."""
        call = pool_submit(_square, 7, num_workers=num_workers)
        assert call.result() == 49
        assert call.result() == 49  # repeatable
        assert call.seconds >= 0.0
        failing = pool_submit(_square, None, num_workers=num_workers)
        with pytest.raises(TypeError):
            failing.result()
        assert failing.seconds is None

    def test_pool_submit_sees_knobs_set_after_the_pool_started(self, monkeypatch):
        """A REPRO_* knob set after the pool forked applies as it would inline."""
        from repro.utils import parallel

        parallel.start_pool(2)
        monkeypatch.setenv("REPRO_TEST_SENTINEL", "late")
        assert pool_submit(_read_sentinel, 0, num_workers=2).result() == "late"
        monkeypatch.delenv("REPRO_TEST_SENTINEL")
        assert pool_submit(_read_sentinel, 0, num_workers=2).result() is None

    def test_concurrent_first_maps_share_one_pool(self, monkeypatch):
        """Racing first maps build one pool; none cancels another's work."""
        import sys
        import threading

        from repro.utils import parallel

        created = []
        real_executor = parallel.ProcessPoolExecutor

        def counting_executor(*args, **kwargs):
            created.append(real_executor(*args, **kwargs))
            return created[-1]

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", counting_executor)
        parallel.shutdown_pool()
        n_threads = 4
        barrier = threading.Barrier(n_threads)
        outputs = []

        def first_map():
            barrier.wait(timeout=30)
            outputs.append(parallel_map(_square, list(range(8)), num_workers=2))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=first_map) for _ in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            parallel.shutdown_pool()
        assert len(created) == 1
        assert outputs == [[i * i for i in range(8)]] * n_threads


class TestStartMethods:
    """The spawn-safe pool path (``$REPRO_MP_START``)."""

    def test_default_follows_platform(self, monkeypatch):
        import multiprocessing

        from repro.utils.parallel import pool_start_method

        monkeypatch.delenv("REPRO_MP_START", raising=False)
        assert pool_start_method() == multiprocessing.get_start_method()

    def test_invalid_method_rejected(self, monkeypatch):
        from repro.utils.parallel import pool_start_method

        monkeypatch.setenv("REPRO_MP_START", "teleport")
        with pytest.raises(ValueError):
            pool_start_method()

    def test_spawn_pool_maps_correctly(self, monkeypatch):
        """A spawn-context pool works end-to-end (the macOS/Windows path)."""
        import multiprocessing

        from repro.utils import parallel

        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("spawn unavailable")
        monkeypatch.setenv("REPRO_MP_START", "spawn")
        parallel.shutdown_pool()
        try:
            assert parallel.pool_start_method() == "spawn"
            out = parallel_map(_square, [1, 2, 3, 4], num_workers=2)
            assert out == [1, 4, 9, 16]
            # the persistent pool is keyed by (workers, method)
            assert parallel._POOL_KEY == (2, "spawn")
        finally:
            parallel.shutdown_pool()

    def test_changing_method_rolls_the_pool(self, monkeypatch):
        import multiprocessing

        from repro.utils import parallel

        methods = multiprocessing.get_all_start_methods()
        if "spawn" not in methods or "fork" not in methods:
            pytest.skip("needs both fork and spawn")
        parallel.shutdown_pool()
        try:
            monkeypatch.setenv("REPRO_MP_START", "fork")
            parallel_map(_square, [1, 2], num_workers=2)
            fork_pool = parallel._POOL
            monkeypatch.setenv("REPRO_MP_START", "spawn")
            parallel_map(_square, [1, 2], num_workers=2)
            assert parallel._POOL is not fork_pool
            assert parallel._POOL_KEY == (2, "spawn")
        finally:
            parallel.shutdown_pool()

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_pool_workers_pin_blas_to_one_thread(self, monkeypatch, method):
        """Each OpenBLAS in a pool worker runs one thread; the parent's keeps its count."""
        import multiprocessing

        from repro.utils import parallel

        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{method} unavailable")
        parent = parallel.openblas_threads()  # numpy's and scipy's (imported above)
        if not parent:
            pytest.skip("no OpenBLAS is loaded in this process")
        monkeypatch.setenv("REPRO_MP_START", method)
        parallel.shutdown_pool()
        try:
            calls = [pool_submit(parallel.openblas_threads, num_workers=2) for _ in range(4)]
            for call in calls:
                assert call.result() == [1] * len(parent)
        finally:
            parallel.shutdown_pool()
        assert parallel.openblas_threads() == parent

    def test_spawn_worker_sees_repro_environment(self, monkeypatch):
        """The initializer re-applies REPRO_* knobs in spawned workers."""
        import multiprocessing

        from repro.utils import parallel

        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("spawn unavailable")
        monkeypatch.setenv("REPRO_MP_START", "spawn")
        monkeypatch.setenv("REPRO_TEST_SENTINEL", "42")
        parallel.shutdown_pool()
        try:
            out = parallel_map(_read_sentinel, [0, 1], num_workers=2)
            assert out == ["42", "42"]
        finally:
            parallel.shutdown_pool()


def _square(x):
    return x * x


def _read_sentinel(_):
    import os

    return os.environ.get("REPRO_TEST_SENTINEL")
