"""Tests for the simulated pulse backend: noise, simulator, circuit execution."""

import numpy as np
import pytest

from repro.backend import PulseBackend, Result, SimulationOptions, depolarizing_superop
from repro.backend import backend as backend_module
from repro.backend.noise import apply_readout_error, embed_channel, readout_confusion_matrix
from repro.circuits import QuantumCircuit
from repro.devices import QubitProperties, fake_montreal
from repro.pulse import Constant, Drag, DriveChannel, Play, Schedule, ShiftPhase
from repro.pulse.calibrations import default_drag_x
from repro.qobj import (
    average_gate_fidelity,
    cx_gate,
    hadamard,
    is_cptp,
    rz_gate,
    sx_gate,
    unitary_overlap_fidelity,
    unitary_superop,
    x_gate,
)
from repro.utils.validation import ValidationError


class TestNoiseHelpers:
    def test_depolarizing_error_rate(self):
        for d in (2, 4):
            chan = depolarizing_superop(1e-3, d)
            assert is_cptp(chan)
            assert 1 - average_gate_fidelity(chan, np.eye(d)) == pytest.approx(1e-3, rel=1e-9)

    def test_depolarizing_invalid(self):
        with pytest.raises(ValidationError):
            depolarizing_superop(-0.1, 2)

    def test_confusion_matrix_joint(self):
        q0 = QubitProperties(frequency=5.0, readout_p01=0.1, readout_p10=0.02)
        q1 = QubitProperties(frequency=5.1, readout_error=0.05)
        m = readout_confusion_matrix([q0, q1])
        assert m.shape == (4, 4)
        assert np.allclose(m.sum(axis=0), 1.0)

    def test_apply_readout_error(self):
        q = QubitProperties(frequency=5.0, readout_p01=0.1, readout_p10=0.0)
        probs = apply_readout_error(np.array([0.0, 1.0]), q.confusion_matrix())
        assert probs[0] == pytest.approx(0.1)

    def test_embed_channel_identity_on_other_qubits(self):
        chan = unitary_superop(x_gate())
        full = embed_channel(chan, [1], 2)
        expected = unitary_superop(np.kron(np.eye(2), x_gate()))
        assert np.allclose(full, expected, atol=1e-10)

    def test_embed_channel_two_qubit_into_three(self):
        chan = unitary_superop(cx_gate())
        full = embed_channel(chan, [0, 2], 3)
        assert is_cptp(full)
        assert full.shape == (64, 64)


class TestPulseSimulator:
    def test_default_x_channel_is_cp_and_accurate(self, backend):
        chan = backend.gate_channel("x", (0,))
        # completely positive (Choi PSD); trace preservation only approximate
        # because a small leakage population leaves the computational subspace
        from repro.qobj.superop import super_to_choi
        evals = np.linalg.eigvalsh(0.5 * (super_to_choi(chan) + super_to_choi(chan).conj().T))
        assert evals.min() > -1e-8
        from repro.qobj.superop import is_trace_preserving
        assert is_trace_preserving(chan, atol=5e-2)
        err = 1 - average_gate_fidelity(chan, x_gate())
        assert 1e-4 < err < 2e-2  # noisy but clearly an X gate

    def test_noiseless_x_error_is_purely_coherent_and_small(self, noiseless_backend, backend):
        chan = noiseless_backend.gate_channel("x", (0,))
        err = 1 - average_gate_fidelity(chan, x_gate())
        assert err < 5e-3
        # the decoherence-free error cannot exceed the full noisy error by much
        noisy_err = 1 - average_gate_fidelity(backend.gate_channel("x", (0,)), x_gate())
        assert err < noisy_err + 1e-4

    def test_ideal_drag_pulse_beats_miscalibrated_default(self, backend, montreal_props):
        ideal = default_drag_x(0, montreal_props.qubit(0), montreal_props.dt, amplitude_error=0.0, drag_error=0.0)
        chan_ideal = backend.simulator.schedule_channel(ideal, qubits=[0])
        err_ideal = 1 - average_gate_fidelity(chan_ideal, x_gate())
        err_default = 1 - average_gate_fidelity(backend.gate_channel("x", (0,)), x_gate())
        assert err_ideal < err_default

    def test_schedule_unitary_frame_correction(self, noiseless_backend, montreal_props):
        """rz followed by sx implemented via phase shift reproduces sx·rz."""
        sx_sched = default_drag_sx_like(montreal_props)
        sched = Schedule()
        sched.append(ShiftPhase(-np.pi / 2, DriveChannel(0)))
        sched.append(sx_sched)
        u = noiseless_backend.simulator.schedule_unitary(sched, qubits=[0])
        target = sx_gate() @ rz_gate(np.pi / 2)
        assert unitary_overlap_fidelity(target, u) == pytest.approx(1.0, abs=5e-3)

    def test_phase_only_schedule(self, backend):
        sched = Schedule()
        sched.append(ShiftPhase(-0.7, DriveChannel(0)))
        chan = backend.simulator.schedule_channel(sched, qubits=[0])
        assert np.allclose(chan, unitary_superop(rz_gate(0.7)), atol=1e-12)

    def test_cx_channel(self, backend):
        chan = backend.gate_channel("cx", (0, 1))
        assert chan.shape == (16, 16)
        err = 1 - average_gate_fidelity(chan, cx_gate())
        assert err < 0.1

    def test_infer_qubits(self, backend):
        sched = backend.instruction_schedule_map.get("cx", (0, 1))
        assert backend.simulator.infer_qubits(sched) == [0, 1]

    def test_three_qubit_schedule_rejected(self, backend):
        sched = Schedule()
        for q in range(3):
            sched.append(Play(Constant(duration=16, amp=0.1), DriveChannel(q)))
        with pytest.raises(ValidationError):
            backend.simulator.schedule_channel(sched)

    def test_simulation_options_validation(self):
        with pytest.raises(ValidationError):
            SimulationOptions(levels_1q=1)
        with pytest.raises(ValidationError):
            SimulationOptions(resample=0)


def default_drag_sx_like(props):
    from repro.pulse.calibrations import default_drag_sx

    return default_drag_sx(0, props.qubit(0), props.dt, amplitude_error=0.0, drag_error=0.0)


class TestResult:
    def test_counts_must_match_shots(self):
        with pytest.raises(ValidationError):
            Result(counts={"0": 10}, shots=20)

    def test_probabilities_and_expectation(self):
        res = Result(counts={"0": 75, "1": 25}, shots=100)
        assert res.probability("0") == pytest.approx(0.75)
        assert res.expectation_z(0) == pytest.approx(0.5)
        assert res.ground_state_population() == pytest.approx(0.75)


class TestBackendExecution:
    def test_x_circuit_counts(self, backend):
        qc = QuantumCircuit(1)
        qc.x(0)
        qc.measure(0, 0)
        res = backend.run(qc, shots=2000, seed=1)
        # P(1) limited by the asymmetric readout error p01=0.10
        assert 0.82 < res.probability("1") < 0.95

    def test_h_circuit_balanced(self, backend):
        qc = QuantumCircuit(1)
        qc.h(0)
        qc.measure(0, 0)
        res = backend.run(qc, shots=4000, seed=2)
        assert 0.4 < res.probability("1") < 0.6

    def test_bell_circuit(self, backend):
        qc = QuantumCircuit(2)
        qc.h(0)
        qc.cx(0, 1)
        qc.measure_all()
        res = backend.run(qc, shots=4000, seed=3)
        p_same = res.probability("00") + res.probability("11")
        assert p_same > 0.85

    def test_rz_only_circuit_is_exact(self, backend):
        qc = QuantumCircuit(1)
        qc.rz(1.3, 0)
        qc.measure(0, 0)
        res = backend.run(qc, shots=1000, seed=4)
        # starting in |0>, an rz does nothing measurable beyond readout error
        assert res.probability("0") > 0.9

    def test_run_requires_measurement(self, backend):
        qc = QuantumCircuit(1)
        qc.x(0)
        with pytest.raises(ValidationError):
            backend.run(qc, shots=10)

    def test_custom_calibration_changes_outcome(self, backend, montreal_props):
        """A deliberately wrong custom X (half amplitude) gives a bad histogram."""
        half = Schedule()
        half.append(
            Play(
                Drag(duration=144, amp=0.3, sigma=36, beta=0.0, name="bad_x"),
                DriveChannel(0),
            )
        )
        qc = QuantumCircuit(1)
        qc.x(0)
        qc.add_calibration("x", (0,), half)
        qc.measure(0, 0)
        res = backend.run(qc, shots=2000, seed=5)
        assert res.probability("1") < 0.8

    def test_seed_reproducibility(self, backend):
        qc = QuantumCircuit(1)
        qc.h(0)
        qc.measure(0, 0)
        a = backend.run(qc, shots=500, seed=77).counts
        b = backend.run(qc, shots=500, seed=77).counts
        assert a == b

    def test_run_schedule_pulse_job(self, backend, montreal_props):
        sched = default_drag_x(0, montreal_props.qubit(0), montreal_props.dt, amplitude_error=0.0)
        res = backend.run_schedule(sched, measured_qubits=[0], shots=2000, seed=6)
        assert res.probability("1") > 0.8

    def test_gate_channel_cache_reused(self, backend):
        backend.gate_channel("x", (0,))
        n_before = len(backend._channel_cache)
        backend.gate_channel("x", (0,))
        assert len(backend._channel_cache) == n_before

    def test_circuit_channel_composition_matches_ideal_for_virtual_gates(self, backend):
        qc = QuantumCircuit(1)
        qc.rz(0.4, 0)
        qc.rz(-0.4, 0)
        chan, active = backend.circuit_channel(qc)
        assert active == [0]
        assert np.allclose(chan, np.eye(4), atol=1e-12)


class TestEmbedMemo:
    """``circuit_channel`` embeds each distinct gate channel once, by content."""

    def test_memoized_embedding_equals_uncached_and_is_read_only(self, backend):
        small = np.ascontiguousarray(backend.gate_channel("cx", (0, 1)))
        memo = backend_module._embedded_channel(small.tobytes(), small.shape, (1, 0), 3)
        assert memo.tobytes() == embed_channel(small, [1, 0], 3).tobytes()
        assert not memo.flags.writeable
        with pytest.raises(ValueError):
            memo[0, 0] = 0.0
        # a full-register channel is copied, never handed back writable
        whole = backend_module._embedded_channel(small.tobytes(), small.shape, (0, 1), 2)
        assert whole.tobytes() == small.tobytes() and not whole.flags.writeable

    def test_changed_entry_yields_a_fresh_embedding(self):
        small = unitary_superop(sx_gate())
        first = backend_module._embedded_channel(small.tobytes(), small.shape, (0,), 2)
        drifted = small.copy()
        drifted[1, 2] += 1e-9
        second = backend_module._embedded_channel(drifted.tobytes(), drifted.shape, (0,), 2)
        assert second.tobytes() == embed_channel(drifted, [0], 2).tobytes()
        assert second.tobytes() != first.tobytes()

    def test_targets_never_share_an_entry(self):
        small = unitary_superop(x_gate())
        on_0 = backend_module._embedded_channel(small.tobytes(), small.shape, (0,), 2)
        on_1 = backend_module._embedded_channel(small.tobytes(), small.shape, (1,), 2)
        assert on_0.tobytes() == embed_channel(small, [0], 2).tobytes()
        assert on_1.tobytes() == embed_channel(small, [1], 2).tobytes()
        assert not np.allclose(on_0, on_1)

    def test_memo_stays_bounded_under_arbitrary_rz_angles(self, backend):
        backend_module._embedded_channel.cache_clear()
        angles = np.random.default_rng(5).uniform(0, 2 * np.pi, backend_module._EMBED_MEMO_SIZE + 40)
        for angle in angles:
            qc = QuantumCircuit(2, 2)
            qc.rz(float(angle), 0)
            qc.x(1)
            qc.measure(0, 0)
            qc.measure(1, 1)
            backend.run(qc, shots=8, seed=0)
        info = backend_module._embedded_channel.cache_info()
        assert info.currsize == backend_module._EMBED_MEMO_SIZE
        assert info.misses >= len(angles)
