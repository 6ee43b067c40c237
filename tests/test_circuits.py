"""Tests for the circuit layer: gates, circuits, synthesis, transpiler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import (
    Gate,
    QuantumCircuit,
    TranspileError,
    decompose_1q_to_basis,
    transpile,
    u3_to_zxzxz,
    zyz_decomposition,
)
from repro.pulse import Schedule
from harness.quantum import random_unitary, synthesis_fidelity_check, unitary_overlap_fidelity
from repro.qobj import hadamard, rz_gate, s_gate, standard_gate_unitary, swap_gate, sx_gate, t_gate, x_gate
from repro.utils.validation import ValidationError


class TestGate:
    def test_standard_gate(self):
        g = Gate.standard("h")
        assert g.num_qubits == 1
        assert np.allclose(g.unitary(), hadamard())

    def test_parametric_gate(self):
        g = Gate.standard("rz", 0.4)
        assert np.allclose(g.unitary(), rz_gate(0.4))

    def test_unknown_gate(self):
        with pytest.raises(ValidationError):
            Gate.standard("foo")

    def test_custom_gate_from_unitary(self):
        g = Gate.from_unitary("my_x", x_gate())
        assert g.is_custom and g.num_qubits == 1
        assert np.allclose(g.unitary(), x_gate())

    def test_inverse_named(self):
        assert Gate.standard("s").inverse().name == "sdg"
        assert np.allclose(Gate.standard("rz", 0.5).inverse().unitary(), rz_gate(-0.5))

    def test_inverse_custom(self):
        g = Gate.from_unitary("u", random_unitary(2, seed=1))
        assert np.allclose(g.inverse().unitary() @ g.unitary(), np.eye(2), atol=1e-10)


class TestQuantumCircuit:
    def test_gate_helpers_and_counts(self):
        qc = QuantumCircuit(2)
        qc.h(0)
        qc.cx(0, 1)
        qc.rz(0.3, 1)
        qc.barrier()
        qc.measure_all()
        ops = qc.count_ops()
        assert ops == {"h": 1, "cx": 1, "rz": 1, "barrier": 1, "measure": 2}
        assert qc.size() == 3
        assert qc.depth() >= 2

    def test_qubit_bounds(self):
        qc = QuantumCircuit(1)
        with pytest.raises(ValidationError):
            qc.x(1)

    def test_duplicate_qubits_rejected(self):
        qc = QuantumCircuit(2)
        with pytest.raises(ValidationError):
            qc.cx(0, 0)

    def test_to_unitary_bell(self):
        qc = QuantumCircuit(2)
        qc.h(0)
        qc.cx(0, 1)
        state = qc.to_unitary()[:, 0]
        assert abs(state[0]) ** 2 == pytest.approx(0.5)
        assert abs(state[3]) ** 2 == pytest.approx(0.5)

    def test_inverse_circuit(self):
        qc = QuantumCircuit(1)
        qc.h(0)
        qc.t(0)
        qc.sx(0)
        combined = qc.copy().compose(qc.inverse()).to_unitary()
        assert unitary_overlap_fidelity(np.eye(2), combined) == pytest.approx(1.0)

    def test_inverse_rejects_measurement(self):
        qc = QuantumCircuit(1)
        qc.measure(0, 0)
        with pytest.raises(ValidationError):
            qc.inverse()

    def test_compose(self):
        a = QuantumCircuit(2)
        a.x(0)
        b = QuantumCircuit(2)
        b.cx(0, 1)
        a.compose(b)
        assert a.count_ops() == {"x": 1, "cx": 1}

    def test_add_calibration_tracked(self):
        qc = QuantumCircuit(1)
        qc.x(0)
        sched = Schedule()
        qc.add_calibration("x", (0,), sched)
        assert qc.calibrations[("x", (0,))] is sched

    def test_measured_qubits(self):
        qc = QuantumCircuit(3)
        qc.measure(2, 0)
        qc.measure(0, 1)
        assert qc.measured_qubits() == [(2, 0), (0, 1)]


class TestSynthesis:
    def test_zyz_of_hadamard(self):
        theta, phi, lam, phase = zyz_decomposition(hadamard())
        rebuilt = np.exp(1j * phase) * rz_gate(phi) @ np.array(
            [[np.cos(theta / 2), -np.sin(theta / 2)], [np.sin(theta / 2), np.cos(theta / 2)]]
        ) @ rz_gate(lam)
        assert np.allclose(rebuilt, hadamard(), atol=1e-9)

    def test_zyz_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            zyz_decomposition(np.array([[1, 1], [0, 1]], dtype=complex))

    def test_u3_to_zxzxz_identity(self):
        seq = u3_to_zxzxz(0.3, 0.7, -0.2)
        assert [name for name, _ in seq] == ["rz", "sx", "rz", "sx", "rz"]

    @pytest.mark.parametrize("gate_matrix", [x_gate(), hadamard(), s_gate(), t_gate(), sx_gate(), np.eye(2)])
    def test_decompose_named_gates(self, gate_matrix):
        seq = decompose_1q_to_basis(gate_matrix)
        assert synthesis_fidelity_check(gate_matrix, seq) == pytest.approx(1.0, abs=1e-9)

    def test_pure_z_rotation_uses_single_rz(self):
        seq = decompose_1q_to_basis(rz_gate(0.37))
        assert len(seq) == 1 and seq[0][0] == "rz"

    def test_hadamard_uses_single_sx(self):
        """The paper notes H transpiles to sqrt(X) plus two virtual Z rotations."""
        seq = decompose_1q_to_basis(hadamard())
        assert sum(1 for name, _ in seq if name == "sx") == 1

    def test_identity_is_empty(self):
        assert decompose_1q_to_basis(np.eye(2)) == []


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_decompose_random_unitaries(seed):
    u = random_unitary(2, seed=seed)
    seq = decompose_1q_to_basis(u)
    assert len(seq) <= 5
    assert synthesis_fidelity_check(u, seq) == pytest.approx(1.0, abs=1e-8)


class TestTranspiler:
    def test_h_becomes_rz_sx_rz(self):
        qc = QuantumCircuit(1)
        qc.h(0)
        out = transpile(qc)
        ops = out.count_ops()
        assert ops.get("sx", 0) == 1 and ops.get("rz", 0) == 2
        assert unitary_overlap_fidelity(hadamard(), out.to_unitary()) == pytest.approx(1.0)

    def test_basis_gates_pass_through(self):
        qc = QuantumCircuit(1)
        qc.x(0)
        qc.sx(0)
        qc.rz(0.2, 0)
        out = transpile(qc)
        assert out.count_ops() == {"x": 1, "sx": 1, "rz": 1}

    def test_runs_of_1q_gates_merged(self):
        qc = QuantumCircuit(1)
        qc.h(0)
        qc.t(0)
        qc.h(0)
        qc.s(0)
        out = transpile(qc)
        assert out.count_ops().get("sx", 0) <= 2
        assert unitary_overlap_fidelity(qc.to_unitary(), out.to_unitary()) == pytest.approx(1.0)

    def test_barrier_prevents_merging(self):
        qc = QuantumCircuit(1)
        qc.h(0)
        qc.barrier()
        qc.h(0)
        out = transpile(qc)
        assert out.count_ops().get("sx", 0) == 2

    def test_swap_decomposition(self):
        qc = QuantumCircuit(2)
        qc.swap(0, 1)
        out = transpile(qc)
        assert out.count_ops().get("cx", 0) == 3
        assert unitary_overlap_fidelity(swap_gate(), out.to_unitary()) == pytest.approx(1.0)

    def test_cz_and_iswap_and_cr(self):
        for name in ("cz", "iswap"):
            qc = QuantumCircuit(2)
            getattr(qc, name)(0, 1)
            out = transpile(qc)
            assert unitary_overlap_fidelity(standard_gate_unitary(name), out.to_unitary()) == pytest.approx(1.0)
        qc = QuantumCircuit(2)
        qc.append(Gate.standard("cr", 0.7), (0, 1))
        out = transpile(qc)
        assert unitary_overlap_fidelity(standard_gate_unitary("cr", 0.7), out.to_unitary()) == pytest.approx(1.0)

    def test_custom_calibrated_gate_preserved(self):
        qc = QuantumCircuit(1)
        gate = Gate.from_unitary("x_custom", x_gate())
        qc.append(gate, (0,))
        qc.add_calibration("x_custom", (0,), Schedule())
        out = transpile(qc)
        assert "x_custom" in out.count_ops()

    def test_coupling_constraint(self):
        qc = QuantumCircuit(3)
        qc.cx(0, 2)
        with pytest.raises(TranspileError):
            transpile(qc, coupling=[(0, 1), (1, 2)])

    def test_random_circuit_equivalence(self):
        rng = np.random.default_rng(5)
        qc = QuantumCircuit(2)
        for _ in range(12):
            choice = rng.integers(0, 4)
            if choice == 0:
                qc.unitary(random_unitary(2, seed=int(rng.integers(1e6))), [int(rng.integers(2))])
            elif choice == 1:
                qc.cx(0, 1)
            elif choice == 2:
                qc.h(int(rng.integers(2)))
            else:
                qc.rz(float(rng.uniform(-np.pi, np.pi)), int(rng.integers(2)))
        out = transpile(qc)
        assert unitary_overlap_fidelity(qc.to_unitary(), out.to_unitary()) == pytest.approx(1.0, abs=1e-8)
        allowed = {"x", "sx", "rz", "cx", "id"}
        assert all(inst.operation.name in allowed for inst in out.gates())
