"""Tests for the Clifford groups, RB fitting, RB and IRB experiments."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import PulseBackend, depolarizing_superop
from repro.benchmarking import (
    InterleavedRBExperiment,
    RBExperiment,
    clifford_group,
    fit_rb_decay,
    rb_circuits,
)
from repro.benchmarking.fitting import FIT_STATUSES, error_per_clifford
from repro.circuits import transpile
from repro.circuits.gate import Gate
from repro.devices import fake_montreal
from repro.qobj import cx_gate, hadamard, sx_gate, unitary_overlap_fidelity, x_gate
from repro.utils.validation import ValidationError


class TestCliffordGroup:
    def test_single_qubit_order(self):
        assert len(clifford_group(1)) == 24

    def test_two_qubit_order(self):
        assert len(clifford_group(2)) == 11520

    def test_identity_element(self):
        g = clifford_group(1)
        assert np.allclose(g.identity.matrix, np.eye(2))
        assert g.identity.word == ()

    def test_lookup_and_contains(self):
        g = clifford_group(1)
        assert g.contains(hadamard())
        assert g.contains(x_gate())
        assert g.contains(sx_gate())
        assert not g.contains(np.diag([1.0, np.exp(0.3j)]))
        element = g.lookup(hadamard())
        assert unitary_overlap_fidelity(element.matrix, hadamard()) == pytest.approx(1.0)
        # any global phase is accepted
        assert g.contains(np.exp(0.7j) * hadamard())
        assert g.lookup(np.exp(-2.1j) * hadamard()).index == element.index
        # non-Cliffords are rejected
        t_gate = np.diag([1.0, np.exp(1j * np.pi / 4)])
        assert not g.contains(t_gate)
        with pytest.raises(ValidationError):
            g.lookup(t_gate)
        # the dimension must be 2**n_qubits (tableau keys do not encode n)
        g2 = clifford_group(2)
        for group, wrong in ((g, cx_gate()), (g, np.eye(2, 3)), (g2, hadamard()), (g2, np.eye(2))):
            assert not group.contains(wrong)
            with pytest.raises(ValidationError):
                group.lookup(wrong)

    def test_compose_matches_matrix_product(self):
        g = clifford_group(1)
        a, b = g.element(5), g.element(17)
        composed = g.compose(a, b)
        assert unitary_overlap_fidelity(composed.matrix, b.matrix @ a.matrix) == pytest.approx(1.0)

    def test_inverse(self):
        g = clifford_group(1)
        for idx in (0, 3, 11, 23):
            e = g.element(idx)
            inv = g.inverse(e)
            assert unitary_overlap_fidelity(inv.matrix @ e.matrix, np.eye(2)) == pytest.approx(1.0)

    def test_two_qubit_contains_cx_both_directions(self):
        g = clifford_group(2)
        assert g.contains(cx_gate())
        rev = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex)
        assert g.contains(rev)

    def test_sampling_uniform_and_seeded(self):
        g = clifford_group(1)
        rng = np.random.default_rng(0)
        indices = {g.sample(rng).index for _ in range(200)}
        assert len(indices) > 15  # most of the 24 elements show up

    def test_append_to_circuit_reproduces_unitary(self):
        from repro.circuits import QuantumCircuit

        g = clifford_group(2)
        element = g.element(137)
        qc = QuantumCircuit(2)
        g.append_to_circuit(qc, element, [0, 1])
        assert unitary_overlap_fidelity(qc.to_unitary(), element.matrix) == pytest.approx(1.0)

    def test_invalid_qubit_count(self):
        with pytest.raises(ValidationError):
            clifford_group(3)


@settings(max_examples=15, deadline=None)
@given(idx=st.integers(min_value=0, max_value=23))
def test_clifford_inverse_property(idx):
    g = clifford_group(1)
    e = g.element(idx)
    assert g.inverse(g.inverse(e)).index == e.index


class TestDecayFitting:
    def test_exact_exponential_recovered(self):
        lengths = np.array([1, 5, 10, 25, 50, 100])
        alpha, a, b = 0.98, 0.7, 0.28
        survival = a * alpha**lengths + b
        fit = fit_rb_decay(lengths, survival)
        assert fit.alpha == pytest.approx(alpha, abs=1e-6)
        assert fit.a == pytest.approx(a, abs=1e-5)
        assert fit.b == pytest.approx(b, abs=1e-5)

    def test_noisy_fit_close(self):
        rng = np.random.default_rng(0)
        lengths = np.array([1, 10, 25, 50, 100, 200])
        survival = 0.72 * 0.995**lengths + 0.27 + rng.normal(0, 0.005, lengths.size)
        fit = fit_rb_decay(lengths, survival)
        assert fit.alpha == pytest.approx(0.995, abs=3e-3)

    def test_error_per_clifford_formula(self):
        epc, epc_err = error_per_clifford(0.99, 0.001, 1)
        assert epc == pytest.approx(0.005)
        assert epc_err == pytest.approx(0.0005)
        epc2, _ = error_per_clifford(0.99, 0.0, 2)
        assert epc2 == pytest.approx(0.0075)

    def test_fixed_asymptote(self):
        lengths = np.array([1, 5, 20, 60])
        survival = 0.5 * 0.97**lengths + 0.5
        fit = fit_rb_decay(lengths, survival, p_asymptote=0.5)
        assert fit.b == pytest.approx(0.5)
        assert fit.alpha == pytest.approx(0.97, abs=1e-6)

    def test_too_few_points(self):
        with pytest.raises(ValidationError):
            fit_rb_decay([1, 2], [0.9, 0.8])

    def test_status_and_reduced_chi2(self):
        lengths = np.array([1, 16, 48, 96, 160])
        decay = 0.5 * 0.99**lengths + 0.5
        sigma = np.full(lengths.size, 0.01)
        ok = fit_rb_decay(lengths, decay + np.array([1, -1, 1, -1, 1]) * 0.002, survival_stds=sigma)
        assert ok.status == "ok"
        assert ok.reduced_chi2 == pytest.approx(np.sum((ok.predicted() - ok.survival) ** 2) / 0.01**2 / 2)
        # a decay towards a negative offset pins B to its lower bound
        at_bound = fit_rb_decay(lengths, 0.9 * 0.995**lengths - 0.05, survival_stds=sigma)
        assert (at_bound.status, at_bound.b) == ("at_bound", 0.0)
        assert np.isfinite(at_bound.alpha_err)
        # flat data: A = 0 leaves α undetermined
        flat = fit_rb_decay(lengths, np.full(lengths.size, 0.6))
        assert (flat.status, flat.a, flat.alpha_err) == ("covariance_singular", 0.0, np.inf)
        # three lengths for three free parameters: no residual variance to scale by
        three = fit_rb_decay(lengths[:3], decay[:3])
        assert (three.status, three.alpha_err, three.reduced_chi2) == ("underdetermined", np.inf, np.inf)
        assert three.alpha == pytest.approx(0.99, abs=1e-7)
        # ... but absolute spreads still give finite errors
        assert np.isfinite(fit_rb_decay(lengths[:3], decay[:3], survival_stds=sigma[:3]).alpha_err)
        assert {ok.status, at_bound.status, flat.status, three.status} == set(FIT_STATUSES)

    def test_non_finite_inputs_rejected(self):
        with pytest.raises(ValidationError):
            fit_rb_decay([1, 2, 3], [0.9, np.nan, 0.7])
        with pytest.raises(ValidationError):
            fit_rb_decay([-1, 2, 3], [0.9, 0.8, 0.7])


class TestRBCircuits:
    def test_sequence_counts(self):
        seqs = rb_circuits([0], lengths=[1, 3], n_seeds=2, seed=0)
        assert len(seqs) == 4
        assert {s.length for s in seqs} == {1, 3}

    def test_recovery_returns_to_identity(self):
        for seq in rb_circuits([0], lengths=[4], n_seeds=2, seed=1):
            qc = seq.circuit.copy()
            qc.data = [inst for inst in qc.data if inst.operation.name != "measure"]
            u = qc.to_unitary()
            assert unitary_overlap_fidelity(u, np.eye(2)) == pytest.approx(1.0, abs=1e-9)

    def test_recovery_with_interleaved_gate(self):
        seqs = rb_circuits([0], lengths=[3], n_seeds=1, seed=2, interleaved_gate=Gate.standard("x"))
        interleaved = [s for s in seqs if s.interleaved]
        assert len(interleaved) == 1
        qc = interleaved[0].circuit.copy()
        qc.data = [inst for inst in qc.data if inst.operation.name != "measure"]
        assert unitary_overlap_fidelity(qc.to_unitary(), np.eye(2)) == pytest.approx(1.0, abs=1e-9)

    def test_two_qubit_recovery(self):
        seqs = rb_circuits([0, 1], lengths=[2], n_seeds=1, seed=3)
        qc = seqs[0].circuit.copy()
        qc.data = [inst for inst in qc.data if inst.operation.name != "measure"]
        assert unitary_overlap_fidelity(qc.to_unitary(), np.eye(4)) == pytest.approx(1.0, abs=1e-9)

    def test_interleaved_gate_must_be_clifford(self):
        with pytest.raises(ValidationError):
            rb_circuits([0], lengths=[2], n_seeds=1, interleaved_gate=Gate.standard("t"))

    def test_transpiled_sequences_use_basis_gates(self, montreal_props):
        seq = rb_circuits([0], lengths=[8], n_seeds=1, seed=5)[0]
        out = transpile(seq.circuit, coupling=montreal_props.coupling)
        names = {inst.operation.name for inst in out.gates()}
        assert names <= {"rz", "sx", "x", "id"}

    def test_rejects_more_than_two_qubits(self):
        with pytest.raises(ValidationError):
            rb_circuits([0, 1, 2], lengths=[2])


class TestRBExecution:
    def test_rb_epc_matches_known_depolarizing_noise(self, montreal_props):
        """RB on a backend with purely depolarizing sx errors recovers the EPC."""
        backend = PulseBackend(montreal_props, calibrated_qubits=[0, 1], seed=5)
        # override the cached channels with ideal gates + depolarizing noise
        p = 4e-3
        backend._channel_cache[("x", (0,), "default")] = depolarizing_superop(p, 2) @ np.kron(
            x_gate().conj(), x_gate()
        )
        backend._channel_cache[("sx", (0,), "default")] = depolarizing_superop(p, 2) @ np.kron(
            sx_gate().conj(), sx_gate()
        )
        exp = RBExperiment(backend, [0], lengths=[1, 8, 24, 48, 96], n_seeds=4, shots=800, seed=7)
        result = exp.run()
        # each Clifford compiles to ~1 sx on average (plus virtual rz);
        # accept a generous band around the expected per-Clifford error
        assert 0.3 * p < result.error_per_clifford < 3.5 * p

    def test_irb_orders_default_vs_better_custom(self, backend, montreal_props):
        from repro.pulse.calibrations import default_drag_x

        good = default_drag_x(0, montreal_props.qubit(0), montreal_props.dt, amplitude_error=0.0, drag_error=0.0)
        irb_default = InterleavedRBExperiment(
            backend, "x", [0], lengths=[1, 16, 48, 96], n_seeds=4, shots=500, seed=21
        ).run()
        irb_custom = InterleavedRBExperiment(
            backend, "x", [0], lengths=[1, 16, 48, 96], n_seeds=4, shots=500, seed=21,
            custom_calibration=good,
        ).run()
        assert irb_custom.gate_error < irb_default.gate_error
        assert irb_default.gate_error > 0
        summary = irb_default.summary()
        assert set(summary) >= {"gate_error", "alpha_c", "systematic_lower", "systematic_upper"}
        lo, hi = irb_default.systematic_bounds
        assert lo <= irb_default.gate_error <= hi

    def test_irb_gate_qubit_mismatch(self, backend):
        with pytest.raises(ValidationError):
            InterleavedRBExperiment(backend, "cx", [0], lengths=[1, 2], n_seeds=1)
