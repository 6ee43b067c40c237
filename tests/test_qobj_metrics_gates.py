"""Tests for channel fidelity and standard gates, and the reference metrics and random objects."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harness.quantum import (
    hilbert_schmidt_distance,
    is_hermitian,
    is_unitary,
    maximally_mixed_dm,
    purity,
    random_density_matrix,
    random_hermitian,
    random_statevector,
    random_unitary,
    state_fidelity,
    trace_distance,
    unitary_infidelity,
    unitary_overlap_fidelity,
)
from repro.qobj import (
    average_gate_fidelity,
    basis,
    cr_gate,
    cx_gate,
    hadamard,
    iswap_gate,
    phase_gate,
    rx_gate,
    ry_gate,
    rz_gate,
    s_gate,
    sdg_gate,
    standard_gate_unitary,
    swap_gate,
    sx_gate,
    t_gate,
    u3_gate,
    unitary_superop,
    x_gate,
    y_gate,
    z_gate,
)
from repro.qobj.superop import process_fidelity_from_super
from repro.utils.validation import ValidationError


class TestStateMetrics:
    def test_fidelity_identical_pure(self):
        psi = random_statevector(4, seed=0)
        assert state_fidelity(psi, psi) == pytest.approx(1.0)

    def test_fidelity_orthogonal(self):
        assert state_fidelity(basis(2, 0), basis(2, 1)) == pytest.approx(0.0)

    def test_fidelity_pure_vs_mixed(self):
        assert state_fidelity(basis(2, 0), maximally_mixed_dm(2)) == pytest.approx(0.5)

    def test_fidelity_mixed_mixed_symmetric(self):
        a = random_density_matrix(3, seed=1)
        b = random_density_matrix(3, seed=2)
        assert state_fidelity(a, b) == pytest.approx(state_fidelity(b, a), abs=1e-9)

    def test_trace_distance_bounds(self):
        a = random_density_matrix(4, seed=3)
        b = random_density_matrix(4, seed=4)
        d = trace_distance(a, b)
        assert 0.0 <= d <= 1.0 + 1e-12
        assert trace_distance(a, a) == pytest.approx(0.0, abs=1e-12)

    def test_fuchs_van_de_graaf(self):
        """1 - sqrt(F) <= D <= sqrt(1 - F) for any pair of states."""
        a = random_density_matrix(3, seed=5)
        b = random_density_matrix(3, seed=6)
        f = state_fidelity(a, b)
        d = trace_distance(a, b)
        assert 1.0 - np.sqrt(f) <= d + 1e-9
        assert d <= np.sqrt(1.0 - f) + 1e-9

    def test_purity(self):
        assert purity(basis(2, 0)) == pytest.approx(1.0)
        assert purity(maximally_mixed_dm(4)) == pytest.approx(0.25)

    def test_hilbert_schmidt_distance(self):
        assert hilbert_schmidt_distance(x_gate(), x_gate()) == pytest.approx(0.0)


class TestUnitaryMetrics:
    def test_overlap_fidelity_identity(self):
        u = random_unitary(4, seed=9)
        assert unitary_overlap_fidelity(u, u) == pytest.approx(1.0)

    def test_overlap_fidelity_phase_insensitive(self):
        u = random_unitary(3, seed=10)
        assert unitary_overlap_fidelity(u, np.exp(1j * 0.7) * u) == pytest.approx(1.0)

    def test_infidelity_of_orthogonal_paulis(self):
        assert unitary_infidelity(x_gate(), z_gate()) == pytest.approx(1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            unitary_overlap_fidelity(x_gate(), cx_gate())

    def test_average_gate_fidelity_perfect(self):
        u = random_unitary(2, seed=2)
        assert average_gate_fidelity(unitary_superop(u), u) == pytest.approx(1.0)

    def test_average_gate_fidelity_depolarizing(self):
        from repro.backend.noise import depolarizing_superop

        r = 1e-3
        chan = depolarizing_superop(r, 2) @ unitary_superop(x_gate())
        assert 1.0 - average_gate_fidelity(chan, x_gate()) == pytest.approx(r, rel=1e-6)

    def test_process_fidelity_relation(self):
        """F_avg = (d F_pro + 1)/(d+1)."""
        from repro.backend.noise import depolarizing_superop

        chan = depolarizing_superop(0.01, 2) @ unitary_superop(hadamard())
        f_pro = process_fidelity_from_super(chan, hadamard())
        f_avg = average_gate_fidelity(chan, hadamard())
        assert f_avg == pytest.approx((2 * f_pro + 1) / 3, abs=1e-12)


class TestStandardGates:
    def test_pauli_relations(self):
        assert np.allclose(x_gate() @ y_gate(), 1j * z_gate())
        assert np.allclose(hadamard() @ hadamard(), np.eye(2))

    def test_sx_squares_to_x(self):
        assert np.allclose(sx_gate() @ sx_gate(), x_gate())

    def test_s_t_relations(self):
        assert np.allclose(s_gate() @ s_gate(), z_gate())
        assert np.allclose(t_gate() @ t_gate(), s_gate())
        assert np.allclose(s_gate() @ sdg_gate(), np.eye(2))

    def test_rotation_periodicity(self):
        assert np.allclose(rx_gate(2 * np.pi), -np.eye(2))
        assert np.allclose(rz_gate(np.pi), np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)]))

    def test_u3_reduces_to_ry(self):
        assert np.allclose(u3_gate(0.3, 0, 0), ry_gate(0.3))

    def test_phase_vs_rz_global_phase(self):
        lam = 0.7
        ratio = phase_gate(lam) @ np.linalg.inv(rz_gate(lam))
        assert np.allclose(ratio, ratio[0, 0] * np.eye(2))

    def test_cx_action(self):
        # |10> -> |11>
        state = np.zeros(4)
        state[2] = 1.0
        out = cx_gate() @ state
        assert abs(out[3]) == pytest.approx(1.0)

    def test_swap_action(self):
        state = np.zeros(4)
        state[1] = 1.0  # |01>
        assert abs((swap_gate() @ state)[2]) == pytest.approx(1.0)

    def test_iswap_unitary(self):
        assert is_unitary(iswap_gate())

    def test_cr_gate_is_cx_equivalent(self):
        """CNOT = (S ⊗ I)(I ⊗ RX(pi/2)) CR(-pi/2) up to global phase."""
        fixup = np.kron(s_gate(), np.eye(2)) @ np.kron(np.eye(2), rx_gate(np.pi / 2))
        candidate = fixup @ cr_gate(-np.pi / 2)
        assert unitary_overlap_fidelity(cx_gate(), candidate) == pytest.approx(1.0)

    def test_standard_gate_unitary_lookup(self):
        assert np.allclose(standard_gate_unitary("h"), hadamard())
        assert np.allclose(standard_gate_unitary("rz", 0.3), rz_gate(0.3))
        with pytest.raises(ValidationError):
            standard_gate_unitary("nope")
        with pytest.raises(ValidationError):
            standard_gate_unitary("x", 0.3)


class TestRandomObjects:
    def test_random_density_matrix_valid(self):
        rho = random_density_matrix(5, seed=0)
        evals = np.linalg.eigvalsh(rho)
        assert np.all(evals > -1e-12)
        assert np.trace(rho).real == pytest.approx(1.0)

    def test_random_density_matrix_rank(self):
        rho = random_density_matrix(4, rank=1, seed=1)
        assert purity(rho) == pytest.approx(1.0, abs=1e-9)

    def test_random_density_matrix_bad_rank(self):
        with pytest.raises(ValueError):
            random_density_matrix(3, rank=5)

    def test_random_statevector_normalized(self):
        v = random_statevector(6, seed=2)
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_random_hermitian(self):
        h = random_hermitian(4, seed=3)
        assert is_hermitian(h)

    def test_random_unitary_reproducible(self):
        assert np.allclose(random_unitary(3, seed=11), random_unitary(3, seed=11))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_state_fidelity_bounded(seed):
    a = random_density_matrix(3, seed=seed)
    b = random_density_matrix(3, seed=seed + 1)
    f = state_fidelity(a, b)
    assert -1e-9 <= f <= 1.0 + 1e-9


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_unitary_fidelity_bounded(seed):
    a = random_unitary(4, seed=seed)
    b = random_unitary(4, seed=seed + 1)
    f = unitary_overlap_fidelity(a, b)
    assert 0.0 <= f <= 1.0 + 1e-9
