"""Tests for operator embedding and superoperators, and the reference tensor helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harness.quantum import (
    bell_state,
    choi_to_super,
    is_cptp,
    is_trace_preserving,
    ket2dm,
    permute_subsystems,
    ptrace,
    random_density_matrix,
    random_unitary,
    tensor,
)
from repro.qobj import (
    apply_superop,
    basis,
    choi_to_kraus,
    cx_gate,
    expand_operator,
    kraus_to_super,
    liouvillian,
    lindblad_dissipator,
    sigmam,
    sigmax,
    sigmaz,
    spost,
    spre,
    sprepost,
    super_to_choi,
    unitary_superop,
    x_gate,
)
from repro.utils.linalg import vec
from repro.utils.validation import ValidationError


class TestTensor:
    def test_tensor_dims(self):
        op = tensor(sigmax(), sigmaz())
        assert op.shape == (4, 4)
        assert np.allclose(op, np.kron(sigmax(), sigmaz()))

    def test_tensor_kets(self):
        ket = tensor(basis(2, 0), basis(2, 1))
        assert ket.shape == (4, 1)
        assert ket[1, 0] == pytest.approx(1.0)

    def test_tensor_list_input(self):
        op = tensor([sigmax(), sigmax(), sigmax()])
        assert op.shape == (8, 8)

    def test_tensor_empty_raises(self):
        with pytest.raises(ValidationError):
            tensor()


class TestPtrace:
    def test_ptrace_product_state(self):
        ket = tensor(basis(2, 0), basis(2, 1))
        rho0 = ptrace(ket, 0, dims=[2, 2])
        rho1 = ptrace(ket, 1, dims=[2, 2])
        assert np.allclose(rho0, ket2dm(basis(2, 0)))
        assert np.allclose(rho1, ket2dm(basis(2, 1)))

    def test_ptrace_bell_state_is_mixed(self):
        rho0 = ptrace(bell_state("phi+"), 0, dims=[2, 2])
        assert np.allclose(rho0, np.eye(2) / 2)

    def test_ptrace_keep_both(self):
        ket = bell_state("psi-")
        rho = ptrace(ket, [0, 1], dims=[2, 2])
        assert np.allclose(rho, ket2dm(ket))

    def test_ptrace_trace_preserved(self, rng):
        rho = random_density_matrix(8, seed=3)
        reduced = ptrace(rho, [0, 2], dims=[2, 2, 2])
        assert np.trace(reduced).real == pytest.approx(1.0)
        assert reduced.shape == (4, 4)

    def test_ptrace_requires_dims_for_arrays(self):
        with pytest.raises(ValidationError):
            ptrace(np.eye(4) / 4, 0)

    def test_ptrace_invalid_index(self):
        with pytest.raises(ValidationError):
            ptrace(bell_state("phi+"), 2, dims=[2, 2])


class TestExpandOperator:
    def test_expand_single_qubit(self):
        full = expand_operator(x_gate(), 3, 1)
        expected = np.kron(np.kron(np.eye(2), x_gate()), np.eye(2))
        assert np.allclose(full, expected)

    def test_expand_two_qubit_adjacent(self):
        full = expand_operator(cx_gate(), 2, [0, 1])
        assert np.allclose(full, cx_gate())

    def test_expand_two_qubit_reversed_targets(self):
        # control on qubit 1, target on qubit 0
        full = expand_operator(cx_gate(), 2, [1, 0])
        expected = np.array(
            [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
        )
        assert np.allclose(full, expected)

    def test_expand_preserves_unitarity(self):
        u = random_unitary(4, seed=5)
        full = expand_operator(u, 3, [2, 0])
        assert np.allclose(full @ full.conj().T, np.eye(8), atol=1e-10)

    def test_expand_rejects_duplicates(self):
        with pytest.raises(ValidationError):
            expand_operator(cx_gate(), 3, [1, 1])

    def test_permute_subsystems_swap(self):
        ket = tensor(basis(2, 0), basis(2, 1))
        swapped = permute_subsystems(ket, [1, 0], dims=[2, 2])
        assert np.allclose(swapped, tensor(basis(2, 1), basis(2, 0)))


class TestSuperoperators:
    def test_spre_spost_action(self, rng):
        a = random_unitary(3, seed=1)
        rho = random_density_matrix(3, seed=2)
        assert np.allclose(spre(a) @ vec(rho), vec(a @ rho))
        assert np.allclose(spost(a) @ vec(rho), vec(rho @ a))
        assert np.allclose(sprepost(a, a.conj().T) @ vec(rho), vec(a @ rho @ a.conj().T))

    def test_unitary_superop_is_cptp(self):
        s = unitary_superop(random_unitary(2, seed=3))
        assert is_cptp(s)

    def test_apply_superop_matches_conjugation(self):
        u = x_gate()
        rho = ket2dm(basis(2, 0))
        out = apply_superop(unitary_superop(u), rho)
        assert np.allclose(out, u @ rho @ u.conj().T)

    def test_lindblad_dissipator_decay(self):
        # amplitude damping dissipator drives |1> toward |0>
        diss = lindblad_dissipator(sigmam())
        rho1 = ket2dm(basis(2, 1))
        drho = apply_superop(diss, rho1)
        assert drho[0, 0].real > 0 and drho[1, 1].real < 0

    def test_liouvillian_trace_preserving_generator(self):
        lv = liouvillian(sigmaz(), [0.1 * sigmam()])
        # columns of exp(L t) applied to any state must preserve trace
        import scipy.linalg as la

        prop = la.expm(lv * 3.0)
        assert is_trace_preserving(prop)

    def test_liouvillian_requires_something(self):
        with pytest.raises(ValidationError):
            liouvillian(None, None)

    def test_kraus_round_trip(self):
        # amplitude damping channel
        gamma = 0.3
        k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
        k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
        s = kraus_to_super([k0, k1])
        assert is_cptp(s)
        kraus_back = choi_to_kraus(super_to_choi(s))
        s_back = kraus_to_super(kraus_back)
        assert np.allclose(s_back, s, atol=1e-10)

    def test_choi_reshuffle_involution(self):
        s = unitary_superop(random_unitary(3, seed=11))
        assert np.allclose(choi_to_super(super_to_choi(s)), s)

    def test_non_cptp_detected(self):
        # a transpose-like map is positive but not completely positive
        d = 2
        transpose_map = np.zeros((4, 4), dtype=complex)
        for i in range(d):
            for j in range(d):
                e_ij = np.zeros((d, d), dtype=complex)
                e_ij[i, j] = 1.0
                transpose_map += np.kron(e_ij.conj(), e_ij.T)
        # build superop acting as rho -> rho.T via basis action
        assert not is_cptp(transpose_map)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_unitary_channel_single_kraus(seed):
    """The Choi decomposition of a unitary channel has exactly one Kraus op."""
    u = random_unitary(2, seed=seed)
    kraus = choi_to_kraus(super_to_choi(unitary_superop(u)), atol=1e-8)
    assert len(kraus) == 1
    # equal to u up to phase
    phase = np.trace(kraus[0] @ u.conj().T) / 2
    assert np.allclose(kraus[0], phase * u, atol=1e-8)
