"""Tests for ``vec``/``unvec`` and the reference linear-algebra helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harness.quantum import (
    anticommutator,
    commutator,
    dagger,
    frobenius_norm,
    gram_schmidt,
    is_density_matrix,
    is_hermitian,
    is_unitary,
    nearest_hermitian,
    nearest_unitary,
    overlap,
    projector,
    random_density_matrix,
    random_unitary,
    spectral_norm,
)
from repro.utils.linalg import unvec, vec


class TestStructureChecks:
    def test_is_hermitian_true(self):
        h = np.array([[1.0, 1j], [-1j, 2.0]])
        assert is_hermitian(h)

    def test_is_hermitian_false(self):
        assert not is_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_is_hermitian_non_square(self):
        assert not is_hermitian(np.ones((2, 3)))

    def test_is_unitary_true(self):
        u = random_unitary(4, seed=0)
        assert is_unitary(u)

    def test_is_unitary_false(self):
        assert not is_unitary(2 * np.eye(3))

    def test_is_density_matrix_valid(self):
        rho = random_density_matrix(3, seed=1)
        assert is_density_matrix(rho)

    def test_is_density_matrix_rejects_trace(self):
        assert not is_density_matrix(2 * np.eye(2) / 2 + np.eye(2))

    def test_is_density_matrix_rejects_negative(self):
        rho = np.diag([1.5, -0.5]).astype(complex)
        assert not is_density_matrix(rho)


class TestBasicOps:
    def test_dagger(self):
        a = np.array([[1, 2j], [3, 4]], dtype=complex)
        assert np.allclose(dagger(a), a.conj().T)

    def test_commutator_pauli(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        y = np.array([[0, -1j], [1j, 0]], dtype=complex)
        z = np.array([[1, 0], [0, -1]], dtype=complex)
        assert np.allclose(commutator(x, y), 2j * z)

    def test_anticommutator_pauli(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        assert np.allclose(anticommutator(x, x), 2 * np.eye(2))

    def test_norms(self):
        a = np.diag([3.0, 4.0])
        assert frobenius_norm(a) == pytest.approx(5.0)
        assert spectral_norm(a) == pytest.approx(4.0)

    def test_overlap_trace(self):
        a = np.eye(2, dtype=complex)
        b = np.diag([1.0, -1.0]).astype(complex)
        assert overlap(a, b) == pytest.approx(0.0)

    def test_projector(self):
        ket = np.array([1.0, 1.0]) / np.sqrt(2)
        p = projector(ket)
        assert np.allclose(p @ p, p)
        assert np.trace(p) == pytest.approx(1.0)


class TestVecUnvec:
    def test_vec_column_stacking_identity(self):
        a = np.arange(4).reshape(2, 2).astype(complex)
        v = vec(a)
        # column-major: first column first
        assert np.allclose(v, [0, 2, 1, 3])

    def test_unvec_roundtrip(self):
        a = np.arange(9).reshape(3, 3).astype(complex)
        assert np.allclose(unvec(vec(a)), a)

    def test_unvec_rejects_non_square(self):
        with pytest.raises(ValueError):
            unvec(np.arange(3))

    def test_vec_identity_property(self, rng):
        """vec(A X B) == (B^T kron A) vec(X)."""
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.allclose(vec(a @ x @ b), np.kron(b.T, a) @ vec(x))


class TestProjections:
    def test_nearest_unitary_is_unitary(self, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u = nearest_unitary(a)
        assert is_unitary(u)

    def test_nearest_unitary_fixes_unitary(self):
        u0 = random_unitary(3, seed=7)
        assert np.allclose(nearest_unitary(u0), u0)

    def test_nearest_hermitian(self, rng):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h = nearest_hermitian(a)
        assert is_hermitian(h)

    def test_gram_schmidt_orthonormal(self, rng):
        vectors = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        q = gram_schmidt(vectors)
        assert np.allclose(q.conj().T @ q, np.eye(q.shape[1]), atol=1e-10)

    def test_gram_schmidt_drops_dependent(self):
        v = np.array([[1.0, 2.0], [0.0, 0.0]]).T  # second column dependent? build explicit
        vectors = np.column_stack([np.array([1.0, 0.0]), np.array([2.0, 0.0])])
        q = gram_schmidt(vectors)
        assert q.shape[1] == 1


@settings(max_examples=25, deadline=None)
@given(dim=st.integers(min_value=2, max_value=6), seed=st.integers(min_value=0, max_value=1000))
def test_haar_unitary_always_unitary(dim, seed):
    u = random_unitary(dim, seed=seed)
    assert is_unitary(u)
