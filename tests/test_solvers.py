"""Tests for the dynamics kernels: expm utilities and PWC propagators.

The Schrödinger- and master-equation classes check the PWC propagators
against analytic solutions and, for a PWC Hamiltonian, against an
independent RK4 integration of the Schrödinger equation.
"""

import numpy as np
import pytest
import scipy.linalg as la

from harness.quantum import is_unitary, ket2dm, random_hermitian
from harness.rk4 import rk4_integrate
from repro.qobj import apply_superop, basis, sigmam, sigmax, sigmay, sigmaz, unitary_superop, x_gate
from repro.solvers import (
    expm_hermitian,
    expm_unitary_step,
    pwc_cumulative_propagators,
    pwc_liouvillian_step_propagators,
    pwc_liouvillian_total,
    pwc_step_propagators,
    pwc_total_propagator,
)
from repro.core.dynamics import closed_evolution
from repro.solvers.expm_utils import (
    expm_batch,
    expm_frechet_batch,
    expm_hermitian_batch,
    hermitian_eig_batch,
    loewner_gamma_batch,
)
from repro.solvers.propagator import assemble_pwc_hamiltonians, chain_propagator_product
from repro.utils.validation import ValidationError

X = sigmax()
Y = sigmay()
Z = sigmaz()


def _loewner_frechet(h, directions, dt):
    """``exp(-i H dt)`` and its Fréchet derivatives in Loewner form (exact GRAPE's)."""
    evals, v = hermitian_eig_batch(np.asarray(h)[None])
    gamma = loewner_gamma_batch(evals, dt)[0]
    v = v[0]
    u = (v * np.exp(-1j * dt * evals[0])) @ v.conj().T
    return u, [v @ (gamma * (v.conj().T @ e @ v)) @ v.conj().T for e in directions]


class TestExpm:
    def test_expm_hermitian_matches_scipy(self):
        h = random_hermitian(5, seed=0)
        assert np.allclose(expm_hermitian(h, scale=-1j * 0.37), la.expm(-1j * 0.37 * h))

    def test_expm_unitary_step_is_unitary(self):
        u = expm_unitary_step(random_hermitian(4, seed=1), 0.2)
        assert is_unitary(u)

    def test_frechet_matches_finite_difference(self):
        h = random_hermitian(3, seed=2)
        e = random_hermitian(3, seed=3)
        dt = 0.31
        eps = 1e-6
        fd = (la.expm(-1j * dt * (h + eps * e)) - la.expm(-1j * dt * (h - eps * e))) / (2 * eps)
        _, (du,) = _loewner_frechet(h, [e], dt)
        assert np.allclose(du, fd, atol=1e-6)
        _, du_block = expm_frechet_batch(-1j * dt * h, -1j * dt * e)
        assert np.allclose(du_block, fd, atol=1e-6)

    def test_frechet_degenerate_eigenvalues(self):
        h = np.zeros((2, 2), dtype=complex)  # fully degenerate spectrum
        e = X
        dt = 0.5
        _, (du,) = _loewner_frechet(h, [e], dt)
        fd = (la.expm(-1j * dt * (h + 1e-6 * e)) - la.expm(-1j * dt * (h - 1e-6 * e))) / 2e-6
        assert np.allclose(du, fd, atol=1e-6)

    def test_frechet_multi_consistent(self):
        """The Loewner form and the block-triangular expm agree, direction by direction."""
        h = random_hermitian(4, seed=4)
        dirs = [random_hermitian(4, seed=5), random_hermitian(4, seed=6)]
        u, dus = _loewner_frechet(h, dirs, 0.2)
        gen = np.broadcast_to(-1j * 0.2 * h, (2, 4, 4))
        u_block, du_block = expm_frechet_batch(gen, -0.2j * np.stack(dirs))
        for k, du in enumerate(dus):
            assert np.allclose(u, u_block[k])
            assert np.allclose(du, du_block[k])


def _hermitian_stack(n: int = 6, d: int = 4, seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    return (m + np.conj(np.swapaxes(m, -1, -2))) / 2.0


class TestBatchedKernels:
    def test_kernels_bit_identical_to_numpy_formulas(self):
        """The batched kernels are exactly these NumPy calls, bit for bit."""
        herm = _hermitian_stack()
        evals, evecs = hermitian_eig_batch(herm)
        ref_evals, ref_evecs = np.linalg.eigh(herm.astype(complex))
        assert np.array_equal(evals, ref_evals)
        assert np.array_equal(evecs, ref_evecs)

        scale = -1j * 0.02
        phases = np.exp(scale * ref_evals)
        ref_steps = np.matmul(
            ref_evecs * phases[..., None, :], np.conj(np.swapaxes(ref_evecs, -1, -2))
        )
        assert np.array_equal(expm_hermitian_batch(herm, scale=scale), ref_steps)

        # closed_evolution rebuilds its slot propagators the same way
        amps = np.array([[0.3, -0.1, 0.7]])
        evolution = closed_evolution(herm[0], [herm[1]], amps, 0.02)
        h_slots = assemble_pwc_hamiltonians(herm[0], [herm[1]], amps)
        assert np.array_equal(evolution.steps, expm_hermitian_batch(h_slots, scale=scale))

        # chain product: each reduction level is one plain np.matmul
        mats = ref_steps
        while mats.shape[0] > 1:
            half = mats.shape[0] // 2
            reduced = np.matmul(mats[1 : 2 * half : 2], mats[0 : 2 * half : 2])
            if mats.shape[0] % 2:
                reduced = np.concatenate([reduced, mats[-1:]])
            mats = reduced
        assert np.array_equal(chain_propagator_product(ref_steps), mats[0])

    def test_expm_batch_matches_scipy_per_slice(self):
        rng = np.random.default_rng(11)
        gen = (rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))) * 0.3
        batched = expm_batch(gen)
        for k in range(gen.shape[0]):
            assert np.allclose(batched[k], la.expm(gen[k]), atol=1e-12)


class TestPWCPropagators:
    def test_assemble_hamiltonians(self):
        amps = np.array([[0.1, 0.2], [0.3, 0.4]])
        h = assemble_pwc_hamiltonians(Z, [X, Y], amps)
        assert h.shape == (2, 2, 2)
        assert np.allclose(h[1], Z + 0.2 * X + 0.4 * Y)

    def test_amp_shape_validation(self):
        with pytest.raises(ValidationError):
            assemble_pwc_hamiltonians(Z, [X], np.zeros((2, 5)))

    def test_constant_x_drive_pi_pulse(self):
        # H = (pi/2/T) X for time T gives X up to phase
        T, n = 10.0, 20
        amp = np.full((1, n), 1.0)
        ctrl = (np.pi / 2 / T) * X
        u = pwc_total_propagator(np.zeros((2, 2)), [ctrl], amp, T / n)
        assert abs(np.trace(u.conj().T @ x_gate())) / 2 == pytest.approx(1.0)

    def test_step_propagators_unitary(self):
        amps = np.random.default_rng(0).uniform(-1, 1, size=(2, 6))
        steps = pwc_step_propagators(Z, [X, Y], amps, 0.3)
        for u in steps:
            assert is_unitary(u)

    def test_cumulative_products(self):
        amps = np.random.default_rng(1).uniform(-1, 1, size=(2, 5))
        steps = pwc_step_propagators(Z, [X, Y], amps, 0.2)
        forward, backward = pwc_cumulative_propagators(steps)
        total = pwc_total_propagator(Z, [X, Y], amps, 0.2)
        assert np.allclose(forward[-1], total)
        # backward[k] @ forward[k] == total for every k
        for k in range(len(steps)):
            assert np.allclose(backward[k] @ forward[k], total, atol=1e-10)

    def test_liouvillian_total_matches_unitary_when_no_cops(self):
        amps = np.random.default_rng(2).uniform(-0.5, 0.5, size=(1, 4))
        u = pwc_total_propagator(Z, [X], amps, 0.1)
        s = pwc_liouvillian_total(Z, [X], amps, 0.1, c_ops=())
        assert np.allclose(s, unitary_superop(u), atol=1e-8)

    def test_propagator_time_independent(self):
        """A time-independent Hamiltonian is a one-slot PWC pulse."""
        u = pwc_total_propagator(0.5 * np.pi * X, [X], np.zeros((1, 1)), 1.0)
        assert abs(np.trace(u.conj().T @ (-1j * X))) / 2 == pytest.approx(1.0)

    def test_propagator_with_cops_is_superop(self):
        s = pwc_liouvillian_total(Z, [X], np.zeros((1, 1)), 1.0, c_ops=[0.1 * sigmam()])
        assert s.shape == (4, 4)


def _ket_trajectory(drift, controls, amps, dt, psi0):
    """States at the slot boundaries of a PWC pulse."""
    states = [np.asarray(psi0, dtype=complex)]
    for u in pwc_step_propagators(drift, controls, amps, dt):
        states.append(u @ states[-1])
    return states


def _density_trajectory(drift, controls, amps, dt, rho0, c_ops=()):
    """Density matrices at the slot boundaries of a PWC pulse with dissipation."""
    states = [np.asarray(rho0, dtype=complex)]
    for s in pwc_liouvillian_step_propagators(drift, controls, amps, dt, c_ops):
        states.append(apply_superop(s, states[-1]))
    return states


def _expect(op, rho):
    return np.trace(op @ rho)


class TestSesolve:
    """Schrödinger-equation evolution through the closed-system PWC propagators."""

    def test_rabi_oscillation(self):
        """Resonant drive: P1(t) = sin^2(Omega t / 2)."""
        omega = 0.2
        times = np.arange(81) * 0.5
        states = _ket_trajectory(np.zeros((2, 2)), [0.5 * omega * X], np.ones((1, 80)), 0.5, basis(2, 0))
        p1 = np.array([abs(psi[1, 0]) ** 2 for psi in states])
        assert np.allclose(p1, np.sin(omega * times / 2) ** 2, atol=1e-4)

    def test_pwc_and_callable_agree(self):
        amps = np.array([[0.3, -0.2, 0.5, 0.1]])
        dt = 1.5
        pwc_final = _ket_trajectory(Z * 0.1, [0.2 * X], amps, dt, basis(2, 0))[-1]

        def h_of_t(t):
            k = min(int(t // dt), 3)
            return Z * 0.1 + amps[0, k] * 0.2 * X

        times = np.arange(5) * dt
        rk4_final = rk4_integrate(lambda t, y: -1j * (h_of_t(t) @ y), basis(2, 0), times, substeps=64)[-1]
        assert np.allclose(pwc_final, rk4_final, atol=5e-4)

    def test_norm_preserved(self):
        amps = np.random.default_rng(3).uniform(-1, 1, size=(2, 10))
        for state in _ket_trajectory(Z, [X, Y], amps, 0.2, basis(2, 0)):
            assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-10)

    def test_unitary_evolution_of_identity(self):
        amps = np.array([[0.4, 0.4]])
        final = _ket_trajectory(np.zeros((2, 2)), [X], amps, 1.0, np.eye(2))[-1]
        assert is_unitary(final)


class TestMesolve:
    """Master-equation evolution through the open-system PWC propagators."""

    def test_t1_decay(self):
        t1 = 50.0
        c = np.sqrt(1.0 / t1) * sigmam()
        states = _density_trajectory(np.zeros((2, 2)), [X], np.zeros((1, 40)), 2.0, ket2dm(basis(2, 1)), [c])
        times = np.arange(41) * 2.0
        p1 = np.array([_expect(ket2dm(basis(2, 1)), rho).real for rho in states])
        assert np.allclose(p1, np.exp(-times / t1), atol=1e-3)

    def test_t2_dephasing(self):
        gamma_phi = 0.02
        c = np.sqrt(2 * gamma_phi) * np.diag([0.0, 1.0]).astype(complex)
        plus = (basis(2, 0) + basis(2, 1)) / np.sqrt(2)
        states = _density_trajectory(np.zeros((2, 2)), [X], np.zeros((1, 30)), 1.0, ket2dm(plus), [c])
        times = np.arange(31) * 1.0
        coherence = np.array([_expect(X, rho).real for rho in states])
        assert np.allclose(coherence, np.exp(-gamma_phi * times), atol=1e-3)

    def test_trace_and_positivity_preserved(self):
        amps = np.random.default_rng(4).uniform(-0.3, 0.3, size=(2, 10))
        c = 0.05 * sigmam()
        for rho in _density_trajectory(Z * 0.2, [X, Y], amps, 1.0, ket2dm(basis(2, 0)), [c]):
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)
            assert np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))) > -1e-9

    def test_matches_sesolve_without_cops(self):
        amps = np.random.default_rng(5).uniform(-0.5, 0.5, size=(1, 8))
        psi = _ket_trajectory(Z, [X], amps, 0.4, basis(2, 0))[-1]
        rho = _density_trajectory(Z, [X], amps, 0.4, ket2dm(basis(2, 0)))[-1]
        assert np.allclose(rho, ket2dm(psi), atol=1e-9)

    def test_steady_state_thermalization_to_ground(self):
        c = np.sqrt(0.5) * sigmam()
        final = _density_trajectory(np.zeros((2, 2)), [X], np.zeros((1, 50)), 1.0, ket2dm(basis(2, 1)), [c])[-1]
        assert final[0, 0].real == pytest.approx(1.0, abs=1e-6)


class TestRK4:
    def test_exponential_decay(self):
        times = np.linspace(0, 2, 21)
        out = rk4_integrate(lambda t, y: -y, np.array([1.0 + 0j]), times, substeps=4)
        assert np.allclose([o[0] for o in out], np.exp(-times), atol=1e-6)

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            rk4_integrate(lambda t, y: y, np.array([1.0]), np.array([0.0, 0.0, 1.0]))
