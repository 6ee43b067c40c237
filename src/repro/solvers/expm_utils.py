"""Matrix-exponential utilities specialized for quantum dynamics.

The hot path of both the pulse simulator and GRAPE optimization is computing
``exp(-i H dt)`` for many small Hermitian matrices ``H``.  For Hermitian
generators an eigendecomposition (``scipy.linalg.eigh``) is both faster and
more accurate than the general Padé ``expm`` for the small (2–16 dim)
matrices used here, and it additionally yields the exact Fréchet derivative
needed for exact GRAPE gradients via the Loewner (divided-difference) matrix.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as la

__all__ = [
    "expm_hermitian",
    "expm_hermitian_batch",
    "expm_unitary_step",
    "expm_unitary_step_batch",
    "expm_batch",
    "expm_frechet_batch",
    "hermitian_eig_batch",
    "loewner_gamma_batch",
]


def expm_hermitian(h: np.ndarray, scale: complex = 1.0) -> np.ndarray:
    """Compute ``exp(scale * H)`` for Hermitian ``H`` via eigendecomposition.

    Parameters
    ----------
    h:
        Hermitian matrix.
    scale:
        Scalar multiplying ``H`` inside the exponential (e.g. ``-1j * dt``).
    """
    h = np.asarray(h, dtype=complex)
    evals, evecs = la.eigh(h)
    phases = np.exp(scale * evals)
    return (evecs * phases) @ evecs.conj().T


def expm_unitary_step(h: np.ndarray, dt: float) -> np.ndarray:
    """Single-step unitary propagator ``exp(-i H dt)`` for Hermitian ``H``."""
    return expm_hermitian(h, scale=-1j * dt)


# --------------------------------------------------------------------------- #
# batched kernels
#
# The RB/IRB pipeline integrates thousands of identical small (2-16 dim)
# matrices; per-slot scipy calls are dominated by Python/dispatch overhead.
# The kernels below operate on stacks ``(N, d, d)`` with a single LAPACK
# dispatch per stage, which is what makes the pulse simulator and GRAPE
# cost/gradient evaluation batch-friendly.
# --------------------------------------------------------------------------- #


def hermitian_eig_batch(h_stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched eigendecomposition of a stack of Hermitian matrices.

    Parameters
    ----------
    h_stack:
        Array of shape ``(..., d, d)`` with each trailing matrix Hermitian.

    Returns
    -------
    (evals, evecs):
        ``evals`` has shape ``(..., d)``, ``evecs`` shape ``(..., d, d)``
        with eigenvectors in columns (same convention as ``scipy.linalg.eigh``).
    """
    return np.linalg.eigh(np.asarray(h_stack, dtype=complex))


def expm_hermitian_batch(h_stack: np.ndarray, scale: complex = 1.0) -> np.ndarray:
    """Compute ``exp(scale * H_k)`` for a stack of Hermitian matrices.

    Vectorized equivalent of calling :func:`expm_hermitian` on every slice:
    one stacked eigendecomposition instead of a Python loop of ``eigh`` calls.
    """
    evals, evecs = np.linalg.eigh(np.asarray(h_stack, dtype=complex))
    phases = np.exp(scale * evals)
    return np.matmul(evecs * phases[..., None, :], np.conj(np.swapaxes(evecs, -1, -2)))


def expm_unitary_step_batch(h_stack: np.ndarray, dt: float) -> np.ndarray:
    """Stack of unitary step propagators ``exp(-i H_k dt)``."""
    return expm_hermitian_batch(h_stack, scale=-1j * dt)


def loewner_gamma_batch(evals: np.ndarray, dt: float) -> np.ndarray:
    """Batched Loewner (divided-difference) matrix of ``f(x) = exp(-i x dt)``.

    Returns ``gamma`` such that the Fréchet derivative of ``exp(-i H_k dt)``
    in direction ``E`` is ``V_k [ (V_k† E V_k) ∘ gamma_k ] V_k†`` — the same
    Loewner form of the derivative (the ``-i dt`` factor of the
    diagonal/derivative is folded into ``gamma``).
    """
    phases = np.exp(-1j * dt * np.asarray(evals))
    lam_diff = evals[..., :, None] - evals[..., None, :]
    phase_diff = phases[..., :, None] - phases[..., None, :]
    small = np.abs(lam_diff) <= 1e-12
    denom = np.where(small, 1.0, lam_diff)
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma = np.where(
            small,
            -1j * dt * np.broadcast_to(phases[..., :, None], lam_diff.shape),
            phase_diff / denom,
        )
    return gamma


# Padé-13 coefficients of the scaling-and-squaring expm (Higham 2005).
_PADE13_B = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)
#: 1-norm threshold below which the order-13 Padé approximant of ``exp`` is
#: accurate to double precision without further scaling (theta_13).
_PADE13_THETA = 4.25


def expm_batch(a_stack: np.ndarray) -> np.ndarray:
    """Batched dense matrix exponential of a stack ``(..., d, d)``.

    Scaling-and-squaring with the order-13 Padé approximant, evaluated with
    stacked ``matmul``/``solve`` so the whole stack is exponentiated in a
    handful of BLAS/LAPACK dispatches.  The scaling power is chosen from the
    largest 1-norm in the stack (uniform over the batch), so every slice is
    at least as strongly scaled as scipy's per-matrix algorithm requires.

    Agrees with ``scipy.linalg.expm`` slice-by-slice to machine precision for
    the small, well-conditioned generators used in this library.
    """
    a = np.asarray(a_stack, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expm_batch expects a stack of square matrices, got shape {a.shape}")
    if a.size == 0:
        return a.copy()
    d = a.shape[-1]
    one_norm = float(np.max(np.abs(a).sum(axis=-2)))
    n_squarings = 0
    if one_norm > _PADE13_THETA:
        n_squarings = int(np.ceil(np.log2(one_norm / _PADE13_THETA)))
        a = a / (2.0**n_squarings)
    b = _PADE13_B
    eye = np.broadcast_to(np.eye(d, dtype=complex), a.shape)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for _ in range(n_squarings):
        r = r @ r
    return r


def expm_frechet_batch(
    a_stack: np.ndarray, e_stack: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Batched matrix exponential and Fréchet derivative.

    For stacks ``A`` and ``E`` of shape ``(..., d, d)``, returns
    ``(exp(A_k), dexp_{A_k}(E_k))`` computed via the exact block-triangular
    identity

        ``exp([[A, E], [0, A]]) = [[exp(A), dexp_A(E)], [0, exp(A)]]``

    with a single batched :func:`expm_batch` call on the augmented
    ``(..., 2d, 2d)`` stack.
    """
    a = np.asarray(a_stack, dtype=complex)
    e = np.asarray(e_stack, dtype=complex)
    if a.shape != e.shape:
        raise ValueError(f"A and E stacks must share a shape, got {a.shape} vs {e.shape}")
    d = a.shape[-1]
    aug = np.zeros((*a.shape[:-2], 2 * d, 2 * d), dtype=complex)
    aug[..., :d, :d] = a
    aug[..., :d, d:] = e
    aug[..., d:, d:] = a
    big = expm_batch(aug)
    return big[..., :d, :d], big[..., :d, d:]
