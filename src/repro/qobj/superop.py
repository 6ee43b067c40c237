"""Superoperator machinery for open-system dynamics and gate channels.

Superoperators are represented as dense matrices acting on column-stacked
(``vec``, Fortran-order) density matrices, i.e. the convention where

    vec(A X B) = (B^T ⊗ A) vec(X).

This module provides the Liouvillian/Lindblad constructions used by the
open-system PWC propagators, conversions between superoperator, Choi and
Kraus representations (used to compose the backend's noise channels), and the
average-gate-fidelity formula used when comparing an implemented noisy gate
channel against an ideal target unitary.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np
import scipy.linalg as la

from ..utils.linalg import vec, unvec
from ..utils.validation import ValidationError

__all__ = [
    "spre",
    "spost",
    "sprepost",
    "liouvillian",
    "lindblad_dissipator",
    "unitary_superop",
    "kraus_to_super",
    "super_to_choi",
    "choi_to_kraus",
    "apply_superop",
    "average_gate_fidelity_from_super",
    "process_fidelity_from_super",
]


def spre(op) -> np.ndarray:
    """Superoperator for left multiplication: ``rho -> op rho``."""
    a = np.asarray(op, dtype=complex)
    n = a.shape[0]
    return np.kron(np.eye(n, dtype=complex), a)


def spost(op) -> np.ndarray:
    """Superoperator for right multiplication: ``rho -> rho op``."""
    a = np.asarray(op, dtype=complex)
    n = a.shape[0]
    return np.kron(a.T, np.eye(n, dtype=complex))


def sprepost(a, b) -> np.ndarray:
    """Superoperator for ``rho -> a rho b``."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return np.kron(b.T, a)


def unitary_superop(u) -> np.ndarray:
    """Superoperator of the unitary channel ``rho -> U rho U†``."""
    u = np.asarray(u, dtype=complex)
    return np.kron(u.conj(), u)


def lindblad_dissipator(c_op) -> np.ndarray:
    """Lindblad dissipator superoperator for a single collapse operator.

    ``D[c](rho) = c rho c† - (c†c rho + rho c†c)/2``
    """
    c = np.asarray(c_op, dtype=complex)
    cdc = c.conj().T @ c
    return sprepost(c, c.conj().T) - 0.5 * (spre(cdc) + spost(cdc))


def liouvillian(h, c_ops: Iterable | None = None) -> np.ndarray:
    """Liouvillian superoperator ``L`` such that ``d vec(rho)/dt = L vec(rho)``.

    Parameters
    ----------
    h:
        Hamiltonian (angular-frequency units), or ``None`` for a purely
        dissipative Liouvillian.
    c_ops:
        Iterable of collapse operators (each already scaled by the square
        root of its rate).
    """
    if h is not None:
        h_arr = np.asarray(h, dtype=complex)
        lv = -1j * (spre(h_arr) - spost(h_arr))
    else:
        if c_ops is None:
            raise ValidationError("liouvillian requires a Hamiltonian or collapse operators")
        first = np.asarray(next(iter(c_ops)), dtype=complex)
        n = first.shape[0]
        lv = np.zeros((n * n, n * n), dtype=complex)
    if c_ops is not None:
        for c in c_ops:
            lv = lv + lindblad_dissipator(c)
    return lv


def apply_superop(superop: np.ndarray, rho) -> np.ndarray:
    """Apply a superoperator to a density matrix and return the new matrix."""
    rho_arr = np.asarray(rho, dtype=complex)
    n = rho_arr.shape[0]
    out = superop @ vec(rho_arr)
    return unvec(out, (n, n))


def kraus_to_super(kraus_ops: Sequence) -> np.ndarray:
    """Build the superoperator of the channel with the given Kraus operators."""
    kraus = [np.asarray(k, dtype=complex) for k in kraus_ops]
    if not kraus:
        raise ValidationError("kraus_to_super requires at least one Kraus operator")
    n = kraus[0].shape[0]
    out = np.zeros((n * n, n * n), dtype=complex)
    for k in kraus:
        out += np.kron(k.conj(), k)
    return out


def super_to_choi(superop: np.ndarray) -> np.ndarray:
    """Convert a superoperator (column-stacking convention) to its Choi matrix.

    The Choi matrix here is ``J = (id ⊗ E)(|Omega><Omega|) * d`` with
    ``|Omega>`` the unnormalized maximally entangled state, i.e.
    ``J = sum_{ij} E(|i><j|) ⊗ |i><j|`` reshuffled to be consistent with the
    column-stacking superoperator convention.
    """
    s = np.asarray(superop, dtype=complex)
    d2 = s.shape[0]
    d = int(round(np.sqrt(d2)))
    if d * d != d2 or s.shape != (d2, d2):
        raise ValidationError(f"superoperator must be d^2 x d^2, got shape {s.shape}")
    # Reshuffle: S[(i,j),(k,l)] (col-stacking) -> C[(j,i),(l,k)] appropriately.
    # With S = sum kron(B^T, A) mapping vec(rho), the Choi matrix is obtained by
    # the standard involution C = reshuffle(S).
    s4 = s.reshape(d, d, d, d)  # indices: (row2, row1, col2, col1) of kron(B^T, A)
    choi = np.transpose(s4, (3, 1, 2, 0)).reshape(d2, d2)
    return choi


def choi_to_kraus(choi: np.ndarray, atol: float = 1e-10) -> list[np.ndarray]:
    """Extract Kraus operators from a Choi matrix via its eigendecomposition."""
    c = np.asarray(choi, dtype=complex)
    d2 = c.shape[0]
    d = int(round(np.sqrt(d2)))
    # Hermitize to guard against numerical asymmetry
    c = 0.5 * (c + c.conj().T)
    evals, evecs = la.eigh(c)
    kraus = []
    for lam, v in zip(evals, evecs.T):
        if lam > atol:
            k = np.sqrt(lam) * v.reshape(d, d, order="F")
            kraus.append(k)
    return kraus


def process_fidelity_from_super(superop: np.ndarray, target_unitary) -> float:
    """Process (entanglement) fidelity of a channel w.r.t. a target unitary.

    ``F_pro = Tr(S_target† S) / d^2`` for the column-stacking superoperator
    representation, which equals the overlap of the normalized Choi states.
    """
    u = np.asarray(target_unitary, dtype=complex)
    d = u.shape[0]
    s_target = unitary_superop(u)
    val = np.trace(s_target.conj().T @ np.asarray(superop, dtype=complex)).real / d**2
    return float(val)


def average_gate_fidelity_from_super(superop: np.ndarray, target_unitary) -> float:
    """Average gate fidelity of a noisy channel w.r.t. a target unitary.

    Uses the standard relation ``F_avg = (d * F_pro + 1) / (d + 1)`` between
    average gate fidelity and process fidelity (Horodecki/Nielsen formula).
    """
    u = np.asarray(target_unitary, dtype=complex)
    d = u.shape[0]
    f_pro = process_fidelity_from_super(superop, u)
    return float((d * f_pro + 1.0) / (d + 1.0))
