"""Common operator constructors (Pauli, ladder, number, projectors).

Each constructor returns a fresh complex ``numpy.ndarray``.  Multi-level
(transmon) operators take an explicit ``levels`` argument so the same code
path serves both two-level qubit models and three-or-more level
Duffing-oscillator models.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "identity",
    "sigmax",
    "sigmay",
    "sigmaz",
    "sigmap",
    "sigmam",
    "pauli",
    "destroy",
    "create",
    "num",
    "projector_op",
]

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def identity(n: int = 2) -> np.ndarray:
    """Identity operator on an ``n``-dimensional space."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return np.eye(n, dtype=complex)


def sigmax(levels: int = 2) -> np.ndarray:
    """Pauli-X, embedded in the lowest two levels of a ``levels``-dim space.

    For ``levels > 2`` the operator acts as σx on the computational subspace
    {|0>, |1>} and as zero elsewhere — this is the control operator used when
    optimizing qubit gates on a multi-level transmon.
    """
    op = np.zeros((levels, levels), dtype=complex)
    op[:2, :2] = _SIGMA_X
    return op


def sigmay(levels: int = 2) -> np.ndarray:
    """Pauli-Y embedded in the lowest two levels (see :func:`sigmax`)."""
    op = np.zeros((levels, levels), dtype=complex)
    op[:2, :2] = _SIGMA_Y
    return op


def sigmaz(levels: int = 2) -> np.ndarray:
    """Pauli-Z embedded in the lowest two levels (see :func:`sigmax`)."""
    op = np.zeros((levels, levels), dtype=complex)
    op[:2, :2] = _SIGMA_Z
    return op


def sigmap(levels: int = 2) -> np.ndarray:
    """Qubit raising operator ``|1><0|`` embedded in the lowest two levels."""
    op = np.zeros((levels, levels), dtype=complex)
    op[1, 0] = 1.0
    return op


def sigmam(levels: int = 2) -> np.ndarray:
    """Qubit lowering operator ``|0><1|`` embedded in the lowest two levels."""
    op = np.zeros((levels, levels), dtype=complex)
    op[0, 1] = 1.0
    return op


def pauli(label: str) -> np.ndarray:
    """Return a (possibly multi-qubit) Pauli operator from its label.

    ``label`` is a string over ``{I, X, Y, Z}``; multi-character labels are
    tensor products with the leftmost character acting on qubit 0 (the most
    significant tensor factor).  Example: ``pauli("ZX")`` = σz ⊗ σx.
    """
    singles = {
        "I": np.eye(2, dtype=complex),
        "X": _SIGMA_X,
        "Y": _SIGMA_Y,
        "Z": _SIGMA_Z,
    }
    label = label.upper()
    if not label or any(ch not in singles for ch in label):
        raise ValueError(f"invalid Pauli label {label!r}; must be a string over I/X/Y/Z")
    # copy, so a caller writing into the result cannot corrupt the constants
    op = singles[label[0]].copy()
    for ch in label[1:]:
        op = np.kron(op, singles[ch])
    return op


def destroy(levels: int) -> np.ndarray:
    """Bosonic annihilation operator truncated to ``levels`` levels."""
    if levels < 2:
        raise ValueError(f"levels must be >= 2, got {levels}")
    return np.diag(np.sqrt(np.arange(1, levels, dtype=float)), k=1).astype(complex)


def create(levels: int) -> np.ndarray:
    """Bosonic creation operator truncated to ``levels`` levels."""
    return destroy(levels).conj().T


def num(levels: int) -> np.ndarray:
    """Number operator ``a† a`` truncated to ``levels`` levels."""
    return np.diag(np.arange(levels, dtype=float)).astype(complex)


def projector_op(level: int, levels: int) -> np.ndarray:
    """Projector ``|level><level|`` on a ``levels``-dimensional space."""
    if not 0 <= level < levels:
        raise ValueError(f"level must be in [0, {levels}), got {level}")
    op = np.zeros((levels, levels), dtype=complex)
    op[level, level] = 1.0
    return op
