"""Column-stacking (``vec``) helpers for the superoperator convention.

``vec`` stacks a matrix's columns (Fortran order), the convention for which
``vec(A X B) = (B^T ⊗ A) vec(X)`` holds; :mod:`repro.qobj.superop` builds
its superoperators on it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["vec", "unvec"]


def vec(a: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector (column-major / Fortran order).

    This is the convention for which ``vec(A X B) = (B^T ⊗ A) vec(X)``.
    """
    return np.asarray(a).reshape(-1, order="F")


def unvec(v: np.ndarray, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Inverse of :func:`vec`: reshape a vector back to a (square) matrix."""
    v = np.asarray(v).ravel()
    if shape is None:
        n = int(round(np.sqrt(v.size)))
        if n * n != v.size:
            raise ValueError(f"cannot unvec length-{v.size} vector into a square matrix")
        shape = (n, n)
    return v.reshape(shape, order="F")
