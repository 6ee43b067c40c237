"""Computational-basis state constructor."""

from __future__ import annotations

import numpy as np

from ..utils.validation import ValidationError

__all__ = ["basis"]


def basis(dim: int, n: int = 0) -> np.ndarray:
    """Computational-basis ket ``|n>`` in a ``dim``-dimensional space (column vector)."""
    if not 0 <= n < dim:
        raise ValidationError(f"basis index must satisfy 0 <= n < {dim}, got {n}")
    ket = np.zeros((dim, 1), dtype=complex)
    ket[n, 0] = 1.0
    return ket
