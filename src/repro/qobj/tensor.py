"""Embedding an operator on a few subsystems into a larger tensor space."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..utils.validation import ValidationError

__all__ = ["expand_operator"]


def expand_operator(op, n_subsystems: int, targets: int | Sequence[int], dims: Sequence[int] | None = None) -> np.ndarray:
    """Embed an operator acting on ``targets`` into a larger tensor space.

    Parameters
    ----------
    op:
        Operator acting on the target subsystems, with its tensor factors
        ordered as listed in ``targets``.
    n_subsystems:
        Total number of subsystems in the full space.
    targets:
        Subsystem index or indices the operator acts on.
    dims:
        Dimension of each subsystem of the full space (defaults to qubits,
        i.e. all 2s).

    Returns
    -------
    np.ndarray
        The embedded operator ``I ⊗ ... ⊗ op ⊗ ... ⊗ I`` with the operator's
        factors routed to the requested subsystem slots (in any order).
    """
    if isinstance(targets, (int, np.integer)):
        targets = [int(targets)]
    else:
        targets = [int(t) for t in targets]
    if dims is None:
        dims = [2] * n_subsystems
    dims = list(map(int, dims))
    if len(dims) != n_subsystems:
        raise ValidationError(f"dims must have length {n_subsystems}, got {len(dims)}")
    if len(set(targets)) != len(targets):
        raise ValidationError(f"duplicate target indices: {targets}")
    if any(t < 0 or t >= n_subsystems for t in targets):
        raise ValidationError(f"target indices {targets} out of range for {n_subsystems} subsystems")

    op_arr = np.asarray(op, dtype=complex)
    target_dims = [dims[t] for t in targets]
    d_target = int(np.prod(target_dims))
    if op_arr.shape != (d_target, d_target):
        raise ValidationError(
            f"operator shape {op_arr.shape} inconsistent with target dims {target_dims}"
        )

    # Build the full operator by first forming op ⊗ I_rest with the operator's
    # factors leftmost, then permuting subsystems into their requested slots.
    rest = [i for i in range(n_subsystems) if i not in targets]
    rest_dims = [dims[i] for i in rest]
    d_rest = int(np.prod(rest_dims)) if rest_dims else 1
    full = np.kron(op_arr, np.eye(d_rest, dtype=complex))
    # current subsystem order: targets + rest; desired order: 0..n-1
    current_order = targets + rest
    current_dims = target_dims + rest_dims
    # permutation that maps current position -> desired subsystem index
    perm = [current_order.index(i) for i in range(n_subsystems)]
    return _permute_matrix(full, current_dims, perm)


def _permute_matrix(mat: np.ndarray, sub_dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Permute the tensor factors of a square matrix.

    ``perm[i]`` gives the index (in the current ordering) of the subsystem
    that should end up at position ``i``.
    """
    n = len(sub_dims)
    dims = list(sub_dims)
    tens = mat.reshape(dims + dims)
    axes = list(perm) + [p + n for p in perm]
    out = np.transpose(tens, axes)
    d = int(np.prod(dims))
    return np.ascontiguousarray(out.reshape(d, d))
