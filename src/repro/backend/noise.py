"""Readout-error modelling and channel-embedding helpers."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..devices.properties import QubitProperties
from ..qobj.superop import choi_to_kraus, kraus_to_super, super_to_choi
from ..qobj.tensor import expand_operator
from ..utils.validation import ValidationError

__all__ = [
    "readout_confusion_matrix",
    "apply_readout_error",
    "embed_channel",
    "depolarizing_superop",
]


def depolarizing_superop(average_infidelity: float, dim: int) -> np.ndarray:
    """Depolarizing channel with a given *average gate infidelity*.

    The channel is ``E(ρ) = (1-p) ρ + p · Tr(ρ) I/d`` with the depolarizing
    probability chosen so that its average gate fidelity relative to the
    identity equals ``1 - average_infidelity``:
    ``p = average_infidelity · d / (d - 1)``.
    """
    if average_infidelity < 0:
        raise ValidationError(f"average_infidelity must be >= 0, got {average_infidelity}")
    if dim < 2:
        raise ValidationError(f"dim must be >= 2, got {dim}")
    p = average_infidelity * dim / (dim - 1.0)
    if p > 1.0 + 1e-12:
        raise ValidationError(
            f"average_infidelity {average_infidelity} too large for dimension {dim}"
        )
    eye_vec = np.eye(dim, dtype=complex).reshape(-1, 1, order="F")
    s = (1.0 - p) * np.eye(dim * dim, dtype=complex)
    s += (p / dim) * (eye_vec @ eye_vec.conj().T)
    return s


def readout_confusion_matrix(qubits: Sequence[QubitProperties]) -> np.ndarray:
    """Joint confusion matrix ``M[measured, prepared]`` for several qubits.

    The joint matrix is the tensor product of the per-qubit 2×2 confusion
    matrices (independent readout errors), with qubit 0 as the most
    significant bit of the composite index.
    """
    if not qubits:
        raise ValidationError("at least one qubit is required")
    mat = qubits[0].confusion_matrix()
    for q in qubits[1:]:
        mat = np.kron(mat, q.confusion_matrix())
    return mat


def apply_readout_error(probabilities: np.ndarray, confusion: np.ndarray) -> np.ndarray:
    """Apply a confusion matrix to ideal outcome probabilities.

    ``p_measured = M @ p_true``; the result is clipped at zero and
    renormalized to protect against tiny negative values from numerical
    noise in the input probabilities.
    """
    p = np.asarray(probabilities, dtype=float)
    if confusion.shape != (p.size, p.size):
        raise ValidationError(
            f"confusion matrix shape {confusion.shape} incompatible with {p.size} outcomes"
        )
    out = confusion @ p
    out = np.clip(out, 0.0, None)
    total = out.sum()
    if total <= 0:
        raise ValidationError("readout error produced a zero probability vector")
    return out / total


def embed_channel(superop: np.ndarray, targets: Sequence[int], n_qubits: int) -> np.ndarray:
    """Embed a 1- or 2-qubit channel superoperator into an ``n_qubits`` register.

    The channel is converted to its Kraus representation, each Kraus operator
    is embedded with identities on the untouched qubits, and the full-register
    superoperator is rebuilt.  This keeps complete positivity exactly and
    reuses the well-tested tensor/Choi machinery.
    """
    targets = [int(t) for t in targets]
    d_target = 2 ** len(targets)
    s = np.asarray(superop, dtype=complex)
    if s.shape != (d_target**2, d_target**2):
        raise ValidationError(
            f"superoperator shape {s.shape} inconsistent with {len(targets)} target qubits"
        )
    if len(targets) == n_qubits and targets == list(range(n_qubits)):
        return s
    kraus = choi_to_kraus(super_to_choi(s), atol=1e-12)
    embedded = [expand_operator(k, n_qubits, targets) for k in kraus]
    return kraus_to_super(embedded)
