"""Evolution bookkeeping shared by the gradient-based optimizers.

GRAPE needs, for a given set of piecewise-constant control amplitudes,

* the per-slot generators and propagators,
* the forward partial products ``F_k = U_k … U_1 U_0`` and backward partial
  products ``B_k = U_{N-1} … U_{k+1}``,

for both closed (unitary) and open (Lindblad superoperator) dynamics.  These
are assembled here once per cost evaluation and reused by the gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..qobj.superop import spost, spre
from ..solvers.expm_utils import expm_batch, hermitian_eig_batch
from ..solvers.propagator import (
    assemble_pwc_hamiltonians,
    combine_pwc_liouvillians,
    pwc_cumulative_propagators,
)
from ..utils.validation import ValidationError

__all__ = ["ClosedEvolution", "OpenEvolution", "closed_evolution", "open_evolution"]


@dataclass
class ClosedEvolution:
    """Closed-system PWC evolution data."""

    h_slots: np.ndarray  # (N, d, d)
    steps: np.ndarray  # (N, d, d) slot propagators
    forward: np.ndarray  # (N, d, d) cumulative products
    backward: np.ndarray  # (N, d, d)
    dt: float
    #: Stacked eigendecomposition of ``h_slots`` (shared with the exact
    #: GRAPE gradient so the dominant-cost ``eigh`` runs once per evaluation).
    evals: np.ndarray | None = None  # (N, d)
    evecs: np.ndarray | None = None  # (N, d, d)

    @property
    def final(self) -> np.ndarray:
        """Total propagator of the pulse."""
        return self.forward[-1]

    def pre_step_propagator(self, k: int) -> np.ndarray:
        """``F_{k-1}`` (identity for ``k = 0``)."""
        if k == 0:
            return np.eye(self.steps.shape[-1], dtype=complex)
        return self.forward[k - 1]


@dataclass
class OpenEvolution:
    """Open-system (Lindblad superoperator) PWC evolution data."""

    generators: np.ndarray  # (N, d^2, d^2) slot Liouvillians (times dt NOT applied)
    steps: np.ndarray  # (N, d^2, d^2) slot propagators exp(L dt)
    forward: np.ndarray
    backward: np.ndarray
    control_generators: list[np.ndarray]  # dL/du_j  (constant over slots)
    dt: float

    @property
    def final(self) -> np.ndarray:
        return self.forward[-1]

    def pre_step_propagator(self, k: int) -> np.ndarray:
        if k == 0:
            return np.eye(self.steps.shape[-1], dtype=complex)
        return self.forward[k - 1]


def closed_evolution(
    drift,
    controls: Sequence,
    amplitudes: np.ndarray,
    dt: float,
) -> ClosedEvolution:
    """Assemble closed-system slot propagators and partial products."""
    if dt <= 0:
        raise ValidationError(f"dt must be > 0, got {dt}")
    h_slots = assemble_pwc_hamiltonians(drift, controls, amplitudes)
    evals, evecs = hermitian_eig_batch(h_slots)
    phases = np.exp(-1j * dt * evals)
    steps = np.matmul(evecs * phases[:, None, :], np.conj(np.swapaxes(evecs, -1, -2)))
    forward, backward = pwc_cumulative_propagators(steps)
    return ClosedEvolution(
        h_slots=h_slots,
        steps=steps,
        forward=forward,
        backward=backward,
        dt=float(dt),
        evals=evals,
        evecs=evecs,
    )


#: Memo of amplitude-independent open-system assembly constants, keyed by the
#: *contents* of the (drift, controls, c_ops) arrays.  Optimizers call
#: :func:`open_evolution` hundreds of times per pulse with the same model
#: operators and only the amplitudes changing; rebuilding the constant
#: Liouvillian pieces (kron-heavy ``spre``/``spost`` products) every
#: evaluation dominated the cost of small-system GRAPE.  The key is the raw
#: bytes of the small ``d × d`` model operators (a few µs to build — far
#: cheaper than the assembly), so in-place mutation or freshly allocated
#: equal-content arrays both behave correctly; the memo is bounded (oldest
#: entry evicted).
_OPEN_MODEL_MEMO: dict[tuple, tuple] = {}
_OPEN_MODEL_MEMO_MAX = 8


def _open_model_constants(drift_arr: np.ndarray, ctrl_arrs: list, c_op_arrs: list):
    """Cached ``(l_const, l_ctrls, control_generators)`` for a model."""
    from ..qobj.superop import liouvillian

    key = (
        drift_arr.tobytes(),
        tuple(c.tobytes() for c in ctrl_arrs),
        tuple(c.tobytes() for c in c_op_arrs),
    )
    hit = _OPEN_MODEL_MEMO.get(key)
    if hit is not None:
        return hit
    l_const = liouvillian(drift_arr, c_op_arrs if c_op_arrs else None)
    control_generators = [-1j * (spre(hj) - spost(hj)) for hj in ctrl_arrs]
    l_ctrls = np.stack(control_generators) if control_generators else None
    if len(_OPEN_MODEL_MEMO) >= _OPEN_MODEL_MEMO_MAX:
        _OPEN_MODEL_MEMO.pop(next(iter(_OPEN_MODEL_MEMO)))
    _OPEN_MODEL_MEMO[key] = (l_const, l_ctrls, control_generators)
    return l_const, l_ctrls, control_generators


def open_evolution(
    drift,
    controls: Sequence,
    amplitudes: np.ndarray,
    dt: float,
    c_ops: Sequence,
) -> OpenEvolution:
    """Assemble open-system slot propagators and partial products.

    The slot Liouvillian is ``L_k = -i[H_k, ·] + D`` with ``D`` the (slot
    independent) dissipator built from the collapse operators.
    """
    if dt <= 0:
        raise ValidationError(f"dt must be > 0, got {dt}")
    drift_arr = np.asarray(drift, dtype=complex)
    ctrl_arrs = [np.asarray(c, dtype=complex) for c in controls]
    c_op_arrs = [np.asarray(c, dtype=complex) for c in c_ops] if c_ops else []
    l_const, l_ctrls, control_generators = _open_model_constants(drift_arr, ctrl_arrs, c_op_arrs)
    amps = np.asarray(amplitudes, dtype=float)
    if amps.ndim != 2 or amps.shape[0] != len(ctrl_arrs):
        raise ValidationError(
            f"amplitudes must have shape (n_controls={len(ctrl_arrs)}, n_slots), got {amps.shape}"
        )
    # L_k = L[H_0 + Σ_j u_jk H_j] + D, assembled by linearity of L[·].
    generators = combine_pwc_liouvillians(l_const, l_ctrls, amps)
    steps = expm_batch(generators * dt)
    forward, backward = pwc_cumulative_propagators(steps)
    return OpenEvolution(
        generators=generators,
        steps=steps,
        forward=forward,
        backward=backward,
        control_generators=control_generators,
        dt=float(dt),
    )
