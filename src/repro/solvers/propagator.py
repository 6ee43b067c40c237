"""Piecewise-constant (PWC) propagators for closed and open dynamics.

The paper's pulses are piecewise-constant: during time slot ``k`` the total
Hamiltonian is ``H_k = H0 + Σ_j u_jk H_j`` and the slot propagator is
``U_k = exp(-i H_k Δt)``.  These helpers compute the slot propagators, the
cumulative products needed by GRAPE, and their open-system (Liouvillian)
counterparts used by the pulse-level backend simulator.

All functions operate on stacked NumPy arrays (vectorized over time slots
where possible) and avoid per-slot Python object churn in the hot path.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .expm_utils import expm_batch, expm_general, expm_unitary_step, expm_unitary_step_batch
from ..qobj.qobj import qobj_to_array
from ..qobj.superop import liouvillian
from ..utils.validation import ValidationError

__all__ = [
    "assemble_pwc_hamiltonians",
    "assemble_pwc_liouvillians",
    "combine_pwc_liouvillians",
    "chain_propagator_product",
    "pwc_step_propagators",
    "pwc_total_propagator",
    "pwc_cumulative_propagators",
    "pwc_liouvillian_step_propagators",
    "pwc_liouvillian_total",
    "propagator",
]


def chain_propagator_product(steps: np.ndarray, initial: np.ndarray | None = None) -> np.ndarray:
    """Time-ordered product ``U = U_{N-1} ... U_1 U_0 U_init`` of stacked steps.

    Uses a logarithmic-depth pairwise reduction: adjacent pairs across the
    whole stack are multiplied in one batched ``matmul`` per level, so the
    Python-level work is ``O(log N)`` instead of ``O(N)``.  The association
    of the product differs from a sequential left-fold, so results agree with
    the loop implementation to floating-point tolerance (not bit-for-bit).
    """
    mats = np.asarray(steps)
    if mats.ndim != 3:
        raise ValidationError(f"steps must be a 3-D stack (N, d, d), got shape {mats.shape}")
    n, d, _ = mats.shape
    if n == 0:
        out = np.eye(d, dtype=complex)
    else:
        while mats.shape[0] > 1:
            m = mats.shape[0]
            half = m // 2
            # pair (U_0, U_1) -> U_1 U_0, (U_2, U_3) -> U_3 U_2, ...
            reduced = np.matmul(mats[1 : 2 * half : 2], mats[0 : 2 * half : 2])
            if m % 2:
                reduced = np.concatenate([reduced, mats[-1:]])
            mats = reduced
        out = mats[0]
    if initial is not None:
        out = out @ qobj_to_array(initial)
    return out


def assemble_pwc_hamiltonians(
    drift: np.ndarray,
    controls: Sequence[np.ndarray],
    amplitudes: np.ndarray,
) -> np.ndarray:
    """Assemble the per-slot Hamiltonians ``H_k = H0 + Σ_j u[j, k] H_j``.

    Parameters
    ----------
    drift:
        Drift Hamiltonian ``H0`` of shape ``(d, d)``.
    controls:
        Sequence of control Hamiltonians ``H_j``, each ``(d, d)``.
    amplitudes:
        Control amplitudes of shape ``(n_controls, n_slots)``.

    Returns
    -------
    ndarray of shape ``(n_slots, d, d)``.
    """
    h0 = qobj_to_array(drift)
    ctrls = np.stack([qobj_to_array(c) for c in controls]) if len(controls) else np.zeros((0, *h0.shape))
    amps = np.asarray(amplitudes, dtype=float)
    if amps.ndim != 2:
        raise ValidationError(f"amplitudes must be 2-D (n_controls, n_slots), got shape {amps.shape}")
    if amps.shape[0] != len(controls):
        raise ValidationError(
            f"amplitudes first dimension ({amps.shape[0]}) must equal number of controls ({len(controls)})"
        )
    # einsum: H[k] = H0 + sum_j amps[j, k] * ctrls[j]
    h_slots = np.broadcast_to(h0, (amps.shape[1], *h0.shape)).copy()
    if len(controls):
        h_slots += np.einsum("jk,jab->kab", amps, ctrls)
    return h_slots


def _distinct_slots(amplitudes) -> tuple[np.ndarray, np.ndarray | slice]:
    """The distinct slots (columns) of an amplitude table and the map back.

    Returns ``(distinct, inverse)`` with ``distinct[:, inverse]`` equal to
    the table.  Resampled and flat-top pulses repeat few slot values, so
    the step propagators are built once per distinct slot and gathered
    back.  Each slice comes out bit-identical to the full stack's: the
    batched kernels work slice by slice, and the batch-wide scaling power
    of :func:`expm_batch` comes from the same maximal 1-norm.  A table the
    assemblers would reject is passed through untouched.
    """
    amps = np.asarray(amplitudes, dtype=float)
    if amps.ndim != 2 or amps.size == 0:
        return amps, slice(None)
    distinct, inverse = np.unique(amps, axis=1, return_inverse=True)
    return distinct, inverse.reshape(-1)


def pwc_step_propagators(
    drift: np.ndarray,
    controls: Sequence[np.ndarray],
    amplitudes: np.ndarray,
    dt: float,
) -> np.ndarray:
    """Per-slot unitary propagators ``U_k = exp(-i H_k dt)``.

    Each distinct slot is exponentiated once.  Returns an array of shape
    ``(n_slots, d, d)``.
    """
    if dt <= 0:
        raise ValidationError(f"dt must be > 0, got {dt}")
    distinct, inverse = _distinct_slots(amplitudes)
    h_slots = assemble_pwc_hamiltonians(drift, controls, distinct)
    return expm_unitary_step_batch(h_slots, dt)[inverse]


def pwc_total_propagator(
    drift: np.ndarray,
    controls: Sequence[np.ndarray],
    amplitudes: np.ndarray,
    dt: float,
    initial: np.ndarray | None = None,
) -> np.ndarray:
    """Total propagator ``U = U_{N-1} ... U_1 U_0`` of a PWC pulse."""
    steps = pwc_step_propagators(drift, controls, amplitudes, dt)
    return chain_propagator_product(steps, initial=initial)


def pwc_cumulative_propagators(step_propagators: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward and backward cumulative products of slot propagators.

    Given slot propagators ``U_0 ... U_{N-1}``, returns

    * ``forward[k] = U_k ... U_1 U_0`` (shape ``(N, d, d)``),
    * ``backward[k] = U_{N-1} ... U_{k+1}`` with ``backward[N-1] = I``,

    which are exactly the partial products GRAPE needs to assemble gradients
    in ``O(N)`` total propagator multiplications.
    """
    steps = np.asarray(step_propagators)
    n, d, _ = steps.shape
    forward = np.empty_like(steps)
    backward = np.empty_like(steps)
    acc = np.eye(d, dtype=complex)
    for k in range(n):
        acc = steps[k] @ acc
        forward[k] = acc
    acc = np.eye(d, dtype=complex)
    for k in range(n - 1, -1, -1):
        backward[k] = acc
        acc = acc @ steps[k]
    return forward, backward


def pwc_liouvillian_step_propagators(
    drift: np.ndarray,
    controls: Sequence[np.ndarray],
    amplitudes: np.ndarray,
    dt: float,
    c_ops: Sequence[np.ndarray] = (),
) -> np.ndarray:
    """Per-slot superoperator propagators ``exp(L_k dt)`` with dissipation.

    The Liouvillian of slot ``k`` is built from the slot Hamiltonian and the
    (time-independent) collapse operators; each distinct slot is
    exponentiated once.  Returns shape ``(n_slots, d^2, d^2)``.
    """
    if dt <= 0:
        raise ValidationError(f"dt must be > 0, got {dt}")
    distinct, inverse = _distinct_slots(amplitudes)
    generators = assemble_pwc_liouvillians(drift, controls, distinct, c_ops)
    return expm_batch(generators * dt)[inverse]


def assemble_pwc_liouvillians(
    drift: np.ndarray,
    controls: Sequence[np.ndarray],
    amplitudes: np.ndarray,
    c_ops: Sequence[np.ndarray] = (),
) -> np.ndarray:
    """Per-slot Liouvillians ``L_k = L[H0] + Σ_j u[j, k] L[H_j] + D``.

    The Liouvillian is linear in the Hamiltonian, so the drift part (with the
    slot-independent dissipator ``D``) and each control's superoperator
    generator are built once and combined with a single ``einsum`` over the
    amplitude table — no per-slot ``kron`` construction.

    Returns an array of shape ``(n_slots, d^2, d^2)``.
    """
    h0 = qobj_to_array(drift)
    ctrl_arrs = [qobj_to_array(c) for c in controls]
    amps = np.asarray(amplitudes, dtype=float)
    if amps.ndim != 2:
        raise ValidationError(f"amplitudes must be 2-D (n_controls, n_slots), got shape {amps.shape}")
    if amps.shape[0] != len(ctrl_arrs):
        raise ValidationError(
            f"amplitudes first dimension ({amps.shape[0]}) must equal number of controls ({len(ctrl_arrs)})"
        )
    c_arrs = [qobj_to_array(c) for c in c_ops]
    l_const = liouvillian(h0, c_arrs if c_arrs else None)
    l_ctrls = np.stack([liouvillian(hj, None) for hj in ctrl_arrs]) if ctrl_arrs else None
    return combine_pwc_liouvillians(l_const, l_ctrls, amps)


def combine_pwc_liouvillians(
    l_const: np.ndarray,
    l_ctrls: np.ndarray | None,
    amplitudes: np.ndarray,
) -> np.ndarray:
    """Combine precomputed Liouvillian pieces: ``L_k = L_const + Σ_j u_jk L_j``.

    Shared by :func:`assemble_pwc_liouvillians` and the optimizer's memoized
    open-system assembly (``repro.core.dynamics``), which caches ``l_const``
    and ``l_ctrls`` across cost evaluations.
    """
    amps = np.asarray(amplitudes, dtype=float)
    d2 = l_const.shape[0]
    generators = np.broadcast_to(l_const, (amps.shape[1], d2, d2)).copy()
    if l_ctrls is not None and len(l_ctrls):
        generators += np.einsum("jk,jab->kab", amps, l_ctrls)
    return generators


def pwc_liouvillian_total(
    drift: np.ndarray,
    controls: Sequence[np.ndarray],
    amplitudes: np.ndarray,
    dt: float,
    c_ops: Sequence[np.ndarray] = (),
) -> np.ndarray:
    """Total superoperator of a PWC pulse with dissipation."""
    steps = pwc_liouvillian_step_propagators(drift, controls, amplitudes, dt, c_ops)
    return chain_propagator_product(steps)


def propagator(
    hamiltonian,
    total_time: float,
    n_steps: int = 1,
    c_ops: Sequence[np.ndarray] = (),
) -> np.ndarray:
    """Propagator of a *time-independent* Hamiltonian over ``total_time``.

    Returns the unitary ``exp(-i H T)`` if no collapse operators are given,
    otherwise the superoperator ``exp(L T)``.  ``n_steps`` exists for API
    symmetry with the PWC helpers (the result is independent of it for a
    constant generator) and is validated for positivity.
    """
    if n_steps < 1:
        raise ValidationError(f"n_steps must be >= 1, got {n_steps}")
    if total_time < 0:
        raise ValidationError(f"total_time must be >= 0, got {total_time}")
    h = qobj_to_array(hamiltonian)
    if not c_ops:
        return expm_unitary_step(h, total_time)
    lv = liouvillian(h, [qobj_to_array(c) for c in c_ops])
    return expm_general(lv * total_time)
