"""Krotov's method for unitary gate synthesis (closed systems).

Krotov's method (the paper's reference [5]) updates the controls
*sequentially in time* within each iteration, which guarantees monotonic
convergence for a suitable step parameter λ.  For the gate-synthesis
functional used here (the phase-insensitive infidelity of the paper) the
scheme is:

1. propagate the computational basis states ``|ψ_l(t)⟩`` forward under the
   current controls,
2. compute the co-states at final time,
   ``|χ_l(T)⟩ = (f / d) U_target |l⟩`` with ``f = (1/d) Σ_l ⟨l|U_target† U(T)|l⟩``,
3. propagate the co-states backward under the same Hamiltonian,
4. sweep forward through the time slots, updating each control amplitude

       u_j(t_k) ← u_j(t_k) + (S_k / λ) · Im Σ_l ⟨χ_l(t_k)| H_j |ψ_l(t_k)⟩

   where the forward states ``ψ`` are re-propagated with the *already
   updated* amplitudes of earlier slots (the hallmark of Krotov vs GRAPE).

``S_k`` is an optional update-shape window (flat by default) and λ controls
the step size (larger λ = smaller, safer steps).
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from .cost import psu_overlap
from .grape import evolution_operator
from .parametrization import clip_amplitudes
from .result import OptimResult
from ..solvers.expm_utils import expm_unitary_step
from ..utils.validation import ValidationError

__all__ = ["optimize_krotov"]


def _forward_states(drift, ctrls, amps, dt) -> list[np.ndarray]:
    """Basis states (as columns of a matrix) at every slot boundary."""
    d = drift.shape[0]
    states = [np.eye(d, dtype=complex)]
    psi = np.eye(d, dtype=complex)
    n_ts = amps.shape[1]
    for k in range(n_ts):
        h = drift + sum(amps[j, k] * ctrls[j] for j in range(len(ctrls)))
        psi = expm_unitary_step(h, dt) @ psi
        states.append(psi)
    return states


def optimize_krotov(
    drift,
    controls: Sequence,
    initial_amps: np.ndarray,
    u_target: np.ndarray,
    dt: float,
    amp_lbound: float | None = -1.0,
    amp_ubound: float | None = 1.0,
    fid_err_targ: float = 1e-10,
    max_iter: int = 200,
    max_wall_time: float = 120.0,
    lambda_step: float = 2.0,
    update_shape: np.ndarray | None = None,
) -> OptimResult:
    """Optimize a PWC pulse for a target unitary with Krotov's method.

    Parameters
    ----------
    lambda_step:
        Krotov step parameter λ (> 0); the update magnitude scales as 1/λ.
    update_shape:
        Optional per-slot window ``S_k`` (e.g. a sine ramp that keeps the
        pulse edges at zero); defaults to all ones.
    """
    drift = np.asarray(drift, dtype=complex)
    ctrls = [np.asarray(c, dtype=complex) for c in controls]
    target = np.asarray(u_target, dtype=complex)
    amps = clip_amplitudes(np.array(initial_amps, dtype=float), amp_lbound, amp_ubound)
    if amps.ndim != 2:
        raise ValidationError(f"initial_amps must be 2-D, got shape {amps.shape}")
    n_ctrls, n_ts = amps.shape
    if lambda_step <= 0:
        raise ValidationError(f"lambda_step must be > 0, got {lambda_step}")
    shape = np.ones(n_ts) if update_shape is None else np.asarray(update_shape, dtype=float)
    if shape.shape != (n_ts,):
        raise ValidationError(f"update_shape must have shape ({n_ts},), got {shape.shape}")

    d = drift.shape[0]
    start = time.perf_counter()

    def infidelity(a: np.ndarray) -> float:
        u_final = _forward_states(drift, ctrls, a, dt)[-1]
        return 1.0 - abs(psu_overlap(target, u_final)) ** 2

    cost = infidelity(amps)
    history = [cost]
    n_iter = 0
    n_fun = 1
    reason = "maximum iterations reached"

    for iteration in range(max_iter):
        if cost <= fid_err_targ:
            reason = "target fidelity error reached"
            break
        if time.perf_counter() - start > max_wall_time:
            reason = "wall time exceeded"
            break
        # 1. forward states under the current controls
        forward = _forward_states(drift, ctrls, amps, dt)
        u_final = forward[-1]
        f = psu_overlap(target, u_final)
        # 2. co-states at final time, column-wise: chi(T) = (f/d) U_target, so
        #    that Im Tr(chi(t)† H_j psi(t)) carries the conj(f) factor of the
        #    PSU-cost first-order variation (see module docstring derivation).
        chi = (f / d) * target
        # 3. backward propagation of the co-states (store at slot boundaries)
        backward = [None] * (n_ts + 1)
        backward[n_ts] = chi
        for k in range(n_ts - 1, -1, -1):
            h = drift + sum(amps[j, k] * ctrls[j] for j in range(n_ctrls))
            u_k = expm_unitary_step(h, dt)
            backward[k] = u_k.conj().T @ backward[k + 1]
        # 4. sequential forward sweep with immediate updates
        psi = np.eye(d, dtype=complex)
        new_amps = amps.copy()
        for k in range(n_ts):
            for j in range(n_ctrls):
                overlap = np.trace(backward[k].conj().T @ ctrls[j] @ psi)
                delta = (shape[k] / lambda_step) * float(np.imag(overlap))
                new_amps[j, k] = new_amps[j, k] + delta
            new_amps[:, k] = clip_amplitudes(new_amps[:, k], amp_lbound, amp_ubound)
            h_new = drift + sum(new_amps[j, k] * ctrls[j] for j in range(n_ctrls))
            psi = expm_unitary_step(h_new, dt) @ psi
        new_cost = 1.0 - abs(psu_overlap(target, psi)) ** 2
        n_fun += 1
        n_iter += 1
        if new_cost > cost + 1e-12:
            # Krotov guarantees monotonicity only for large enough λ; back off.
            lambda_step *= 2.0
            history.append(cost)
            continue
        amps = new_amps
        cost = new_cost
        history.append(cost)

    wall = time.perf_counter() - start
    return OptimResult(
        initial_amps=np.array(initial_amps, dtype=float),
        final_amps=amps,
        fid_err=float(cost),
        fid_err_history=[float(h) for h in history],
        n_iter=n_iter,
        n_fun_evals=n_fun,
        termination_reason=reason,
        evo_time=dt * n_ts,
        n_ts=n_ts,
        dt=dt,
        final_operator=evolution_operator(drift, ctrls, amps, dt, None),
        method="KROTOV",
        wall_time=wall,
    )
