"""High-level pulse optimization entry point (QuTiP ``pulseoptim`` equivalent).

:func:`optimize_pulse_unitary` is the function the experiment drivers call,
mirroring the QuTiP interface the paper uses: drift and control Hamiltonians,
an initial and target unitary, a piecewise-constant time grid, an initial
pulse shape, amplitude bounds, and an optimizer selection.

Example
-------
>>> import numpy as np
>>> from repro.core import optimize_pulse_unitary
>>> from repro.qobj import sigmax, sigmay, x_gate
>>> result = optimize_pulse_unitary(
...     drift=np.zeros((2, 2)),
...     controls=[0.5 * 2 * np.pi * 0.05 * sigmax(),
...               0.5 * 2 * np.pi * 0.05 * sigmay()],
...     initial=np.eye(2),
...     target=x_gate(),
...     n_ts=10,
...     evo_time=50.0,
...     fid_err_targ=1e-8,
... )
>>> result.fid_err < 1e-6
True
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .crab import optimize_crab
from .goat import optimize_goat
from .grape import GrapeOptimizer
from .krotov import optimize_krotov
from .lbfgs import optimize_lbfgs
from .parametrization import TimeGrid, initial_amplitudes
from .result import OptimResult
from .spsa import optimize_spsa
from ..utils.validation import ValidationError

__all__ = ["optimize_pulse_unitary"]

_METHODS = ("LBFGS", "GRAPE", "SPSA", "CRAB", "KROTOV", "GOAT")


def optimize_pulse_unitary(
    drift,
    controls: Sequence,
    initial,
    target,
    n_ts: int,
    evo_time: float,
    c_ops: Sequence | None = None,
    method: str = "LBFGS",
    fid_err_targ: float = 1e-10,
    max_iter: int = 500,
    max_wall_time: float = 120.0,
    gradient: str = "exact",
    phase_option: str = "PSU",
    init_pulse_type: str = "DRAG",
    init_pulse_params: dict | None = None,
    init_pulse_scale: float = 0.25,
    initial_amps: np.ndarray | None = None,
    amp_lbound: float | None = -1.0,
    amp_ubound: float | None = 1.0,
    subspace_dim: int | None = None,
    seed=None,
    cost_grad=None,
    **method_options,
) -> OptimResult:
    """Find piecewise-constant control amplitudes realizing a target unitary.

    Parameters
    ----------
    drift:
        Drift Hamiltonian ``H0`` (array), angular units.
    controls:
        Control Hamiltonians ``H_j``; the optimized pulse has one amplitude
        row per entry.
    initial:
        Initial operator ``U(0)`` (the identity for gate synthesis).  If it
        is not the identity, the target is adjusted to
        ``U_target · U(0)†`` so the optimized evolution still maps
        ``U(0) → U_target``.
    target:
        Target unitary ``U_target``.
    n_ts / evo_time:
        Number of PWC slots and total pulse duration (ns).
    c_ops:
        Optional collapse operators — if given, the dynamics is a Lindblad
        master equation and the cost is the process infidelity (this is how
        the paper includes decoherence for the X-gate optimization; it
        omitted them for √X "for computational simplicity").
    method:
        ``"LBFGS"`` (default, the paper's choice), ``"GRAPE"`` (first-order
        steepest descent), ``"SPSA"``, ``"CRAB"``, ``"KROTOV"`` or ``"GOAT"``.
    fid_err_targ / max_iter / max_wall_time:
        Stopping criteria.
    gradient:
        ``"exact"`` or ``"approx"`` (gradient-based methods only).
    phase_option:
        ``"PSU"`` (phase-insensitive, default) or ``"SU"``.
    init_pulse_type / init_pulse_params / init_pulse_scale:
        Initial-guess shape (see :func:`repro.core.parametrization.initial_amplitudes`).
    initial_amps:
        Explicit initial amplitudes (overrides the generated guess).
    amp_lbound / amp_ubound:
        Box bounds applied to every slot amplitude.
    subspace_dim:
        Evaluate the fidelity on the leading ``subspace_dim`` computational
        levels only (leakage-aware optimization on a multi-level transmon
        model); ``None`` uses the full space.
    seed:
        RNG seed for stochastic components (random guesses, SPSA, CRAB).
    cost_grad:
        L-BFGS-B only: replacement cost/gradient callable (see
        :func:`repro.core.lbfgs.optimize_lbfgs`); used by the cross-point
        batched sweep evaluator in :mod:`repro.core.grape_batch`.
    **method_options:
        Forwarded to the specific optimizer (e.g. ``n_coeffs`` for CRAB,
        ``n_modes`` for GOAT, ``lambda_step`` for Krotov).

    Returns
    -------
    OptimResult
    """
    method_key = method.upper()
    if method_key not in _METHODS:
        raise ValidationError(f"method must be one of {_METHODS}, got {method!r}")
    drift_arr = np.asarray(drift, dtype=complex)
    ctrl_arrs = [np.asarray(c, dtype=complex) for c in controls]
    if not ctrl_arrs:
        raise ValidationError("at least one control Hamiltonian is required")
    u0 = np.asarray(initial, dtype=complex)
    u_target = np.asarray(target, dtype=complex)
    if u0.shape != u_target.shape or u0.shape != drift_arr.shape:
        raise ValidationError(
            f"initial {u0.shape}, target {u_target.shape} and drift {drift_arr.shape} "
            "must all have the same dimension"
        )
    if not np.allclose(u0, np.eye(u0.shape[0]), atol=1e-12):
        # gate synthesis from a non-identity starting operator: optimize the
        # residual propagator so that U_final @ U0 = U_target
        u_target = u_target @ u0.conj().T

    grid = TimeGrid(n_ts=n_ts, evo_time=evo_time)
    if initial_amps is None:
        initial_amps = initial_amplitudes(
            len(ctrl_arrs),
            grid,
            pulse_type=init_pulse_type,
            scale=init_pulse_scale,
            lbound=amp_lbound,
            ubound=amp_ubound,
            seed=seed,
            pulse_params=init_pulse_params,
        )
    else:
        initial_amps = np.asarray(initial_amps, dtype=float)
        if initial_amps.shape != (len(ctrl_arrs), n_ts):
            raise ValidationError(
                f"initial_amps must have shape ({len(ctrl_arrs)}, {n_ts}), got {initial_amps.shape}"
            )
    dt = grid.dt

    if cost_grad is not None and method_key != "LBFGS":
        raise ValidationError("cost_grad is only supported with method='LBFGS'")
    if method_key == "LBFGS":
        return optimize_lbfgs(
            drift_arr, ctrl_arrs, initial_amps, u_target, dt,
            c_ops=c_ops, phase_option=phase_option, gradient=gradient,
            subspace_dim=subspace_dim,
            amp_lbound=amp_lbound, amp_ubound=amp_ubound,
            fid_err_targ=fid_err_targ, max_iter=max_iter, max_wall_time=max_wall_time,
            cost_grad=cost_grad,
        )
    if method_key == "GRAPE":
        optimizer = GrapeOptimizer(
            drift=drift_arr, controls=ctrl_arrs, u_target=u_target, dt=dt,
            c_ops=c_ops, phase_option=phase_option, gradient=gradient,
            subspace_dim=subspace_dim,
            amp_lbound=amp_lbound, amp_ubound=amp_ubound,
            **{k: v for k, v in method_options.items() if k in ("initial_step", "backtrack_factor", "max_backtracks")},
        )
        return optimizer.optimize(
            initial_amps, fid_err_targ=fid_err_targ, max_iter=max_iter, max_wall_time=max_wall_time
        )
    if method_key == "SPSA":
        return optimize_spsa(
            drift_arr, ctrl_arrs, initial_amps, u_target, dt,
            c_ops=c_ops, phase_option=phase_option,
            subspace_dim=subspace_dim,
            amp_lbound=amp_lbound, amp_ubound=amp_ubound,
            fid_err_targ=fid_err_targ, max_iter=max_iter, max_wall_time=max_wall_time,
            seed=seed,
            **{k: v for k, v in method_options.items() if k in ("spsa_a", "spsa_c")},
        )
    if method_key == "CRAB":
        return optimize_crab(
            drift_arr, ctrl_arrs, initial_amps, u_target, dt,
            c_ops=c_ops, phase_option=phase_option,
            subspace_dim=subspace_dim,
            amp_lbound=amp_lbound, amp_ubound=amp_ubound,
            fid_err_targ=fid_err_targ, max_iter=max_iter, max_wall_time=max_wall_time,
            seed=seed,
            **{k: v for k, v in method_options.items() if k in ("n_coeffs", "coeff_scale")},
        )
    if method_key == "KROTOV":
        if c_ops:
            raise ValidationError("the Krotov implementation supports closed-system optimization only")
        return optimize_krotov(
            drift_arr, ctrl_arrs, initial_amps, u_target, dt,
            amp_lbound=amp_lbound, amp_ubound=amp_ubound,
            fid_err_targ=fid_err_targ, max_iter=max_iter, max_wall_time=max_wall_time,
            **{k: v for k, v in method_options.items() if k in ("lambda_step", "update_shape")},
        )
    # GOAT
    return optimize_goat(
        drift_arr, ctrl_arrs, u_target, n_ts, evo_time,
        c_ops=c_ops,
        subspace_dim=subspace_dim,
        amp_lbound=amp_lbound, amp_ubound=amp_ubound,
        fid_err_targ=fid_err_targ, max_iter=max_iter, max_wall_time=max_wall_time,
        seed=seed,
        **{k: v for k, v in method_options.items() if k in ("n_modes", "initial_theta")},
    )
