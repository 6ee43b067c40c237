"""GRAPE: gradient computation and first-order gradient-descent optimizer.

GRAPE (GRadient Ascent Pulse Engineering, Khaneja et al. 2005) parametrizes
each control as piecewise constant and follows the gradient of the gate
infidelity with respect to every slot amplitude.  Two gradient flavours are
provided:

* ``"exact"`` — the Fréchet derivative of each slot propagator computed from
  the spectral (divided-difference) formula for Hermitian generators, and
  ``scipy.linalg.expm_frechet`` for open-system Liouvillians,
* ``"approx"`` — the standard first-order approximation
  ``dU_k/du ≈ -i dt H_j U_k`` (cheaper, accurate for small ``dt``).

The plain-GRAPE optimizer in :class:`GrapeOptimizer` performs steepest
descent with backtracking line search — this is the "converges very slowly"
baseline of Section II; the production path is the L-BFGS-B driver in
:mod:`repro.core.lbfgs` that consumes the same cost/gradient function.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cost import psu_overlap, superop_process_infidelity, unitary_psu_infidelity, unitary_su_infidelity
from .dynamics import closed_evolution, open_evolution
from .parametrization import clip_amplitudes
from .result import OptimResult
from ..qobj.qobj import qobj_to_array
from ..qobj.superop import unitary_superop
from ..solvers.expm_utils import expm_frechet_batch, loewner_gamma_batch
from ..utils.validation import ValidationError

__all__ = ["grape_cost_and_gradient", "GrapeOptimizer"]


@functools.lru_cache(maxsize=128)
def _einsum_path(subscripts: str, shapes: tuple[tuple[int, ...], ...]) -> list:
    """The greedy contraction path ``einsum(optimize=True)`` picks for these shapes.

    The path depends only on the subscripts and operand shapes, so it is
    searched once per shape; searched on every call, it costs about 15% of
    a GRAPE optimization.
    """
    operands = [np.broadcast_to(0.0, shape) for shape in shapes]
    return np.einsum_path(subscripts, *operands, optimize=True)[0]


def _einsum(subscripts: str, *operands: np.ndarray) -> np.ndarray:
    """``np.einsum(..., optimize=True)`` on a cached contraction path.

    Bit-identical to ``optimize=True``: the same path gives the same
    sequence of pairwise contractions.
    """
    path = _einsum_path(subscripts, tuple(op.shape for op in operands))
    return np.einsum(subscripts, *operands, optimize=path)


def _pre_step_stack(forward: np.ndarray) -> np.ndarray:
    """Stack of ``F_{k-1}`` partial products (identity for ``k = 0``)."""
    n, d, _ = forward.shape
    pre = np.empty_like(forward)
    pre[0] = np.eye(d, dtype=complex)
    if n > 1:
        pre[1:] = forward[:-1]
    return pre


def _closed_cost_and_gradient(
    drift,
    controls: Sequence,
    amps: np.ndarray,
    dt: float,
    u_target: np.ndarray,
    phase_option: str,
    gradient: str,
    subspace_dim: int | None = None,
) -> tuple[float, np.ndarray]:
    evo = closed_evolution(drift, controls, amps, dt)
    u_target = qobj_to_array(u_target)
    u_final = evo.final
    if subspace_dim is None:
        d = u_target.shape[0]
        ut_dag = u_target.conj().T
    else:
        # Leakage-aware cost: the overlap is evaluated on the computational
        # subspace only, so any population leaking to higher transmon levels
        # directly reduces |f| and is penalized.
        d = int(subspace_dim)
        ut_dag = np.zeros_like(u_target)
        ut_dag[:d, :d] = u_target[:d, :d].conj().T
    f = complex(np.trace(ut_dag @ u_final) / d)
    if phase_option == "PSU":
        cost = 1.0 - abs(f) ** 2
    elif phase_option == "SU":
        cost = 1.0 - np.real(f)
    else:
        raise ValidationError(f"phase_option must be 'PSU' or 'SU', got {phase_option!r}")

    ctrl_stack = np.stack([qobj_to_array(c) for c in controls]).astype(complex)
    # Tr(left_k dU_jk right_k) = Tr(dU_jk M_k) with M_k = right_k left_k,
    # evaluated for all slots and controls at once.
    left = np.matmul(ut_dag, evo.backward)  # (N, d, d)
    right = _pre_step_stack(evo.forward)  # (N, d, d)
    m_stack = np.matmul(right, left)  # (N, d, d)
    if gradient == "exact":
        # Spectral (Loewner) Fréchet derivative, one stacked eigendecomposition
        # (reused from the evolution assembly) instead of a per-slot loop:
        # dU = V [(V† E V) ∘ gamma] V†, so
        # Tr(dU M) = sum_ab (V† E V)[a,b] gamma[a,b] (V† M V)[b,a].
        v = evo.evecs
        v_dag = np.conj(np.swapaxes(v, -1, -2))
        gamma = loewner_gamma_batch(evo.evals, dt)
        p = _einsum("kya,jyz,kzb->jkab", v.conj(), ctrl_stack, v)
        w = np.matmul(v_dag, np.matmul(m_stack, v))  # (N, d, d)
        df_all = _einsum("jkab,kab,kba->jk", p, gamma, w) / d
    elif gradient == "approx":
        # dU_jk ≈ -i dt H_j U_k  =>  Tr(dU M) = -i dt Tr(H_j U_k M_k)
        um = np.matmul(evo.steps, m_stack)  # (N, d, d)
        df_all = (-1j * dt) * _einsum("jab,kba->jk", ctrl_stack, um) / d
    else:
        raise ValidationError(f"gradient must be 'exact' or 'approx', got {gradient!r}")
    if phase_option == "PSU":
        grad = -2.0 * np.real(np.conj(f) * df_all)
    else:
        grad = -np.real(df_all)
    return float(cost), np.ascontiguousarray(grad)


def _open_cost_and_gradient(
    drift,
    controls: Sequence,
    amps: np.ndarray,
    dt: float,
    u_target: np.ndarray,
    c_ops: Sequence,
    gradient: str,
    subspace_dim: int | None = None,
) -> tuple[float, np.ndarray]:
    evo = open_evolution(drift, controls, amps, dt, c_ops)
    n_ctrls, n_ts = amps.shape
    u_target = qobj_to_array(u_target)
    s_final = evo.final
    if subspace_dim is None:
        d = u_target.shape[0]
        st_dag = unitary_superop(u_target).conj().T
    else:
        # Subspace process fidelity: project the channel onto the
        # computational block before comparing against the target.
        d = int(subspace_dim)
        levels = u_target.shape[0]
        proj = np.zeros((d, levels), dtype=complex)
        proj[:d, :d] = np.eye(d)
        lift = np.kron(proj.T, proj.conj().T)
        drop = np.kron(proj.conj(), proj)
        s_target_sub = unitary_superop(u_target[:d, :d])
        st_dag = lift @ s_target_sub.conj().T @ drop
    cost = 1.0 - float(np.real(np.trace(st_dag @ s_final)) / d**2)

    ctrl_gens = np.stack(evo.control_generators)  # (n_ctrls, d^2, d^2)
    left = np.matmul(st_dag, evo.backward)  # (N, d^2, d^2)
    right = _pre_step_stack(evo.forward)
    m_stack = np.matmul(right, left)  # M_k = right_k left_k
    if gradient == "exact":
        # Tr(left dexp_X(E) right) = Tr(E dexp_X(M)) for M = right·left (the
        # Fréchet derivative is self-adjoint under the trace pairing), so a
        # single batched Fréchet per slot covers every control direction.
        _, g_stack = expm_frechet_batch(evo.generators * dt, m_stack)
        dvals = dt * _einsum("jab,kba->jk", ctrl_gens, g_stack)
    elif gradient == "approx":
        sm = np.matmul(evo.steps, m_stack)
        dvals = dt * _einsum("jab,kba->jk", ctrl_gens, sm)
    else:
        raise ValidationError(f"gradient must be 'exact' or 'approx', got {gradient!r}")
    grad = -np.real(dvals) / d**2
    return float(cost), np.ascontiguousarray(grad)


def grape_cost_and_gradient(
    drift,
    controls: Sequence,
    amps: np.ndarray,
    dt: float,
    u_target: np.ndarray,
    c_ops: Sequence | None = None,
    phase_option: str = "PSU",
    gradient: str = "exact",
    subspace_dim: int | None = None,
) -> tuple[float, np.ndarray]:
    """Gate infidelity and its gradient with respect to the PWC amplitudes.

    Parameters
    ----------
    drift, controls:
        Drift and control Hamiltonians.
    amps:
        Control amplitudes, shape ``(n_ctrls, n_ts)``.
    dt:
        Slot duration.
    u_target:
        Target unitary (on the same Hilbert space as the Hamiltonians).
    c_ops:
        Collapse operators; if given, the evolution is open (Lindblad) and
        the cost is the process infidelity.
    phase_option:
        ``"PSU"`` (phase-insensitive, the paper's choice) or ``"SU"``.
    gradient:
        ``"exact"`` or ``"approx"`` (see module docstring).
    subspace_dim:
        If given (e.g. 2 for a qubit gate optimized on a 3-level transmon),
        the fidelity is evaluated on the leading ``subspace_dim × subspace_dim``
        computational block of the target/evolution, which makes leakage out
        of that block a first-class part of the cost.

    Returns
    -------
    (cost, gradient) with ``gradient.shape == amps.shape``.
    """
    amps = np.asarray(amps, dtype=float)
    if amps.ndim != 2:
        raise ValidationError(f"amps must be 2-D (n_ctrls, n_ts), got shape {amps.shape}")
    if len(controls) != amps.shape[0]:
        raise ValidationError(
            f"number of controls ({len(controls)}) must match amps rows ({amps.shape[0]})"
        )
    if c_ops:
        return _open_cost_and_gradient(
            drift, controls, amps, dt, u_target, c_ops, gradient, subspace_dim=subspace_dim
        )
    return _closed_cost_and_gradient(
        drift, controls, amps, dt, u_target, phase_option, gradient, subspace_dim=subspace_dim
    )


def evolution_operator(drift, controls, amps, dt, c_ops=None) -> np.ndarray:
    """Final evolution operator (unitary or superoperator) of a pulse."""
    amps = np.asarray(amps, dtype=float)
    if c_ops:
        return open_evolution(drift, controls, amps, dt, c_ops).final
    return closed_evolution(drift, controls, amps, dt).final


@dataclass
class GrapeOptimizer:
    """Plain first-order GRAPE: steepest descent with backtracking line search.

    This is deliberately the slow baseline the paper contrasts against
    L-BFGS-B; it shares the exact cost/gradient code with the L-BFGS driver,
    so benchmark comparisons isolate the update rule.
    """

    drift: np.ndarray
    controls: Sequence
    u_target: np.ndarray
    dt: float
    c_ops: Sequence | None = None
    phase_option: str = "PSU"
    gradient: str = "exact"
    subspace_dim: int | None = None
    amp_lbound: float | None = -1.0
    amp_ubound: float | None = 1.0
    initial_step: float = 0.5
    backtrack_factor: float = 0.5
    max_backtracks: int = 12

    def optimize(
        self,
        initial_amps: np.ndarray,
        fid_err_targ: float = 1e-10,
        max_iter: int = 500,
        max_wall_time: float = 60.0,
        gradient_tol: float = 1e-10,
    ) -> OptimResult:
        start = time.perf_counter()
        amps = clip_amplitudes(np.array(initial_amps, dtype=float), self.amp_lbound, self.amp_ubound)
        cost, grad = self._cost_grad(amps)
        history = [cost]
        n_fun = 1
        n_iter = 0
        reason = "maximum iterations reached"
        step = self.initial_step
        while n_iter < max_iter:
            if cost <= fid_err_targ:
                reason = "target fidelity error reached"
                break
            if time.perf_counter() - start > max_wall_time:
                reason = "wall time exceeded"
                break
            grad_norm = float(np.linalg.norm(grad))
            if grad_norm < gradient_tol:
                reason = "gradient norm below tolerance"
                break
            # backtracking line search along the negative gradient
            improved = False
            trial_step = step
            for _ in range(self.max_backtracks):
                trial = clip_amplitudes(amps - trial_step * grad, self.amp_lbound, self.amp_ubound)
                trial_cost, trial_grad = self._cost_grad(trial)
                n_fun += 1
                if trial_cost < cost:
                    amps, cost, grad = trial, trial_cost, trial_grad
                    improved = True
                    step = trial_step * 1.5  # gentle growth after success
                    break
                trial_step *= self.backtrack_factor
            n_iter += 1
            history.append(cost)
            if not improved:
                reason = "line search failed to improve the cost"
                break
        else:
            history.append(cost)
        wall = time.perf_counter() - start
        final_op = evolution_operator(self.drift, self.controls, amps, self.dt, self.c_ops)
        return OptimResult(
            initial_amps=np.array(initial_amps, dtype=float),
            final_amps=amps,
            fid_err=float(cost),
            fid_err_history=[float(h) for h in history],
            n_iter=n_iter,
            n_fun_evals=n_fun,
            termination_reason=reason,
            evo_time=self.dt * amps.shape[1],
            n_ts=amps.shape[1],
            dt=self.dt,
            final_operator=final_op,
            method="GRAPE",
            wall_time=wall,
        )

    def _cost_grad(self, amps: np.ndarray) -> tuple[float, np.ndarray]:
        return grape_cost_and_gradient(
            self.drift,
            self.controls,
            amps,
            self.dt,
            self.u_target,
            c_ops=self.c_ops,
            phase_option=self.phase_option,
            gradient=self.gradient,
            subspace_dim=self.subspace_dim,
        )
