"""Cross-point batched GRAPE: stack many closed-system optimizations.

A parameter sweep over GRAPE initial conditions (seeds, init-pulse shapes,
scales) or targets (gates of the same class) runs many *independent*
L-BFGS-B optimizations over the **same model** — same drift, same control
Hamiltonians, same slot grid.  Per point, each cost evaluation is a pile
of small-matrix kernels (``eigh`` of ``(N, d, d)``, propagator
reconstruction, gradient ``einsum``s) whose Python/dispatch overhead
rivals the arithmetic at the paper's sizes (``d`` = 2–4, ``N`` = 8–12).

This module evaluates **all P points in one stacked pass** instead: the
point axis is merged into the slot axis (``(nc, N)`` amplitude blocks
concatenated into ``(nc, P·N)``), so one assembly/``eigh``/propagator-
reconstruction call covers every point per L-BFGS iteration — these are
per-slice gufunc operations whose per-slice bits do not depend on the
batch extent.  The gradient contractions then run per point with the
*exact solo shapes* (``einsum(optimize=True)`` picks its contraction
path — and hence its floating-point association — from operand shapes),
and cumulative propagator products use the identical sequential loop, so
each point's ``(cost, gradient)`` is **bit-identical** to a solo
:func:`~repro.core.grape.grape_cost_and_gradient` call with the same
amplitudes (asserted in ``tests/test_grape_batch.py``).

The optimizers themselves stay untouched: each point runs a real
:func:`~repro.core.lbfgs.optimize_lbfgs` (same scipy state machine, same
stopping rules) in its own thread, with its ``cost_grad`` routed through
a :class:`LockstepEvaluator` that blocks until every *active* point has
posted its next request, evaluates the whole stack once, and fans the
per-point results back out.  Because stacked evaluations are
bit-identical, every point follows exactly the iterates it would follow
solo — a converged point simply retires from the lockstep and the rest
continue in a smaller stack.

Open-system points (collapse operators present) are **not** stacked:
``expm_batch`` derives one scaling/squaring power from the whole stack's
max 1-norm, which would couple points and break bit-identity.  Callers
(``repro.experiments.gates.optimize_gate_pulse_batch``) route those
through the solo path.
"""

from __future__ import annotations

import threading
from typing import Sequence

import numpy as np

from .grape import _einsum, _pre_step_stack
from ..solvers.expm_utils import hermitian_eig_batch, loewner_gamma_batch
from ..solvers.propagator import assemble_pwc_hamiltonians, pwc_cumulative_propagators
from ..utils.validation import ValidationError

__all__ = ["StackedClosedEvaluator", "LockstepEvaluator"]


class StackedClosedEvaluator:
    """Evaluate P closed-system GRAPE cost/gradients in one stacked pass.

    Parameters
    ----------
    drift, controls:
        The model shared by every point.
    targets:
        Per-point target unitaries (length P).
    dt:
        Slot duration, shared.
    phase_option, gradient, subspace_dim:
        As in :func:`~repro.core.grape.grape_cost_and_gradient`; shared by
        every point.  Only ``gradient="exact"``/``"approx"`` closed-system
        costs are supported here.
    """

    def __init__(
        self,
        drift,
        controls: Sequence,
        targets: Sequence,
        dt: float,
        phase_option: str = "PSU",
        gradient: str = "exact",
        subspace_dim: int | None = None,
    ):
        if phase_option not in ("PSU", "SU"):
            raise ValidationError(f"phase_option must be 'PSU' or 'SU', got {phase_option!r}")
        if gradient not in ("exact", "approx"):
            raise ValidationError(f"gradient must be 'exact' or 'approx', got {gradient!r}")
        self.drift = np.asarray(drift, dtype=complex)
        self.controls = [np.asarray(c, dtype=complex) for c in controls]
        self.ctrl_stack = np.stack(self.controls).astype(complex)
        self.dt = float(dt)
        self.phase_option = phase_option
        self.gradient = gradient
        targets = [np.asarray(t, dtype=complex) for t in targets]
        if not targets:
            raise ValidationError("targets must be non-empty")
        # the (possibly subspace-masked) adjoint targets, exactly as the
        # solo closed cost builds them
        if subspace_dim is None:
            self.d = targets[0].shape[0]
            self.ut_dag = np.stack([t.conj().T for t in targets])
        else:
            self.d = int(subspace_dim)
            masked = []
            for t in targets:
                ut_dag = np.zeros_like(t)
                ut_dag[: self.d, : self.d] = t[: self.d, : self.d].conj().T
                masked.append(ut_dag)
            self.ut_dag = np.stack(masked)

    @property
    def n_points(self) -> int:
        """Number of points this evaluator was built for."""
        return self.ut_dag.shape[0]

    def evaluate(self, amps_list: Sequence[np.ndarray], indices: Sequence[int]):
        """One stacked pass over the given points.

        ``amps_list[i]`` is the ``(nc, N)`` amplitude table of point
        ``indices[i]`` (an index into the construction-time ``targets``).
        Returns a list of per-point ``(cost, gradient)`` pairs, each
        bit-identical to the solo evaluation of that point alone.

        The Hamiltonian assembly, eigendecomposition and slot-propagator
        reconstruction run merged (these are per-slice gufunc operations,
        bit-invariant in the batch extent); the gradient contractions run
        per point *with the exact solo shapes* — ``einsum(optimize=True)``
        chooses its contraction path from operand shapes, so a merged-axis
        contraction could associate floating-point sums differently than
        the fan-out path and break bit-identity.
        """
        amps_list = [np.asarray(a, dtype=float) for a in amps_list]
        n_ts = amps_list[0].shape[1]
        merged = np.concatenate(amps_list, axis=1)  # (nc, P·N)
        h_slots = assemble_pwc_hamiltonians(self.drift, self.controls, merged)
        evals, evecs = hermitian_eig_batch(h_slots)
        phases = np.exp(-1j * self.dt * evals)
        steps = np.matmul(evecs * phases[:, None, :], np.conj(np.swapaxes(evecs, -1, -2)))
        results = []
        for i, point in enumerate(indices):
            sl = slice(i * n_ts, (i + 1) * n_ts)
            results.append(
                self._finish_point(steps[sl], evals[sl], evecs[sl], self.ut_dag[point])
            )
        return results

    def _finish_point(self, steps, evals, evecs, ut_dag):
        """Cost and gradient of one point — the literal solo code path."""
        forward, backward = pwc_cumulative_propagators(steps)
        f = complex(np.trace(ut_dag @ forward[-1]) / self.d)
        # Tr(left_k dU_jk right_k) = Tr(dU_jk M_k) with M_k = right_k left_k
        left = np.matmul(ut_dag, backward)
        right = _pre_step_stack(forward)
        m_stack = np.matmul(right, left)
        if self.gradient == "exact":
            v = evecs
            v_dag = np.conj(np.swapaxes(v, -1, -2))
            gamma = loewner_gamma_batch(evals, self.dt)
            p = _einsum("kya,jyz,kzb->jkab", v.conj(), self.ctrl_stack, v)
            w = np.matmul(v_dag, np.matmul(m_stack, v))
            df_all = _einsum("jkab,kab,kba->jk", p, gamma, w) / self.d
        else:
            um = np.matmul(steps, m_stack)
            df_all = (-1j * self.dt) * _einsum("jab,kba->jk", self.ctrl_stack, um) / self.d
        if self.phase_option == "PSU":
            cost = 1.0 - abs(f) ** 2
            grad = -2.0 * np.real(np.conj(f) * df_all)
        else:
            cost = 1.0 - np.real(f)
            grad = -np.real(df_all)
        return float(cost), np.ascontiguousarray(grad)


class LockstepEvaluator:
    """Synchronize P optimizer threads onto stacked cost evaluations.

    Each point's thread calls :meth:`for_point`'s closure as its
    ``cost_grad``; the call blocks until every *active* point has posted
    its next amplitude table, then one thread evaluates the whole stack
    (under the condition lock — everyone else is waiting anyway) and the
    per-point results fan back out.  A point whose optimizer finishes
    calls :meth:`retire`, shrinking the stack for the survivors; because
    stacked evaluations are bit-identical to solo ones, membership of the
    stack never affects any point's iterates.

    An exception inside a stacked evaluation is re-raised in **every**
    waiting thread (the whole batch shares the model, so one failure is
    everyone's failure).
    """

    def __init__(self, stacked: StackedClosedEvaluator):
        self._stacked = stacked
        self._cond = threading.Condition()
        self._active = set(range(stacked.n_points))
        self._pending: dict[int, np.ndarray] = {}
        self._results: dict[int, tuple] = {}
        self._error: BaseException | None = None

    def for_point(self, point: int):
        """The ``cost_grad`` callable of one point."""

        def cost_grad(amps: np.ndarray):
            return self._evaluate(point, amps)

        return cost_grad

    def retire(self, point: int) -> None:
        """Remove a finished point from the lockstep (idempotent)."""
        with self._cond:
            self._active.discard(point)
            self._pending.pop(point, None)
            # the departure may complete the remaining points' round
            self._flush_if_ready()
            self._cond.notify_all()

    def _evaluate(self, point: int, amps: np.ndarray):
        with self._cond:
            if self._error is not None:
                raise RuntimeError("batched GRAPE evaluation failed") from self._error
            self._pending[point] = np.array(amps, dtype=float, copy=True)
            self._flush_if_ready()
            while point not in self._results and self._error is None:
                self._cond.wait()
            if point not in self._results:
                raise RuntimeError("batched GRAPE evaluation failed") from self._error
            return self._results.pop(point)

    def _flush_if_ready(self) -> None:
        """Evaluate the stack when every active point has posted (locked).

        A failing stacked evaluation is recorded in ``_error`` (and every
        waiter notified) rather than raised here — the per-point
        :meth:`_evaluate` calls all surface it as the same chained
        ``RuntimeError``, whichever thread happened to run the flush.
        """
        if not self._pending or not self._active.issubset(self._pending):
            return
        points = sorted(self._pending)
        batch = [self._pending.pop(p) for p in points]
        try:
            evaluated = self._stacked.evaluate(batch, points)
        except BaseException as exc:  # noqa: BLE001 - fanned out to all threads
            self._error = exc
            self._cond.notify_all()
            return
        for p, result in zip(points, evaluated):
            self._results[p] = result
        self._cond.notify_all()
