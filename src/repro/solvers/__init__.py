"""Quantum dynamics solvers.

This package provides the time-evolution machinery the rest of the library is
built on:

* :mod:`~repro.solvers.expm_utils` — matrix-exponential utilities specialized
  for Hermitian generators (eigendecomposition based) plus Fréchet-derivative
  helpers used by exact GRAPE gradients,
* :mod:`~repro.solvers.propagator` — piecewise-constant (PWC) propagators for
  closed (unitary) and open (Liouvillian) dynamics,
* :mod:`~repro.solvers.sesolve` — Schrödinger-equation solver for states and
  unitaries under time-dependent Hamiltonians,
* :mod:`~repro.solvers.mesolve` — Lindblad master-equation solver,
* :mod:`~repro.solvers.integrators` — fixed-step RK4 integrator used for
  generic time-dependent generators (e.g. GOAT's analytic controls).
"""

from .result import SolverResult
from .expm_utils import expm_hermitian, expm_unitary_step, expm_frechet_hermitian, expm_general
from .propagator import (
    pwc_step_propagators,
    pwc_total_propagator,
    pwc_cumulative_propagators,
    pwc_liouvillian_step_propagators,
    pwc_liouvillian_total,
    propagator,
)
from .sesolve import sesolve
from .mesolve import mesolve
from .integrators import rk4_step, rk4_integrate

__all__ = [
    "SolverResult",
    "expm_hermitian",
    "expm_unitary_step",
    "expm_frechet_hermitian",
    "expm_general",
    "pwc_step_propagators",
    "pwc_total_propagator",
    "pwc_cumulative_propagators",
    "pwc_liouvillian_step_propagators",
    "pwc_liouvillian_total",
    "propagator",
    "sesolve",
    "mesolve",
    "rk4_step",
    "rk4_integrate",
]
