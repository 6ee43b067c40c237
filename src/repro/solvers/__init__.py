"""Piecewise-constant (PWC) dynamics kernels.

This package provides the time-evolution machinery the rest of the library is
built on:

* :mod:`~repro.solvers.expm_utils` — matrix-exponential kernels: Hermitian
  generators by eigendecomposition, general generators (Liouvillians) by a
  batched Padé ``expm``, and the exact Fréchet derivatives used by GRAPE
  gradients,
* :mod:`~repro.solvers.propagator` — PWC propagators for closed (unitary)
  and open (Liouvillian) dynamics.
"""

from .expm_utils import expm_hermitian, expm_unitary_step
from .propagator import (
    pwc_step_propagators,
    pwc_total_propagator,
    pwc_cumulative_propagators,
    pwc_liouvillian_step_propagators,
    pwc_liouvillian_total,
)

__all__ = [
    "expm_hermitian",
    "expm_unitary_step",
    "pwc_step_propagators",
    "pwc_total_propagator",
    "pwc_cumulative_propagators",
    "pwc_liouvillian_step_propagators",
    "pwc_liouvillian_total",
]
