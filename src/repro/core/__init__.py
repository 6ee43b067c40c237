"""Quantum optimal control (the paper's core contribution).

This package implements the pulse-optimization machinery the paper drives
through QuTiP's ``pulseoptim``:

* :mod:`~repro.core.pulseoptim` — the high-level entry point
  :func:`optimize_pulse_unitary` mirroring the QuTiP call signature used in
  the paper (drift + control Hamiltonians, piecewise-constant amplitudes,
  initial pulse shape, amplitude bounds, target unitary),
* :mod:`~repro.core.grape` — GRAPE cost/gradient assembly (first-order
  gradient ascent) for closed *and* open (Lindblad) dynamics, with exact
  (Fréchet-derivative) or approximate gradients,
* :mod:`~repro.core.lbfgs` — the second-order GRAPE variant driven by
  L-BFGS-B (the paper's optimizer of choice),
* :mod:`~repro.core.spsa` — Simultaneous Perturbation Stochastic
  Approximation (the gradient-free baseline the paper found inferior),
* :mod:`~repro.core.krotov` — Krotov's method,
* :mod:`~repro.core.crab` — Chopped Random Basis optimization (Fourier
  coefficients + Nelder–Mead direct search),
* :mod:`~repro.core.goat` — gradient optimization of analytic controls
  (Fourier ansatz with exact chain-rule gradients),
* :mod:`~repro.core.parametrization` — time grids, initial pulse shapes
  (drag / sine / gaussian-square / random / constant) and amplitude bounds,
* :mod:`~repro.core.result` — the :class:`OptimResult` container.
"""

from .parametrization import TimeGrid, initial_amplitudes, clip_amplitudes, PULSE_TYPES
from .result import OptimResult
from .cost import unitary_psu_infidelity
from .dynamics import closed_evolution, open_evolution, ClosedEvolution, OpenEvolution
from .grape import grape_cost_and_gradient, GrapeOptimizer
from .lbfgs import optimize_lbfgs
from .spsa import SPSAOptimizer, optimize_spsa
from .krotov import optimize_krotov
from .crab import optimize_crab
from .goat import optimize_goat, FourierAnsatz
from .pulseoptim import optimize_pulse_unitary

__all__ = [
    "TimeGrid",
    "initial_amplitudes",
    "clip_amplitudes",
    "PULSE_TYPES",
    "OptimResult",
    "unitary_psu_infidelity",
    "closed_evolution",
    "open_evolution",
    "ClosedEvolution",
    "OpenEvolution",
    "grape_cost_and_gradient",
    "GrapeOptimizer",
    "optimize_lbfgs",
    "SPSAOptimizer",
    "optimize_spsa",
    "optimize_krotov",
    "optimize_crab",
    "optimize_goat",
    "FourierAnsatz",
    "optimize_pulse_unitary",
]
