"""Cost functions (gate infidelities) used by the optimizers.

The paper's cost is the phase-insensitive gate infidelity

    C = 1 − F = 1 − |Tr(U_target† U_final)|² / N²          (PSU)

for closed-system evolution.  GRAPE assembles this cost and its gradient
itself (see :mod:`repro.core.grape`); the overlap here serves Krotov's
update and the infidelity checks of optimized pulses.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "unitary_psu_infidelity",
    "psu_overlap",
]


def psu_overlap(u_target: np.ndarray, u_final: np.ndarray) -> complex:
    """Normalized overlap ``f = Tr(U_t† U_f) / N`` (phase-sensitive complex number)."""
    ut = np.asarray(u_target, dtype=complex)
    uf = np.asarray(u_final, dtype=complex)
    return complex(np.trace(ut.conj().T @ uf) / ut.shape[0])


def unitary_psu_infidelity(u_target: np.ndarray, u_final: np.ndarray) -> float:
    """Phase-insensitive gate infidelity ``1 - |Tr(U_t† U_f)|²/N²``."""
    f = psu_overlap(u_target, u_final)
    return float(1.0 - abs(f) ** 2)
