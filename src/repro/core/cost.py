"""Cost functions (gate infidelities) used by the optimizers.

The paper's cost is the phase-insensitive gate infidelity

    C = 1 − F = 1 − |Tr(U_target† U_final)|² / N²          (PSU)

for closed-system evolution.  The phase-sensitive variant (SU) and the
open-system process infidelity (for optimization in the presence of
decoherence, as used for the paper's X gate) are also provided.  Each cost
function returns both the value and the quantity needed to assemble GRAPE
gradients (see :mod:`repro.core.grape`).
"""

from __future__ import annotations

import numpy as np

from ..qobj.superop import unitary_superop

__all__ = [
    "unitary_psu_infidelity",
    "unitary_su_infidelity",
    "superop_process_infidelity",
    "psu_overlap",
    "su_overlap",
]


def psu_overlap(u_target: np.ndarray, u_final: np.ndarray) -> complex:
    """Normalized overlap ``f = Tr(U_t† U_f) / N`` (phase-sensitive complex number)."""
    ut = np.asarray(u_target, dtype=complex)
    uf = np.asarray(u_final, dtype=complex)
    return complex(np.trace(ut.conj().T @ uf) / ut.shape[0])


def su_overlap(u_target: np.ndarray, u_final: np.ndarray) -> float:
    """Real part of the normalized overlap (used by the SU cost)."""
    return float(np.real(psu_overlap(u_target, u_final)))


def unitary_psu_infidelity(u_target: np.ndarray, u_final: np.ndarray) -> float:
    """Phase-insensitive gate infidelity ``1 - |Tr(U_t† U_f)|²/N²``."""
    f = psu_overlap(u_target, u_final)
    return float(1.0 - abs(f) ** 2)


def unitary_su_infidelity(u_target: np.ndarray, u_final: np.ndarray) -> float:
    """Phase-sensitive gate infidelity ``1 - Re[Tr(U_t† U_f)]/N``."""
    return float(1.0 - su_overlap(u_target, u_final))


def superop_process_infidelity(target_unitary: np.ndarray, superop_final: np.ndarray) -> float:
    """Open-system cost: one minus the process fidelity of the final channel.

    ``C = 1 − Re[Tr(S_t† S_f)] / N²`` with ``S_t`` the superoperator of the
    target unitary.  Coincides with the closed-system PSU cost when the final
    channel is unitary.
    """
    ut = np.asarray(target_unitary, dtype=complex)
    n = ut.shape[0]
    s_t = unitary_superop(ut)
    val = np.real(np.trace(s_t.conj().T @ np.asarray(superop_final, dtype=complex))) / n**2
    return float(1.0 - val)
