"""Single-transmon (Duffing oscillator) Hamiltonian models.

The paper models each IBM qubit as a driven Duffing oscillator.  In the frame
rotating at the drive frequency (resonant with the *reported* qubit
frequency) and after the rotating-wave approximation, the drift and control
Hamiltonians used here are (ħ = 1, angular units rad/ns)

    H0 = 2π δ a†a + π α a†a (a†a − 1)
    Hx = 2π Ω_d (a + a†) / 2
    Hy = 2π Ω_d i (a† − a) / 2

where ``δ`` is the residual detuning between the true qubit frequency and the
drive (zero when the calibration is perfect — the ``detuning_error`` of
:class:`~repro.devices.properties.QubitProperties`), ``α`` the anharmonicity
and ``Ω_d`` the Rabi rate per unit pulse amplitude.  For ``levels = 2`` these
reduce exactly to the Pauli-X/Y control terms the paper uses; for
``levels >= 3`` they include the leakage level that makes DRAG pulses
meaningful.

Decoherence enters through collapse operators derived from T1 and T2:
amplitude damping ``sqrt(1/T1)·a`` and pure dephasing ``sqrt(2 Γφ)·a†a`` with
``Γφ = 1/T2 − 1/(2 T1)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .properties import QubitProperties, TWO_PI
from ..qobj.operators import destroy, num
from ..utils.validation import ValidationError

__all__ = [
    "duffing_drift",
    "drive_operators",
    "collapse_operators",
    "embed_qubit_unitary",
    "computational_projector",
    "TransmonModel",
]


def duffing_drift(levels: int, anharmonicity_ghz: float, detuning_ghz: float = 0.0) -> np.ndarray:
    """Drift Hamiltonian of a Duffing transmon in the drive rotating frame.

    Parameters
    ----------
    levels:
        Number of retained transmon levels (2 for an ideal qubit, 3+ to
        capture leakage).
    anharmonicity_ghz:
        Anharmonicity α in GHz (negative for transmons).
    detuning_ghz:
        Residual detuning δ between the true qubit frequency and the drive
        frame, in GHz.

    Returns
    -------
    ndarray (levels × levels), in angular units (rad/ns).
    """
    if levels < 2:
        raise ValidationError(f"levels must be >= 2, got {levels}")
    n_op = num(levels)
    drift = TWO_PI * detuning_ghz * n_op
    drift = drift + np.pi * anharmonicity_ghz * (n_op @ (n_op - np.eye(levels)))
    return drift


def drive_operators(levels: int, drive_strength_ghz: float) -> list[np.ndarray]:
    """In-phase (X) and quadrature (Y) drive operators.

    Scaled such that a constant unit-amplitude pulse of duration
    ``1 / (2 Ω_d)`` implements a π rotation on the 0↔1 transition of a
    two-level system.
    """
    if levels < 2:
        raise ValidationError(f"levels must be >= 2, got {levels}")
    a = destroy(levels)
    hx = TWO_PI * drive_strength_ghz * 0.5 * (a + a.conj().T)
    hy = TWO_PI * drive_strength_ghz * 0.5 * (1j * (a.conj().T - a))
    return [hx, hy]


def collapse_operators(levels: int, t1_ns: float, t2_ns: float) -> list[np.ndarray]:
    """Collapse operators for amplitude damping (T1) and pure dephasing (T2).

    Returns operators already scaled by the square root of their rates so
    they can be passed directly as the ``c_ops`` of
    :func:`repro.solvers.propagator.pwc_liouvillian_step_propagators`.
    """
    if t1_ns <= 0 or t2_ns <= 0:
        raise ValidationError("T1 and T2 must be positive")
    if t2_ns > 2.0 * t1_ns + 1e-9:
        raise ValidationError(f"T2 ({t2_ns}) cannot exceed 2*T1 ({2 * t1_ns})")
    a = destroy(levels)
    n_op = num(levels)
    ops = [np.sqrt(1.0 / t1_ns) * a]
    gamma_phi = 1.0 / t2_ns - 0.5 / t1_ns
    if gamma_phi > 0:
        ops.append(np.sqrt(2.0 * gamma_phi) * n_op)
    return ops


def embed_qubit_unitary(u2: np.ndarray, levels: int) -> np.ndarray:
    """Embed a 2×2 computational-subspace unitary into a ``levels``-dim space.

    The higher levels are mapped by the identity, which is the correct target
    when asking the optimizer for a gate that both implements ``u2`` on the
    qubit subspace and returns leakage levels to themselves.
    """
    u2 = np.asarray(u2, dtype=complex)
    if u2.shape != (2, 2):
        raise ValidationError(f"expected a 2x2 unitary, got shape {u2.shape}")
    if levels < 2:
        raise ValidationError(f"levels must be >= 2, got {levels}")
    out = np.eye(levels, dtype=complex)
    out[:2, :2] = u2
    return out


def computational_projector(levels: int, n_qubits: int = 1) -> np.ndarray:
    """Isometry projecting an ``n_qubits``-transmon space onto the qubit subspace.

    Returns a matrix ``P`` of shape ``(2**n_qubits, levels**n_qubits)`` such
    that ``P ρ P†`` is the computational-subspace block of a multi-transmon
    density matrix.
    """
    single = np.zeros((2, levels), dtype=complex)
    single[0, 0] = 1.0
    single[1, 1] = 1.0
    out = single
    for _ in range(n_qubits - 1):
        out = np.kron(out, single)
    return out


@dataclass
class TransmonModel:
    """A single transmon qubit model built from calibration properties.

    Parameters
    ----------
    properties:
        The qubit's calibration data.
    levels:
        Number of transmon levels to retain (3 by default so that leakage
        and DRAG corrections are physical).
    use_true_detuning:
        If True the drift includes the qubit's ``detuning_error`` (this is
        the *device* view); if False the drift assumes perfect calibration
        (this is the *optimizer* view built from reported data only).
    """

    properties: QubitProperties
    levels: int = 3
    use_true_detuning: bool = False

    def __post_init__(self):
        if self.levels < 2:
            raise ValidationError(f"levels must be >= 2, got {self.levels}")

    # ------------------------------------------------------------------ #
    @property
    def dim(self) -> int:
        return self.levels

    def drift_hamiltonian(self) -> np.ndarray:
        """Rotating-frame drift Hamiltonian (rad/ns)."""
        detuning = self.properties.detuning_error if self.use_true_detuning else 0.0
        return duffing_drift(self.levels, self.properties.anharmonicity, detuning)

    def control_hamiltonians(self) -> list[np.ndarray]:
        """X and Y drive operators (rad/ns per unit amplitude)."""
        return drive_operators(self.levels, self.properties.drive_strength)

    def collapse_operators(self) -> list[np.ndarray]:
        """T1/T2 collapse operators (units 1/sqrt(ns))."""
        return collapse_operators(self.levels, self.properties.t1, self.properties.t2)

    def target_unitary(self, gate_2x2: np.ndarray) -> np.ndarray:
        """Embed a 2×2 target gate into the transmon space."""
        return embed_qubit_unitary(gate_2x2, self.levels)

    def pi_pulse_amplitude(self, duration_ns: float) -> float:
        """Constant-pulse amplitude that implements a π rotation in ``duration_ns``.

        For a resonant two-level drive, ``θ = 2π Ω_d · A · t``, so
        ``A_π = 1 / (2 Ω_d t)``.  Used to seed default calibrations.
        """
        if duration_ns <= 0:
            raise ValidationError(f"duration must be > 0, got {duration_ns}")
        return 1.0 / (2.0 * self.properties.drive_strength * duration_ns)

    def optimizer_view(self, levels: int | None = None) -> "TransmonModel":
        """The model as seen by the optimizer: reported data, no detuning error."""
        return TransmonModel(
            properties=self.properties,
            levels=self.levels if levels is None else levels,
            use_true_detuning=False,
        )

    def device_view(self) -> "TransmonModel":
        """The model as implemented by the simulated hardware (true detuning)."""
        return TransmonModel(properties=self.properties, levels=self.levels, use_true_detuning=True)
