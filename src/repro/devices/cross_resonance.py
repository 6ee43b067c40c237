"""Effective cross-resonance (CR) Hamiltonian for two coupled transmons.

Implements Eq. (1) of the paper (Chow et al., PRL 107, 080502): driving the
control qubit at the target qubit's frequency produces, in the doubly
rotating frame,

    H_cr = ½ δ̃₁ σz⁽¹⁾ + ½ δ̃₂ σz⁽²⁾
           + Ω_{R,2}(t) (I ⊗ σx)
           + Ω_{R,1}(t) ( σx ⊗ I + (J/Δ₁₂) σz ⊗ σx )

The three control terms the paper lists — ``XI``, ``IX`` and ``ZX`` — are
exposed individually so `pulseoptim` can address them separately (the ZX term
is what generates entanglement; its strength is set by J/Δ₁₂ times the drive
on the control qubit).

A static ZZ crosstalk term and single-qubit detuning errors provide the model
mismatch discussed in Section V of the paper ("uncertainty in the
Hamiltonian", "extra interaction terms in addition to the classical
cross-talk").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .properties import QubitProperties, TWO_PI
from .transmon import collapse_operators as single_collapse_operators
from ..qobj.operators import pauli
from ..utils.validation import ValidationError

__all__ = ["CrossResonanceModel"]


def _two_qubit_op(label: str) -> np.ndarray:
    return pauli(label)


@dataclass
class CrossResonanceModel:
    """Two-transmon cross-resonance model (control = qubit 0, target = qubit 1).

    Parameters
    ----------
    control, target:
        Calibration data of the two qubits.
    coupling_ghz:
        Exchange coupling J between the qubits, in GHz.
    zz_crosstalk_ghz:
        Static ZZ interaction strength (GHz).  Because it derives from the
        (known) exchange coupling J, it is part of *both* the optimizer view
        and the device view by default (``include_zz=True``); the default
        backend CX calibration, however, does not correct for it — exactly
        the kind of coherent error optimal control can remove.
    include_zz:
        Whether the drift includes the static ZZ term.
    include_detuning:
        Whether the drift includes the residual single-qubit detuning errors
        (device view: True; optimizer view: False — this is the model
        mismatch discussed in Section V of the paper).
    levels:
        Levels per transmon (2 by default for the CR effective model; the
        effective Hamiltonian of Eq. (1) is already projected onto the
        computational subspace).
    """

    control: QubitProperties
    target: QubitProperties
    coupling_ghz: float = 0.0022
    zz_crosstalk_ghz: float = 0.0001
    include_zz: bool = True
    include_detuning: bool = False
    levels: int = 2

    def __post_init__(self):
        if self.levels != 2:
            raise ValidationError(
                "the effective CR model of Eq. (1) is defined on the computational "
                f"subspace; levels must be 2, got {self.levels}"
            )
        if self.coupling_ghz <= 0:
            raise ValidationError(f"coupling_ghz must be > 0, got {self.coupling_ghz}")
        delta = self.control.frequency - self.target.frequency
        if abs(delta) < 1e-6:
            raise ValidationError(
                "control and target qubit frequencies must differ (Δ12 ≠ 0) for the CR gate"
            )

    # ------------------------------------------------------------------ #
    @property
    def dim(self) -> int:
        return 4

    @property
    def delta_12(self) -> float:
        """Frequency difference Δ₁₂ = f_control − f_target in GHz."""
        return self.control.frequency - self.target.frequency

    @property
    def zx_rate_per_amplitude(self) -> float:
        """ZX interaction rate (GHz) per unit control-drive amplitude, J/Δ₁₂ · Ω_d."""
        return self.coupling_ghz / self.delta_12 * self.control.drive_strength

    def drift_hamiltonian(self) -> np.ndarray:
        """Drift Hamiltonian in rad/ns.

        In the optimizer view the rotating-frame detunings are zero (perfect
        calibration assumed) but the known static ZZ term is present; in the
        device view the residual detuning errors are added.
        """
        h = np.zeros((4, 4), dtype=complex)
        if self.include_zz:
            h = h + 0.5 * TWO_PI * self.zz_crosstalk_ghz * _two_qubit_op("ZZ")
        if self.include_detuning:
            h = h + 0.5 * TWO_PI * self.control.detuning_error * _two_qubit_op("ZI")
            h = h + 0.5 * TWO_PI * self.target.detuning_error * _two_qubit_op("IZ")
        return h

    def control_hamiltonians(self) -> list[np.ndarray]:
        """The three CR control terms [XI, IX, ZX] of Eq. (1), in rad/ns per unit amplitude.

        * ``XI`` — direct drive of the control qubit (rate Ω_d of the control),
        * ``IX`` — direct (classical-crosstalk / target rotary) drive of the
          target qubit (rate Ω_d of the target),
        * ``ZX`` — the cross-resonance term with rate ``J/Δ₁₂ · Ω_d``.
        """
        omega_c = TWO_PI * self.control.drive_strength
        omega_t = TWO_PI * self.target.drive_strength
        zx = TWO_PI * self.zx_rate_per_amplitude
        return [
            0.5 * omega_c * _two_qubit_op("XI"),
            0.5 * omega_t * _two_qubit_op("IX"),
            0.5 * zx * _two_qubit_op("ZX"),
        ]

    def quadrature_control_hamiltonians(self) -> list[np.ndarray]:
        """The Y-quadrature counterparts [YI, IY, ZY] of the control terms.

        These are driven by the imaginary part of the complex samples on the
        corresponding channels (D_control, D_target, U_pair) in the pulse
        simulator; the optimizer itself uses only the real-amplitude terms of
        Eq. (1), as in the paper.
        """
        omega_c = TWO_PI * self.control.drive_strength
        omega_t = TWO_PI * self.target.drive_strength
        zx = TWO_PI * self.zx_rate_per_amplitude
        return [
            0.5 * omega_c * _two_qubit_op("YI"),
            0.5 * omega_t * _two_qubit_op("IY"),
            0.5 * zx * _two_qubit_op("ZY"),
        ]

    def collapse_operators(self) -> list[np.ndarray]:
        """Two-qubit collapse operators from each qubit's T1/T2."""
        eye = np.eye(2, dtype=complex)
        ops: list[np.ndarray] = []
        for q_idx, q in enumerate((self.control, self.target)):
            for c in single_collapse_operators(2, q.t1, q.t2):
                if q_idx == 0:
                    ops.append(np.kron(c, eye))
                else:
                    ops.append(np.kron(eye, c))
        return ops

    def target_unitary(self) -> np.ndarray:
        """The CNOT target (control = qubit 0)."""
        from ..qobj.gates import cx_gate

        return cx_gate()

    def optimizer_view(self) -> "CrossResonanceModel":
        """Model without the (unknown) detuning errors — what `pulseoptim` sees."""
        return CrossResonanceModel(
            control=self.control,
            target=self.target,
            coupling_ghz=self.coupling_ghz,
            zz_crosstalk_ghz=self.zz_crosstalk_ghz,
            include_zz=self.include_zz,
            include_detuning=False,
            levels=self.levels,
        )

    def device_view(self) -> "CrossResonanceModel":
        """Model including the detuning errors — the simulated hardware."""
        return CrossResonanceModel(
            control=self.control,
            target=self.target,
            coupling_ghz=self.coupling_ghz,
            zz_crosstalk_ghz=self.zz_crosstalk_ghz,
            include_zz=self.include_zz,
            include_detuning=True,
            levels=self.levels,
        )
