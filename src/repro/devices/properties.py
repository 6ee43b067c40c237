"""Backend calibration-data containers.

These mirror the information IBM exposes through its backend properties API
and that the paper imports to build the optimization Hamiltonian: qubit
frequencies, anharmonicities, T1/T2 times, readout errors, per-gate errors
and durations, the device coupling map, the sample time ``dt`` and the
quantum volume.

Unit conventions (used consistently across the whole library):

* time is measured in **nanoseconds**,
* frequencies are stored in **GHz** (ordinary, not angular); conversion to
  angular frequency (rad/ns) is ``2π × f_GHz`` and is performed inside the
  Hamiltonian builders,
* T1/T2 are stored in nanoseconds.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ..utils.validation import ValidationError, check_positive, check_probability

__all__ = ["QubitProperties", "GateProperties", "BackendProperties", "TWO_PI"]

#: 2π, used to convert GHz to angular rad/ns.
TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class QubitProperties:
    """Calibration data for a single transmon qubit.

    Attributes
    ----------
    frequency:
        Qubit 0→1 transition frequency in GHz.
    anharmonicity:
        Transmon anharmonicity in GHz (negative for transmons; typically
        about −0.33 GHz).
    t1:
        Energy-relaxation time T1 in ns.
    t2:
        Dephasing time T2 in ns (must satisfy T2 ≤ 2 T1).
    readout_error:
        Symmetrized readout assignment error probability.
    readout_p01:
        Probability of reading 0 when the qubit was in 1 (if asymmetric
        readout is desired); defaults to ``readout_error``.
    readout_p10:
        Probability of reading 1 when the qubit was in 0; defaults to
        ``readout_error``.
    drive_strength:
        Maximum Rabi rate (GHz) corresponding to unit pulse amplitude on the
        drive channel.
    detuning_error:
        Residual detuning (GHz) between the reported qubit frequency and the
        true one — the main source of model mismatch between the Hamiltonian
        used for optimization and the simulated hardware.
    """

    frequency: float
    anharmonicity: float = -0.33
    t1: float = 80_000.0
    t2: float = 80_000.0
    readout_error: float = 0.015
    readout_p01: float | None = None
    readout_p10: float | None = None
    drive_strength: float = 0.05
    detuning_error: float = 0.0

    def __post_init__(self):
        check_positive(self.frequency, "frequency")
        check_positive(self.t1, "t1")
        check_positive(self.t2, "t2")
        if self.t2 > 2.0 * self.t1 + 1e-9:
            raise ValidationError(
                f"T2 ({self.t2} ns) cannot exceed 2*T1 ({2 * self.t1} ns)"
            )
        check_probability(self.readout_error, "readout_error")
        if self.readout_p01 is not None:
            check_probability(self.readout_p01, "readout_p01")
        if self.readout_p10 is not None:
            check_probability(self.readout_p10, "readout_p10")
        check_positive(self.drive_strength, "drive_strength")

    @property
    def p01(self) -> float:
        """P(measure 0 | prepared 1)."""
        return self.readout_error if self.readout_p01 is None else self.readout_p01

    @property
    def p10(self) -> float:
        """P(measure 1 | prepared 0)."""
        return self.readout_error if self.readout_p10 is None else self.readout_p10

    @property
    def pure_dephasing_rate(self) -> float:
        """Pure dephasing rate Γφ = 1/T2 − 1/(2 T1) in 1/ns (clipped at 0)."""
        return max(0.0, 1.0 / self.t2 - 0.5 / self.t1)

    def confusion_matrix(self) -> np.ndarray:
        """2×2 readout confusion matrix ``M[measured, prepared]``."""
        return np.array(
            [[1.0 - self.p10, self.p01], [self.p10, 1.0 - self.p01]], dtype=float
        )


@dataclass(frozen=True)
class GateProperties:
    """Reported calibration data for a default backend gate."""

    name: str
    qubits: tuple[int, ...]
    duration: float  # ns
    error: float  # average gate error from the provider's RB calibration

    def __post_init__(self):
        check_positive(self.duration, "duration")
        check_probability(self.error, "error")


@dataclass(frozen=True)
class BackendProperties:
    """Full calibration snapshot of a simulated backend.

    This is the object the optimization pipeline reads to construct its
    Hamiltonian model (exactly as the paper imports qubit frequency and
    decoherence rates from the IBM backend description), and the object the
    pulse simulator reads to construct the *true* device (which additionally
    applies ``detuning_error`` and default-gate miscalibrations).
    """

    name: str
    n_qubits: int
    qubits: tuple[QubitProperties, ...]
    coupling: tuple[tuple[int, int], ...] = ()
    coupling_strength: float = 0.002  # exchange coupling J in GHz
    dt: float = 2.0 / 9.0  # OpenPulse sample time in ns (IBM: 0.2222 ns)
    quantum_volume: int = 32
    basis_gates: tuple[str, ...] = ("id", "rz", "sx", "x", "cx")
    gates: tuple[GateProperties, ...] = ()
    #: Relative amplitude miscalibration of the default X / SX / CX pulses and
    #: relative error of the default DRAG coefficient.  These model the
    #: (small) residual coherent calibration error of the provider's default
    #: gates.
    default_x_amplitude_error: float = 0.0
    default_sx_amplitude_error: float = 0.0
    default_cx_amplitude_error: float = 0.0
    default_drag_error: float = 0.0
    #: Additional *incoherent* (depolarizing) error of the default gates,
    #: expressed as an average gate infidelity.  This models the stochastic
    #: error accumulated since the provider's last calibration cycle
    #: (parameter drift, fluctuating amplitudes) that freshly optimized pulses
    #: do not carry; it is the main knob that sets the default-gate errors.
    default_x_incoherent_error: float = 0.0
    default_sx_incoherent_error: float = 0.0
    default_cx_incoherent_error: float = 0.0
    #: Static ZZ crosstalk strength between coupled qubits, in GHz.
    zz_crosstalk_ghz: float = 3.0e-5

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValidationError(f"n_qubits must be >= 1, got {self.n_qubits}")
        if len(self.qubits) != self.n_qubits:
            raise ValidationError(
                f"expected {self.n_qubits} QubitProperties entries, got {len(self.qubits)}"
            )
        for a, b in self.coupling:
            if not (0 <= a < self.n_qubits and 0 <= b < self.n_qubits) or a == b:
                raise ValidationError(f"invalid coupling edge ({a}, {b})")
        check_positive(self.dt, "dt")

    # ------------------------------------------------------------------ #
    def fingerprint(self) -> str:
        """Content hash of the full calibration snapshot.

        Frozen-dataclass ``repr`` covers every field (including nested qubit
        and gate properties), so any drifted copy — e.g. from
        :meth:`with_qubit` or the calibration-drift model — fingerprints
        differently.  The digest is memoized on the instance (the dataclass
        is frozen, hence immutable) and is what the backend layer uses to
        invalidate cached gate channels when device properties change.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            cached = hashlib.sha256(repr(self).encode()).hexdigest()
            # bypass the frozen-dataclass __setattr__ for the memo slot
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    def qubit(self, index: int) -> QubitProperties:
        """Calibration data of a single qubit."""
        if not 0 <= index < self.n_qubits:
            raise ValidationError(f"qubit index {index} out of range [0, {self.n_qubits})")
        return self.qubits[index]

    def neighbors(self, index: int) -> list[int]:
        """Qubits directly coupled to ``index``."""
        out = set()
        for a, b in self.coupling:
            if a == index:
                out.add(b)
            elif b == index:
                out.add(a)
        return sorted(out)

    def gate_properties(self, name: str, qubits: Sequence[int]) -> GateProperties | None:
        """Look up reported properties of a default gate, if present."""
        key = (name.lower(), tuple(qubits))
        for g in self.gates:
            if (g.name.lower(), g.qubits) == key:
                return g
        return None

    def average_single_qubit_gate_error(self) -> float:
        """Mean reported error over all 1-qubit gate entries (0 if none)."""
        errors = [g.error for g in self.gates if len(g.qubits) == 1]
        return float(np.mean(errors)) if errors else 0.0

    def average_t1(self) -> float:
        """Mean T1 over all qubits, in ns."""
        return float(np.mean([q.t1 for q in self.qubits]))

    def with_qubit(self, index: int, **updates) -> "BackendProperties":
        """Return a copy with one qubit's properties replaced (drift support)."""
        new_qubit = replace(self.qubit(index), **updates)
        new_qubits = list(self.qubits)
        new_qubits[index] = new_qubit
        return replace(self, qubits=tuple(new_qubits))

    def samples_for_duration(self, duration_ns: float) -> int:
        """Number of dt samples covering ``duration_ns`` (rounded to nearest)."""
        return max(1, int(round(duration_ns / self.dt)))
