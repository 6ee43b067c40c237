"""Gate objects used by :class:`~repro.circuits.circuit.QuantumCircuit`.

A :class:`Gate` is identified by a name, an optional parameter tuple, and a
number of qubits; its unitary comes either from the standard-gate table
(:mod:`repro.qobj.gates`) or from an explicit matrix (custom gates, e.g. a
pulse-calibrated gate that the transpiler must leave untouched).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..qobj.gates import standard_gate_unitary
from ..utils.validation import ValidationError

__all__ = ["Gate", "Measurement", "Barrier"]

#: Number of qubits of each non-parametric standard gate.
_STANDARD_NUM_QUBITS = {
    "id": 1,
    "x": 1,
    "y": 1,
    "z": 1,
    "h": 1,
    "s": 1,
    "sdg": 1,
    "t": 1,
    "tdg": 1,
    "sx": 1,
    "sxdg": 1,
    "rx": 1,
    "ry": 1,
    "rz": 1,
    "p": 1,
    "phase": 1,
    "u": 1,
    "u3": 1,
    "cx": 2,
    "cnot": 2,
    "cz": 2,
    "swap": 2,
    "iswap": 2,
    "cr": 2,
}


@dataclass(frozen=True)
class Gate:
    """A quantum gate.

    Parameters
    ----------
    name:
        Gate name (lowercase by convention).
    num_qubits:
        Number of qubits the gate acts on.
    params:
        Tuple of float parameters (rotation angles).
    matrix:
        Explicit unitary for custom gates; standard gates derive theirs from
        the name/params.
    """

    name: str
    num_qubits: int
    params: tuple[float, ...] = ()
    matrix: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValidationError(f"num_qubits must be >= 1, got {self.num_qubits}")
        if self.matrix is not None:
            m = np.asarray(self.matrix, dtype=complex)
            dim = 2**self.num_qubits
            if m.shape != (dim, dim):
                raise ValidationError(
                    f"gate matrix shape {m.shape} inconsistent with {self.num_qubits} qubits"
                )
            object.__setattr__(self, "matrix", m)

    # ------------------------------------------------------------------ #
    @classmethod
    def standard(cls, name: str, *params: float) -> "Gate":
        """Construct a standard named gate (``x``, ``rz``, ``cx``, ...)."""
        key = name.lower()
        if key not in _STANDARD_NUM_QUBITS:
            raise ValidationError(f"unknown standard gate {name!r}")
        return cls(name=key, num_qubits=_STANDARD_NUM_QUBITS[key], params=tuple(float(p) for p in params))

    @classmethod
    def from_unitary(cls, name: str, matrix: np.ndarray) -> "Gate":
        """Construct a custom gate from an explicit unitary."""
        m = np.asarray(matrix, dtype=complex)
        n = int(round(np.log2(m.shape[0])))
        if 2**n != m.shape[0] or m.shape[0] != m.shape[1]:
            raise ValidationError(f"matrix shape {m.shape} is not a power-of-two square")
        return cls(name=name.lower(), num_qubits=n, matrix=m)

    @property
    def is_custom(self) -> bool:
        """Whether the gate carries an explicit matrix (custom calibration)."""
        return self.matrix is not None

    @property
    def is_standard(self) -> bool:
        return self.name in _STANDARD_NUM_QUBITS

    def unitary(self) -> np.ndarray:
        """The gate's unitary matrix."""
        if self.matrix is not None:
            return np.array(self.matrix, copy=True)
        return standard_gate_unitary(self.name, *self.params)

    def inverse(self) -> "Gate":
        """The inverse gate (as a custom-matrix gate unless trivially named)."""
        inverses = {"s": "sdg", "sdg": "s", "t": "tdg", "tdg": "t", "sx": "sxdg", "sxdg": "sx"}
        if self.name in ("id", "x", "y", "z", "h", "cx", "cnot", "cz", "swap"):
            return self
        if self.name in inverses and not self.params:
            return Gate.standard(inverses[self.name])
        if self.name in ("rx", "ry", "rz", "p", "phase", "cr") and self.params:
            return Gate.standard(self.name, *(-p for p in self.params))
        return Gate.from_unitary(f"{self.name}_dg", self.unitary().conj().T)

    def __repr__(self) -> str:
        params = f", params={self.params}" if self.params else ""
        custom = ", custom" if self.is_custom else ""
        return f"Gate({self.name!r}, {self.num_qubits}q{params}{custom})"


@dataclass(frozen=True)
class Measurement:
    """Z-basis measurement of one qubit into one classical bit."""

    name: str = "measure"

    def __repr__(self) -> str:
        return "Measurement()"


@dataclass(frozen=True)
class Barrier:
    """Scheduling barrier (no-op for the simulator, alignment for schedules)."""

    name: str = "barrier"

    def __repr__(self) -> str:
        return "Barrier()"
