"""A minimal quantum-circuit container.

:class:`QuantumCircuit` stores an ordered list of instructions (gates,
measurements, barriers) on named qubit indices, supports the usual gate
helper methods, can compute its ideal unitary (for tests and randomized
benchmarking inverses), and carries *per-circuit calibrations*: the mapping
``(gate name, qubits) -> pulse Schedule`` that lets a custom pulse-optimized
gate replace a default one, exactly like Qiskit's
``QuantumCircuit.add_calibration`` used in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gate import Barrier, Gate, Measurement
from ..qobj.tensor import expand_operator
from ..utils.validation import ValidationError

__all__ = ["CircuitInstruction", "QuantumCircuit"]


@dataclass(frozen=True)
class CircuitInstruction:
    """One entry of the circuit: an operation applied to specific qubits/clbits."""

    operation: "Gate | Measurement | Barrier"
    qubits: tuple[int, ...]
    clbits: tuple[int, ...] = ()

    def __repr__(self) -> str:
        return f"CircuitInstruction({self.operation!r}, qubits={self.qubits}, clbits={self.clbits})"


class QuantumCircuit:
    """An ordered list of quantum operations on ``n_qubits`` qubits."""

    def __init__(self, n_qubits: int, n_clbits: int | None = None, name: str = "circuit"):
        if n_qubits < 1:
            raise ValidationError(f"n_qubits must be >= 1, got {n_qubits}")
        self.n_qubits = int(n_qubits)
        self.n_clbits = self.n_qubits if n_clbits is None else int(n_clbits)
        self.name = name
        self.data: list[CircuitInstruction] = []
        #: per-circuit calibrations: (gate_name, qubits tuple) -> pulse Schedule
        self.calibrations: dict[tuple[str, tuple[int, ...]], object] = {}

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    def _check_qubits(self, qubits: Sequence[int]) -> tuple[int, ...]:
        qs = tuple(int(q) for q in qubits)
        for q in qs:
            if not 0 <= q < self.n_qubits:
                raise ValidationError(f"qubit {q} out of range [0, {self.n_qubits})")
        if len(set(qs)) != len(qs):
            raise ValidationError(f"duplicate qubits in {qs}")
        return qs

    def append(self, operation, qubits: Sequence[int], clbits: Sequence[int] = ()) -> "QuantumCircuit":
        """Append an operation; gates must match the number of qubits given."""
        qs = self._check_qubits(qubits)
        cs = tuple(int(c) for c in clbits)
        for c in cs:
            if not 0 <= c < self.n_clbits:
                raise ValidationError(f"clbit {c} out of range [0, {self.n_clbits})")
        if isinstance(operation, Gate) and operation.num_qubits != len(qs):
            raise ValidationError(
                f"gate {operation.name!r} acts on {operation.num_qubits} qubits, got {len(qs)}"
            )
        self.data.append(CircuitInstruction(operation, qs, cs))
        return self

    # -- standard gate helpers ------------------------------------------ #
    def _g(self, name: str, qubits: Sequence[int], *params: float) -> "QuantumCircuit":
        return self.append(Gate.standard(name, *params), qubits)

    def id(self, q: int):  # noqa: A003 - mirrors the Qiskit method name
        return self._g("id", [q])

    def x(self, q: int):
        return self._g("x", [q])

    def y(self, q: int):
        return self._g("y", [q])

    def z(self, q: int):
        return self._g("z", [q])

    def h(self, q: int):
        return self._g("h", [q])

    def s(self, q: int):
        return self._g("s", [q])

    def sdg(self, q: int):
        return self._g("sdg", [q])

    def t(self, q: int):
        return self._g("t", [q])

    def tdg(self, q: int):
        return self._g("tdg", [q])

    def sx(self, q: int):
        return self._g("sx", [q])

    def sxdg(self, q: int):
        return self._g("sxdg", [q])

    def rx(self, theta: float, q: int):
        return self._g("rx", [q], theta)

    def ry(self, theta: float, q: int):
        return self._g("ry", [q], theta)

    def rz(self, phi: float, q: int):
        return self._g("rz", [q], phi)

    def p(self, lam: float, q: int):
        return self._g("p", [q], lam)

    def u(self, theta: float, phi: float, lam: float, q: int):
        return self._g("u", [q], theta, phi, lam)

    def cx(self, control: int, target: int):
        return self._g("cx", [control, target])

    def cz(self, a: int, b: int):
        return self._g("cz", [a, b])

    def swap(self, a: int, b: int):
        return self._g("swap", [a, b])

    def iswap(self, a: int, b: int):
        return self._g("iswap", [a, b])

    def unitary(self, matrix: np.ndarray, qubits: Sequence[int], label: str = "unitary"):
        """Append a custom-unitary gate."""
        gate = Gate.from_unitary(label, matrix)
        return self.append(gate, qubits)

    def barrier(self, *qubits: int) -> "QuantumCircuit":
        qs = list(qubits) if qubits else list(range(self.n_qubits))
        return self.append(Barrier(), qs)

    def measure(self, qubit: int, clbit: int) -> "QuantumCircuit":
        return self.append(Measurement(), [qubit], [clbit])

    def measure_all(self) -> "QuantumCircuit":
        for q in range(self.n_qubits):
            self.measure(q, q)
        return self

    def add_calibration(self, gate_name: str, qubits: Sequence[int], schedule) -> "QuantumCircuit":
        """Attach a custom pulse calibration to a gate on specific qubits.

        During scheduling this calibration takes precedence over the
        backend's default instruction schedule map — this is how the paper's
        optimized pulses replace the defaults.
        """
        self.calibrations[(gate_name.lower(), tuple(int(q) for q in qubits))] = schedule
        return self

    def compose(self, other: "QuantumCircuit") -> "QuantumCircuit":
        """Append another circuit (acting on the same qubit indices)."""
        if other.n_qubits > self.n_qubits:
            raise ValidationError(
                f"cannot compose a {other.n_qubits}-qubit circuit onto {self.n_qubits} qubits"
            )
        for inst in other.data:
            self.append(inst.operation, inst.qubits, inst.clbits)
        for key, sched in other.calibrations.items():
            self.calibrations.setdefault(key, sched)
        return self

    def copy(self, name: str | None = None) -> "QuantumCircuit":
        out = QuantumCircuit(self.n_qubits, self.n_clbits, name or self.name)
        out.data = list(self.data)
        out.calibrations = dict(self.calibrations)
        return out

    def inverse(self) -> "QuantumCircuit":
        """The adjoint circuit (gates inverted, order reversed; no measurements)."""
        out = QuantumCircuit(self.n_qubits, self.n_clbits, f"{self.name}_dg")
        for inst in reversed(self.data):
            op = inst.operation
            if isinstance(op, Measurement):
                raise ValidationError("cannot invert a circuit containing measurements")
            if isinstance(op, Barrier):
                out.append(op, inst.qubits)
            else:
                out.append(op.inverse(), inst.qubits)
        return out

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    def gates(self) -> list[CircuitInstruction]:
        """All gate instructions (excluding measurements and barriers)."""
        return [inst for inst in self.data if isinstance(inst.operation, Gate)]

    def size(self) -> int:
        """Number of gate instructions."""
        return len(self.gates())

    def count_ops(self) -> dict[str, int]:
        """Histogram of operation names."""
        out: dict[str, int] = {}
        for inst in self.data:
            name = inst.operation.name
            out[name] = out.get(name, 0) + 1
        return out

    def depth(self) -> int:
        """Circuit depth (longest path of gates/measurements over qubits)."""
        level = [0] * self.n_qubits
        for inst in self.data:
            if isinstance(inst.operation, Barrier):
                continue
            start = max(level[q] for q in inst.qubits)
            for q in inst.qubits:
                level[q] = start + 1
        return max(level) if level else 0

    def measured_qubits(self) -> list[tuple[int, int]]:
        """All (qubit, clbit) measurement pairs, in order."""
        return [
            (inst.qubits[0], inst.clbits[0])
            for inst in self.data
            if isinstance(inst.operation, Measurement)
        ]

    def to_unitary(self) -> np.ndarray:
        """Ideal unitary of the circuit (measurements/barriers ignored).

        Qubit 0 is the leftmost (most significant) tensor factor, consistent
        with :mod:`repro.qobj.gates`.
        """
        dim = 2**self.n_qubits
        u = np.eye(dim, dtype=complex)
        for inst in self.data:
            op = inst.operation
            if not isinstance(op, Gate):
                continue
            embedded = expand_operator(op.unitary(), self.n_qubits, list(inst.qubits))
            u = embedded @ u
        return u

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        return (
            f"QuantumCircuit(name={self.name!r}, n_qubits={self.n_qubits}, "
            f"n_instructions={len(self.data)}, ops={self.count_ops()})"
        )
