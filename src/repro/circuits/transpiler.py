"""Circuit transpilation to the device basis.

The IBM backends used in the paper expose the basis
``{id, rz, sx, x, cx}`` plus measurement.  :func:`transpile` rewrites an
arbitrary circuit into that basis:

* single-qubit gates are resynthesized via the ZXZXZ (RZ–SX–RZ–SX–RZ) form,
  with short-cuts for gates that are already basis gates or pure Z rotations
  (which become virtual ``rz``),
* ``cz``, ``swap``, ``iswap`` and ``cr`` are rewritten in terms of ``cx`` and
  single-qubit gates through standard identities,
* gates that carry a *custom calibration* on the input circuit are passed
  through untouched (the whole point of the paper's workflow is that the
  backend will simulate the attached pulse schedule for them) — this is the
  "replacement confirmed in the transpiling process" step,
* two-qubit gates are checked against the coupling map when one is given.

The function returns a new circuit; calibrations are carried over.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .circuit import QuantumCircuit
from .gate import Barrier, Gate, Measurement
from .synthesis import decompose_1q_to_basis
from ..utils.validation import ValidationError

__all__ = ["transpile", "TranspileError", "DEFAULT_BASIS"]

DEFAULT_BASIS = ("id", "rz", "sx", "x", "cx")


class TranspileError(ValidationError):
    """Raised when a circuit cannot be expressed in the requested basis."""


def _has_calibration(circuit: QuantumCircuit, gate: Gate, qubits: tuple[int, ...]) -> bool:
    return (gate.name, qubits) in circuit.calibrations


def _add_1q_basis_sequence(out: QuantumCircuit, unitary: np.ndarray, qubit: int) -> None:
    for name, angle in decompose_1q_to_basis(unitary):
        if name == "rz":
            out.rz(angle, qubit)
        elif name == "sx":
            out.sx(qubit)
        else:  # pragma: no cover - decompose_1q_to_basis only emits rz/sx
            raise TranspileError(f"unexpected synthesized gate {name!r}")


def _expand_two_qubit(out: QuantumCircuit, gate: Gate, qubits: tuple[int, ...]) -> None:
    """Rewrite standard 2-qubit gates in terms of cx + 1q gates."""
    a, b = qubits
    name = gate.name
    if name in ("cx", "cnot"):
        out.append(Gate.standard("cx"), (a, b))
    elif name == "cz":
        # CZ = (I ⊗ H) CX (I ⊗ H)
        _add_1q_basis_sequence(out, _h_matrix(), b)
        out.append(Gate.standard("cx"), (a, b))
        _add_1q_basis_sequence(out, _h_matrix(), b)
    elif name == "swap":
        out.append(Gate.standard("cx"), (a, b))
        out.append(Gate.standard("cx"), (b, a))
        out.append(Gate.standard("cx"), (a, b))
    elif name == "iswap":
        # iSWAP = (S ⊗ S) (H ⊗ I) CX(a,b) CX(b,a) (I ⊗ H)
        _add_1q_basis_sequence(out, _s_matrix(), a)
        _add_1q_basis_sequence(out, _s_matrix(), b)
        _add_1q_basis_sequence(out, _h_matrix(), a)
        out.append(Gate.standard("cx"), (a, b))
        out.append(Gate.standard("cx"), (b, a))
        _add_1q_basis_sequence(out, _h_matrix(), b)
    elif name == "cr":
        # exp(-i θ/2 ZX) = (I⊗H) exp(-i θ/2 ZZ) (I⊗H); exp(-iθ/2 ZZ) = CX (I⊗RZ(θ)) CX
        (theta,) = gate.params
        _add_1q_basis_sequence(out, _h_matrix(), b)
        out.append(Gate.standard("cx"), (a, b))
        out.rz(theta, b)
        out.append(Gate.standard("cx"), (a, b))
        _add_1q_basis_sequence(out, _h_matrix(), b)
    else:
        raise TranspileError(f"two-qubit gate {name!r} has no basis decomposition rule")


def _h_matrix() -> np.ndarray:
    from ..qobj.gates import hadamard

    return hadamard()


def _s_matrix() -> np.ndarray:
    from ..qobj.gates import s_gate

    return s_gate()


def transpile(
    circuit: QuantumCircuit,
    basis_gates: Sequence[str] = DEFAULT_BASIS,
    coupling: Iterable[tuple[int, int]] | None = None,
    optimize_1q: bool = True,
) -> QuantumCircuit:
    """Rewrite ``circuit`` in terms of ``basis_gates``.

    Parameters
    ----------
    circuit:
        Input circuit.
    basis_gates:
        Target basis (must contain ``rz``, ``sx`` and ``cx`` for the general
        rewriting rules to apply).
    coupling:
        Optional iterable of allowed (undirected) two-qubit pairs; a
        :class:`TranspileError` is raised if a two-qubit gate acts on an
        uncoupled pair.  (No routing is performed — the paper only uses
        directly coupled pairs.)
    optimize_1q:
        Merge runs of adjacent single-qubit gates on the same qubit into a
        single resynthesized ZXZXZ block.
    """
    basis = {b.lower() for b in basis_gates}
    allowed_pairs = None
    if coupling is not None:
        allowed_pairs = {tuple(sorted((int(a), int(b)))) for a, b in coupling}

    out = QuantumCircuit(circuit.n_qubits, circuit.n_clbits, name=f"{circuit.name}_transpiled")
    out.calibrations = dict(circuit.calibrations)

    # Pending single-qubit unitary accumulated per qubit (for 1q merging).
    pending: dict[int, np.ndarray] = {}

    def flush(qubit: int | None = None) -> None:
        targets = list(pending) if qubit is None else [qubit]
        for q in targets:
            u = pending.pop(q, None)
            if u is None:
                continue
            if np.allclose(u, np.eye(2), atol=1e-12):
                continue
            _add_1q_basis_sequence(out, u, q)

    for inst in circuit.data:
        op = inst.operation
        if isinstance(op, Barrier):
            flush()
            out.append(op, inst.qubits)
            continue
        if isinstance(op, Measurement):
            flush(inst.qubits[0])
            out.append(op, inst.qubits, inst.clbits)
            continue
        assert isinstance(op, Gate)
        qubits = inst.qubits
        # Custom-calibrated gates pass through verbatim.
        if _has_calibration(circuit, op, qubits):
            for q in qubits:
                flush(q)
            out.append(op, qubits)
            continue
        if op.num_qubits == 1:
            q = qubits[0]
            if op.name in basis and not op.is_custom:
                # Basis gates (x, sx, rz, id) map one-to-one onto calibrated
                # pulses / virtual-Z frame changes — keep them as-is so the
                # backend uses the corresponding calibration directly.
                flush(q)
                out.append(op, qubits)
                continue
            u = op.unitary()
            if optimize_1q:
                pending[q] = u @ pending.get(q, np.eye(2, dtype=complex))
            else:
                _add_1q_basis_sequence(out, u, q)
            continue
        if op.num_qubits == 2:
            a, b = qubits
            for q in qubits:
                flush(q)
            if allowed_pairs is not None and tuple(sorted((a, b))) not in allowed_pairs:
                raise TranspileError(
                    f"two-qubit gate {op.name!r} on uncoupled qubits {qubits}"
                )
            if op.is_custom:
                raise TranspileError(
                    f"custom two-qubit gate {op.name!r} without a calibration cannot be transpiled"
                )
            _expand_two_qubit(out, op, qubits)
            continue
        raise TranspileError(f"gates on {op.num_qubits} qubits are not supported")
    flush()
    return out
