"""Circuit layer: gates, quantum circuits and transpilation.

The paper's workflow casts optimized pulses into *custom calibrated gates*,
inserts them into quantum circuits, transpiles to the backend basis
(``rz``, ``sx``, ``x``, ``cx`` plus measurement); the backend then simulates
each gate's pulse schedule, taken from the circuit's calibrations or the
instruction schedule map.  This package provides the circuit half of that
tool-chain:

* :mod:`~repro.circuits.gate` — gate objects (standard, parametric, and
  custom unitaries),
* :mod:`~repro.circuits.circuit` — a minimal :class:`QuantumCircuit` with
  per-circuit calibrations (``add_calibration``),
* :mod:`~repro.circuits.synthesis` — ZYZ and ZXZXZ (RZ–SX–RZ–SX–RZ)
  single-qubit resynthesis used by the transpiler,
* :mod:`~repro.circuits.transpiler` — translation to the device basis with
  coupling-map checking.
"""

from .gate import Gate, Measurement, Barrier
from .circuit import QuantumCircuit, CircuitInstruction
from .synthesis import zyz_decomposition, u3_to_zxzxz, decompose_1q_to_basis
from .transpiler import transpile, TranspileError

__all__ = [
    "Gate",
    "Measurement",
    "Barrier",
    "QuantumCircuit",
    "CircuitInstruction",
    "zyz_decomposition",
    "u3_to_zxzxz",
    "decompose_1q_to_basis",
    "transpile",
    "TranspileError",
]
