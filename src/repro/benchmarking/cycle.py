"""Cycle benchmarking of an interleaved cycle under random Pauli twirls.

Cycle benchmarking (Erhard et al., Nat. Commun. 10, 5347) characterizes one
fixed *cycle* — here a named Clifford gate such as ``x`` or ``cx`` — by
alternating it with uniformly random Pauli layers:

    P_1 · C · P_2 · C · … · P_m · C · R

where ``R`` inverts the whole word exactly.  Averaging over the random
Paulis twirls the cycle's noise into a Pauli channel, so the ``|0…0⟩``
survival decays as ``A·α^m`` and the error per twirled cycle is
``(d−1)/d · (1−α)`` — the same fit machinery as standard RB, with the
composite "Pauli + cycle" playing the role of one Clifford.

Every Pauli layer is itself a Clifford group element, so the whole
protocol rides the existing RB stack: sequences are
:class:`~repro.benchmarking.rb.RBSequence` objects with the cycle as the
interleaved gate, executed by
:func:`~repro.benchmarking.rb.execute_rb_sequences` on either engine —
``"channels"`` composes the cached per-Clifford superoperators (plus the
cycle's own channel), ``"circuits"`` runs every full circuit on the pulse
backend.  Both paths are asserted equivalent in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .clifford import CliffordGroup, clifford_group
from .rb import (
    DEFAULT_LENGTHS_1Q,
    DEFAULT_LENGTHS_2Q,
    RBResult,
    RBSequence,
    _build_sequence_circuit,
    _check_lengths,
    _draw_rows,
    _locate_interleaved_element,
    _recovery_indices,
    execute_rb_sequences,
)
from ..circuits.gate import Gate
from ..qobj.gates import x_gate, y_gate, z_gate
from ..store import resolve_store
from ..utils.validation import ValidationError

__all__ = [
    "CycleBenchResult",
    "pauli_indices",
    "cycle_sequences",
    "run_cycle_benchmark",
]


def pauli_indices(group: CliffordGroup) -> tuple[int, ...]:
    """Group-element indices of the n-qubit Pauli layers (4^n of them).

    Every Pauli (tensor products of I/X/Y/Z) is a Clifford, so the layers
    are located by :meth:`~repro.benchmarking.clifford.CliffordGroup.lookup`
    — the twirl then reuses the group's composition/inversion tables and
    the cached channel table like any other element.
    """
    singles = [np.eye(2, dtype=complex), x_gate(), y_gate(), z_gate()]
    if group.n_qubits == 1:
        matrices = singles
    else:
        matrices = [np.kron(a, b) for a in singles for b in singles]
    return tuple(group.lookup(m).index for m in matrices)


def cycle_sequences(
    physical_qubits: Sequence[int],
    gate: Gate | str,
    lengths: Sequence[int] | None = None,
    n_seeds: int = 3,
    seed=None,
    build_circuits: bool = True,
    store=None,
) -> list[RBSequence]:
    """Generate cycle-benchmarking sequences for one interleaved cycle.

    Each sequence's ``clifford_indices`` are the random Pauli layers; the
    cycle rides as the interleaved element (``interleaved=True``), and the
    recovery index inverts the full alternating word — so the standard RB
    executor composes ``P_i · C`` pairs and closes the loop exactly.
    """
    physical_qubits = [int(q) for q in physical_qubits]
    n_qubits = len(physical_qubits)
    if n_qubits not in (1, 2):
        raise ValidationError("cycle benchmarking supports 1 or 2 qubits")
    gate = Gate.standard(gate) if isinstance(gate, str) else gate
    if gate.num_qubits != n_qubits:
        raise ValidationError(
            f"cycle gate {gate.name!r} acts on {gate.num_qubits} qubit(s), "
            f"but {n_qubits} are benchmarked"
        )
    group = clifford_group(n_qubits, store=store)
    cycle_element = _locate_interleaved_element(
        group, gate, physical_qubits, physical_qubits
    )
    if lengths is None:
        lengths = DEFAULT_LENGTHS_1Q if n_qubits == 1 else DEFAULT_LENGTHS_2Q
    lengths = _check_lengths(lengths)
    if n_seeds < 1:
        raise ValidationError(f"n_seeds must be >= 1, got {n_seeds}")
    paulis = np.asarray(pauli_indices(group))
    rows = [paulis[row] for row in _draw_rows(seed, n_seeds, lengths, len(paulis))]
    recoveries = _recovery_indices(group, rows, cycle_element.index).tolist()
    keys = [(seed_index, m) for seed_index in range(n_seeds) for m in lengths]
    n_circuit_qubits = max(physical_qubits) + 1
    qubits_tuple = tuple(physical_qubits)
    sequences: list[RBSequence] = []
    for (seed_index, m), row, recovery_idx in zip(keys, rows, recoveries):
        indices = tuple(row.tolist())
        circuit = None
        if build_circuits:
            circuit = _build_sequence_circuit(
                group,
                [group.element(i) for i in indices],
                physical_qubits,
                n_circuit_qubits,
                gate,
                physical_qubits,
                group.element(recovery_idx),
                name=f"cb_m{m}_s{seed_index}",
            )
        sequences.append(
            RBSequence(
                circuit=circuit,
                length=m,
                seed_index=seed_index,
                interleaved=True,
                clifford_indices=indices,
                recovery_index=recovery_idx,
                physical_qubits=qubits_tuple,
            )
        )
    return sequences


@dataclass
class CycleBenchResult:
    """Outcome of a cycle-benchmarking run (wraps the RB decay fit)."""

    rb: RBResult
    gate: str

    @property
    def alpha(self) -> float:
        """Fitted decay of the Pauli-twirled cycle."""
        return self.rb.alpha

    @property
    def alpha_err(self) -> float:
        """1σ uncertainty of :attr:`alpha`."""
        return self.rb.alpha_err

    @property
    def error_per_cycle(self) -> float:
        """Process infidelity per twirled cycle ``(d−1)/d · (1−α)``."""
        return self.rb.error_per_clifford

    @property
    def error_per_cycle_err(self) -> float:
        """1σ uncertainty of :attr:`error_per_cycle`."""
        return self.rb.error_per_clifford_err

    def __repr__(self) -> str:
        return (
            f"CycleBenchResult(gate={self.gate!r}, alpha={self.alpha:.5f}"
            f"±{self.alpha_err:.5f}, EPC={self.error_per_cycle:.2e})"
        )


def run_cycle_benchmark(
    backend,
    gate: Gate | str,
    physical_qubits: Sequence[int],
    lengths: Sequence[int] | None = None,
    n_seeds: int = 3,
    shots: int = 512,
    seed=None,
    engine: str = "channels",
    num_workers: int = 1,
    store=None,
) -> CycleBenchResult:
    """Run cycle benchmarking of one gate and fit the error per cycle.

    Parameters
    ----------
    backend : PulseBackend
        Backend to benchmark.
    gate : Gate or str
        The interleaved cycle (must be a Clifford, e.g. ``x`` or ``cx``).
    physical_qubits : sequence of int
        Benchmarked physical qubits (2 for ``cx``, else 1).
    lengths, n_seeds, shots, seed
        Workload shape (see :func:`cycle_sequences`).
    engine : str
        ``"channels"`` or ``"circuits"`` (see
        :func:`~repro.benchmarking.rb.execute_rb_sequences`).
    num_workers : int
        Process-pool size of the channels engine, which runs the curve as
        one pool call.
    store : optional
        Persistent channel-store selector.

    Returns
    -------
    CycleBenchResult
        The fitted twirled-cycle decay and error per cycle.
    """
    gate = Gate.standard(gate) if isinstance(gate, str) else gate
    physical_qubits = [int(q) for q in physical_qubits]
    store = resolve_store(store)
    sequences = cycle_sequences(
        physical_qubits,
        gate,
        lengths=lengths,
        n_seeds=n_seeds,
        seed=seed,
        build_circuits=engine == "circuits",
        store=store,
    )
    rb_result = execute_rb_sequences(
        backend,
        sequences,
        len(physical_qubits),
        shots,
        seed=seed,
        engine=engine,
        num_workers=num_workers,
        physical_qubits=physical_qubits,
        interleaved_gate=gate,
        store=store,
    )
    return CycleBenchResult(rb=rb_result, gate=gate.name)
