"""Purity randomized benchmarking (unitarity estimation).

Purity RB runs the *random half* of standard RB — uniformly drawn Clifford
words with no recovery — and tracks how fast the output state's purity
``Tr(ρ²)`` decays.  Writing the shifted purity

    u(m) = (d · Tr(ρ_m²) − 1) / (d − 1)

the decay ``u(m) = A·u^m`` has base ``u``, the **unitarity** of the average
per-Clifford noise: ``u = 1`` for purely coherent (unitary) errors and
``u = α²`` for a depolarizing channel with RB decay ``α``.  Comparing the
unitarity against the standard-RB ``α`` separates coherent calibration
errors from stochastic decoherence — the diagnostic the paper's optimized
pulses target.

No shots are sampled: the purity is computed analytically from the
composed noisy channel.  The ``"channels"`` engine composes the cached
per-Clifford superoperator table; the ``"circuits"`` reference path
rebuilds every sequence as a circuit and extracts its channel through
:meth:`~repro.backend.backend.PulseBackend.circuit_channel` — the identical
machinery, asserted equivalent to ≤ 1e-6 in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .clifford import clifford_group
from .engine import clifford_channel_table, used_element_indices
from .fitting import RBDecayFit, fit_rb_decay
from .rb import (
    DEFAULT_LENGTHS_1Q,
    DEFAULT_LENGTHS_2Q,
    RBSequence,
    _check_engine,
    _check_lengths,
    _draw_rows,
)
from ..circuits.circuit import QuantumCircuit
from ..circuits.transpiler import transpile
from ..qobj.superop import apply_superop
from ..store import resolve_store
from ..utils.validation import ValidationError

__all__ = [
    "PurityRBResult",
    "purity_rb_sequences",
    "state_purity",
    "run_purity_rb",
]


def purity_rb_sequences(
    physical_qubits: Sequence[int],
    lengths: Sequence[int] | None = None,
    n_seeds: int = 3,
    seed=None,
    build_circuits: bool = False,
    store=None,
) -> list[RBSequence]:
    """Generate purity-RB sequences: random Clifford words, no recovery.

    The element draws follow the standard-RB seeding discipline (one
    spawned RNG per seed index, lengths innermost); ``recovery_index``
    stays ``None`` and circuits — built only for the reference engine —
    carry no measurement, since the purity is read off the channel.
    """
    physical_qubits = [int(q) for q in physical_qubits]
    n_qubits = len(physical_qubits)
    if n_qubits not in (1, 2):
        raise ValidationError("purity RB supports 1 or 2 qubits")
    group = clifford_group(n_qubits, store=store)
    if lengths is None:
        lengths = DEFAULT_LENGTHS_1Q if n_qubits == 1 else DEFAULT_LENGTHS_2Q
    lengths = _check_lengths(lengths)
    if n_seeds < 1:
        raise ValidationError(f"n_seeds must be >= 1, got {n_seeds}")
    n_circuit_qubits = max(physical_qubits) + 1
    qubits_tuple = tuple(physical_qubits)
    keys = [(seed_index, m) for seed_index in range(n_seeds) for m in lengths]
    sequences: list[RBSequence] = []
    for (seed_index, m), row in zip(keys, _draw_rows(seed, n_seeds, lengths, len(group))):
        indices = tuple(row.tolist())
        circuit = None
        if build_circuits:
            circuit = QuantumCircuit(n_circuit_qubits, 0, name=f"purity_m{m}_s{seed_index}")
            for index in indices:
                group.append_to_circuit(circuit, group.element(index), physical_qubits)
                circuit.barrier(*physical_qubits)
        sequences.append(
            RBSequence(
                circuit=circuit,
                length=m,
                seed_index=seed_index,
                interleaved=False,
                clifford_indices=indices,
                recovery_index=None,
                physical_qubits=qubits_tuple,
            )
        )
    return sequences


def state_purity(channel: np.ndarray, n_qubits: int) -> float:
    """Purity ``Tr(ρ²)`` of the channel's output on ``|0…0⟩``."""
    dim = 2**n_qubits
    rho0 = np.zeros((dim, dim), dtype=complex)
    rho0[0, 0] = 1.0
    rho = apply_superop(channel, rho0)
    return float(np.real(np.trace(rho @ rho)))


@dataclass
class PurityRBResult:
    """Outcome of a purity RB (unitarity) experiment."""

    lengths: np.ndarray
    shifted_purity_mean: np.ndarray
    shifted_purity_std: np.ndarray
    fit: RBDecayFit
    n_qubits: int
    per_sequence: list[tuple[int, int, float]] = field(default_factory=list)

    @property
    def unitarity(self) -> float:
        """Fitted unitarity of the average per-Clifford noise."""
        return self.fit.alpha

    @property
    def unitarity_err(self) -> float:
        """1σ uncertainty of :attr:`unitarity`."""
        return self.fit.alpha_err

    def __repr__(self) -> str:
        return (
            f"PurityRBResult(unitarity={self.unitarity:.5f}"
            f"±{self.unitarity_err:.5f})"
        )


def run_purity_rb(
    backend,
    physical_qubits: Sequence[int],
    lengths: Sequence[int] | None = None,
    n_seeds: int = 3,
    seed=None,
    engine: str = "channels",
    store=None,
) -> PurityRBResult:
    """Run purity RB on a backend and fit the unitarity.

    Parameters
    ----------
    backend : PulseBackend
        Backend to benchmark.
    physical_qubits : sequence of int
        Benchmarked physical qubits (1 or 2).
    lengths, n_seeds, seed
        Workload shape (see :func:`purity_rb_sequences`).
    engine : str
        ``"channels"`` (cached superoperator table) or ``"circuits"``
        (per-sequence circuit → channel, the reference path).
    store : optional
        Persistent channel-store selector (``"auto"``, path, store
        instance, or ``None`` = no store).

    Returns
    -------
    PurityRBResult
        Per-length shifted purities and the fitted unitarity.
    """
    _check_engine(engine)
    physical_qubits = [int(q) for q in physical_qubits]
    n_qubits = len(physical_qubits)
    d = 2**n_qubits
    store = resolve_store(store)
    group = clifford_group(n_qubits, store=store)
    sequences = purity_rb_sequences(
        physical_qubits,
        lengths=lengths,
        n_seeds=n_seeds,
        seed=seed,
        build_circuits=engine == "circuits",
        store=store,
    )
    shifted: list[float] = []
    if engine == "channels":
        table = clifford_channel_table(backend, physical_qubits, group, store=store)
        if table.store is not None:
            table.ensure(used_element_indices(sequences))
        for seq in sequences:
            total = np.eye(4**n_qubits, dtype=complex)
            for idx in seq.clifford_indices:
                total = table.channel_by_index(idx) @ total
            purity = state_purity(total, n_qubits)
            shifted.append((d * purity - 1.0) / (d - 1.0))
    else:
        active = sorted(physical_qubits)
        for seq in sequences:
            transpiled = transpile(
                seq.circuit,
                basis_gates=backend.properties.basis_gates,
                coupling=backend.properties.coupling,
            )
            channel, _ = backend.circuit_channel(
                transpiled, qubits=active, transpiled=True
            )
            purity = state_purity(channel, n_qubits)
            shifted.append((d * purity - 1.0) / (d - 1.0))
    per_length: dict[int, list[float]] = {}
    per_sequence: list[tuple[int, int, float]] = []
    for seq, value in zip(sequences, shifted):
        per_length.setdefault(seq.length, []).append(float(value))
        per_sequence.append((seq.length, seq.seed_index, float(value)))
    length_arr = np.array(sorted(per_length), dtype=float)
    means = np.array([np.mean(per_length[int(m)]) for m in length_arr])
    stds = np.array([np.std(per_length[int(m)]) for m in length_arr])
    fit = fit_rb_decay(length_arr, means, p_asymptote=0.0)
    return PurityRBResult(
        lengths=length_arr,
        shifted_purity_mean=means,
        shifted_purity_std=stds,
        fit=fit,
        n_qubits=n_qubits,
        per_sequence=per_sequence,
    )
