"""Cross-entropy benchmarking (linear XEB) on the channels engine.

XEB runs random circuits — here words of uniformly drawn Clifford group
elements, with **no recovery** — and compares the measured bitstring
distribution against the ideal output of each circuit.  The linear
cross-entropy fidelity of one circuit is

    F = (D · Σ_k p_ideal(k) p_meas(k) − 1) / (D · Σ_k p_ideal(k)² − 1)

with ``D = 2^n``; ``F = 1`` for a noiseless device and ``F = 0`` for fully
depolarized output.  Per-depth fidelities are pooled over circuits (the
numerators and denominators are summed separately, which down-weights
circuits whose ideal output carries little signal) and fit to ``A·α^m``,
whose base ``α`` is the per-layer fidelity.

Clifford circuits map stabilizer states to stabilizer states, so a
circuit's ideal distribution is either uniform over a coset (zero XEB
signal — the per-circuit denominator vanishes) or concentrated; degenerate
circuits are excluded from the pool deterministically, identically on both
engines.

Two execution engines mirror the PR 1 contract of
:mod:`repro.benchmarking.engine`: ``"channels"`` composes the cached
per-Clifford superoperators of the backend's channel table, while
``"circuits"`` transpiles and runs every random circuit on the pulse
backend.  Both draw identical per-circuit sampling seeds in sequence
order, so their survival statistics agree to the float tolerance of the
composed channels (asserted ≤ 1e-6 in the test suite and the
``protocol_zoo`` bench leg).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .clifford import CliffordGroup, clifford_group
from .engine import clifford_channel_table, used_element_indices
from .fitting import RBDecayFit, fit_rb_decay
from .rb import RBSequence, _check_engine, _draw_rows
from ..backend.noise import readout_confusion_matrix
from ..backend.sampling import channel_output_probabilities, sample_measurement
from ..circuits.circuit import QuantumCircuit
from ..store import resolve_store
from ..utils.seeding import default_rng
from ..utils.validation import ValidationError

__all__ = [
    "DEFAULT_XEB_DEPTHS",
    "XEBResult",
    "xeb_sequences",
    "ideal_output_probabilities",
    "linear_xeb_fidelities",
    "run_xeb",
]

#: Default circuit depths (≥3 points for the exponential-decay fit).
DEFAULT_XEB_DEPTHS = (1, 2, 4, 8, 16)

#: Per-circuit denominators below this are treated as zero-signal
#: (ideal output uniform over the measured basis) and dropped from the
#: pooled estimator — deterministically, identically on both engines.
_DEGENERATE_DENOMINATOR = 1e-9


def xeb_sequences(
    physical_qubits: Sequence[int],
    depths: Sequence[int] | None = None,
    n_circuits: int = 8,
    seed=None,
    build_circuits: bool = True,
    store=None,
) -> list[RBSequence]:
    """Generate random XEB circuits as recovery-free Clifford words.

    Reuses the RB sequence representation (``recovery_index`` stays
    ``None`` — XEB never inverts the word) and the RB seeding discipline:
    one spawned RNG per circuit index, depths drawn innermost, so the
    element draws are identical whether or not circuits are built.

    Parameters
    ----------
    physical_qubits : sequence of int
        Benchmarked physical qubits (1 or 2).
    depths : sequence of int, optional
        Circuit depths ``m`` (number of Clifford layers); default
        :data:`DEFAULT_XEB_DEPTHS`.
    n_circuits : int
        Random circuits per depth.
    seed : optional
        RNG seed of the circuit sampling.
    build_circuits : bool
        When ``False``, only element indices are generated — the
        representation the channels engine consumes.
    store : optional
        Persistent-store selector forwarded to
        :func:`~repro.benchmarking.clifford.clifford_group`.

    Returns
    -------
    list of RBSequence
        One sequence per (circuit index, depth), ``seed_index`` = circuit
        index, ``length`` = depth.
    """
    physical_qubits = [int(q) for q in physical_qubits]
    n_qubits = len(physical_qubits)
    if n_qubits not in (1, 2):
        raise ValidationError("XEB supports 1 or 2 qubits")
    group = clifford_group(n_qubits, store=store)
    depths = [int(m) for m in (depths if depths is not None else DEFAULT_XEB_DEPTHS)]
    if any(m < 1 for m in depths):
        raise ValidationError(f"XEB depths must be >= 1, got {depths}")
    if n_circuits < 1:
        raise ValidationError(f"n_circuits must be >= 1, got {n_circuits}")
    n_circuit_qubits = max(physical_qubits) + 1
    qubits_tuple = tuple(physical_qubits)
    keys = [(circuit_index, m) for circuit_index in range(n_circuits) for m in depths]
    sequences: list[RBSequence] = []
    for (circuit_index, m), row in zip(keys, _draw_rows(seed, n_circuits, depths, len(group))):
        indices = tuple(row.tolist())
        circuit = None
        if build_circuits:
            circuit = QuantumCircuit(
                n_circuit_qubits,
                n_qubits,
                name=f"xeb_m{m}_c{circuit_index}",
            )
            for index in indices:
                group.append_to_circuit(circuit, group.element(index), physical_qubits)
                circuit.barrier(*physical_qubits)
            for clbit, qubit in enumerate(physical_qubits):
                circuit.measure(qubit, clbit)
        sequences.append(
            RBSequence(
                circuit=circuit,
                length=m,
                seed_index=circuit_index,
                interleaved=False,
                clifford_indices=indices,
                recovery_index=None,
                physical_qubits=qubits_tuple,
            )
        )
    return sequences


def ideal_output_probabilities(group: CliffordGroup, indices: Sequence[int]) -> np.ndarray:
    """Ideal ``|0…0⟩`` output distribution of one Clifford word.

    The composed unitary acts in the *local* qubit order of the group
    (local qubit 0 = most significant bit), which is exactly how both
    engines index measured bitstrings (classical bit ``i`` records
    ``physical_qubits[i]`` = local qubit ``i``), so the two sides compare
    index-for-index without any basis permutation.
    """
    u = np.eye(group.dim, dtype=complex)
    for idx in indices:
        u = group.element(idx).matrix @ u
    return np.abs(u[:, 0]) ** 2


def _measured_probabilities(counts: dict[str, int], n_qubits: int) -> np.ndarray:
    """Measured distribution over local basis indices from a counts dict."""
    probs = np.zeros(2**n_qubits)
    total = 0
    for bitstring, shots in counts.items():
        probs[int(bitstring, 2)] += shots
        total += shots
    return probs / max(total, 1)


def linear_xeb_fidelities(
    sequences: Sequence[RBSequence],
    counts_list: Sequence[dict[str, int]],
    group: CliffordGroup,
) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int, float]]]:
    """Pooled per-depth linear-XEB fidelities from per-circuit counts.

    Per circuit, numerator ``D·Σ p_ideal p_meas − 1`` and denominator
    ``D·Σ p_ideal² − 1`` are computed; per depth the pooled estimate is
    ``Σ num / Σ den`` over the non-degenerate circuits of that depth.

    Returns
    -------
    (depths, fidelities, per_circuit)
        Sorted depth array, pooled fidelity per depth, and the
        ``(depth, circuit_index, numerator/denominator-or-nan)`` detail of
        every circuit.
    """
    d = group.dim
    pooled_num: dict[int, float] = {}
    pooled_den: dict[int, float] = {}
    per_circuit: list[tuple[int, int, float]] = []
    for seq, counts in zip(sequences, counts_list):
        p_ideal = ideal_output_probabilities(group, seq.clifford_indices)
        p_meas = _measured_probabilities(counts, len(seq.physical_qubits))
        num = d * float(p_ideal @ p_meas) - 1.0
        den = d * float(p_ideal @ p_ideal) - 1.0
        if abs(den) < _DEGENERATE_DENOMINATOR:
            per_circuit.append((seq.length, seq.seed_index, float("nan")))
            continue
        pooled_num[seq.length] = pooled_num.get(seq.length, 0.0) + num
        pooled_den[seq.length] = pooled_den.get(seq.length, 0.0) + den
        per_circuit.append((seq.length, seq.seed_index, num / den))
    depths = sorted({seq.length for seq in sequences})
    missing = [m for m in depths if abs(pooled_den.get(m, 0.0)) < _DEGENERATE_DENOMINATOR]
    if missing:
        raise ValidationError(
            f"every XEB circuit at depth(s) {missing} has a uniform ideal "
            "output (zero cross-entropy signal); increase n_circuits or "
            "change the seed"
        )
    fidelities = np.array([pooled_num[m] / pooled_den[m] for m in depths])
    return np.array(depths, dtype=float), fidelities, per_circuit


@dataclass
class XEBResult:
    """Outcome of a cross-entropy benchmarking run."""

    depths: np.ndarray
    fidelity: np.ndarray
    fit: RBDecayFit
    n_qubits: int
    per_circuit: list[tuple[int, int, float]] = field(default_factory=list)

    @property
    def layer_fidelity(self) -> float:
        """Fitted per-layer fidelity (the decay base ``α``)."""
        return self.fit.alpha

    @property
    def layer_fidelity_err(self) -> float:
        """1σ uncertainty of :attr:`layer_fidelity`."""
        return self.fit.alpha_err

    def __repr__(self) -> str:
        return (
            f"XEBResult(layer_fidelity={self.layer_fidelity:.5f}"
            f"±{self.layer_fidelity_err:.5f}, depths={len(self.depths)})"
        )


def _sample_channel_counts(
    backend,
    sequences: Sequence[RBSequence],
    physical_qubits: Sequence[int],
    shots: int,
    group: CliffordGroup,
    seed,
    store,
) -> list[dict[str, int]]:
    """Counts of every sequence via composed cached channels."""
    table = clifford_channel_table(backend, physical_qubits, group, store=store)
    if table.store is not None:
        table.ensure(used_element_indices(sequences))
    confusion = readout_confusion_matrix(
        [backend.properties.qubit(q) for q in physical_qubits]
    )
    measured = [(int(q), clbit) for clbit, q in enumerate(physical_qubits)]
    active = list(table.active)
    rng = default_rng(seed)
    counts_list: list[dict[str, int]] = []
    for seq in sequences:
        # one seed per sequence, drawn in sequence order (matches circuits)
        sample_seed = int(rng.integers(2**31 - 1))
        total = np.eye(4 ** len(physical_qubits), dtype=complex)
        for idx in seq.clifford_indices:
            total = table.channel_by_index(idx) @ total
        probs = channel_output_probabilities(total, len(active))
        result = sample_measurement(
            probs,
            active,
            measured,
            confusion,
            default_rng(sample_seed),
            int(shots),
            f"xeb_m{seq.length}_c{seq.seed_index}",
            backend.name,
        )
        counts_list.append(dict(result.counts))
    return counts_list


def run_xeb(
    backend,
    physical_qubits: Sequence[int],
    depths: Sequence[int] | None = None,
    n_circuits: int = 8,
    shots: int = 512,
    seed=None,
    engine: str = "channels",
    store=None,
) -> XEBResult:
    """Run linear XEB on a backend and fit the per-layer fidelity.

    Parameters
    ----------
    backend : PulseBackend
        Backend to benchmark.
    physical_qubits : sequence of int
        Benchmarked physical qubits (1 or 2).
    depths, n_circuits, shots, seed
        Workload shape (see :func:`xeb_sequences`).
    engine : str
        ``"channels"`` (composed cached superoperators) or ``"circuits"``
        (per-circuit pulse simulation); identical sampling statistics.
    store : optional
        Persistent channel-store selector (``"auto"``, path, store
        instance, or ``None`` = no store).

    Returns
    -------
    XEBResult
        Pooled per-depth fidelities and the fitted layer fidelity.
    """
    _check_engine(engine)
    physical_qubits = [int(q) for q in physical_qubits]
    store = resolve_store(store)
    group = clifford_group(len(physical_qubits), store=store)
    sequences = xeb_sequences(
        physical_qubits,
        depths=depths,
        n_circuits=n_circuits,
        seed=seed,
        build_circuits=engine == "circuits",
        store=store,
    )
    if engine == "channels":
        counts_list = _sample_channel_counts(
            backend, sequences, physical_qubits, shots, group, seed, store
        )
    else:
        rng = default_rng(seed)
        counts_list = []
        for seq in sequences:
            result = backend.run(
                seq.circuit, shots=int(shots), seed=int(rng.integers(2**31 - 1))
            )
            counts_list.append(dict(result.counts))
    depth_arr, fidelities, per_circuit = linear_xeb_fidelities(
        sequences, counts_list, group
    )
    fit = fit_rb_decay(depth_arr, fidelities, p_asymptote=0.0)
    return XEBResult(
        depths=depth_arr,
        fidelity=fidelities,
        fit=fit,
        n_qubits=len(physical_qubits),
        per_circuit=per_circuit,
    )
