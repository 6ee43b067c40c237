"""Standard randomized benchmarking (RB).

An RB experiment samples, for each sequence length ``m`` and each seed, ``m``
uniformly random Cliffords followed by the recovery Clifford that inverts
their product, measures the probability of returning to ``|0…0⟩``, and fits
the decay ``A·α^m + B``.  The error per Clifford is ``(d−1)/d·(1−α)``.

Circuits are generated over the device's native gates (each Clifford's
generator word, separated by barriers so the transpiler does not merge
neighbouring Cliffords) and executed on a
:class:`~repro.backend.backend.PulseBackend`, whose per-gate channels include
decoherence, leakage, miscalibration and readout error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .clifford import CliffordElement, CliffordGroup, clifford_group
from .fitting import RBDecayFit, fit_rb_decay
from ..circuits.circuit import QuantumCircuit
from ..circuits.gate import Gate
from ..utils.seeding import default_rng, spawn_rngs
from ..utils.validation import ValidationError

__all__ = [
    "RBSequence",
    "rb_circuits",
    "rb_sequences",
    "RBResult",
    "RBExperiment",
    "StandardRB",
    "execute_rb_sequences",
]

DEFAULT_LENGTHS_1Q = (1, 4, 16, 48, 96, 160)
DEFAULT_LENGTHS_2Q = (1, 2, 4, 8, 16, 24)

_ENGINES = ("channels", "circuits")


def _check_engine(engine: str) -> str:
    if engine not in _ENGINES:
        raise ValidationError(f"engine must be one of {_ENGINES}, got {engine!r}")
    return engine


def _resolve_experiment_store(store, backend):
    """Resolve an experiment-level ``store`` knob against the backend default.

    Returns either a resolved
    :class:`~repro.store.ArtifactStore` or ``False``
    (persistence off), never ``None`` — so downstream layers do not re-apply
    the backend fallback.
    """
    from ..store import resolve_store

    if store is not None:
        resolved = resolve_store(store)
    else:
        resolved = resolve_store(getattr(backend, "channel_store", None))
    return resolved if resolved is not None else False


@dataclass
class RBSequence:
    """One RB sequence together with its generation metadata.

    ``circuit`` is ``None`` when the sequence was generated for the batched
    channel engine (``rb_sequences(..., build_circuits=False)``), which only
    needs the element indices; the circuit-based executor requires it.
    """

    circuit: QuantumCircuit | None
    length: int
    seed_index: int
    interleaved: bool = False
    clifford_indices: tuple[int, ...] = ()
    #: Group-element index of the recovery Clifford inverting the sequence
    #: (including the interleaved element, for interleaved sequences).
    recovery_index: int | None = None
    physical_qubits: tuple[int, ...] = ()


def _recovery_index(
    group: CliffordGroup,
    element_indices: Sequence[int],
    interleaved_index: int | None = None,
) -> int:
    """Element index of the recovery Clifford inverting the sequence."""
    net = group.identity.index
    for idx in element_indices:
        net = group.compose_index(net, idx)
        if interleaved_index is not None:
            net = group.compose_index(net, interleaved_index)
    return group.inverse_index(net)


def _build_sequence_circuit(
    group: CliffordGroup,
    elements: Sequence[CliffordElement],
    physical_qubits: Sequence[int],
    n_circuit_qubits: int,
    interleaved_gate: Gate | None,
    interleaved_qubits: Sequence[int] | None,
    recovery: CliffordElement,
    name: str,
) -> QuantumCircuit:
    """Assemble the sequence circuit ending in the given recovery Clifford."""
    circuit = QuantumCircuit(n_circuit_qubits, len(physical_qubits), name=name)
    for element in elements:
        group.append_to_circuit(circuit, element, physical_qubits)
        circuit.barrier(*physical_qubits)
        if interleaved_gate is not None:
            circuit.append(interleaved_gate, tuple(interleaved_qubits))
            circuit.barrier(*physical_qubits)
    group.append_to_circuit(circuit, recovery, physical_qubits)
    circuit.barrier(*physical_qubits)
    for clbit, qubit in enumerate(physical_qubits):
        circuit.measure(qubit, clbit)
    return circuit


def _locate_interleaved_element(
    group: CliffordGroup,
    interleaved_gate: Gate,
    physical_qubits: Sequence[int],
    interleaved_qubits: Sequence[int],
) -> CliffordElement:
    """Find the interleaved gate inside the Clifford group (local indices)."""
    local = [list(physical_qubits).index(q) for q in interleaved_qubits]
    u = interleaved_gate.unitary()
    if group.n_qubits == 2 and local == [1, 0]:
        # gate listed target-first: permute to local order (q0, q1)
        swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
        u = swap @ u @ swap
    if not group.contains(u):
        raise ValidationError(
            f"interleaved gate {interleaved_gate.name!r} is not a Clifford"
        )
    return group.lookup(u)


def rb_circuits(
    physical_qubits: Sequence[int],
    lengths: Sequence[int] | None = None,
    n_seeds: int = 3,
    seed=None,
    interleaved_gate: Gate | None = None,
    interleaved_qubits: Sequence[int] | None = None,
    store=None,
) -> list[RBSequence]:
    """Generate standard (and optionally interleaved) RB circuits.

    Equivalent to :func:`rb_sequences` with ``build_circuits=True``; kept as
    the circuit-producing entry point.
    """
    return rb_sequences(
        physical_qubits,
        lengths=lengths,
        n_seeds=n_seeds,
        seed=seed,
        interleaved_gate=interleaved_gate,
        interleaved_qubits=interleaved_qubits,
        build_circuits=True,
        store=store,
    )


def rb_sequences(
    physical_qubits: Sequence[int],
    lengths: Sequence[int] | None = None,
    n_seeds: int = 3,
    seed=None,
    interleaved_gate: Gate | None = None,
    interleaved_qubits: Sequence[int] | None = None,
    build_circuits: bool = True,
    store=None,
) -> list[RBSequence]:
    """Generate standard (and optionally interleaved) RB sequences.

    Parameters
    ----------
    physical_qubits:
        The qubits benchmarked (1 or 2).
    lengths:
        Sequence lengths ``m``; defaults depend on the number of qubits.
    n_seeds:
        Number of random sequences per length.
    seed:
        RNG seed for sequence sampling.
    interleaved_gate:
        If given, *additional* interleaved sequences are generated in which
        this gate (which must be a Clifford) is inserted after every random
        Clifford.  The gate may carry a custom pulse calibration on the
        circuit level (added by the caller afterwards via
        ``QuantumCircuit.add_calibration``) — generation only relies on its
        ideal unitary.
    interleaved_qubits:
        Physical qubits the interleaved gate acts on (defaults to
        ``physical_qubits``).
    build_circuits:
        When ``False``, only the Clifford element indices and recovery
        indices are generated (no :class:`QuantumCircuit` objects) — the
        representation consumed by the batched channel engine.  The random
        element draws are identical either way.
    store:
        Persistent-store selector (``"auto"``, a path, a store instance or
        ``None``) forwarded to
        :func:`~repro.benchmarking.clifford.clifford_group`, so the group
        enumeration is loaded from (or saved to) disk.

    Returns
    -------
    list[RBSequence]
        Standard sequences first, then (if requested) interleaved ones.
    """
    physical_qubits = [int(q) for q in physical_qubits]
    n_qubits = len(physical_qubits)
    if n_qubits not in (1, 2):
        raise ValidationError("RB supports 1 or 2 qubits")
    group = clifford_group(n_qubits, store=store)
    if lengths is None:
        lengths = DEFAULT_LENGTHS_1Q if n_qubits == 1 else DEFAULT_LENGTHS_2Q
    lengths = [int(m) for m in lengths]
    if any(m < 1 for m in lengths):
        raise ValidationError(f"sequence lengths must be >= 1, got {lengths}")
    if n_seeds < 1:
        raise ValidationError(f"n_seeds must be >= 1, got {n_seeds}")

    interleaved_element = None
    if interleaved_gate is not None:
        interleaved_qubits = list(interleaved_qubits or physical_qubits)
        if sorted(interleaved_qubits) != sorted(physical_qubits):
            raise ValidationError(
                "interleaved gate must act exactly on the benchmarked qubits"
            )
        interleaved_element = _locate_interleaved_element(
            group, interleaved_gate, physical_qubits, interleaved_qubits
        )

    n_circuit_qubits = max(physical_qubits) + 1
    rngs = spawn_rngs(seed, n_seeds)
    sequences: list[RBSequence] = []
    sampled: dict[tuple[int, int], list[CliffordElement]] = {}
    qubits_tuple = tuple(physical_qubits)
    for seed_index, rng in enumerate(rngs):
        for m in lengths:
            elements = [group.sample(rng) for _ in range(m)]
            sampled[(seed_index, m)] = elements
            indices = tuple(e.index for e in elements)
            recovery_idx = _recovery_index(group, indices)
            circuit = None
            if build_circuits:
                circuit = _build_sequence_circuit(
                    group,
                    elements,
                    physical_qubits,
                    n_circuit_qubits,
                    None,
                    None,
                    group.element(recovery_idx),
                    name=f"rb_m{m}_s{seed_index}",
                )
            sequences.append(
                RBSequence(
                    circuit=circuit,
                    length=m,
                    seed_index=seed_index,
                    interleaved=False,
                    clifford_indices=indices,
                    recovery_index=recovery_idx,
                    physical_qubits=qubits_tuple,
                )
            )
    if interleaved_gate is not None:
        for seed_index in range(n_seeds):
            for m in lengths:
                elements = sampled[(seed_index, m)]
                indices = tuple(e.index for e in elements)
                recovery_idx = _recovery_index(group, indices, interleaved_element.index)
                circuit = None
                if build_circuits:
                    circuit = _build_sequence_circuit(
                        group,
                        elements,
                        physical_qubits,
                        n_circuit_qubits,
                        interleaved_gate,
                        interleaved_qubits,
                        group.element(recovery_idx),
                        name=f"irb_m{m}_s{seed_index}",
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
class RBResult:
    """Outcome of a standard RB experiment."""

    lengths: np.ndarray
    survival_mean: np.ndarray
    survival_std: np.ndarray
    fit: RBDecayFit
    n_qubits: int
    per_sequence: list[tuple[int, int, float]] = field(default_factory=list)

    @property
    def alpha(self) -> float:
        """Fitted depolarizing decay parameter."""
        return self.fit.alpha

    @property
    def alpha_err(self) -> float:
        """1σ uncertainty of :attr:`alpha`."""
        return self.fit.alpha_err

    @property
    def error_per_clifford(self) -> float:
        """Error per Clifford ``(d-1)/d · (1-α)``."""
        return self.fit.error_per_clifford(self.n_qubits)[0]

    @property
    def error_per_clifford_err(self) -> float:
        """1σ uncertainty of :attr:`error_per_clifford`."""
        return self.fit.error_per_clifford(self.n_qubits)[1]

    def __repr__(self) -> str:
        return (
            f"RBResult(alpha={self.alpha:.5f}±{self.alpha_err:.5f}, "
            f"EPC={self.error_per_clifford:.2e}±{self.error_per_clifford_err:.2e})"
        )


class RBExperiment:
    """Standard randomized benchmarking against a pulse backend.

    Parameters
    ----------
    engine:
        ``"channels"`` (default) composes cached per-Clifford superoperator
        channels — the batched execution engine; ``"circuits"`` transpiles
        and executes every sequence circuit individually (the reference
        path).  Both produce identical survival statistics up to float
        tolerance.
    num_workers:
        Fan sequences out over a process pool (``1`` = serial, ``0`` = all
        available CPUs, see :func:`repro.utils.parallel.parallel_map`).
    store:
        Persistent Clifford-store selector: ``"auto"`` (default cache
        directory), a directory path, a
        :class:`~repro.store.ArtifactStore`, ``False``
        (force off) or ``None`` (default — inherit the backend's
        ``channel_store``).  See ``docs/caching.md`` for the full
        cache/fingerprint/invalidation contract.
    """

    def __init__(
        self,
        backend,
        physical_qubits: Sequence[int],
        lengths: Sequence[int] | None = None,
        n_seeds: int = 3,
        shots: int = 512,
        seed=None,
        engine: str = "channels",
        num_workers: int = 1,
        store=None,
    ):
        self.backend = backend
        self.physical_qubits = [int(q) for q in physical_qubits]
        self.n_qubits = len(self.physical_qubits)
        self.lengths = list(
            lengths
            if lengths is not None
            else (DEFAULT_LENGTHS_1Q if self.n_qubits == 1 else DEFAULT_LENGTHS_2Q)
        )
        self.n_seeds = int(n_seeds)
        self.shots = int(shots)
        self.seed = seed
        self.engine = _check_engine(engine)
        self.num_workers = int(num_workers)
        self.store = store

    def _resolved_store(self):
        """The experiment's store (or ``False``), honoring the backend default."""
        return _resolve_experiment_store(self.store, self.backend)

    def circuits(self) -> list[RBSequence]:
        """The experiment's RB sequence circuits (circuit engine form)."""
        return rb_circuits(
            self.physical_qubits, self.lengths, self.n_seeds, seed=self.seed
        )

    def run(self, calibrations: dict[tuple[str, tuple[int, ...]], object] | None = None) -> RBResult:
        """Execute the experiment and fit the decay.

        ``calibrations`` (gate name, physical qubits) → pulse Schedule are
        attached to every circuit, so RB can also be run entirely with custom
        pulses if desired (this forces the circuit engine, which honors
        per-circuit calibrations on gates inside the Clifford words).
        """
        engine = "circuits" if calibrations else self.engine
        store = self._resolved_store()
        sequences = rb_sequences(
            self.physical_qubits,
            self.lengths,
            self.n_seeds,
            seed=self.seed,
            build_circuits=engine == "circuits",
            store=store,
        )
        return execute_rb_sequences(
            self.backend,
            [s for s in sequences if not s.interleaved],
            self.n_qubits,
            self.shots,
            calibrations=calibrations,
            seed=self.seed,
            engine=engine,
            num_workers=self.num_workers,
            physical_qubits=self.physical_qubits,
            store=store,
        )


#: Qiskit-experiments-style alias.
StandardRB = RBExperiment


def _fit_survivals(
    sequences: list[RBSequence],
    survivals: Sequence[float],
    n_qubits: int,
    fixed_asymptote: float | None,
) -> RBResult:
    """Aggregate per-sequence survivals and fit the RB decay."""
    per_length: dict[int, list[float]] = {}
    per_sequence: list[tuple[int, int, float]] = []
    for seq, survival in zip(sequences, survivals):
        per_length.setdefault(seq.length, []).append(float(survival))
        per_sequence.append((seq.length, seq.seed_index, float(survival)))
    lengths = np.array(sorted(per_length), dtype=float)
    means = np.array([np.mean(per_length[int(m)]) for m in lengths])
    stds = np.array([np.std(per_length[int(m)]) for m in lengths])
    fit = fit_rb_decay(
        lengths,
        means,
        survival_stds=stds if np.all(stds > 0) else None,
        p_asymptote=fixed_asymptote,
    )
    return RBResult(
        lengths=lengths,
        survival_mean=means,
        survival_std=stds,
        fit=fit,
        n_qubits=n_qubits,
        per_sequence=per_sequence,
    )


def execute_rb_sequences(
    backend,
    sequences: list[RBSequence],
    n_qubits: int,
    shots: int,
    calibrations: dict[tuple[str, tuple[int, ...]], object] | None = None,
    seed=None,
    fixed_asymptote: float | None = None,
    engine: str = "channels",
    num_workers: int = 1,
    physical_qubits: Sequence[int] | None = None,
    interleaved_gate: Gate | None = None,
    interleaved_calibration=None,
    store=None,
) -> RBResult:
    """Run RB sequences on a backend and fit the survival decay.

    ``engine="channels"`` composes cached per-Clifford channels via the
    batched engine (requires sequence metadata from :func:`rb_sequences`
    and, for interleaved sequences, the ``interleaved_gate``); it falls back
    to the circuit path automatically when per-circuit ``calibrations`` are
    given or the metadata is unavailable.  Both engines draw identical
    per-sequence sampling seeds from ``seed``, in sequence order.

    ``store`` selects the persistent Clifford store for the channel engine
    (``"auto"``, a path, a store instance, ``False`` to force off, or
    ``None`` to inherit the backend's ``channel_store``).
    """
    if not sequences:
        raise ValidationError("no RB sequences to execute")
    store = _resolve_experiment_store(store, backend)
    use_channels = (
        engine == "channels"
        and not calibrations
        and all(s.recovery_index is not None for s in sequences)
        and (physical_qubits is not None or all(s.physical_qubits for s in sequences))
        and (interleaved_gate is not None or not any(s.interleaved for s in sequences))
    )
    if use_channels:
        from .engine import execute_sequences_with_channels

        qubits = list(physical_qubits if physical_qubits is not None else sequences[0].physical_qubits)
        survivals = execute_sequences_with_channels(
            backend,
            sequences,
            qubits,
            shots,
            clifford_group(n_qubits, store=store),
            interleaved_gate=interleaved_gate,
            interleaved_calibration=interleaved_calibration,
            seed=seed,
            num_workers=num_workers,
            store=store,
        )
        return _fit_survivals(sequences, survivals, n_qubits, fixed_asymptote)
    rng = default_rng(seed)
    survivals = []
    for seq in sequences:
        circuit = seq.circuit
        if circuit is None:
            raise ValidationError(
                "sequence has no circuit; regenerate with rb_circuits() to use the circuit engine"
            )
        if calibrations:
            for (name, qubits), sched in calibrations.items():
                circuit.add_calibration(name, qubits, sched)
        result = backend.run(circuit, shots=shots, seed=int(rng.integers(2**31 - 1)))
        survivals.append(result.ground_state_population())
    return _fit_survivals(sequences, survivals, n_qubits, fixed_asymptote)
