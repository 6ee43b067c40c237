"""Interleaved randomized benchmarking (IRB).

IRB (Magesan et al., PRL 109, 080505 — the paper's reference [22]) runs two
RB experiments with the *same* random Clifford sequences:

* the **reference** curve, fitting decay parameter ``α``,
* the **interleaved** curve, in which the gate of interest ``G`` is inserted
  after every random Clifford, fitting ``α_c``.

The interleaved gate error is estimated as

    r_G = (d − 1)/d · (1 − α_c / α),

with the uncertainty propagated from both fits, and the systematic bounds of
Magesan et al. Eq. (5) reported alongside.

The gate of interest may carry a custom pulse calibration — the mechanism the
paper uses to benchmark its optimized pulses against the backend defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .clifford import clifford_group
from .engine import clifford_channel_table, used_element_indices
from .rb import RBResult, RBSequence, _check_engine, execute_rb_sequences, rb_circuits, rb_sequences
from ..circuits.gate import Gate
from ..pulse.schedule import Schedule
from ..store import resolve_store
from ..utils.validation import ValidationError

__all__ = ["InterleavedRBResult", "InterleavedRBExperiment", "InterleavedRB"]


@dataclass
class InterleavedRBResult:
    """Outcome of an interleaved RB experiment."""

    reference: RBResult
    interleaved: RBResult
    gate_name: str
    n_qubits: int

    # ------------------------------------------------------------------ #
    @property
    def alpha(self) -> float:
        """Reference-curve depolarizing parameter."""
        return self.reference.alpha

    @property
    def alpha_c(self) -> float:
        """Ratio of the interleaved to the reference depolarizing parameter."""
        return self.interleaved.alpha / self.reference.alpha

    @property
    def gate_error(self) -> float:
        """Interleaved gate error estimate ``(d-1)/d (1 - α_c)``."""
        d = 2**self.n_qubits
        return (d - 1.0) / d * (1.0 - self.alpha_c)

    @property
    def gate_error_std(self) -> float:
        """1σ uncertainty propagated from both decay fits."""
        d = 2**self.n_qubits
        a = self.reference.alpha
        a_int = self.interleaved.alpha
        da = self.reference.alpha_err
        da_int = self.interleaved.alpha_err
        # r = (d-1)/d (1 - a_int / a); propagate in quadrature
        dr_da_int = (d - 1.0) / d / a
        dr_da = (d - 1.0) / d * a_int / a**2
        return float(np.sqrt((dr_da_int * da_int) ** 2 + (dr_da * da) ** 2))

    @property
    def systematic_bounds(self) -> tuple[float, float]:
        """Magesan et al. systematic bounds ``[max(0, r - E), r + E]``.

        ``E = min((d-1)(|α - α_c·α| + (1-α))/d,
                  2(d²-1)(1-α)/(α d²) + 4 sqrt(1-α) sqrt(d²-1)/α)``
        """
        d = 2**self.n_qubits
        alpha = self.reference.alpha
        alpha_c = self.alpha_c
        term1 = (d - 1.0) * (abs(alpha - alpha_c * alpha) + (1.0 - alpha)) / d
        term2 = (
            2.0 * (d**2 - 1.0) * (1.0 - alpha) / (alpha * d**2)
            + 4.0 * np.sqrt(max(0.0, 1.0 - alpha)) * np.sqrt(d**2 - 1.0) / alpha
        )
        e = min(term1, term2)
        r = self.gate_error
        return max(0.0, r - e), r + e

    def summary(self) -> dict[str, float]:
        """Flat dictionary for tables and reports."""
        lo, hi = self.systematic_bounds
        return {
            "gate": self.gate_name,
            "alpha_reference": self.reference.alpha,
            "alpha_interleaved": self.interleaved.alpha,
            "alpha_c": self.alpha_c,
            "gate_error": self.gate_error,
            "gate_error_std": self.gate_error_std,
            "reference_epc": self.reference.error_per_clifford,
            "interleaved_epc": self.interleaved.error_per_clifford,
            "systematic_lower": lo,
            "systematic_upper": hi,
        }

    def __repr__(self) -> str:
        return (
            f"InterleavedRBResult(gate={self.gate_name!r}, "
            f"error={self.gate_error:.2e}±{self.gate_error_std:.2e})"
        )


class InterleavedRBExperiment:
    """Interleaved RB of one gate (optionally with a custom calibration).

    Parameters
    ----------
    backend : PulseBackend
        Backend the two RB curves run against.
    gate : Gate or str
        The interleaved gate of interest (must be a Clifford).
    physical_qubits : sequence of int
        Benchmarked physical qubits (1 or 2).
    lengths : sequence of int, optional
        Sequence lengths; defaults depend on the qubit count.
    n_seeds : int
        Random sequences per length.
    shots : int
        Shots per sequence.
    seed : optional
        Sequence-sampling and execution seed.
    custom_calibration : Schedule, optional
        Pulse schedule replacing the default calibration of the interleaved
        gate only (the paper's optimized-pulse mechanism).
    engine : str
        ``"channels"`` (batched engine, default) or ``"circuits"``.
    num_workers : int
        Process-pool size of the channel engine, which runs each of the
        two curves as one pool call.
    store : optional
        Persistent Clifford-store selector (``"auto"`` | path | store |
        ``None`` = no store).
    """

    def __init__(
        self,
        backend,
        gate: "Gate | str",
        physical_qubits: Sequence[int],
        lengths: Sequence[int] | None = None,
        n_seeds: int = 3,
        shots: int = 512,
        seed=None,
        custom_calibration: Schedule | None = None,
        engine: str = "channels",
        num_workers: int = 1,
        store=None,
    ):
        self.backend = backend
        base_gate = Gate.standard(gate) if isinstance(gate, str) else gate
        self.physical_qubits = [int(q) for q in physical_qubits]
        self.n_qubits = len(self.physical_qubits)
        if base_gate.num_qubits != self.n_qubits:
            raise ValidationError(
                f"gate acts on {base_gate.num_qubits} qubits but {self.n_qubits} were given"
            )
        self.lengths = lengths
        self.n_seeds = int(n_seeds)
        self.shots = int(shots)
        self.seed = seed
        self.custom_calibration = custom_calibration
        self.engine = _check_engine(engine)
        self.num_workers = int(num_workers)
        self.store = store
        self.base_gate_name = base_gate.name
        if custom_calibration is not None:
            # Give the interleaved instances a distinct name so the custom
            # calibration applies only to them — not to same-named gates that
            # appear inside the random Clifford words (e.g. the cx generators
            # of two-qubit Cliffords, or h/s in single-qubit words).
            self.gate = Gate.from_unitary(f"{base_gate.name}_custom", base_gate.unitary())
        else:
            self.gate = base_gate

    # ------------------------------------------------------------------ #
    def circuits(self) -> list[RBSequence]:
        """Reference + interleaved sequences (with calibrations attached)."""
        sequences = rb_circuits(
            self.physical_qubits,
            lengths=self.lengths,
            n_seeds=self.n_seeds,
            seed=self.seed,
            interleaved_gate=self.gate,
            interleaved_qubits=self.physical_qubits,
        )
        if self.custom_calibration is not None:
            key_qubits = tuple(self.physical_qubits)
            for seq in sequences:
                if seq.interleaved:
                    seq.circuit.add_calibration(self.gate.name, key_qubits, self.custom_calibration)
        return sequences

    @property
    def fixed_asymptote(self) -> float | None:
        """The asymptote both fits fix: 1/4 for two qubits, ``None`` (fitted) for one."""
        return 0.25 if self.n_qubits == 2 else None

    def reference_key(self) -> tuple | None:
        """What the reference curve depends on besides the backend.

        The qubits, lengths, ``n_seeds``, shots, seed, engine and fixed
        asymptote — not the interleaved gate or its calibration.  Two
        experiments on one backend with equal keys draw the same reference
        sequences and sampling seeds, so their reference curves are
        bit-identical.  ``None`` unless ``seed`` is an integer: a ``None``
        seed draws fresh sequences and a generator advances, so such a
        run's reference is its own.
        """
        if not isinstance(self.seed, (int, np.integer)):
            return None
        lengths = None if self.lengths is None else tuple(int(m) for m in self.lengths)
        return (
            tuple(self.physical_qubits), lengths, self.n_seeds, self.shots,
            int(self.seed), self.engine, self.fixed_asymptote,
        )

    def run(self, reference=None) -> InterleavedRBResult:
        """Execute both curves and build the interleaved estimate.

        For two-qubit experiments the decay asymptote is fixed to 1/4 in both
        fits (standard practice): with the short sequence lengths and seed
        counts practical for the benchmark harness, leaving it free makes the
        α_c ratio — and hence the interleaved-gate error — unstable.

        ``reference`` shares the reference curve between experiments with
        equal :meth:`reference_key` on one backend.  It is called as
        ``reference(compute)``, where ``compute()`` runs this experiment's
        reference curve, and returns that curve or an identical one
        computed earlier.  A :class:`~repro.session.Session` passes its
        batch registry here, so a batch computes each curve once.
        """
        store = resolve_store(self.store)
        if self.engine == "circuits":
            sequences = self.circuits()
        else:
            sequences = rb_sequences(
                self.physical_qubits,
                lengths=self.lengths,
                n_seeds=self.n_seeds,
                seed=self.seed,
                interleaved_gate=self.gate,
                interleaved_qubits=self.physical_qubits,
                build_circuits=False,
                store=store,
            )
        if self.engine == "channels" and store is not None:
            # both curves' elements in one table generation (each curve's
            # own coverage then finds them all on disk)
            group = clifford_group(self.n_qubits, store=store)
            table = clifford_channel_table(self.backend, self.physical_qubits, group, store=store)
            table.ensure(used_element_indices(sequences))
        common = dict(
            seed=self.seed,
            fixed_asymptote=self.fixed_asymptote,
            engine=self.engine,
            num_workers=self.num_workers,
            physical_qubits=self.physical_qubits,
            store=store,
        )

        def compute() -> RBResult:
            """This experiment's own reference curve."""
            return execute_rb_sequences(
                self.backend,
                [s for s in sequences if not s.interleaved],
                self.n_qubits,
                self.shots,
                **common,
            )

        reference_curve = compute() if reference is None else reference(compute)
        interleaved = execute_rb_sequences(
            self.backend,
            [s for s in sequences if s.interleaved],
            self.n_qubits,
            self.shots,
            interleaved_gate=self.gate,
            interleaved_calibration=self.custom_calibration,
            **common,
        )
        label = self.base_gate_name + ("_custom" if self.custom_calibration is not None else "_default")
        return InterleavedRBResult(
            reference=reference_curve,
            interleaved=interleaved,
            gate_name=label,
            n_qubits=self.n_qubits,
        )


#: Qiskit-experiments-style alias.
InterleavedRB = InterleavedRBExperiment
