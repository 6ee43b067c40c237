"""Execution results (counts) returned by the simulated backend."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


from ..utils.validation import ValidationError

__all__ = ["Result"]


@dataclass
class Result:
    """Counts of a single executed circuit or schedule.

    Attributes
    ----------
    counts:
        Mapping from bitstring to number of shots.  Bit 0 of the string (the
        leftmost character) is classical bit 0, i.e. the string reads
        ``clbit0 clbit1 ...`` left to right.
    shots:
        Total number of shots.
    probabilities_ideal:
        The pre-sampling outcome probabilities (after readout error), useful
        for deterministic assertions in tests.
    metadata:
        Free-form execution metadata (circuit name, measured qubits, seed).
    """

    counts: dict[str, int]
    shots: int
    probabilities_ideal: dict[str, float] = field(default_factory=dict)
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.shots <= 0:
            raise ValidationError(f"shots must be > 0, got {self.shots}")
        total = sum(self.counts.values())
        if total != self.shots:
            raise ValidationError(
                f"counts sum to {total} but shots={self.shots}"
            )

    # ------------------------------------------------------------------ #
    def get_counts(self) -> dict[str, int]:
        """The counts dictionary (copy)."""
        return dict(self.counts)

    def probabilities(self) -> dict[str, float]:
        """Empirical outcome probabilities from the sampled counts."""
        return {k: v / self.shots for k, v in self.counts.items()}

    def probability(self, bitstring: str) -> float:
        """Empirical probability of one bitstring (0 if never observed)."""
        return self.counts.get(bitstring, 0) / self.shots

    def expectation_z(self, clbit: int = 0) -> float:
        """⟨Z⟩ of one classical bit estimated from the counts."""
        total = 0.0
        for bits, count in self.counts.items():
            if clbit >= len(bits):
                raise ValidationError(f"clbit {clbit} out of range for key {bits!r}")
            total += count * (1.0 if bits[clbit] == "0" else -1.0)
        return total / self.shots

    def ground_state_population(self) -> float:
        """Probability of the all-zeros outcome (used by RB fitting)."""
        if not self.counts:
            return 0.0
        n_bits = len(next(iter(self.counts)))
        return self.probability("0" * n_bits)

    def __repr__(self) -> str:
        return f"Result(shots={self.shots}, counts={self.counts})"
