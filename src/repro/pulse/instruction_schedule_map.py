"""Instruction schedule map: the gate → pulse-schedule calibration registry.

This mirrors Qiskit's ``InstructionScheduleMap``: the backend ships default
calibrations for its basis gates, and users *override* individual entries
with custom schedules — exactly the mechanism the paper uses to replace the
default X/SX/CX pulses with the optimized ones ("the default X gate is
replaced by our optimized X gate, which is confirmed in the transpiling
process").
"""

from __future__ import annotations

from typing import Sequence

from .schedule import Schedule
from ..utils.validation import ValidationError

__all__ = ["InstructionScheduleMap"]


class InstructionScheduleMap:
    """Mapping from ``(gate name, qubits)`` to a pulse :class:`Schedule`."""

    def __init__(self):
        self._map: dict[tuple[str, tuple[int, ...]], Schedule] = {}

    # ------------------------------------------------------------------ #
    @staticmethod
    def _key(instruction: str, qubits: int | Sequence[int]) -> tuple[str, tuple[int, ...]]:
        if isinstance(qubits, int):
            qubits = (qubits,)
        return instruction.lower(), tuple(int(q) for q in qubits)

    def add(self, instruction: str, qubits: int | Sequence[int], schedule: Schedule) -> None:
        """Register (or override) the calibration of a gate on specific qubits."""
        if not isinstance(schedule, Schedule):
            raise ValidationError(
                f"schedule must be a Schedule, got {type(schedule).__name__}"
            )
        self._map[self._key(instruction, qubits)] = schedule

    def get(self, instruction: str, qubits: int | Sequence[int]) -> Schedule:
        """Return the calibration schedule for a gate on specific qubits."""
        key = self._key(instruction, qubits)
        if key not in self._map:
            raise KeyError(
                f"no calibration for instruction {key[0]!r} on qubits {key[1]}"
            )
        return self._map[key]

    def has(self, instruction: str, qubits: int | Sequence[int]) -> bool:
        """Whether a calibration exists for the gate/qubits combination."""
        return self._key(instruction, qubits) in self._map

    def remove(self, instruction: str, qubits: int | Sequence[int]) -> None:
        """Remove a calibration entry."""
        key = self._key(instruction, qubits)
        if key not in self._map:
            raise KeyError(f"no calibration for {key}")
        del self._map[key]

    @property
    def instructions(self) -> list[str]:
        """Sorted list of distinct gate names with at least one calibration."""
        return sorted({name for name, _ in self._map})

    def qubits_with_instruction(self, instruction: str) -> list[tuple[int, ...]]:
        """All qubit tuples for which ``instruction`` has a calibration."""
        return sorted(q for name, q in self._map if name == instruction.lower())

    def entries(self) -> list[tuple[str, tuple[int, ...], Schedule]]:
        """All (name, qubits, schedule) entries."""
        return [(name, qubits, sched) for (name, qubits), sched in sorted(self._map.items())]

    def copy(self) -> "InstructionScheduleMap":
        """Shallow copy (schedules are shared, the mapping is independent)."""
        out = InstructionScheduleMap()
        out._map = dict(self._map)
        return out

    def __len__(self) -> int:
        return len(self._map)

    def __contains__(self, key: tuple[str, Sequence[int]]) -> bool:
        name, qubits = key
        return self.has(name, qubits)

    def __repr__(self) -> str:
        return f"InstructionScheduleMap(n_entries={len(self._map)}, instructions={self.instructions})"
