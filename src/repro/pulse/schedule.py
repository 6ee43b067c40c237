"""The :class:`Schedule` container: timed instructions on channels.

A schedule is an ordered collection of ``(start_time, instruction)`` pairs
(times in integer samples).  It supports the operations the paper's workflow
needs:

* sequential composition (``append`` aligns the new instruction/schedule
  after the current end of the channels it touches),
* parallel insertion at explicit times (``insert``),
* extraction of the complex drive samples per channel, with
  ``ShiftPhase``/``SetPhase`` applied as software-oscillator phase rotations
  on all *subsequent* samples of that channel — exactly how virtual-Z gates
  act on hardware, and what the pulse simulator consumes.
"""

from __future__ import annotations

import hashlib
from typing import Iterator, Sequence

import numpy as np

from .channels import Channel
from .instructions import Acquire, Instruction, Play, SetPhase, ShiftPhase
from ..utils.validation import ValidationError

__all__ = ["Schedule"]


class Schedule:
    """A timed pulse program."""

    def __init__(self, name: str = "schedule"):
        self.name = name
        self._timeslots: list[tuple[int, Instruction]] = []

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def insert(self, start_time: int, instruction: "Instruction | Schedule") -> "Schedule":
        """Insert an instruction (or a whole schedule) at an absolute time."""
        if int(start_time) < 0:
            raise ValidationError(f"start_time must be >= 0, got {start_time}")
        start_time = int(start_time)
        if isinstance(instruction, Schedule):
            for t, inst in instruction._timeslots:
                self._timeslots.append((start_time + t, inst))
        elif isinstance(instruction, Instruction):
            self._timeslots.append((start_time, instruction))
        else:
            raise ValidationError(
                f"can only insert Instruction or Schedule, got {type(instruction).__name__}"
            )
        self._timeslots.sort(key=lambda pair: pair[0])
        return self

    def append(self, instruction: "Instruction | Schedule", align: str = "left") -> "Schedule":
        """Append after the latest activity on the channels the item touches.

        ``align="left"`` (default) starts the new item at the maximum end
        time over the channels it uses (other channels may still be busy);
        ``align="sequential"`` starts it after *all* channels are idle.
        """
        if align not in ("left", "sequential"):
            raise ValidationError(f"align must be 'left' or 'sequential', got {align!r}")
        if align == "sequential":
            start = self.duration
        else:
            channels = (
                instruction.channels if isinstance(instruction, Schedule) else [instruction.channel]
            )
            start = max((self.channel_duration(ch) for ch in channels), default=0)
        return self.insert(start, instruction)

    def shift(self, time: int) -> "Schedule":
        """Return a copy of this schedule with every instruction shifted."""
        out = Schedule(name=self.name)
        for t, inst in self._timeslots:
            out.insert(t + int(time), inst)
        return out

    def __or__(self, other: "Schedule") -> "Schedule":
        """Merge two schedules at their absolute times."""
        out = Schedule(name=self.name)
        for t, inst in self._timeslots:
            out.insert(t, inst)
        for t, inst in other._timeslots:
            out.insert(t, inst)
        return out

    def __add__(self, other: "Schedule") -> "Schedule":
        """Sequential composition: ``other`` starts when ``self`` ends."""
        out = Schedule(name=self.name)
        for t, inst in self._timeslots:
            out.insert(t, inst)
        out.insert(self.duration, other)
        return out

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    @property
    def instructions(self) -> list[tuple[int, Instruction]]:
        """All ``(start_time, instruction)`` pairs, sorted by start time."""
        return list(self._timeslots)

    @property
    def channels(self) -> list[Channel]:
        """All channels referenced by this schedule (sorted)."""
        return sorted({inst.channel for _, inst in self._timeslots})

    @property
    def duration(self) -> int:
        """Total schedule duration in samples."""
        if not self._timeslots:
            return 0
        return max(t + inst.duration for t, inst in self._timeslots)

    def channel_duration(self, channel: Channel) -> int:
        """End time of the last instruction on ``channel`` (0 if unused)."""
        ends = [t + inst.duration for t, inst in self._timeslots if inst.channel == channel]
        return max(ends) if ends else 0

    def filter(self, channels: Sequence[Channel] | None = None, instruction_types: tuple | None = None) -> "Schedule":
        """Return the sub-schedule with only the matching instructions."""
        out = Schedule(name=f"{self.name}_filtered")
        for t, inst in self._timeslots:
            if channels is not None and inst.channel not in channels:
                continue
            if instruction_types is not None and not isinstance(inst, instruction_types):
                continue
            out.insert(t, inst)
        return out

    def plays(self) -> list[tuple[int, Play]]:
        """All Play instructions with their start times."""
        return [(t, inst) for t, inst in self._timeslots if isinstance(inst, Play)]

    def acquires(self) -> list[tuple[int, Acquire]]:
        """All Acquire instructions with their start times."""
        return [(t, inst) for t, inst in self._timeslots if isinstance(inst, Acquire)]

    def __iter__(self) -> Iterator[tuple[int, Instruction]]:
        return iter(self._timeslots)

    def __len__(self) -> int:
        return len(self._timeslots)

    def __repr__(self) -> str:
        return (
            f"Schedule(name={self.name!r}, duration={self.duration}, "
            f"n_instructions={len(self._timeslots)}, channels={[c.name for c in self.channels]})"
        )

    def fingerprint(self) -> str:
        """Content hash of the schedule's physical effect.

        Two schedules with the same timed instructions (same channels, start
        times, pulse samples and phase values) share a fingerprint regardless
        of object identity or name — this is the cache key the pulse
        simulator uses to recognize the handful of distinct gate schedules a
        randomized-benchmarking workload replays thousands of times.
        """
        digest = hashlib.sha256()
        for t, inst in self._timeslots:
            digest.update(f"{t}:{type(inst).__name__}:{inst.channel.name}:".encode())
            if isinstance(inst, Play):
                samples = np.ascontiguousarray(inst.pulse.samples, dtype=complex)
                digest.update(samples.tobytes())
            elif isinstance(inst, (ShiftPhase, SetPhase)):
                digest.update(repr(inst.phase).encode())
            else:  # Delay / Acquire: the duration (and channel) is the content
                digest.update(str(inst.duration).encode())
            digest.update(b"|")
        return digest.hexdigest()

    # ------------------------------------------------------------------ #
    # sample assembly (consumed by the pulse simulator)
    # ------------------------------------------------------------------ #
    def channel_samples(self, channel: Channel, n_samples: int | None = None) -> np.ndarray:
        """Assemble the complex drive samples seen on ``channel``.

        ``Play`` pulses are written at their start times; overlapping pulses
        on the same channel add.  ``ShiftPhase``/``SetPhase`` rotate the
        software oscillator, i.e. multiply all *later* samples on the channel
        by ``exp(i·phase)`` (cumulative for shifts, absolute for sets).

        Parameters
        ----------
        channel:
            Channel to assemble.
        n_samples:
            Output length; defaults to the schedule duration.
        """
        total = self.duration if n_samples is None else int(n_samples)
        out = np.zeros(total, dtype=complex)
        # Collect phase events and plays on this channel, in time order.
        events = [
            (t, inst)
            for t, inst in self._timeslots
            if inst.channel == channel and isinstance(inst, (Play, ShiftPhase, SetPhase))
        ]
        events.sort(key=lambda pair: pair[0])
        phase = 0.0
        for t, inst in events:
            if isinstance(inst, ShiftPhase):
                phase += inst.phase
            elif isinstance(inst, SetPhase):
                phase = inst.phase
            else:  # Play
                end = min(total, t + inst.duration)
                if end > t:
                    out[t:end] += np.exp(1j * phase) * inst.pulse.samples[: end - t]
        return out

    def all_drive_samples(self, n_samples: int | None = None) -> dict[Channel, np.ndarray]:
        """Samples for every Drive/Control channel in the schedule."""
        from .channels import ControlChannel, DriveChannel

        total = self.duration if n_samples is None else int(n_samples)
        out: dict[Channel, np.ndarray] = {}
        for ch in self.channels:
            if isinstance(ch, (DriveChannel, ControlChannel)):
                out[ch] = self.channel_samples(ch, total)
        return out
