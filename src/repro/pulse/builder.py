"""Imperative schedule construction, in the style of ``qiskit.pulse.build``.

Example
-------
>>> from repro.pulse import build, Drag, DriveChannel
>>> with build(name="x_gate") as builder:
...     builder.play(Drag(duration=160, amp=0.2, sigma=40, beta=1.5), DriveChannel(0))
...     builder.shift_phase(0.5, DriveChannel(0))
>>> sched = builder.schedule
>>> sched.duration
160

The builder appends instructions sequentially per channel (left-aligned),
matching the default alignment context of Qiskit's builder.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from .channels import AcquireChannel, Channel, MemorySlot
from .instructions import Acquire, Delay, Play, SetPhase, ShiftPhase
from .schedule import Schedule
from ..utils.validation import ValidationError

__all__ = ["ScheduleBuilder", "build"]


class ScheduleBuilder:
    """Accumulates instructions into a :class:`Schedule`."""

    def __init__(self, name: str = "schedule", backend=None):
        self._schedule = Schedule(name=name)
        self.backend = backend
        self._finished = False

    # ------------------------------------------------------------------ #
    @property
    def schedule(self) -> Schedule:
        """The schedule built so far."""
        return self._schedule

    def play(self, pulse, channel: Channel) -> "ScheduleBuilder":
        """Play a pulse on a channel, after that channel's previous content."""
        self._schedule.append(Play(pulse, channel))
        return self

    def delay(self, duration: int, channel: Channel) -> "ScheduleBuilder":
        """Insert an idle period on a channel."""
        self._schedule.append(Delay(duration, channel))
        return self

    def shift_phase(self, phase: float, channel: Channel) -> "ScheduleBuilder":
        """Shift the software-oscillator phase of a channel (virtual Z)."""
        self._schedule.append(ShiftPhase(phase, channel))
        return self

    def set_phase(self, phase: float, channel: Channel) -> "ScheduleBuilder":
        """Set the software-oscillator phase of a channel."""
        self._schedule.append(SetPhase(phase, channel))
        return self

    def barrier(self) -> "ScheduleBuilder":
        """Align all channels: subsequent instructions start after every
        channel currently in the schedule has finished."""
        duration = self._schedule.duration
        for ch in self._schedule.channels:
            pad = duration - self._schedule.channel_duration(ch)
            if pad > 0:
                self._schedule.append(Delay(pad, ch))
        return self

    def acquire(self, duration: int, qubit: int, memory_slot: int | None = None) -> "ScheduleBuilder":
        """Acquire the readout of ``qubit`` into a memory slot.

        The acquisition is aligned after *all* channels currently in the
        schedule (measurement follows the gates).
        """
        slot = MemorySlot(qubit if memory_slot is None else memory_slot)
        self._schedule.append(Acquire(duration, AcquireChannel(qubit), slot), align="sequential")
        return self

    def call(self, schedule: Schedule) -> "ScheduleBuilder":
        """Append a pre-built schedule (e.g. a gate calibration) sequentially."""
        if not isinstance(schedule, Schedule):
            raise ValidationError(f"call expects a Schedule, got {type(schedule).__name__}")
        self._schedule.append(schedule)
        return self


@contextmanager
def build(name: str = "schedule", backend=None) -> Iterator[ScheduleBuilder]:
    """Context manager returning a :class:`ScheduleBuilder`.

    The finished schedule is available as ``builder.schedule`` after the
    ``with`` block exits (and also inside it).
    """
    builder = ScheduleBuilder(name=name, backend=backend)
    yield builder
    builder._finished = True
