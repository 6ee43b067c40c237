"""Schedule instructions.

Each instruction occupies a contiguous block of samples on one channel:

* :class:`Play` — emit a pulse (waveform or parametric shape) on a channel,
* :class:`Delay` — idle for a number of samples,
* :class:`ShiftPhase` — shift the phase of the channel's software oscillator
  (zero duration; this is how virtual-Z gates are realized),
* :class:`SetPhase` — set the oscillator phase absolutely (zero duration),
* :class:`Acquire` — acquire a readout result into a memory slot.
"""

from __future__ import annotations

from .channels import AcquireChannel, Channel, MemorySlot
from .shapes import ParametricPulse, Waveform
from ..utils.validation import ValidationError

__all__ = ["Instruction", "Play", "Delay", "ShiftPhase", "SetPhase", "Acquire"]


class Instruction:
    """Base class; subclasses define ``duration`` (samples) and ``channel``."""

    __slots__ = ("_channel", "_duration", "name")

    def __init__(self, channel: Channel, duration: int, name: str | None = None):
        if not isinstance(channel, Channel):
            raise ValidationError(f"expected a Channel, got {type(channel).__name__}")
        if int(duration) < 0:
            raise ValidationError(f"duration must be >= 0, got {duration}")
        self._channel = channel
        self._duration = int(duration)
        self.name = name or type(self).__name__.lower()

    @property
    def channel(self) -> Channel:
        return self._channel

    @property
    def duration(self) -> int:
        return self._duration

    def __repr__(self) -> str:
        return f"{type(self).__name__}(channel={self._channel!r}, duration={self._duration})"


class Play(Instruction):
    """Play a pulse on a channel."""

    __slots__ = ("_pulse",)

    def __init__(self, pulse, channel: Channel, name: str | None = None):
        if isinstance(pulse, ParametricPulse):
            waveform = pulse.get_waveform()
        elif isinstance(pulse, Waveform):
            waveform = pulse
        else:
            raise ValidationError(
                f"Play expects a Waveform or ParametricPulse, got {type(pulse).__name__}"
            )
        super().__init__(channel, waveform.duration, name or waveform.name)
        self._pulse = waveform

    @property
    def pulse(self) -> Waveform:
        return self._pulse

    def __repr__(self) -> str:
        return f"Play({self._pulse!r}, {self._channel!r})"


class Delay(Instruction):
    """Idle on a channel for ``duration`` samples."""

    def __init__(self, duration: int, channel: Channel, name: str | None = None):
        super().__init__(channel, duration, name)


class ShiftPhase(Instruction):
    """Shift the channel's oscillator phase by ``phase`` radians (virtual Z)."""

    __slots__ = ("_phase",)

    def __init__(self, phase: float, channel: Channel, name: str | None = None):
        super().__init__(channel, 0, name)
        self._phase = float(phase)

    @property
    def phase(self) -> float:
        return self._phase

    def __repr__(self) -> str:
        return f"ShiftPhase({self._phase:+.4f}, {self._channel!r})"


class SetPhase(Instruction):
    """Set the channel's oscillator phase to ``phase`` radians."""

    __slots__ = ("_phase",)

    def __init__(self, phase: float, channel: Channel, name: str | None = None):
        super().__init__(channel, 0, name)
        self._phase = float(phase)

    @property
    def phase(self) -> float:
        return self._phase

    def __repr__(self) -> str:
        return f"SetPhase({self._phase:+.4f}, {self._channel!r})"


class Acquire(Instruction):
    """Acquire the readout of a qubit into a memory slot."""

    __slots__ = ("_memory_slot",)

    def __init__(self, duration: int, channel: AcquireChannel, memory_slot: MemorySlot, name: str | None = None):
        if not isinstance(channel, AcquireChannel):
            raise ValidationError("Acquire requires an AcquireChannel")
        if not isinstance(memory_slot, MemorySlot):
            raise ValidationError("Acquire requires a MemorySlot")
        super().__init__(channel, duration, name)
        self._memory_slot = memory_slot

    @property
    def memory_slot(self) -> MemorySlot:
        return self._memory_slot

    def __repr__(self) -> str:
        return f"Acquire(duration={self.duration}, {self._channel!r}, {self._memory_slot!r})"
