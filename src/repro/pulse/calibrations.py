"""Default backend gate calibrations (the "device default" pulses).

The paper compares its optimized pulses against the backend's default gates.
On IBM hardware those defaults are DRAG pulses for ``x``/``sx`` (calibrated
daily through Rabi/DRAG experiments) and an echoed cross-resonance sequence
for ``cx``.  This module generates equivalent default calibrations for the
simulated backend:

* ``x`` / ``sx`` — DRAG pulses whose amplitude is calibrated analytically
  from the qubit's drive strength (π and π/2 rotation areas) and whose DRAG
  coefficient is set from the anharmonicity,
* ``cx`` — a direct cross-resonance implementation
  ``CNOT = (S ⊗ I)·(I ⊗ RX(π/2))·CR(-π/2)`` built from a GaussianSquare
  pulse on the pair's control channel, the default ``sx`` on the target and
  a virtual Z on the control,
* ``measure`` — an acquire instruction per qubit.

The *intentional miscalibration* knobs of
:class:`~repro.devices.properties.BackendProperties`
(``default_x_amplitude_error``, ``default_sx_amplitude_error``,
``default_drag_error``, ``default_cx_amplitude_error``) are applied here.
They model the residual calibration error of the provider's default gates —
the head-room that the paper's optimized pulses compete against (the values
are set per device in :mod:`repro.devices.library`).
"""

from __future__ import annotations

import numpy as np

from .channels import AcquireChannel, ControlChannel, DriveChannel, MemorySlot
from .instruction_schedule_map import InstructionScheduleMap
from .instructions import Acquire, Play, ShiftPhase
from .schedule import Schedule
from .shapes import Drag, GaussianSquare
from ..devices.properties import BackendProperties, QubitProperties, TWO_PI
from ..utils.validation import ValidationError

__all__ = [
    "pulse_area_ns",
    "calibrated_amplitude",
    "default_drag_x",
    "default_drag_sx",
    "default_cx_schedule",
    "default_measure_schedule",
    "default_instruction_schedule_map",
    "control_channel_index",
]

#: Default acquire duration in samples (readout integration window).
MEASURE_DURATION_SAMPLES = 1600


def pulse_area_ns(pulse, dt: float) -> float:
    """Integral of the real (in-phase) envelope of a pulse, in ns·(unit amp)."""
    waveform = pulse.get_waveform() if hasattr(pulse, "get_waveform") else pulse
    return float(np.sum(waveform.samples.real) * dt)


def calibrated_amplitude(unit_area_ns: float, target_angle: float, rate_per_amp_ghz: float) -> float:
    """Amplitude that accumulates ``target_angle`` for a given drive rate.

    The rotation angle accumulated by a resonant drive of rate
    ``rate_per_amp_ghz`` (GHz per unit amplitude) over an envelope with unit
    amplitude area ``unit_area_ns`` is ``θ = 2π · rate · A · area``; solve
    for ``A``.
    """
    if unit_area_ns <= 0:
        raise ValidationError(f"unit_area_ns must be > 0, got {unit_area_ns}")
    if rate_per_amp_ghz == 0:
        raise ValidationError("rate_per_amp_ghz must be non-zero")
    return float(target_angle / (TWO_PI * rate_per_amp_ghz * unit_area_ns))


def _drag_beta_samples(anharmonicity_ghz: float, dt: float) -> float:
    """Leakage-suppressing DRAG coefficient, in per-sample units."""
    alpha_rad = TWO_PI * anharmonicity_ghz
    if alpha_rad == 0:
        return 0.0
    return float(-1.0 / (alpha_rad * dt))


def _drag_pulse_for_angle(
    qubit: QubitProperties,
    dt: float,
    duration_ns: float,
    angle: float,
    amplitude_error: float,
    drag_error: float,
    name: str,
) -> Drag:
    """A DRAG pulse implementing a rotation by ``angle`` about X."""
    duration = max(4, int(round(duration_ns / dt)))
    sigma = duration / 4.0
    unit = Drag(duration=duration, amp=1.0, sigma=sigma, beta=0.0)
    area = pulse_area_ns(unit, dt)
    amp = calibrated_amplitude(area, angle, qubit.drive_strength)
    amp *= 1.0 + amplitude_error
    if abs(amp) > 1.0:
        raise ValidationError(
            f"calibrated amplitude {amp:.3f} exceeds 1; increase duration_ns "
            f"(got {duration_ns} ns) or the qubit drive strength"
        )
    beta = _drag_beta_samples(qubit.anharmonicity, dt) * (1.0 + drag_error)
    return Drag(duration=duration, amp=amp, sigma=sigma, beta=beta, name=name)


def default_drag_x(
    qubit_index: int,
    qubit: QubitProperties,
    dt: float,
    duration_ns: float = 32.0,
    amplitude_error: float = 0.0,
    drag_error: float = 0.0,
) -> Schedule:
    """Default X (π) gate: a DRAG pulse on the qubit's drive channel."""
    pulse = _drag_pulse_for_angle(
        qubit, dt, duration_ns, np.pi, amplitude_error, drag_error, name=f"Xp_d{qubit_index}"
    )
    sched = Schedule(name=f"x_q{qubit_index}")
    sched.append(Play(pulse, DriveChannel(qubit_index)))
    return sched


def default_drag_sx(
    qubit_index: int,
    qubit: QubitProperties,
    dt: float,
    duration_ns: float = 32.0,
    amplitude_error: float = 0.0,
    drag_error: float = 0.0,
) -> Schedule:
    """Default √X (π/2) gate: a DRAG pulse with half the rotation area."""
    pulse = _drag_pulse_for_angle(
        qubit, dt, duration_ns, np.pi / 2.0, amplitude_error, drag_error, name=f"X90p_d{qubit_index}"
    )
    sched = Schedule(name=f"sx_q{qubit_index}")
    sched.append(Play(pulse, DriveChannel(qubit_index)))
    return sched


def control_channel_index(backend: BackendProperties, control: int, target: int) -> int:
    """Index of the control channel driving the (control, target) CR interaction.

    Control channels are numbered by the position of the (directed) pair in
    the sorted list of directed coupling edges, mirroring how IBM backends
    enumerate their ``u`` channels.
    """
    directed = sorted(
        {(a, b) for a, b in backend.coupling} | {(b, a) for a, b in backend.coupling}
    )
    pair = (int(control), int(target))
    if pair not in directed:
        raise ValidationError(
            f"qubits {pair} are not coupled on backend {backend.name!r}"
        )
    return directed.index(pair)


def default_cx_schedule(
    backend: BackendProperties,
    control: int,
    target: int,
    duration_ns: float | None = None,
    amplitude_error: float = 0.0,
) -> Schedule:
    """Default CNOT: direct cross-resonance + local fix-ups.

    Implements ``CNOT = (S_control ⊗ I) · (I ⊗ RX(π/2)_target) · CR(-π/2)``
    with the CR(-π/2) rotation generated by a GaussianSquare pulse on the
    pair's control channel and the RX(π/2) by the target's default ``sx``.
    The CR amplitude is calibrated from the backend's J coupling and qubit
    detuning; if the required amplitude would exceed the DAC limit the flat
    top is automatically lengthened.
    """
    from ..devices.cross_resonance import CrossResonanceModel

    q_ctrl = backend.qubit(control)
    q_tgt = backend.qubit(target)
    model = CrossResonanceModel(
        control=q_ctrl,
        target=q_tgt,
        coupling_ghz=backend.coupling_strength,
    )
    zx_rate = model.zx_rate_per_amplitude  # GHz per unit amplitude (signed)
    dt = backend.dt
    duration_ns = DEFAULT_CR_DURATION_NS if duration_ns is None else float(duration_ns)

    target_angle = -np.pi / 2.0  # CR(-π/2)
    # iterate on the duration until the calibrated amplitude is within the DAC limit
    for _ in range(20):
        duration = max(16, int(round(duration_ns / dt)))
        sigma = max(4.0, 16.0)
        width = max(0.0, duration - 8.0 * sigma)
        unit = GaussianSquare(duration=duration, amp=1.0, sigma=sigma, width=width)
        area = pulse_area_ns(unit, dt)
        amp = calibrated_amplitude(area, target_angle, zx_rate)
        amp *= 1.0 + amplitude_error
        if abs(amp) <= 0.95:
            break
        duration_ns *= 1.3
    else:
        raise ValidationError("could not calibrate CR amplitude within the DAC limit")
    cr_pulse = GaussianSquare(
        duration=duration, amp=amp, sigma=sigma, width=width, name=f"CR90m_u{control}_{target}"
    )

    u_index = control_channel_index(backend, control, target)
    sched = Schedule(name=f"cx_q{control}_q{target}")
    sched.append(Play(cr_pulse, ControlChannel(u_index)))
    # target RX(π/2) via the default sx pulse, sequential after the CR tone
    sx = default_drag_sx(
        target,
        q_tgt,
        dt,
        amplitude_error=backend.default_sx_amplitude_error,
        drag_error=backend.default_drag_error,
    )
    sched.append(sx.shift(0), align="sequential")
    # virtual S gate on the control qubit: RZ(π/2) -> ShiftPhase(-π/2)
    sched.append(ShiftPhase(-np.pi / 2.0, DriveChannel(control)))
    return sched


#: Default duration (ns) of the direct CR tone before auto-extension.
DEFAULT_CR_DURATION_NS = 448.0


def default_measure_schedule(qubit_index: int, duration: int = MEASURE_DURATION_SAMPLES) -> Schedule:
    """Measurement of a single qubit into its memory slot."""
    sched = Schedule(name=f"measure_q{qubit_index}")
    sched.append(Acquire(duration, AcquireChannel(qubit_index), MemorySlot(qubit_index)))
    return sched


def default_instruction_schedule_map(
    backend: BackendProperties,
    qubits: list[int] | None = None,
    include_cx: bool = True,
) -> InstructionScheduleMap:
    """Build the backend's default calibrations for the requested qubits.

    Parameters
    ----------
    backend:
        Backend calibration snapshot.
    qubits:
        Qubits to calibrate (default: all).  CX calibrations are generated
        for every coupled, ordered pair within this set when ``include_cx``.
    """
    qubits = list(range(backend.n_qubits)) if qubits is None else sorted(set(qubits))
    ism = InstructionScheduleMap()
    for q in qubits:
        props = backend.qubit(q)
        ism.add(
            "x",
            q,
            default_drag_x(
                q,
                props,
                backend.dt,
                amplitude_error=backend.default_x_amplitude_error,
                drag_error=backend.default_drag_error,
            ),
        )
        ism.add(
            "sx",
            q,
            default_drag_sx(
                q,
                props,
                backend.dt,
                amplitude_error=backend.default_sx_amplitude_error,
                drag_error=backend.default_drag_error,
            ),
        )
        ism.add("measure", q, default_measure_schedule(q))
    if include_cx:
        coupled = {tuple(sorted(edge)) for edge in backend.coupling}
        for a, b in sorted(coupled):
            if a in qubits and b in qubits:
                for ctrl, tgt in ((a, b), (b, a)):
                    ism.add(
                        "cx",
                        (ctrl, tgt),
                        default_cx_schedule(
                            backend,
                            ctrl,
                            tgt,
                            amplitude_error=backend.default_cx_amplitude_error,
                        ),
                    )
    return ism
