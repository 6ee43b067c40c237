"""Fake-device library mirroring the IBM backends used in the paper.

Each factory returns a :class:`~repro.devices.properties.BackendProperties`
whose published quantities match the numbers quoted in Section IV-A of the
paper:

* **ibmq_toronto** — 27 qubits, quantum volume 32, average T1 = 83.52 µs,
  qubit 0 at 5.225 GHz with average single-qubit gate error 3.068 × 10⁻⁴;
* **ibmq_montreal** — 27 qubits, quantum volume 128, average T1 = 86.76 µs,
  qubit 0 at 4.911 GHz with average single-qubit gate error 4.268 × 10⁻⁴;
* **ibmq_boeblingen** and **ibmq_rome** — the (now retired) 20- and 5-qubit
  devices used for the early CX/SINE-pulse experiments.

Quantities the paper does not quote (anharmonicity, T2, readout error, drive
strength, residual detuning, default-gate miscalibration) are set to values
typical of the Falcon generation and are the tunable knobs of the simulation;
with them, the simulated *default* gate errors (exact channel errors) are
3.7–9.5× the paper's published IRB numbers, which
:data:`repro.experiments.table1.TABLE1_PAPER_VALUES` holds.
"""

from __future__ import annotations

import re
from typing import Callable

from .coupling import heavy_hex_falcon27, linear_coupling, CouplingMap
from .properties import BackendProperties, GateProperties, QubitProperties

__all__ = [
    "fake_montreal",
    "fake_toronto",
    "fake_boeblingen",
    "fake_rome",
    "get_device",
    "canonical_device_name",
    "drift_device_name",
    "DEVICE_REGISTRY",
]

#: OpenPulse sample time of IBM backends, in ns.
IBM_DT_NS = 2.0 / 9.0

#: Default duration (ns) of the backend single-qubit gates; the paper states
#: "the default gate duration is fixed at 32 ns".
DEFAULT_1Q_DURATION_NS = 32.0

#: Default CX duration on the montreal family quoted in Table I (1193 ns row
#: refers to the custom pulse; the backend default CR schedule is a few
#: hundred ns — we use 448 ns including the echo).
DEFAULT_CX_DURATION_NS = 448.0


def _falcon_qubit(
    frequency: float,
    t1: float,
    t2: float,
    readout_error: float,
    detuning_error: float,
    drive_strength: float = 0.05,
    anharmonicity: float = -0.33,
    readout_p01: float | None = None,
    readout_p10: float | None = None,
) -> QubitProperties:
    return QubitProperties(
        frequency=frequency,
        anharmonicity=anharmonicity,
        t1=t1,
        t2=t2,
        readout_error=readout_error,
        readout_p01=readout_p01,
        readout_p10=readout_p10,
        drive_strength=drive_strength,
        detuning_error=detuning_error,
    )


def _chain_frequencies(base: float, n: int, spacing: float = 0.08) -> list[float]:
    """Staggered qubit frequencies so directly coupled qubits are detuned.

    Qubit 0 sits exactly at ``base`` (the published value); its neighbour is
    ``spacing`` GHz above, the next one ``spacing`` below, repeating with
    period 3, plus a small per-qubit offset so that no two qubits on the chip
    are exactly degenerate (a requirement of the cross-resonance model).
    """
    return [base + spacing * (((i + 1) % 3) - 1) + 0.004 * i * (i > 0) for i in range(n)]


def _build_backend(
    name: str,
    n_qubits: int,
    coupling: CouplingMap,
    qubit0_frequency: float,
    avg_t1_ns: float,
    avg_1q_gate_error: float,
    quantum_volume: int,
    qubit0_detuning_error: float,
    default_x_amplitude_error: float,
    default_sx_amplitude_error: float,
    default_cx_amplitude_error: float,
    default_drag_error: float,
    default_x_incoherent_error: float,
    default_sx_incoherent_error: float,
    default_cx_incoherent_error: float,
    readout_error: float,
    qubit0_readout_p01: float | None = None,
    qubit0_readout_p10: float | None = None,
) -> BackendProperties:
    freqs = _chain_frequencies(qubit0_frequency, n_qubits)
    freqs[0] = qubit0_frequency
    qubits = []
    for i in range(n_qubits):
        # Give non-zero but small variation across the chip; qubit 0 carries
        # the published values exactly.
        t1 = avg_t1_ns * (1.0 + 0.05 * ((i % 5) - 2) / 2.0) if i else avg_t1_ns
        t2 = min(1.1 * t1, 2.0 * t1)
        qubits.append(
            _falcon_qubit(
                frequency=freqs[i],
                t1=t1,
                t2=t2,
                readout_error=readout_error,
                detuning_error=qubit0_detuning_error if i == 0 else 0.0,
                readout_p01=qubit0_readout_p01 if i == 0 else None,
                readout_p10=qubit0_readout_p10 if i == 0 else None,
            )
        )
    gates = []
    for i in range(n_qubits):
        for g in ("x", "sx"):
            gates.append(
                GateProperties(name=g, qubits=(i,), duration=DEFAULT_1Q_DURATION_NS, error=avg_1q_gate_error)
            )
    for a, b in coupling.edges:
        gates.append(
            GateProperties(name="cx", qubits=(a, b), duration=DEFAULT_CX_DURATION_NS, error=20 * avg_1q_gate_error)
        )
    return BackendProperties(
        name=name,
        n_qubits=n_qubits,
        qubits=tuple(qubits),
        coupling=tuple(coupling.edges),
        dt=IBM_DT_NS,
        quantum_volume=quantum_volume,
        gates=tuple(gates),
        default_x_amplitude_error=default_x_amplitude_error,
        default_sx_amplitude_error=default_sx_amplitude_error,
        default_cx_amplitude_error=default_cx_amplitude_error,
        default_drag_error=default_drag_error,
        default_x_incoherent_error=default_x_incoherent_error,
        default_sx_incoherent_error=default_sx_incoherent_error,
        default_cx_incoherent_error=default_cx_incoherent_error,
    )


def fake_montreal() -> BackendProperties:
    """ibmq_montreal: 27 qubits, QV 128, qubit 0 at 4.911 GHz, avg T1 86.76 µs."""
    return _build_backend(
        name="fake_montreal",
        n_qubits=27,
        coupling=heavy_hex_falcon27(),
        qubit0_frequency=4.911,
        avg_t1_ns=86_760.0,
        avg_1q_gate_error=4.268e-4,
        quantum_volume=128,
        qubit0_detuning_error=6.0e-5,  # 60 kHz residual detuning (model mismatch)
        default_x_amplitude_error=0.005,
        default_sx_amplitude_error=0.005,
        default_cx_amplitude_error=0.010,
        default_drag_error=0.10,
        default_x_incoherent_error=1.2e-3,
        default_sx_incoherent_error=2.5e-3,
        default_cx_incoherent_error=8.0e-3,
        readout_error=0.013,
        qubit0_readout_p01=0.10,
        qubit0_readout_p10=0.02,
    )


def fake_toronto() -> BackendProperties:
    """ibmq_toronto: 27 qubits, QV 32, qubit 0 at 5.225 GHz, avg T1 83.52 µs."""
    return _build_backend(
        name="fake_toronto",
        n_qubits=27,
        coupling=heavy_hex_falcon27(),
        qubit0_frequency=5.225,
        avg_t1_ns=83_520.0,
        avg_1q_gate_error=3.068e-4,
        quantum_volume=32,
        qubit0_detuning_error=6.0e-5,
        default_x_amplitude_error=0.005,
        default_sx_amplitude_error=0.005,
        default_cx_amplitude_error=0.010,
        default_drag_error=0.10,
        default_x_incoherent_error=1.4e-3,
        default_sx_incoherent_error=2.5e-3,
        default_cx_incoherent_error=9.0e-3,
        readout_error=0.018,
        qubit0_readout_p01=0.09,
        qubit0_readout_p10=0.03,
    )


def fake_boeblingen() -> BackendProperties:
    """ibmq_boeblingen: retired 20-qubit device used for the SINE-pulse CX runs."""
    return _build_backend(
        name="fake_boeblingen",
        n_qubits=20,
        coupling=linear_coupling(20),
        qubit0_frequency=4.82,
        avg_t1_ns=70_000.0,
        avg_1q_gate_error=5.0e-4,
        quantum_volume=16,
        qubit0_detuning_error=8.0e-5,
        default_x_amplitude_error=0.008,
        default_sx_amplitude_error=0.008,
        default_cx_amplitude_error=0.020,
        default_drag_error=0.20,
        default_x_incoherent_error=2.0e-3,
        default_sx_incoherent_error=3.0e-3,
        default_cx_incoherent_error=1.5e-2,
        readout_error=0.12,
        qubit0_readout_p01=0.12,
        qubit0_readout_p10=0.04,
    )


def fake_rome() -> BackendProperties:
    """ibmq_rome: retired 5-qubit device used for the SINE-pulse CX runs."""
    return _build_backend(
        name="fake_rome",
        n_qubits=5,
        coupling=linear_coupling(5),
        qubit0_frequency=4.97,
        avg_t1_ns=65_000.0,
        avg_1q_gate_error=4.5e-4,
        quantum_volume=32,
        qubit0_detuning_error=7.0e-5,
        default_x_amplitude_error=0.008,
        default_sx_amplitude_error=0.008,
        default_cx_amplitude_error=0.015,
        default_drag_error=0.20,
        default_x_incoherent_error=1.8e-3,
        default_sx_incoherent_error=2.8e-3,
        default_cx_incoherent_error=1.2e-2,
        readout_error=0.065,
        qubit0_readout_p01=0.065,
        qubit0_readout_p10=0.02,
    )


DEVICE_REGISTRY: dict[str, Callable[[], BackendProperties]] = {
    "montreal": fake_montreal,
    "ibmq_montreal": fake_montreal,
    "fake_montreal": fake_montreal,
    "toronto": fake_toronto,
    "ibmq_toronto": fake_toronto,
    "fake_toronto": fake_toronto,
    "boeblingen": fake_boeblingen,
    "ibmq_boeblingen": fake_boeblingen,
    "fake_boeblingen": fake_boeblingen,
    "rome": fake_rome,
    "ibmq_rome": fake_rome,
    "fake_rome": fake_rome,
}


#: Device-name suffix selecting a drifted calibration snapshot of a base
#: device: ``<base>@drift<seed>d<day>`` (e.g. ``"montreal@drift7d3"``).
_DRIFT_NAME_RE = re.compile(r"^(?P<base>.+)@drift(?P<seed>\d+)d(?P<day>\d+)$")


def drift_device_name(base: str, seed: int, day: int) -> str:
    """Name of the day-``day`` drifted snapshot of device ``base``.

    The name resolves through :func:`get_device` via
    :class:`repro.devices.drift.CalibrationDriftModel` — deterministic in
    ``seed`` and ``day``, so drifted snapshots are cacheable device
    identities exactly like the nominal library devices.
    """
    canonical = canonical_device_name(base)
    if day < 0 or seed < 0:
        raise ValueError(f"drift seed/day must be >= 0, got seed={seed}, day={day}")
    return f"{canonical}@drift{int(seed)}d{int(day)}"


def _parse_drift_name(key: str) -> tuple[str, int, int] | None:
    """Split a lowercase device key into (base, seed, day), or None."""
    match = _DRIFT_NAME_RE.match(key)
    if match is None:
        return None
    return match.group("base"), int(match.group("seed")), int(match.group("day"))


def get_device(name: str) -> BackendProperties:
    """Look up a fake device by (any reasonable form of) its name.

    A ``<base>@drift<seed>d<day>`` name resolves the base device and
    applies :class:`repro.devices.drift.CalibrationDriftModel` for the
    given seed and day (day 0 reproduces the nominal properties exactly).
    """
    key = name.strip().lower()
    drift = _parse_drift_name(key)
    if drift is not None:
        from .drift import CalibrationDriftModel

        base, seed, day = drift
        nominal = get_device(base)
        return CalibrationDriftModel(nominal=nominal, seed=seed).properties_on_day(day)
    if key not in DEVICE_REGISTRY:
        raise KeyError(
            f"unknown device {name!r}; available: {sorted(set(DEVICE_REGISTRY))}"
        )
    return DEVICE_REGISTRY[key]()


def canonical_device_name(name: str) -> str:
    """Canonical short name of a registered device (aliases collapse).

    Every alias of one device maps to the same canonical key (e.g.
    ``"ibmq_montreal"``, ``"fake_montreal"`` and ``"Montreal"`` all return
    ``"montreal"``), derived from the registry itself so new aliases never
    need a second canonicalization rule.  The session planner keys shared
    backends and channel tables on this name.  Drifted names canonicalize
    their base and keep the normalized ``@drift`` suffix — two snapshots
    of one device are *distinct* calibrations, never shared.
    """
    key = name.strip().lower()
    drift = _parse_drift_name(key)
    if drift is not None:
        base, seed, day = drift
        return f"{canonical_device_name(base)}@drift{seed}d{day}"
    if key not in DEVICE_REGISTRY:
        raise KeyError(
            f"unknown device {name!r}; available: {sorted(set(DEVICE_REGISTRY))}"
        )
    return DEVICE_REGISTRY[key].__name__.removeprefix("fake_")
