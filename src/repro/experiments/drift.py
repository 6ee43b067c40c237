"""Section V: impact of day-to-day calibration drift.

The paper ran two sets of experiments:

1. **optimize once** — pulses optimized on day 0 and re-used on later days,
2. **optimize daily** — pulses re-optimized every day from that day's
   reported calibration.

Both are evaluated here against the drifting simulated device: for every day
the device's true parameters move (frequency, T1/T2, readout), the custom
pulse is either reused or re-optimized, and we record (a) the exact channel
error of the implemented gate, (b) the output-state histogram probability,
and (c) optionally the IRB error — allowing the paper's observation that the
IRB numbers stay comparatively flat while the histograms fluctuate to be
examined quantitatively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .gates import GateExperimentConfig, gate_histogram, optimize_gate_pulse, pulse_schedule_from_result
from ..backend.backend import PulseBackend
from ..benchmarking.irb import InterleavedRBExperiment
from ..circuits.gate import Gate
from ..devices.drift import CalibrationDriftModel
from ..devices.library import fake_montreal
from ..devices.properties import BackendProperties
from ..qobj.gates import standard_gate_unitary
from ..qobj.metrics import average_gate_fidelity
from ..session.specs import DriftStudySpec, GRAPESpec
from ..utils.validation import ValidationError

__all__ = ["DriftStudyResult", "drift_study_spec", "run_drift_study"]


@dataclass
class DriftStudyResult:
    """Per-day metrics for the optimize-once and optimize-daily strategies."""

    days: np.ndarray
    gate: str
    channel_error_once: np.ndarray
    channel_error_daily: np.ndarray
    histogram_population_once: np.ndarray
    histogram_population_daily: np.ndarray
    irb_error_once: np.ndarray | None = None
    irb_error_daily: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    def summary(self) -> dict[str, float]:
        """Aggregate statistics of the two strategies over all days."""
        out = {
            "gate": self.gate,
            "n_days": int(self.days.size),
            "mean_channel_error_once": float(np.mean(self.channel_error_once)),
            "mean_channel_error_daily": float(np.mean(self.channel_error_daily)),
            "std_channel_error_once": float(np.std(self.channel_error_once)),
            "std_channel_error_daily": float(np.std(self.channel_error_daily)),
            "histogram_std_once": float(np.std(self.histogram_population_once)),
            "histogram_std_daily": float(np.std(self.histogram_population_daily)),
        }
        if self.irb_error_once is not None:
            out["irb_std_once"] = float(np.std(self.irb_error_once))
            out["irb_std_daily"] = float(np.std(self.irb_error_daily))
        return out


def drift_study_spec(
    gate: str = "x",
    n_days: int = 5,
    device: str = "montreal",
    duration_ns: float = 105.0,
    n_ts: int = 12,
    drift_seed: int = 7,
    seed: int = 2022,
) -> DriftStudySpec:
    """The drift study as a container spec over per-day device snapshots.

    Each child is the base :class:`~repro.session.specs.GRAPESpec`
    re-targeted at that day's drifted calibration snapshot
    (``<device>@drift<seed>d<day>``, resolved by the device library), so
    a session re-optimizes the pulse against every day's *reported*
    calibration — the paper's "optimize daily" strategy — with per-day
    result caching: day 0 is the nominal device and shares its cache
    entry with a standalone run of the base spec, and a re-submitted
    study replays every day from the store without optimizing anything.
    """
    base = GRAPESpec(
        device=device,
        gate=gate.lower(),
        qubits=(0,),
        duration_ns=float(duration_ns),
        n_ts=int(n_ts),
        include_decoherence=False,
        seed=seed,
    )
    return DriftStudySpec(base=base, n_days=int(n_days), drift_seed=int(drift_seed))


def run_drift_study(
    gate: str = "x",
    n_days: int = 5,
    duration_ns: float = 105.0,
    n_ts: int = 12,
    properties: BackendProperties | None = None,
    drift_seed: int = 7,
    seed: int = 2022,
    histogram_shots: int = 2000,
    include_irb: bool = False,
    irb_lengths: Sequence[int] = (1, 16, 48, 96),
    irb_seeds: int = 3,
    irb_shots: int = 300,
) -> DriftStudyResult:
    """Run the optimize-once vs optimize-daily comparison over ``n_days``.

    Parameters
    ----------
    gate:
        Single-qubit gate to study (``x``, ``sx`` or ``h``).
    include_irb:
        Also run IRB for each day/strategy (slower; off by default).
    """
    if gate.lower() == "cx":
        raise ValidationError("the drift study covers single-qubit gates (as in the paper)")
    nominal = properties or fake_montreal()
    drift = CalibrationDriftModel(nominal=nominal, seed=drift_seed)
    target = standard_gate_unitary(gate)
    target_bit = "1" if gate.lower() == "x" else None  # histogram observable

    config = GateExperimentConfig(
        gate=gate,
        qubits=(0,),
        duration_ns=duration_ns,
        n_ts=n_ts,
        include_decoherence=False,
        seed=seed,
    )
    # day-0 optimization reused by the "optimize once" strategy
    day0_props = drift.properties_on_day(0)
    opt_once = optimize_gate_pulse(day0_props, config)
    sched_once = pulse_schedule_from_result(day0_props, config, opt_once)

    days = np.arange(n_days)
    err_once, err_daily = [], []
    hist_once, hist_daily = [], []
    irb_once, irb_daily = [], []
    for day in days:
        props_day = drift.properties_on_day(int(day))
        backend = PulseBackend(props_day, calibrated_qubits=[0, 1], seed=seed + int(day))
        # strategy 1: reuse the day-0 pulse
        channel_once = backend.simulator.schedule_channel(sched_once, qubits=[0])
        err_once.append(1.0 - average_gate_fidelity(channel_once, target))
        # strategy 2: re-optimize from today's reported calibration
        opt_day = optimize_gate_pulse(props_day, config)
        sched_day = pulse_schedule_from_result(props_day, config, opt_day)
        channel_daily = backend.simulator.schedule_channel(sched_day, qubits=[0])
        err_daily.append(1.0 - average_gate_fidelity(channel_daily, target))
        # histograms
        h_once = gate_histogram(backend, gate, (0,), schedule=sched_once, shots=histogram_shots, seed=seed + 10 + int(day))
        h_daily = gate_histogram(backend, gate, (0,), schedule=sched_day, shots=histogram_shots, seed=seed + 20 + int(day))
        if target_bit is not None:
            hist_once.append(h_once.probability(target_bit))
            hist_daily.append(h_daily.probability(target_bit))
        else:
            hist_once.append(h_once.probability("1"))
            hist_daily.append(h_daily.probability("1"))
        if include_irb:
            for schedule, sink in ((sched_once, irb_once), (sched_day, irb_daily)):
                experiment = InterleavedRBExperiment(
                    backend,
                    Gate.standard(gate),
                    [0],
                    lengths=irb_lengths,
                    n_seeds=irb_seeds,
                    shots=irb_shots,
                    seed=seed + int(day),
                    custom_calibration=schedule,
                )
                sink.append(experiment.run().gate_error)
    return DriftStudyResult(
        days=days,
        gate=gate.lower(),
        channel_error_once=np.array(err_once),
        channel_error_daily=np.array(err_daily),
        histogram_population_once=np.array(hist_once),
        histogram_population_daily=np.array(hist_daily),
        irb_error_once=np.array(irb_once) if include_irb else None,
        irb_error_daily=np.array(irb_daily) if include_irb else None,
        metadata={"duration_ns": duration_ns, "drift_seed": drift_seed},
    )
