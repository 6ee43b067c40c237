"""Section II optimizer comparison and design-choice ablations.

The paper motivates its choice of L-BFGS-B by comparing against SPSA ("we
found that L-BFGS-B converges faster and gives much smaller fidelity error
than SPSA") and notes that plain GRAPE and CRAB converge slowly.
:func:`optimizer_comparison_specs` builds the same single-qubit
gate-synthesis problem under every optimizer as session specs.

:func:`ablation_open_vs_closed`, :func:`ablation_gradient`, and
:func:`ablation_duration_sweep` cover the design choices the paper calls out:
including decoherence in the optimization (done for X, skipped for √X),
exact vs approximate GRAPE gradients, and the pulse-duration dependence of
the achieved error (Table I's duration rows / the Discussion section).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .gates import GateExperimentConfig, optimize_gate_pulse, pulse_schedule_from_result
from ..backend.backend import PulseBackend
from ..core.pulseoptim import optimize_pulse_unitary
from ..devices.library import fake_montreal
from ..devices.properties import BackendProperties
from ..devices.transmon import TransmonModel
from ..qobj.gates import standard_gate_unitary
from ..qobj.metrics import average_gate_fidelity
from ..session.specs import OPTIMIZER_METHODS, OptimizerSpec
from ..utils.validation import ValidationError

__all__ = [
    "optimizer_comparison_specs",
    "ablation_open_vs_closed",
    "ablation_gradient",
    "ablation_duration_sweep",
]


def _problem(properties: BackendProperties, gate: str, levels: int = 2):
    model = TransmonModel(properties.qubit(0), levels=levels, use_true_detuning=False)
    drift = model.drift_hamiltonian()
    controls = model.control_hamiltonians()
    target = model.target_unitary(standard_gate_unitary(gate))
    return drift, controls, target


def optimizer_comparison_specs(
    gate: str = "x",
    methods: Sequence[str] = OPTIMIZER_METHODS,
    device: str = "montreal",
    n_ts: int = 12,
    duration_ns: float = 105.0,
    max_iter: int = 200,
    seed: int = 2022,
) -> list[OptimizerSpec]:
    """The Section II optimizer comparison as session specs, one per method.

    Submit the returned :class:`~repro.session.specs.OptimizerSpec` batch
    through :meth:`~repro.session.session.Session.run_all`: every method
    optimizes the same gate on the bare two-level transmon model
    (``optimizer_levels=2``, as :func:`_problem` builds it) with
    amplitudes clamped to the session's ``±1/√2`` bound, and each payload
    carries the final infidelity ``fid_err`` and the iteration count.
    As specs, the runs get deduplicated prep, persisted pulses, result
    caching, traces and HTTP-service submission.
    """
    return [
        OptimizerSpec(
            device=device,
            gate=gate.lower(),
            qubits=(0,),
            duration_ns=float(duration_ns),
            n_ts=int(n_ts),
            method=method.lower(),
            include_decoherence=False,
            optimizer_levels=2,
            fid_err_targ=1e-10,
            max_iter=int(max_iter),
            seed=seed,
        )
        for method in methods
    ]


def ablation_open_vs_closed(
    gate: str = "sx",
    duration_ns: float = 162.0,
    n_ts: int = 14,
    properties: BackendProperties | None = None,
    seed: int = 2022,
) -> dict:
    """Optimize with and without decoherence in the model; evaluate both on hardware.

    The paper included decoherence for the X gate but neglected it for √X
    ("we were not able to reach a global minimum of the cost function" with
    dissipation).  This ablation quantifies what that choice costs: both
    pulses are evaluated on the *same* noisy simulated device.
    """
    props = properties or fake_montreal()
    backend = PulseBackend(props, calibrated_qubits=[0, 1], seed=seed)
    target = standard_gate_unitary(gate)
    out: dict = {}
    for label, include in (("closed", False), ("open", True)):
        config = GateExperimentConfig(
            gate=gate,
            qubits=(0,),
            duration_ns=duration_ns,
            n_ts=n_ts,
            include_decoherence=include,
            seed=seed,
        )
        optimization = optimize_gate_pulse(props, config)
        schedule = pulse_schedule_from_result(props, config, optimization)
        channel = backend.simulator.schedule_channel(schedule, qubits=[0])
        out[label] = {
            "optimizer_fid_err": optimization.fid_err,
            "device_channel_error": 1.0 - average_gate_fidelity(channel, target),
            "n_iter": optimization.n_iter,
            "wall_time_s": optimization.wall_time,
        }
    return out


def ablation_gradient(
    gate: str = "x",
    duration_ns: float = 105.0,
    n_ts: int = 12,
    properties: BackendProperties | None = None,
    seed: int = 2022,
) -> dict:
    """Exact (Fréchet) vs approximate GRAPE gradients under L-BFGS-B."""
    props = properties or fake_montreal()
    drift, controls, target = _problem(props, gate)
    out: dict = {}
    for label in ("exact", "approx"):
        result = optimize_pulse_unitary(
            drift,
            controls,
            np.eye(target.shape[0]),
            target,
            n_ts=n_ts,
            evo_time=duration_ns,
            method="LBFGS",
            gradient=label,
            fid_err_targ=1e-12,
            max_iter=300,
            init_pulse_type="DRAG",
            seed=seed,
        )
        out[label] = {
            "fid_err": result.fid_err,
            "n_iter": result.n_iter,
            "n_fun_evals": result.n_fun_evals,
            "wall_time_s": result.wall_time,
        }
    return out


def ablation_duration_sweep(
    gate: str = "x",
    durations_ns: Sequence[float] = (28.0, 56.0, 105.0, 162.0, 267.0),
    n_ts: int = 12,
    properties: BackendProperties | None = None,
    seed: int = 2022,
) -> dict:
    """Device-level error of the optimized gate as a function of pulse duration.

    Reproduces the Discussion-section observation (and the duration rows of
    Table I) that shorter optimized pulses achieve lower error on hardware
    even though the optimizer reports essentially zero infidelity for all of
    them — the difference is decoherence plus model mismatch accumulating
    with duration.
    """
    props = properties or fake_montreal()
    backend = PulseBackend(props, calibrated_qubits=[0, 1], seed=seed)
    target = standard_gate_unitary(gate)
    durations = []
    optimizer_errors = []
    device_errors = []
    for duration in durations_ns:
        config = GateExperimentConfig(
            gate=gate,
            qubits=(0,),
            duration_ns=float(duration),
            n_ts=n_ts,
            include_decoherence=False,
            seed=seed,
        )
        optimization = optimize_gate_pulse(props, config)
        schedule = pulse_schedule_from_result(props, config, optimization)
        channel = backend.simulator.schedule_channel(schedule, qubits=[0])
        durations.append(float(duration))
        optimizer_errors.append(optimization.fid_err)
        device_errors.append(1.0 - average_gate_fidelity(channel, target))
    if len(durations) < 1:
        raise ValidationError("at least one duration is required")
    return {
        "durations_ns": np.array(durations),
        "optimizer_fid_err": np.array(optimizer_errors),
        "device_channel_error": np.array(device_errors),
        "default_channel_error": 1.0
        - average_gate_fidelity(backend.gate_channel(gate, (0,)), target),
    }
