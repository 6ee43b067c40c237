"""End-to-end per-gate experiment pipeline.

This module reproduces the paper's workflow for one gate:

1. **Model construction** — build the optimizer-view Hamiltonian from the
   backend's reported calibration data (Duffing transmon with Pauli X/Y
   controls for single-qubit gates; the Eq. (1) cross-resonance model with
   XI/IX/ZX controls for CNOT),
2. **Pulse optimization** — run `optimize_pulse_unitary` (L-BFGS-B by
   default) for the requested pulse duration; decoherence can be included
   (open-system GRAPE) as the paper did for the X gate, or neglected as it
   did for √X,
3. **Lowering** — cast the optimized piecewise-constant amplitudes into a
   pulse :class:`~repro.pulse.schedule.Schedule` on the device channels
   (Fig. 2 / Fig. 7),
4. **Execution** — attach the schedule as a custom calibration that replaces
   the default gate and run the state-preparation circuit for the output
   histogram (Figs. 3–6 bottom panels).

The full pipeline — optimize, lower, score the channels, interleaved RB —
runs as specs through a :class:`~repro.session.session.Session`: a
:class:`~repro.session.specs.GRAPESpec` for the pulse and its channel
errors, an :class:`~repro.session.specs.IRBSpec` nesting it for the error
per gate (Figs. 3–5, 8 and Table I).  This module holds the steps the
session calls.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..backend.backend import PulseBackend
from ..backend.result import Result
from ..circuits.circuit import QuantumCircuit
from ..circuits.gate import Gate
from ..core.parametrization import TimeGrid
from ..core.pulseoptim import optimize_pulse_unitary
from ..core.result import OptimResult
from ..devices.cross_resonance import CrossResonanceModel
from ..devices.properties import BackendProperties
from ..devices.transmon import TransmonModel
from ..pulse.calibrations import control_channel_index
from ..pulse.channels import ControlChannel, DriveChannel
from ..pulse.instructions import Play, ShiftPhase
from ..pulse.schedule import Schedule
from ..pulse.shapes import pwc_waveform
from ..qobj.gates import s_gate, standard_gate_unitary
from ..utils.validation import ValidationError

__all__ = [
    "GateExperimentConfig",
    "optimize_gate_pulse",
    "optimize_gate_pulse_batch",
    "pulse_schedule_from_result",
    "gate_histogram",
    "SUPPORTED_GATES",
]

SUPPORTED_GATES = ("x", "sx", "h", "cx")


@dataclass(frozen=True)
class GateExperimentConfig:
    """Configuration of a single-gate pulse-optimization experiment.

    The default amplitude bounds are ±1/√2 so that the in-phase and
    quadrature rows of a single-qubit pulse can be combined into one complex
    drive sample without ever exceeding the hardware DAC limit |I + iQ| ≤ 1.
    """

    gate: str
    qubits: tuple[int, ...] = (0,)
    duration_ns: float = 105.0
    n_ts: int = 12
    method: str = "LBFGS"
    include_decoherence: bool = False
    #: Transmon levels in the optimizer's model.  3 (default) makes leakage a
    #: first-class part of the cost via the subspace-restricted fidelity; 2
    #: reproduces the paper's bare Pauli-control model (the optimizer-levels
    #: ablation in ``tests/test_paper_claims.py`` compares the two).
    optimizer_levels: int = 3
    init_pulse_type: str = "DRAG"
    init_pulse_scale: float = 0.25
    amp_lbound: float = -(2.0**-0.5)
    amp_ubound: float = 2.0**-0.5
    fid_err_targ: float = 1e-10
    max_iter: int = 300
    seed: int | None = 1234

    def __post_init__(self):
        if self.gate.lower() not in SUPPORTED_GATES:
            raise ValidationError(f"gate must be one of {SUPPORTED_GATES}, got {self.gate!r}")
        expected = 2 if self.gate.lower() == "cx" else 1
        if len(self.qubits) != expected:
            raise ValidationError(
                f"gate {self.gate!r} needs {expected} qubit(s), got {len(self.qubits)}"
            )
        if not math.isfinite(self.duration_ns) or self.duration_ns <= 0:
            raise ValidationError(f"duration_ns must be finite and > 0, got {self.duration_ns}")
        if self.n_ts < 2:
            raise ValidationError("n_ts must be >= 2")


# --------------------------------------------------------------------------- #
# model construction + optimization
# --------------------------------------------------------------------------- #
def _single_qubit_model(properties: BackendProperties, qubit: int, levels: int):
    model = TransmonModel(properties.qubit(qubit), levels=levels, use_true_detuning=False)
    drift = model.drift_hamiltonian()
    controls = model.control_hamiltonians()
    c_ops = model.collapse_operators()
    target_embed = model.target_unitary
    return drift, controls, c_ops, target_embed


def _cr_model(properties: BackendProperties, qubits: Sequence[int]):
    control, target = qubits
    model = CrossResonanceModel(
        control=properties.qubit(control),
        target=properties.qubit(target),
        coupling_ghz=properties.coupling_strength,
        zz_crosstalk_ghz=properties.zz_crosstalk_ghz,
        include_detuning=False,
    )
    return model


@dataclass
class _GateProblem:
    """The optimizer-view model of one gate optimization."""

    drift: np.ndarray
    controls: list
    c_ops: list | None
    target: np.ndarray
    dim: int
    subspace_dim: int | None
    max_iter: int


def _gate_problem(properties: BackendProperties, config: GateExperimentConfig) -> _GateProblem:
    """Build the drift/controls/target model for one gate optimization."""
    gate = config.gate.lower()
    subspace_dim = None
    if gate == "cx":
        model = _cr_model(properties, config.qubits)
        drift = model.drift_hamiltonian()
        controls = model.control_hamiltonians()
        c_ops = model.collapse_operators() if config.include_decoherence else None
        # absorb the (free, virtual) S gate on the control qubit into the target
        target = np.kron(s_gate().conj().T, np.eye(2)) @ standard_gate_unitary("cx")
        dim = 4
    else:
        drift, controls, c_ops_all, embed = _single_qubit_model(
            properties, config.qubits[0], config.optimizer_levels
        )
        c_ops = c_ops_all if config.include_decoherence else None
        target = embed(standard_gate_unitary(gate))
        dim = config.optimizer_levels
        if config.optimizer_levels > 2:
            subspace_dim = 2
    return _GateProblem(
        drift=drift,
        controls=list(controls),
        c_ops=c_ops,
        target=target,
        dim=dim,
        subspace_dim=subspace_dim,
        max_iter=config.max_iter,
    )


def _run_gate_optimization(
    config: GateExperimentConfig,
    problem: _GateProblem,
    cost_grad=None,
    method_options: dict | None = None,
) -> OptimResult:
    """Run :func:`optimize_pulse_unitary` on a prepared :class:`_GateProblem`."""
    return optimize_pulse_unitary(
        problem.drift,
        problem.controls,
        np.eye(problem.dim),
        problem.target,
        n_ts=config.n_ts,
        evo_time=config.duration_ns,
        c_ops=problem.c_ops,
        method=config.method,
        fid_err_targ=config.fid_err_targ,
        max_iter=problem.max_iter,
        init_pulse_type=config.init_pulse_type,
        init_pulse_scale=config.init_pulse_scale,
        amp_lbound=config.amp_lbound,
        amp_ubound=config.amp_ubound,
        subspace_dim=problem.subspace_dim,
        seed=config.seed,
        cost_grad=cost_grad,
        **(method_options or {}),
    )


def optimize_gate_pulse(
    properties: BackendProperties,
    config: GateExperimentConfig,
    method_options: dict | None = None,
) -> OptimResult:
    """Run the paper's pulse optimization for one gate on one device.

    Single-qubit gates use the Duffing-transmon model with Pauli X/Y control
    terms built from the backend's reported data; CNOT uses the Eq. (1) CR
    model with the XI/IX/ZX control terms and absorbs the final virtual-Z on
    the control qubit (free on hardware) into the target, exactly as the
    echoed-CR calibration does.  ``method_options`` forwards method-specific
    optimizer options (see ``OPTIMIZER_METHOD_OPTIONS``) to
    :func:`~repro.core.pulseoptim.optimize_pulse_unitary`.
    """
    return _run_gate_optimization(
        config, _gate_problem(properties, config), method_options=method_options
    )


def _batchable_problems(configs: Sequence[GateExperimentConfig], problems: Sequence[_GateProblem]) -> bool:
    """Whether the prepared problems can share one stacked evaluator.

    Requires ≥2 closed-system L-BFGS-B points over an identical model: same
    drift and control Hamiltonians (bit-equal), same dimension, subspace and
    slot grid.  Targets, seeds, initial-pulse shapes, bounds, stopping
    criteria may all differ per point.
    """
    if len(problems) < 2:
        return False
    base_cfg, base = configs[0], problems[0]
    for cfg, prob in zip(configs, problems):
        if cfg.method.upper() != "LBFGS" or prob.c_ops is not None:
            return False
        if prob.dim != base.dim or prob.subspace_dim != base.subspace_dim:
            return False
        if cfg.n_ts != base_cfg.n_ts or cfg.duration_ns != base_cfg.duration_ns:
            return False
        if not np.array_equal(np.asarray(prob.drift), np.asarray(base.drift)):
            return False
        if len(prob.controls) != len(base.controls) or not all(
            np.array_equal(np.asarray(a), np.asarray(b))
            for a, b in zip(prob.controls, base.controls)
        ):
            return False
    return True


def optimize_gate_pulse_batch(
    properties: BackendProperties,
    configs: Sequence[GateExperimentConfig],
) -> list[OptimResult]:
    """Optimize many gate configs over one shared model in a stacked pass.

    When every config is a closed-system L-BFGS-B point over the same
    Hamiltonian model (same device/qubits/levels/grid — they may differ in
    target gate, seed, initial pulse, bounds and stopping criteria), the
    per-iteration cost/gradient evaluations of all points are fused into one
    stacked pass via :class:`~repro.core.grape_batch.StackedClosedEvaluator`.
    Each point still runs its own genuine L-BFGS-B state machine, and because
    the stacked evaluation is bit-identical to the solo one, every returned
    :class:`~repro.core.result.OptimResult` matches a solo
    :func:`optimize_gate_pulse` call exactly.

    Configs that cannot be stacked (open-system, non-LBFGS, or mixed models)
    fall back to sequential solo optimization.
    """
    from ..core.grape_batch import LockstepEvaluator, StackedClosedEvaluator

    configs = list(configs)
    problems = [_gate_problem(properties, config) for config in configs]
    if not _batchable_problems(configs, problems):
        return [
            _run_gate_optimization(config, problem)
            for config, problem in zip(configs, problems)
        ]

    base_cfg, base = configs[0], problems[0]
    dt = TimeGrid(n_ts=base_cfg.n_ts, evo_time=base_cfg.duration_ns).dt
    stacked = StackedClosedEvaluator(
        base.drift,
        base.controls,
        [problem.target for problem in problems],
        dt,
        phase_option="PSU",
        gradient="exact",
        subspace_dim=base.subspace_dim,
    )
    lockstep = LockstepEvaluator(stacked)

    results: list[OptimResult | None] = [None] * len(configs)
    errors: list[BaseException | None] = [None] * len(configs)

    def run_point(index: int) -> None:
        try:
            results[index] = _run_gate_optimization(
                configs[index], problems[index], cost_grad=lockstep.for_point(index)
            )
        except BaseException as exc:  # noqa: BLE001 - re-raised in the caller
            errors[index] = exc
        finally:
            lockstep.retire(index)

    threads = [
        threading.Thread(target=run_point, args=(i,), name=f"grape-batch-{i}")
        for i in range(len(configs))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return [result for result in results if result is not None]


# --------------------------------------------------------------------------- #
# lowering to a pulse schedule
# --------------------------------------------------------------------------- #
def pulse_schedule_from_result(
    properties: BackendProperties,
    config: GateExperimentConfig,
    optimization: OptimResult,
) -> Schedule:
    """Cast optimized PWC amplitudes into a device pulse schedule.

    Single-qubit gates: the two control rows (X and Y quadratures) become the
    real and imaginary parts of a Waveform on the qubit's drive channel.
    CNOT: the XI, IX and ZX rows drive the control qubit's drive channel, the
    target qubit's drive channel and the pair's control channel respectively,
    followed by the virtual-Z frame change on the control qubit.
    """
    gate = config.gate.lower()
    dt = properties.dt
    total_samples = properties.samples_for_duration(config.duration_ns)
    samples_per_slot = max(1, int(round(total_samples / optimization.n_ts)))
    amps = optimization.final_amps
    sched = Schedule(name=f"{gate}_custom_q{'_'.join(map(str, config.qubits))}")
    if gate == "cx":
        control, target = config.qubits
        u_index = control_channel_index(properties, control, target)
        channel_rows = [
            (DriveChannel(control), amps[0]),
            (DriveChannel(target), amps[1]),
            (ControlChannel(u_index), amps[2]),
        ]
        for channel, row in channel_rows:
            waveform = pwc_waveform(row, samples_per_slot=samples_per_slot, name=f"{gate}_pwc_{channel.name}")
            sched.insert(0, Play(waveform, channel))
        # the S gate absorbed into the optimization target is applied virtually
        sched.append(ShiftPhase(-np.pi / 2.0, DriveChannel(control)))
    else:
        qubit = config.qubits[0]
        x_row = amps[0]
        y_row = amps[1] if amps.shape[0] > 1 else None
        waveform = pwc_waveform(
            x_row, y_row, samples_per_slot=samples_per_slot, name=f"{gate}_pwc_d{qubit}"
        )
        sched.append(Play(waveform, DriveChannel(qubit)))
    return sched


# --------------------------------------------------------------------------- #
# execution: histograms and IRB
# --------------------------------------------------------------------------- #
def _histogram_circuit(gate: str, qubits: Sequence[int], n_circuit_qubits: int) -> QuantumCircuit:
    circuit = QuantumCircuit(n_circuit_qubits, len(qubits), name=f"{gate}_histogram")
    if gate == "cx":
        control, target = qubits
        # prepare |11>: X on the control, then CNOT
        circuit.x(control)
        circuit.append(Gate.standard("cx"), (control, target))
        circuit.measure(control, 0)
        circuit.measure(target, 1)
    else:
        circuit.append(Gate.standard(gate), tuple(qubits))
        circuit.measure(qubits[0], 0)
    return circuit


def gate_histogram(
    backend: PulseBackend,
    gate: str,
    qubits: Sequence[int],
    schedule: Schedule | None = None,
    shots: int = 4000,
    seed=None,
) -> Result:
    """Output-state histogram of the gate's state-preparation circuit.

    With ``schedule`` given, the custom calibration replaces the default gate
    (for the CX histogram only the CX itself is replaced; the preparatory X
    on the control stays a default gate, as in the paper).
    """
    gate = gate.lower()
    n_circuit_qubits = max(qubits) + 1
    circuit = _histogram_circuit(gate, qubits, n_circuit_qubits)
    if schedule is not None:
        circuit.add_calibration(gate, tuple(qubits), schedule)
    return backend.run(circuit, shots=shots, seed=seed)
