"""The :class:`PulseBackend`: the simulated quantum device.

A :class:`PulseBackend` plays the role of ``ibmq_montreal`` & co. in the
reproduction:

* it owns a calibration snapshot (:class:`~repro.devices.properties.BackendProperties`)
  and the *default* gate calibrations (instruction schedule map),
* it accepts circuits (transpiled automatically if needed) and pulse
  schedules, executes them against the pulse-level device simulation, applies
  readout error, and returns sampled :class:`~repro.backend.result.Result`
  counts,
* it caches the quantum channel of every calibrated gate so that circuit and
  randomized-benchmarking workloads compose cheap ``4^n × 4^n``
  superoperators instead of re-integrating every pulse sample (see DESIGN.md
  §5 — exact for Markovian noise).

Custom calibrations attached to a circuit via
``QuantumCircuit.add_calibration`` override the defaults, which is how the
paper's optimized pulses replace the backend gates.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .noise import depolarizing_superop, embed_channel, readout_confusion_matrix
from .pulse_simulator import PulseSimulator, SimulationOptions
from .result import Result
from .sampling import channel_output_probabilities, sample_measurement
from ..circuits.circuit import QuantumCircuit
from ..circuits.gate import Barrier, Gate, Measurement
from ..circuits.transpiler import transpile
from ..devices.properties import BackendProperties
from ..pulse.calibrations import default_instruction_schedule_map
from ..pulse.instruction_schedule_map import InstructionScheduleMap
from ..pulse.schedule import Schedule
from ..qobj.gates import standard_gate_unitary
from ..qobj.superop import unitary_superop
from ..utils.seeding import default_rng
from ..utils.validation import ValidationError

__all__ = ["PulseBackend"]


class PulseBackend:
    """Simulated pulse-level backend with default calibrations and gate cache."""

    #: Gates executed as ideal (error-free, zero-duration) frame changes.
    VIRTUAL_GATES = ("rz", "z", "s", "sdg", "t", "tdg", "p", "phase", "id")

    def __init__(
        self,
        properties: BackendProperties,
        options: SimulationOptions | None = None,
        calibrated_qubits: Sequence[int] | None = None,
        include_cx_calibrations: bool = True,
        seed=None,
        channel_store=None,
    ):
        """Build a backend from a calibration snapshot.

        Parameters
        ----------
        properties : BackendProperties
            The calibration snapshot (frequencies, T1/T2, gate errors, …).
        options : SimulationOptions, optional
            Pulse-simulation knobs; defaults to :class:`SimulationOptions`.
        calibrated_qubits : sequence of int, optional
            Qubits to generate default calibrations for (all by default).
        include_cx_calibrations : bool
            Whether to calibrate the coupled-pair CX gates.
        seed : optional
            Seed of the backend's measurement-sampling RNG.
        channel_store : optional
            Default persistent Clifford-channel store for RB workloads on
            this backend: ``"auto"``, a directory path, a
            :class:`~repro.store.ArtifactStore`, or
            ``None`` (no persistence).  Experiments may override it per run
            via their own ``store=`` knob.  Stale reads after a properties
            drift are impossible by construction — the store key embeds the
            properties fingerprint (see
            :meth:`~repro.store.ArtifactStore.channel_table_key`).
        """
        self.properties = properties
        self.options = options or SimulationOptions()
        self.simulator = PulseSimulator(properties, self.options)
        self._rng = default_rng(seed)
        qubits = list(range(properties.n_qubits)) if calibrated_qubits is None else list(calibrated_qubits)
        self.instruction_schedule_map: InstructionScheduleMap = default_instruction_schedule_map(
            properties, qubits=qubits, include_cx=include_cx_calibrations
        )
        if channel_store is not None:
            # resolve eagerly so a bad knob fails at construction, not mid-run
            from ..store import resolve_store

            channel_store = resolve_store(channel_store)
        #: Default persistent store consulted by the RB channel engine
        #: (overridable per experiment via ``store=``).
        self.channel_store = channel_store
        self._channel_cache: dict[tuple, np.ndarray] = {}
        #: Per-(qubits, store) Clifford-element channel tables built lazily
        #: by the RB execution engine (see ``repro.benchmarking.engine``).
        self._clifford_channel_tables: dict = {}
        self._cache_props_fp: str = properties.fingerprint()

    @classmethod
    def from_device(cls, device: str, **kwargs) -> "PulseBackend":
        """Build a backend from a fake-device name.

        Convenience constructor used by the session layer (and handy
        interactively): resolves ``device`` through
        :func:`repro.devices.library.get_device` (any reasonable alias —
        ``"montreal"``, ``"ibmq_montreal"``, ``"fake_montreal"``) and
        forwards ``kwargs`` to the regular constructor.

        Parameters
        ----------
        device : str
            Device name understood by the registry.
        **kwargs
            Passed through to :class:`PulseBackend` (``options``,
            ``calibrated_qubits``, ``seed``, ``channel_store``, …).

        Returns
        -------
        PulseBackend
            A backend on a fresh calibration snapshot of the device.
        """
        from ..devices.library import get_device

        return cls(get_device(device), **kwargs)

    # ------------------------------------------------------------------ #
    # properties / bookkeeping
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """Backend (device) name from the calibration snapshot."""
        return self.properties.name

    @property
    def basis_gates(self) -> tuple[str, ...]:
        """Native gate basis of the device."""
        return self.properties.basis_gates

    def clear_channel_cache(self) -> None:
        """Drop all cached gate channels (e.g. after changing calibrations)."""
        self._channel_cache.clear()
        self._clifford_channel_tables.clear()
        self.simulator.invalidate_cache()
        self._cache_props_fp = self.properties.fingerprint()

    def _check_cache_freshness(self) -> None:
        """Invalidate every channel cache if :attr:`properties` drifted.

        Swapping :attr:`properties` for a new calibration snapshot (e.g. a
        day of the drift study) must not serve channels simulated against the
        old snapshot; the properties fingerprint is compared on every cache
        access and a mismatch drops the gate-channel cache, the simulator's
        schedule-channel cache and the RB engine's Clifford tables.
        """
        if self.properties is self.simulator.properties and self._cache_props_fp == self.properties.fingerprint():
            return
        self.simulator.properties = self.properties
        self.clear_channel_cache()

    # ------------------------------------------------------------------ #
    # gate channels
    # ------------------------------------------------------------------ #
    def gate_channel(
        self,
        name: str,
        qubits: Sequence[int],
        schedule: Schedule | None = None,
        cache_key: str | None = None,
    ) -> np.ndarray:
        """Quantum channel of a calibrated gate on specific qubits.

        Parameters
        ----------
        name:
            Gate name; virtual gates (``rz`` with angle via ``schedule=None``
            is *not* handled here — use :meth:`virtual_gate_channel`).
        qubits:
            Physical qubits the gate acts on (order matters for ``cx``).
        schedule:
            Custom calibration; defaults to the backend's instruction
            schedule map entry.
        cache_key:
            Key used for caching custom schedules; defaults to the schedule's
            content fingerprint, so two structurally identical schedules
            share a cache entry regardless of object identity.
        """
        qubits = tuple(int(q) for q in qubits)
        self._check_cache_freshness()
        if schedule is None:
            sched = self.instruction_schedule_map.get(name, qubits)
            key = (name.lower(), qubits, "default")
            is_default = True
        else:
            sched = schedule
            key = (name.lower(), qubits, cache_key if cache_key is not None else schedule.fingerprint())
            is_default = False
        if key not in self._channel_cache:
            channel = self.simulator.schedule_channel(sched, qubits=list(qubits))
            if is_default:
                extra = self._default_incoherent_error(name, len(qubits))
                if extra > 0:
                    channel = depolarizing_superop(extra, 2 ** len(qubits)) @ channel
            self._channel_cache[key] = channel
        return self._channel_cache[key]

    def _default_incoherent_error(self, name: str, n_qubits: int) -> float:
        """Extra incoherent error attached to the *default* calibration of a gate.

        Models stochastic error accumulated since the provider's last
        calibration cycle (see ``BackendProperties.default_*_incoherent_error``);
        custom (freshly optimized) calibrations do not carry it.
        """
        key = name.lower()
        if key == "x":
            return self.properties.default_x_incoherent_error
        if key == "sx":
            return self.properties.default_sx_incoherent_error
        if key == "cx":
            return self.properties.default_cx_incoherent_error
        return 0.0

    def virtual_gate_channel(self, gate: Gate, n_qubits_in_channel: int = 1) -> np.ndarray:
        """Ideal channel of a virtual (frame-change) gate."""
        u = gate.unitary()
        return unitary_superop(u)

    def ideal_gate_unitary(self, name: str, *params: float) -> np.ndarray:
        """Ideal unitary of a named gate (convenience passthrough)."""
        return standard_gate_unitary(name, *params)

    # ------------------------------------------------------------------ #
    # circuit execution
    # ------------------------------------------------------------------ #
    def circuit_channel(self, circuit: QuantumCircuit, qubits: Sequence[int] | None = None, transpiled: bool = False) -> tuple[np.ndarray, list[int]]:
        """Compose the full channel of a circuit on its active qubits.

        Returns ``(superoperator, active_qubits)`` where ``active_qubits`` is
        the sorted list of qubits the circuit touches (gates or measurements)
        and the superoperator acts on their computational space with the
        first active qubit as the most significant factor.
        """
        circ = circuit if transpiled else transpile(
            circuit,
            basis_gates=self.properties.basis_gates,
            coupling=self.properties.coupling,
        )
        active = qubits
        if active is None:
            touched: set[int] = set()
            for inst in circ.data:
                if isinstance(inst.operation, (Gate, Measurement)):
                    touched.update(inst.qubits)
            active = sorted(touched) if touched else [0]
        active = list(active)
        n = len(active)
        index_of = {q: i for i, q in enumerate(active)}
        dim = 2**n
        total = np.eye(dim * dim, dtype=complex)
        for inst in circ.data:
            op = inst.operation
            if isinstance(op, (Barrier, Measurement)):
                continue
            assert isinstance(op, Gate)
            gate_qubits = inst.qubits
            local = [index_of[q] for q in gate_qubits]
            if op.name in self.VIRTUAL_GATES and (op.name, gate_qubits) not in circ.calibrations:
                small = unitary_superop(op.unitary())
            else:
                custom = circ.calibrations.get((op.name, gate_qubits))
                small = self.gate_channel(op.name, gate_qubits, schedule=custom)
            full = embed_channel(small, local, n)
            total = full @ total
        return total, active

    def run(
        self,
        circuit: QuantumCircuit,
        shots: int = 1024,
        seed=None,
        transpiled: bool = False,
    ) -> Result:
        """Execute a circuit and return sampled counts.

        The circuit is transpiled to the backend basis (unless ``transpiled``
        is set), its gate channels are composed into a density-matrix
        evolution starting from ``|0...0>``, readout error is applied to the
        measured qubits and ``shots`` outcomes are sampled.
        """
        if shots <= 0:
            raise ValidationError(f"shots must be > 0, got {shots}")
        circ = circuit if transpiled else transpile(
            circuit,
            basis_gates=self.properties.basis_gates,
            coupling=self.properties.coupling,
        )
        measured = circ.measured_qubits()
        if not measured:
            raise ValidationError("circuit has no measurements; nothing to sample")
        channel, active = self.circuit_channel(circ, transpiled=True)
        return self.sample_channel(channel, active, measured, shots, seed=seed, name=circ.name)

    def sample_channel(
        self,
        channel: np.ndarray,
        active: Sequence[int],
        measured: Sequence[tuple[int, int]],
        shots: int,
        seed=None,
        name: str = "channel_job",
    ) -> Result:
        """Sample measurement outcomes of a pre-composed circuit channel.

        ``channel`` is a superoperator on the computational space of
        ``active`` (first listed qubit = most significant factor); ``measured``
        lists ``(qubit, clbit)`` pairs.  This is the sampling tail of
        :meth:`run`, exposed so executors that compose channels themselves
        (e.g. the batched RB engine) sample through the identical pipeline.
        """
        if shots <= 0:
            raise ValidationError(f"shots must be > 0, got {shots}")
        probs_all = channel_output_probabilities(channel, len(active))
        return self._sample_measurement(probs_all, list(active), list(measured), shots, seed, name)

    def run_schedule(
        self,
        schedule: Schedule,
        measured_qubits: Sequence[int],
        shots: int = 1024,
        seed=None,
        name: str = "schedule_job",
    ) -> Result:
        """Execute a raw pulse schedule (pulse job) and sample the listed qubits."""
        qubits = self.simulator.infer_qubits(schedule)
        for q in measured_qubits:
            if q not in qubits:
                qubits = sorted(set(qubits) | {int(q)})
        channel = self.simulator.schedule_channel(schedule, qubits=qubits)
        measured = [(int(q), i) for i, q in enumerate(measured_qubits)]
        return self.sample_channel(channel, qubits, measured, shots, seed=seed, name=name)

    # ------------------------------------------------------------------ #
    # measurement sampling
    # ------------------------------------------------------------------ #
    def _sample_measurement(
        self,
        probs_all: np.ndarray,
        active: list[int],
        measured: list[tuple[int, int]],
        shots: int,
        seed,
        name: str,
    ) -> Result:
        confusion = readout_confusion_matrix([self.properties.qubit(q) for q, _ in measured])
        rng = default_rng(seed) if seed is not None else self._rng
        return sample_measurement(probs_all, active, measured, confusion, rng, shots, name, self.name)
