"""Pulse-level simulation of schedules against the device Hamiltonian.

:class:`PulseSimulator` integrates a :class:`~repro.pulse.schedule.Schedule`
sample-by-sample against the *device view* of the transmon models:

* single-qubit schedules use the multi-level Duffing transmon (default 3
  levels, so DRAG and leakage are physical) with the qubit's true residual
  detuning,
* two-qubit schedules use the effective cross-resonance Hamiltonian of
  Eq. (1) including the static ZZ term and both qubits' detuning errors,
* decoherence is included through the T1/T2 collapse operators of each qubit
  (Lindblad master equation, piecewise-constant exponential integration),
* ``ShiftPhase`` / ``SetPhase`` instructions act as software-oscillator
  rotations of all later samples on that channel (virtual Z); the extracted
  gate channel is *frame-corrected* so that composing per-gate channels
  reproduces the physics of persistent frames (see
  :meth:`PulseSimulator.schedule_channel`).

The output is the quantum channel (superoperator, column-stacking
convention) implemented on the computational subspace of the addressed
qubits — the object that the circuit executor and the randomized-benchmarking
machinery compose.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from ..devices.cross_resonance import CrossResonanceModel
from ..devices.properties import BackendProperties
from ..devices.transmon import TransmonModel, computational_projector
from ..pulse.channels import ControlChannel, DriveChannel
from ..pulse.instructions import SetPhase, ShiftPhase
from ..pulse.schedule import Schedule
from ..qobj.gates import rz_gate
from ..qobj.superop import unitary_superop
from ..solvers.propagator import pwc_liouvillian_total, pwc_total_propagator
from ..utils.validation import ValidationError

__all__ = ["SimulationOptions", "PulseSimulator"]


@dataclass(frozen=True)
class SimulationOptions:
    """Knobs of the pulse-level simulation.

    Attributes
    ----------
    levels_1q:
        Transmon levels retained for single-qubit schedules (3 by default so
        leakage out of the computational subspace is modelled).
    levels_2q:
        Levels per transmon for two-qubit schedules (the effective CR model
        of Eq. (1) is a 2-level model).
    include_decoherence:
        Whether to include T1/T2 collapse operators (Lindblad) or propagate
        unitarily.
    resample:
        Coarse-graining factor: ``resample`` hardware samples are averaged
        into one integration step (exact for piecewise-constant optimizer
        output whose slots are multiples of it; a very good approximation for
        the smooth default shapes).
    frame_correction:
        Whether to undo the accumulated software-oscillator phase at the end
        of the schedule so the extracted channel corresponds to the intended
        gate (see module docstring).
    """

    levels_1q: int = 3
    levels_2q: int = 2
    include_decoherence: bool = True
    resample: int = 4
    frame_correction: bool = True

    def __post_init__(self):
        if self.levels_1q < 2:
            raise ValidationError(f"levels_1q must be >= 2, got {self.levels_1q}")
        if self.levels_2q != 2:
            raise ValidationError("levels_2q must be 2 (effective CR model)")
        if self.resample < 1:
            raise ValidationError(f"resample must be >= 1, got {self.resample}")


class PulseSimulator:
    """Simulates pulse schedules against a backend's device model.

    Simulated gate channels are cached by a *content fingerprint* of
    ``(schedule, qubits, device properties, simulation options)``: a
    randomized-benchmarking workload replays a handful of distinct Clifford
    generator schedules across thousands of sequences, so each distinct
    schedule is integrated exactly once.  The cache invalidates itself when
    :attr:`properties` is swapped for a drifted snapshot (the properties
    fingerprint is part of the freshness check), and can be dropped
    explicitly via :meth:`invalidate_cache`.

    The cache is safe to share between threads: each key is simulated once.
    The first thread to miss a key leaves a pending entry and simulates it;
    later threads asking for that key wait for its result, while threads
    asking for other keys simulate concurrently.
    """

    def __init__(self, properties: BackendProperties, options: SimulationOptions | None = None):
        self.properties = properties
        self.options = options or SimulationOptions()
        # map control-channel index -> directed (control, target) pair
        directed = sorted(
            {(a, b) for a, b in properties.coupling} | {(b, a) for a, b in properties.coupling}
        )
        self._u_to_pair = {idx: pair for idx, pair in enumerate(directed)}
        self._channel_cache: dict[tuple, np.ndarray] = {}
        self._cache_props_fp: str = properties.fingerprint()
        self._cache_hits: int = 0
        self._cache_misses: int = 0
        #: Guards the cache dict, the counters and :attr:`_pending`; never
        #: held while a schedule is simulated.
        self._cache_lock = threading.Lock()
        #: Keys being simulated right now -> set when their entry is cached
        #: (or their simulation failed).
        self._pending: dict[tuple, threading.Event] = {}

    # ------------------------------------------------------------------ #
    # channel cache
    # ------------------------------------------------------------------ #
    def invalidate_cache(self) -> None:
        """Drop every cached schedule channel."""
        self._channel_cache.clear()
        self._cache_props_fp = self.properties.fingerprint()

    def cache_info(self) -> dict[str, int]:
        """Hit/miss/size counters of the schedule-channel cache."""
        return {
            "hits": self._cache_hits,
            "misses": self._cache_misses,
            "size": len(self._channel_cache),
        }

    def _check_cache_freshness(self) -> None:
        """Invalidate cached channels if the device properties drifted."""
        fp = self.properties.fingerprint()
        if fp != self._cache_props_fp:
            self._channel_cache.clear()
            self._cache_props_fp = fp

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def infer_qubits(self, schedule: Schedule) -> list[int]:
        """Physical qubits addressed by a schedule (drive + control channels)."""
        qubits: set[int] = set()
        for ch in schedule.channels:
            if isinstance(ch, DriveChannel):
                qubits.add(ch.index)
            elif isinstance(ch, ControlChannel):
                if ch.index not in self._u_to_pair:
                    raise ValidationError(
                        f"control channel u{ch.index} is not defined for backend {self.properties.name!r}"
                    )
                qubits.update(self._u_to_pair[ch.index])
        return sorted(qubits)

    def schedule_channel(self, schedule: Schedule, qubits: list[int] | None = None) -> np.ndarray:
        """Quantum channel (superoperator) implemented by a schedule.

        Parameters
        ----------
        schedule:
            The pulse program.
        qubits:
            Physical qubits the channel should be expressed on.  Defaults to
            the qubits inferred from the schedule's channels; qubits listed
            here but not driven simply idle (and decohere for the schedule
            duration).

        Returns
        -------
        ndarray
            A ``4^n × 4^n`` superoperator on the computational subspace of
            the addressed qubits (n = 1 or 2), in the column-stacking
            convention, ordered with the first listed qubit as the most
            significant tensor factor.  The array is shared with the
            simulator's channel cache — treat it as read-only.
        """
        inferred = self.infer_qubits(schedule)
        if qubits is None:
            qubits = inferred
        else:
            qubits = [int(q) for q in qubits]
            missing = set(inferred) - set(qubits)
            if missing:
                raise ValidationError(
                    f"schedule drives qubits {sorted(missing)} not included in {qubits}"
                )
        if len(qubits) == 0:
            raise ValidationError("schedule does not address any qubit")
        if len(qubits) > 2:
            raise ValidationError(
                f"pulse-level simulation supports at most 2 qubits per schedule, got {len(qubits)}"
            )
        self._check_cache_freshness()
        key = (schedule.fingerprint(), tuple(qubits), repr(self.options))
        while True:
            with self._cache_lock:
                cached = self._channel_cache.get(key)
                if cached is not None:
                    self._cache_hits += 1
                    return cached
                pending = self._pending.get(key)
                if pending is None:
                    pending = self._pending[key] = threading.Event()
                    self._cache_misses += 1
                    break
            # another thread simulates this key; a failed simulation leaves
            # no entry, and the next pass simulates it here
            pending.wait()
        try:
            if len(qubits) == 1:
                channel = self._single_qubit_channel(schedule, qubits[0])
            else:
                channel = self._two_qubit_channel(schedule, qubits)
            with self._cache_lock:
                self._channel_cache[key] = channel
        finally:
            with self._cache_lock:
                del self._pending[key]
            pending.set()
        return channel

    def schedule_unitary(self, schedule: Schedule, qubits: list[int] | None = None) -> np.ndarray:
        """Closed-system (no decoherence) version of :meth:`schedule_channel`.

        Returns the computational-subspace block of the propagator — useful
        for tests and for inspecting coherent errors in isolation.
        """
        saved = self.options
        try:
            self.options = SimulationOptions(
                levels_1q=saved.levels_1q,
                levels_2q=saved.levels_2q,
                include_decoherence=False,
                resample=saved.resample,
                frame_correction=saved.frame_correction,
            )
            # run the closed-system path that stores the projected unitary
            if qubits is None:
                qubits = self.infer_qubits(schedule)
            if len(qubits) == 1:
                return self._single_qubit_channel(schedule, qubits[0], return_unitary=True)
            if len(qubits) == 2:
                return self._two_qubit_channel(schedule, qubits, return_unitary=True)
            raise ValidationError("schedule_unitary supports 1 or 2 qubits")
        finally:
            self.options = saved

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _resample(self, samples: np.ndarray) -> np.ndarray:
        r = self.options.resample
        if r == 1:
            return samples
        n = samples.size
        pad = (-n) % r
        if pad:
            samples = np.concatenate([samples, np.zeros(pad, dtype=samples.dtype)])
        return samples.reshape(-1, r).mean(axis=1)

    def _frame_phases(self, schedule: Schedule, qubits: list[int]) -> dict[int, float]:
        """Final accumulated oscillator phase on each qubit's drive channel."""
        phases: dict[int, float] = {}
        for q in qubits:
            ch = DriveChannel(q)
            phase = 0.0
            events = sorted(
                (
                    (t, inst)
                    for t, inst in schedule.instructions
                    if inst.channel == ch and isinstance(inst, (ShiftPhase, SetPhase))
                ),
                key=lambda pair: pair[0],
            )
            for _, inst in events:
                if isinstance(inst, ShiftPhase):
                    phase += inst.phase
                else:
                    phase = inst.phase
            phases[q] = phase
        return phases

    def _frame_correction_unitary(self, schedule: Schedule, qubits: list[int]) -> np.ndarray | None:
        if not self.options.frame_correction:
            return None
        phases = self._frame_phases(schedule, qubits)
        if all(abs(p) < 1e-15 for p in phases.values()):
            return None
        corr = np.array([[1.0]], dtype=complex)
        for q in qubits:
            corr = np.kron(corr, rz_gate(-phases[q]))
        return corr

    def _single_qubit_channel(self, schedule: Schedule, qubit: int, return_unitary: bool = False) -> np.ndarray:
        opts = self.options
        props = self.properties.qubit(qubit)
        model = TransmonModel(props, levels=opts.levels_1q, use_true_detuning=True)
        duration = schedule.duration
        if duration == 0:
            # phase-only schedule (pure virtual Z): the channel is the frame correction
            corr = self._frame_correction_unitary(schedule, [qubit])
            u = np.eye(2, dtype=complex) if corr is None else corr
            return u if return_unitary else unitary_superop(u)
        samples = self._resample(schedule.channel_samples(DriveChannel(qubit), duration))
        dt_sim = self.properties.dt * opts.resample
        amps = np.vstack([samples.real, samples.imag])
        drift = model.drift_hamiltonian()
        controls = model.control_hamiltonians()
        levels = opts.levels_1q
        proj = computational_projector(levels, 1)

        if return_unitary or not opts.include_decoherence:
            u_full = pwc_total_propagator(drift, controls, amps, dt_sim)
            u_sub = proj @ u_full @ proj.conj().T
            corr = self._frame_correction_unitary(schedule, [qubit])
            if corr is not None:
                u_sub = corr @ u_sub
            return u_sub if return_unitary else unitary_superop(u_sub)

        c_ops = model.collapse_operators()
        s_full = pwc_liouvillian_total(drift, controls, amps, dt_sim, c_ops)
        s_sub = self._project_superop(s_full, levels, 1)
        corr = self._frame_correction_unitary(schedule, [qubit])
        if corr is not None:
            s_sub = unitary_superop(corr) @ s_sub
        return s_sub

    def _two_qubit_channel(self, schedule: Schedule, qubits: list[int], return_unitary: bool = False) -> np.ndarray:
        opts = self.options
        # Determine the (control, target) orientation from control channels if present.
        control, target = self._orient_pair(schedule, qubits)
        model = CrossResonanceModel(
            control=self.properties.qubit(control),
            target=self.properties.qubit(target),
            coupling_ghz=self.properties.coupling_strength,
            zz_crosstalk_ghz=self.properties.zz_crosstalk_ghz,
            include_detuning=True,
        )
        duration = schedule.duration
        corr_qubits = [control, target]
        if duration == 0:
            corr = self._frame_correction_unitary(schedule, corr_qubits)
            u = np.eye(4, dtype=complex) if corr is None else corr
            out = u if return_unitary else unitary_superop(u)
            return self._reorder_pair(out, (control, target), tuple(qubits), return_unitary)

        d_ctrl = self._resample(schedule.channel_samples(DriveChannel(control), duration))
        d_tgt = self._resample(schedule.channel_samples(DriveChannel(target), duration))
        u_samples = np.zeros_like(d_ctrl)
        for ch in schedule.channels:
            if isinstance(ch, ControlChannel):
                pair = self._u_to_pair.get(ch.index)
                if pair is None:
                    raise ValidationError(f"unknown control channel u{ch.index}")
                if pair == (control, target):
                    u_samples = u_samples + self._resample(schedule.channel_samples(ch, duration))
                elif pair == (target, control):
                    raise ValidationError(
                        "schedule drives the reversed cross-resonance channel "
                        f"u{ch.index}; build the schedule with control qubit {control}"
                    )
        dt_sim = self.properties.dt * opts.resample
        amps = np.vstack(
            [
                d_ctrl.real,
                d_tgt.real,
                u_samples.real,
                d_ctrl.imag,
                d_tgt.imag,
                u_samples.imag,
            ]
        )
        drift = model.drift_hamiltonian()
        controls = model.control_hamiltonians() + model.quadrature_control_hamiltonians()

        if return_unitary or not opts.include_decoherence:
            u_full = pwc_total_propagator(drift, controls, amps, dt_sim)
            corr = self._frame_correction_unitary(schedule, corr_qubits)
            if corr is not None:
                u_full = corr @ u_full
            out = u_full if return_unitary else unitary_superop(u_full)
        else:
            c_ops = model.collapse_operators()
            s_full = pwc_liouvillian_total(drift, controls, amps, dt_sim, c_ops)
            corr = self._frame_correction_unitary(schedule, corr_qubits)
            if corr is not None:
                s_full = unitary_superop(corr) @ s_full
            out = s_full
        return self._reorder_pair(out, (control, target), tuple(qubits), return_unitary)

    def _orient_pair(self, schedule: Schedule, qubits: list[int]) -> tuple[int, int]:
        for ch in schedule.channels:
            if isinstance(ch, ControlChannel):
                pair = self._u_to_pair.get(ch.index)
                if pair is not None and set(pair) == set(qubits):
                    return pair
        return (min(qubits), max(qubits))

    def _reorder_pair(
        self,
        channel: np.ndarray,
        current_order: tuple[int, int],
        desired_order: tuple[int, int],
        is_unitary: bool,
    ) -> np.ndarray:
        """Reorder the two tensor factors if the caller asked for the reverse order."""
        if tuple(current_order) == tuple(desired_order):
            return channel
        swap = np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
        if is_unitary:
            return swap @ channel @ swap
        s_swap = unitary_superop(swap)
        return s_swap @ channel @ s_swap

    @staticmethod
    def _project_superop(superop: np.ndarray, levels: int, n_qubits: int) -> np.ndarray:
        """Restrict a multi-level channel to the computational subspace.

        The restricted map is ``E_q(ρ) = P E(P† ρ P) P†`` with ``P`` the
        computational-subspace isometry; it is completely positive but only
        approximately trace-preserving when leakage occurs (the lost trace is
        exactly the leaked population).
        """
        if levels == 2:
            return superop
        proj = computational_projector(levels, n_qubits)
        lift = np.kron(proj.T, proj.conj().T)  # vec(P† ρ P)  = (P^T ⊗ P†) vec(ρ)
        drop = np.kron(proj.conj(), proj)  # vec(P σ P†) = (P* ⊗ P) vec(σ)
        return drop @ superop @ lift
