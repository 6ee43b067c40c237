"""Declarative, serializable experiment specifications.

A *spec* is a frozen dataclass describing one workload — a GRAPE pulse
optimization (:class:`GRAPESpec`), a standard RB run (:class:`RBSpec`), an
interleaved RB comparison (:class:`IRBSpec`), or a grid sweep over any spec
field (:class:`SweepSpec`).  Specs carry **no live objects**: devices are
named strings resolved through :func:`repro.devices.library.get_device`,
and a custom pulse calibration is declared as a *nested* :class:`GRAPESpec`
rather than a schedule — which is exactly what lets the session planner
fingerprint shared preparation (two IRB specs nesting the same GRAPE spec
share one optimization; see :mod:`repro.session.planner`).

Every spec round-trips through ``to_dict()`` / :func:`spec_from_dict` and
has a stable content :meth:`~ExperimentSpec.fingerprint` — the SHA-256 of
its canonical JSON form, following the content-addressing contract of
``docs/caching.md``: equal fingerprints ⇔ identical workloads, so specs
can be deduplicated, cached and referenced from result provenance.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import numbers
from dataclasses import dataclass, fields, replace
from typing import Any, ClassVar

from .loader import load_execution_modules
from ..utils.validation import ValidationError

__all__ = [
    "ExperimentSpec",
    "GRAPESpec",
    "OptimizerSpec",
    "RBSpec",
    "IRBSpec",
    "XEBSpec",
    "PurityRBSpec",
    "CycleBenchSpec",
    "SweepSpec",
    "DriftStudySpec",
    "spec_from_dict",
    "registered_spec_kinds",
    "OPTIMIZER_METHODS",
    "OPTIMIZER_METHOD_OPTIONS",
]

#: Registry of concrete spec classes by their ``kind`` tag (filled by
#: ``__init_subclass__``); drives :func:`spec_from_dict` dispatch.
_SPEC_KINDS: dict[str, type] = {}


def _jsonify(value: Any) -> Any:
    """Convert a spec field value into its canonical JSON form."""
    if isinstance(value, ExperimentSpec):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_jsonify(v) for v in value]
    if isinstance(value, (list, set)):
        raise ValidationError(
            f"spec fields must use tuples, not {type(value).__name__}: {value!r}"
        )
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ValidationError(f"spec field value is not JSON-serializable: {value!r}")


@dataclass(frozen=True)
class ExperimentSpec:
    """Base class of all experiment specifications.

    Concrete subclasses are frozen dataclasses tagged with a class-level
    ``kind`` string; they serialize with :meth:`to_dict`, deserialize with
    :func:`spec_from_dict` (or the subclass's :meth:`from_dict`), and are
    content-addressed by :meth:`fingerprint`.
    """

    #: Serialization tag; unique per concrete subclass.
    kind: ClassVar[str] = ""

    #: Whether the spec is a *container* over child specs (e.g. a sweep or
    #: a drift study).  Containers implement :meth:`expand`; the planner
    #: flattens them before planning and the session reassembles their
    #: aggregate result from the children.
    is_container: ClassVar[bool] = False

    def __init_subclass__(cls, **kwargs):
        """Register the subclass under its ``kind`` tag."""
        super().__init_subclass__(**kwargs)
        if cls.kind:
            _SPEC_KINDS[cls.kind] = cls

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """JSON-serializable dictionary form (tuples become lists).

        The inverse is :func:`spec_from_dict`, which dispatches on the
        embedded ``kind`` tag; ``spec_from_dict(spec.to_dict()) == spec``
        for every spec.
        """
        data: dict = {"kind": self.kind}
        for field in fields(self):
            data[field.name] = _jsonify(getattr(self, field.name))
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        """Rebuild a spec of this class from :meth:`to_dict` output.

        Rejects unknown keys with a :class:`ValidationError` (a
        ``ValueError``) naming both the offending and the known fields —
        a silently dropped key would deserialize to a *different* workload
        than the sender fingerprinted.
        """
        payload = {k: v for k, v in data.items() if k != "kind"}
        cls._check_unknown_keys(payload)
        return cls(**cls._convert_fields(payload))

    @classmethod
    def _check_unknown_keys(cls, payload: dict) -> None:
        """Reject payload keys that are not fields of this spec class."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValidationError(
                f"unknown field(s) {unknown} for spec kind {cls.kind!r}; "
                f"known fields: {sorted(known)}"
            )

    @classmethod
    def _convert_fields(cls, payload: dict) -> dict:
        """Hook: convert JSON field values back to constructor values."""
        return payload

    def expand(self) -> list["ExperimentSpec"]:
        """Concrete child specs of a container spec (containers only)."""
        raise ValidationError(f"spec kind {self.kind!r} is not a container")

    def fingerprint(self) -> str:
        """Stable SHA-256 content address of the spec.

        Hashes the canonical (sorted-keys, minimal-separator) JSON form of
        :meth:`to_dict`, so two specs with equal field values fingerprint
        identically regardless of construction order or object identity —
        the same contract as ``Schedule.fingerprint`` and
        ``BackendProperties.fingerprint`` (see ``docs/caching.md``).

        The digest is memoized on the instance: the spec is frozen and its
        fields are tuples and scalars, and a session asks for it several
        times per job (cache key, in-flight lock, trace, publication).
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            payload = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
            cached = hashlib.sha256(payload.encode()).hexdigest()
            # bypass the frozen-dataclass __setattr__ for the memo slot
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    def cache_fingerprint(self) -> str:
        """Fingerprint used as the result-cache key of the spec.

        :meth:`fingerprint` itself: every spec field changes what is
        computed (process fan-out is the session's, not the spec's).  The
        hook exists for :class:`OptimizerSpec`, whose key is that of its
        canonical pulse spec (see the result-cache contract in
        ``docs/caching.md``).
        """
        return self.fingerprint()


def spec_from_dict(data: dict) -> ExperimentSpec:
    """Rebuild any spec from its :meth:`~ExperimentSpec.to_dict` form.

    Parameters
    ----------
    data : dict
        Serialized spec with a ``kind`` tag.

    Returns
    -------
    ExperimentSpec
        The reconstructed spec (``spec_from_dict(s.to_dict()) == s``).

    Validation reaches the execution modules (a pulse spec builds its gate
    config), so they are loaded first, once, under the process-wide lock
    of :func:`~repro.session.loader.load_execution_modules`.
    """
    load_execution_modules()
    kind = data.get("kind")
    spec_cls = _SPEC_KINDS.get(kind)
    if spec_cls is None:
        raise ValidationError(
            f"unknown spec kind {kind!r}; known: {sorted(_SPEC_KINDS)}"
        )
    return spec_cls.from_dict(data)


def registered_spec_kinds() -> dict[str, type]:
    """A copy of the spec-kind registry (``kind`` tag → spec class).

    The conformance harness parametrizes over this, so every registered
    spec class — including future ones — gets the full contract battery
    simply by existing.
    """
    return dict(_SPEC_KINDS)


def _int_tuple(value) -> tuple[int, ...]:
    """``value`` as a tuple of ints, refusing anything a cast would change.

    Integral floats such as ``4.0`` pass; ``1.9`` or ``True`` raise instead
    of becoming ``1``, which would fingerprint as another spec.
    """
    out = []
    for item in value:
        if isinstance(item, bool) or not (
            isinstance(item, numbers.Integral)
            or (isinstance(item, numbers.Real) and float(item).is_integer())
        ):
            raise ValidationError(f"expected integers, got {item!r} in {value!r}")
        out.append(int(item))
    return tuple(out)


def _check_run_fields(spec) -> None:
    """Reject qubits, lengths, sequence counts and shots no run could use.

    Checks each field the spec has, at construction, so a service request
    fails validation instead of the queued job.
    """
    qubits = spec.qubits
    if len(set(qubits)) != len(qubits) or any(q < 0 for q in qubits):
        raise ValidationError(f"qubits must be distinct and non-negative, got {qubits}")
    for name in ("lengths", "depths"):
        values = getattr(spec, name, None)
        if values is not None and any(v < 1 for v in values):
            raise ValidationError(f"{name} must be >= 1, got {values}")
    for name in ("n_seeds", "n_circuits", "shots"):
        value = getattr(spec, name, 1)
        if value < 1:
            raise ValidationError(f"{name} must be >= 1, got {value}")


def _check_distinct_lengths(lengths: tuple[int, ...] | None) -> None:
    """Reject repeated sequence lengths (an IRB pass pairs one draw per length)."""
    if lengths is not None and len(set(lengths)) != len(lengths):
        raise ValidationError(f"sequence lengths must be distinct, got {lengths}")


_ENGINES = ("channels", "circuits")


def _check_engine_field(engine: str) -> str:
    if engine not in _ENGINES:
        raise ValidationError(f"engine must be one of {_ENGINES}, got {engine!r}")
    return engine


@dataclass(frozen=True)
class GRAPESpec(ExperimentSpec):
    """Declarative GRAPE pulse optimization for one gate on one device.

    Mirrors :class:`repro.experiments.gates.GateExperimentConfig` plus the
    target ``device`` name, so executing the spec is exactly
    ``optimize_gate_pulse(get_device(device), spec.gate_config())``
    followed by the schedule lowering — deterministic in the seed, which
    is what makes nested GRAPE specs shareable preparation artifacts.

    Attributes
    ----------
    device : str
        Fake-device name resolved via
        :func:`repro.devices.library.get_device` (e.g. ``"montreal"``).
    gate, qubits, duration_ns, n_ts, method, include_decoherence, \
    optimizer_levels, init_pulse_type, init_pulse_scale, amp_lbound, \
    amp_ubound, fid_err_targ, max_iter, seed
        As in :class:`~repro.experiments.gates.GateExperimentConfig`.
    """

    kind: ClassVar[str] = "grape"

    device: str = "montreal"
    gate: str = "x"
    qubits: tuple[int, ...] = (0,)
    duration_ns: float = 105.0
    n_ts: int = 12
    method: str = "LBFGS"
    include_decoherence: bool = False
    optimizer_levels: int = 3
    init_pulse_type: str = "DRAG"
    init_pulse_scale: float = 0.25
    amp_lbound: float = -(2.0**-0.5)
    amp_ubound: float = 2.0**-0.5
    fid_err_targ: float = 1e-10
    max_iter: int = 300
    seed: int | None = 1234

    def __post_init__(self):
        object.__setattr__(self, "qubits", _int_tuple(self.qubits))
        # validate eagerly by building the config once
        self.gate_config()

    def gate_config(self):
        """The equivalent :class:`GateExperimentConfig` (validates fields)."""
        from ..experiments.gates import GateExperimentConfig

        return GateExperimentConfig(
            gate=self.gate,
            qubits=self.qubits,
            duration_ns=self.duration_ns,
            n_ts=self.n_ts,
            method=self.method,
            include_decoherence=self.include_decoherence,
            optimizer_levels=self.optimizer_levels,
            init_pulse_type=self.init_pulse_type,
            init_pulse_scale=self.init_pulse_scale,
            amp_lbound=self.amp_lbound,
            amp_ubound=self.amp_ubound,
            fid_err_targ=self.fid_err_targ,
            max_iter=self.max_iter,
            seed=self.seed,
        )

    def canonical_pulse_spec(self) -> "GRAPESpec":
        """The canonical pulse-spec identity of this workload (itself)."""
        return self

    def method_options(self) -> dict:
        """Method-specific optimizer options (none for plain GRAPE specs)."""
        return {}


#: Optimizer methods selectable through :class:`OptimizerSpec` (lowercase
#: canonical form of :data:`repro.core.pulseoptim._METHODS`).
OPTIMIZER_METHODS = ("lbfgs", "grape", "spsa", "crab", "krotov", "goat")

#: Per-method option-block whitelists, mirroring exactly what
#: :func:`repro.core.pulseoptim.optimize_pulse_unitary` forwards to each
#: optimizer — an option outside the block would be silently ignored
#: there, so the spec rejects it eagerly instead.
OPTIMIZER_METHOD_OPTIONS: dict[str, tuple[str, ...]] = {
    "lbfgs": (),
    "grape": ("initial_step", "backtrack_factor", "max_backtracks"),
    "spsa": ("spsa_a", "spsa_c"),
    "crab": ("n_coeffs", "coeff_scale"),
    "krotov": ("lambda_step", "update_shape"),
    "goat": ("n_modes", "initial_theta"),
}


@dataclass(frozen=True)
class OptimizerSpec(ExperimentSpec):
    """Declarative pulse optimization under *any* of the core optimizers.

    Generalizes :class:`GRAPESpec` to the full optimizer zoo of
    :mod:`repro.core.pulseoptim` — ``lbfgs``, ``grape``, ``spsa``,
    ``crab``, ``krotov`` and ``goat`` — with a method-specific ``options``
    block validated against :data:`OPTIMIZER_METHOD_OPTIONS`.  Every
    method inherits the whole session machinery for free: deduplicated
    preparation, the ``pulses`` artifact namespace, result-cache replay,
    traces and service submission.

    ``OptimizerSpec(method="lbfgs")`` with an empty options block is the
    *same workload* as the equivalent legacy :class:`GRAPESpec`:
    :meth:`canonical_pulse_spec` normalizes it to that spec, and
    :meth:`cache_fingerprint` delegates to the canonical form — so the
    two spellings share one prep artifact, one pulse-cache entry and one
    result-cache entry, bit-identically.

    Attributes
    ----------
    device, gate, qubits, duration_ns, n_ts, include_decoherence, \
    optimizer_levels, init_pulse_type, init_pulse_scale, amp_lbound, \
    amp_ubound, fid_err_targ, max_iter, seed
        As in :class:`GRAPESpec`.
    method : str
        One of :data:`OPTIMIZER_METHODS` (lowercase canonical form).
    options : tuple of (str, value) pairs
        Method-specific optimizer options (constructor also accepts a
        ``dict``); names are validated against the method's whitelist.
    """

    kind: ClassVar[str] = "optimizer"

    device: str = "montreal"
    gate: str = "x"
    qubits: tuple[int, ...] = (0,)
    duration_ns: float = 105.0
    n_ts: int = 12
    method: str = "lbfgs"
    options: tuple[tuple[str, object], ...] = ()
    include_decoherence: bool = False
    optimizer_levels: int = 3
    init_pulse_type: str = "DRAG"
    init_pulse_scale: float = 0.25
    amp_lbound: float = -(2.0**-0.5)
    amp_ubound: float = 2.0**-0.5
    fid_err_targ: float = 1e-10
    max_iter: int = 300
    seed: int | None = 1234

    def __post_init__(self):
        object.__setattr__(self, "qubits", _int_tuple(self.qubits))
        method = str(self.method).lower()
        if method not in OPTIMIZER_METHODS:
            raise ValidationError(
                f"method must be one of {OPTIMIZER_METHODS}, got {self.method!r}"
            )
        object.__setattr__(self, "method", method)
        options = self.options
        if isinstance(options, dict):
            options = tuple(options.items())
        options = tuple((str(name), value) for name, value in options)
        allowed = OPTIMIZER_METHOD_OPTIONS[method]
        for name, value in options:
            if name not in allowed:
                raise ValidationError(
                    f"option {name!r} is not valid for method {method!r}; "
                    f"allowed: {sorted(allowed)}"
                )
            if not isinstance(value, (bool, int, float, str)):
                raise ValidationError(
                    f"option {name!r} must be a JSON scalar, got {type(value).__name__}"
                )
        if len({name for name, _ in options}) != len(options):
            raise ValidationError("duplicate option names in OptimizerSpec.options")
        object.__setattr__(self, "options", tuple(sorted(options)))
        if method == "krotov" and self.include_decoherence:
            raise ValidationError(
                "the Krotov implementation supports closed-system optimization only"
            )
        # validate the shared pulse-experiment fields eagerly
        self.gate_config()

    @classmethod
    def _convert_fields(cls, payload: dict) -> dict:
        if payload.get("options"):
            payload["options"] = tuple(
                (name, value) for name, value in payload["options"]
            )
        elif "options" in payload:
            payload["options"] = ()
        return payload

    def gate_config(self):
        """The equivalent :class:`GateExperimentConfig` (validates fields)."""
        from ..experiments.gates import GateExperimentConfig

        return GateExperimentConfig(
            gate=self.gate,
            qubits=self.qubits,
            duration_ns=self.duration_ns,
            n_ts=self.n_ts,
            method=self.method.upper(),
            include_decoherence=self.include_decoherence,
            optimizer_levels=self.optimizer_levels,
            init_pulse_type=self.init_pulse_type,
            init_pulse_scale=self.init_pulse_scale,
            amp_lbound=self.amp_lbound,
            amp_ubound=self.amp_ubound,
            fid_err_targ=self.fid_err_targ,
            max_iter=self.max_iter,
            seed=self.seed,
        )

    def canonical_pulse_spec(self) -> ExperimentSpec:
        """Normalize to the legacy :class:`GRAPESpec` when equivalent.

        ``method="lbfgs"`` with an empty options block computes exactly
        what the legacy spec computes, so it *is* that spec for artifact
        and cache purposes; any other method (or a non-empty options
        block) is its own identity.
        """
        if self.method == "lbfgs" and not self.options:
            return GRAPESpec(
                device=self.device,
                gate=self.gate,
                qubits=self.qubits,
                duration_ns=self.duration_ns,
                n_ts=self.n_ts,
                method="LBFGS",
                include_decoherence=self.include_decoherence,
                optimizer_levels=self.optimizer_levels,
                init_pulse_type=self.init_pulse_type,
                init_pulse_scale=self.init_pulse_scale,
                amp_lbound=self.amp_lbound,
                amp_ubound=self.amp_ubound,
                fid_err_targ=self.fid_err_targ,
                max_iter=self.max_iter,
                seed=self.seed,
            )
        return self

    def cache_fingerprint(self) -> str:
        """Result-cache key, delegated to the canonical pulse spec.

        An lbfgs ``OptimizerSpec`` and its equivalent legacy
        :class:`GRAPESpec` hit the **same** cache entry (and pulse-store
        key), proving the thin-alias contract with store counters.
        """
        canonical = self.canonical_pulse_spec()
        if canonical is not self:
            return canonical.cache_fingerprint()
        return super().cache_fingerprint()

    def method_options(self) -> dict:
        """The options block as a plain dict for the optimizer call."""
        return dict(self.options)


@dataclass(frozen=True)
class RBSpec(ExperimentSpec):
    """Declarative standard randomized-benchmarking run.

    Attributes
    ----------
    device : str
        Fake-device name.
    qubits : tuple of int
        Benchmarked physical qubits (1 or 2).
    lengths : tuple of int, optional
        Sequence lengths (``None`` = qubit-count default).
    n_seeds, shots, seed
        As in :class:`~repro.benchmarking.rb.StandardRB`.
    engine : str
        ``"channels"`` (batched) or ``"circuits"`` (reference).
    """

    kind: ClassVar[str] = "rb"

    device: str = "montreal"
    qubits: tuple[int, ...] = (0,)
    lengths: tuple[int, ...] | None = None
    n_seeds: int = 3
    shots: int = 512
    seed: int | None = None
    engine: str = "channels"

    def __post_init__(self):
        object.__setattr__(self, "qubits", _int_tuple(self.qubits))
        if self.lengths is not None:
            object.__setattr__(self, "lengths", _int_tuple(self.lengths))
        _check_distinct_lengths(self.lengths)
        _check_run_fields(self)
        if len(self.qubits) not in (1, 2):
            raise ValidationError(f"RB supports 1 or 2 qubits, got {self.qubits}")


@dataclass(frozen=True)
class IRBSpec(ExperimentSpec):
    """Declarative interleaved-RB comparison of one gate.

    The interleaved gate's custom pulse — the paper's optimized-pulse
    mechanism — is declared as a nested :class:`GRAPESpec` in
    ``calibration``; ``None`` benchmarks the backend-default gate.  Because
    the calibration is itself a fingerprintable spec, a custom-vs-default
    IRB pair *plus* the histogram workload all planning-share one pulse
    optimization.

    Attributes
    ----------
    device : str
        Fake-device name.
    gate : str
        Interleaved Clifford gate name (``x``, ``sx``, ``h``, ``cx``).
    qubits : tuple of int
        Benchmarked physical qubits.
    lengths, n_seeds, shots, seed
        As in :class:`~repro.benchmarking.irb.InterleavedRBExperiment`.
    calibration : GRAPESpec or OptimizerSpec, optional
        Custom pulse for the interleaved gate (``None`` = default gate).
    engine : str
        ``"channels"`` or ``"circuits"``.
    """

    kind: ClassVar[str] = "irb"

    device: str = "montreal"
    gate: str = "x"
    qubits: tuple[int, ...] = (0,)
    lengths: tuple[int, ...] | None = None
    n_seeds: int = 3
    shots: int = 512
    seed: int | None = None
    calibration: GRAPESpec | OptimizerSpec | None = None
    engine: str = "channels"

    def __post_init__(self):
        object.__setattr__(self, "qubits", _int_tuple(self.qubits))
        if self.lengths is not None:
            object.__setattr__(self, "lengths", _int_tuple(self.lengths))
        _check_distinct_lengths(self.lengths)
        _check_run_fields(self)
        if len(self.qubits) not in (1, 2):
            raise ValidationError(f"IRB supports 1 or 2 qubits, got {self.qubits}")
        if self.calibration is not None and not isinstance(
            self.calibration, (GRAPESpec, OptimizerSpec)
        ):
            raise ValidationError(
                "calibration must be a GRAPESpec, an OptimizerSpec or None, "
                f"got {type(self.calibration).__name__}"
            )

    @classmethod
    def _convert_fields(cls, payload: dict) -> dict:
        if payload.get("calibration") is not None:
            calibration = payload["calibration"]
            if not isinstance(calibration, dict) or "kind" not in calibration:
                raise ValidationError(
                    "IRBSpec.calibration must be a serialized spec dict with "
                    f"a 'kind' tag, got {calibration!r}"
                )
            payload["calibration"] = spec_from_dict(calibration)
        return payload


@dataclass(frozen=True)
class XEBSpec(ExperimentSpec):
    """Declarative cross-entropy benchmarking (linear XEB) run.

    Random circuits are words of uniformly drawn Clifford elements (no
    recovery); the linear cross-entropy fidelity is estimated per depth
    from measured bitstrings against the ideal output distribution, and
    the per-depth fidelities are fit to an exponential decay whose base is
    the layer fidelity.  The ``channels`` engine composes cached
    per-Clifford superoperators; ``circuits`` executes each random
    circuit on the pulse backend — the two are asserted equivalent (the
    PR 1 engine contract; see ``docs/protocols.md``).

    Attributes
    ----------
    device : str
        Fake-device name.
    qubits : tuple of int
        Benchmarked physical qubits (1 or 2).
    depths : tuple of int, optional
        Circuit depths (``None`` = default ``(1, 2, 4, 8, 16)``).
    n_circuits : int
        Random circuits per depth.
    shots, seed
        Sampling controls (as in :class:`RBSpec`).
    engine : str
        ``"channels"`` (batched) or ``"circuits"`` (reference).
    """

    kind: ClassVar[str] = "xeb"

    device: str = "montreal"
    qubits: tuple[int, ...] = (0,)
    depths: tuple[int, ...] | None = None
    n_circuits: int = 8
    shots: int = 512
    seed: int | None = None
    engine: str = "channels"

    def __post_init__(self):
        object.__setattr__(self, "qubits", _int_tuple(self.qubits))
        if self.depths is not None:
            object.__setattr__(self, "depths", _int_tuple(self.depths))
            if len(self.depths) < 3:
                raise ValidationError(
                    f"XEB needs at least 3 depths for the decay fit, got {self.depths}"
                )
        _check_run_fields(self)
        if len(self.qubits) not in (1, 2):
            raise ValidationError(f"XEB supports 1 or 2 qubits, got {self.qubits}")
        _check_engine_field(self.engine)


@dataclass(frozen=True)
class PurityRBSpec(ExperimentSpec):
    """Declarative purity randomized benchmarking (unitarity) run.

    Runs standard RB sequences *without* recovery or sampling: the output
    state's purity ``Tr(ρ²)`` is computed analytically from the composed
    noisy channel, and the shifted purity decays as ``u^m`` where ``u`` is
    the unitarity of the average per-Clifford noise.  The ``channels``
    engine composes cached superoperator tables; ``circuits`` rebuilds
    each sequence as a circuit and extracts its channel directly.

    Attributes
    ----------
    device : str
        Fake-device name.
    qubits : tuple of int
        Benchmarked physical qubits (1 or 2).
    lengths : tuple of int, optional
        Sequence lengths (``None`` = qubit-count RB default).
    n_seeds : int
        Random sequences per length.
    seed : int, optional
        Sequence-sampling seed.
    engine : str
        ``"channels"`` (batched) or ``"circuits"`` (reference).
    """

    kind: ClassVar[str] = "purity_rb"

    device: str = "montreal"
    qubits: tuple[int, ...] = (0,)
    lengths: tuple[int, ...] | None = None
    n_seeds: int = 3
    seed: int | None = None
    engine: str = "channels"

    def __post_init__(self):
        object.__setattr__(self, "qubits", _int_tuple(self.qubits))
        if self.lengths is not None:
            object.__setattr__(self, "lengths", _int_tuple(self.lengths))
        _check_distinct_lengths(self.lengths)
        _check_run_fields(self)
        if len(self.qubits) not in (1, 2):
            raise ValidationError(
                f"purity RB supports 1 or 2 qubits, got {self.qubits}"
            )
        _check_engine_field(self.engine)


@dataclass(frozen=True)
class CycleBenchSpec(ExperimentSpec):
    """Declarative cycle benchmarking of one interleaved cycle.

    Twirls the cycle (a named gate, e.g. ``x`` or ``cx``) with random
    Pauli layers: each sequence alternates a uniformly drawn Pauli with
    the cycle, closes with the exact inverse of the whole word, and the
    survival decay rate gives the error per twirled cycle.  Pauli layers
    are located inside the Clifford group, so both engines reuse the
    cached per-Clifford channel tables and the standard RB executor.

    Attributes
    ----------
    device : str
        Fake-device name.
    gate : str
        The cycle gate (``x``, ``sx``, ``h``, ``cx``).
    qubits : tuple of int
        Benchmarked physical qubits (2 required for ``cx``, else 1).
    lengths : tuple of int, optional
        Twirl counts (``None`` = qubit-count RB default).
    n_seeds, shots, seed
        As in :class:`RBSpec`.
    engine : str
        ``"channels"`` (batched) or ``"circuits"`` (reference).
    """

    kind: ClassVar[str] = "cycle"

    device: str = "montreal"
    gate: str = "x"
    qubits: tuple[int, ...] = (0,)
    lengths: tuple[int, ...] | None = None
    n_seeds: int = 3
    shots: int = 512
    seed: int | None = None
    engine: str = "channels"

    def __post_init__(self):
        object.__setattr__(self, "qubits", _int_tuple(self.qubits))
        if self.lengths is not None:
            object.__setattr__(self, "lengths", _int_tuple(self.lengths))
        _check_distinct_lengths(self.lengths)
        _check_run_fields(self)
        expected = 2 if self.gate == "cx" else 1
        if len(self.qubits) != expected:
            raise ValidationError(
                f"cycle benchmarking of {self.gate!r} needs {expected} qubit(s), "
                f"got {self.qubits}"
            )
        _check_engine_field(self.engine)


@dataclass(frozen=True)
class SweepSpec(ExperimentSpec):
    """Grid sweep over any fields of a base spec.

    ``grid`` maps field names of ``base`` to value tuples; :meth:`expand`
    yields one concrete spec per grid point (Cartesian product, fields
    varying in ``grid`` insertion order, last field fastest).  Useful for
    length scans, seed ensembles, drift-snapshot sweeps or gate-set
    comparisons — and because the expansion is just specs, the session
    planner dedupes shared preparation across the whole grid.

    Attributes
    ----------
    base : ExperimentSpec
        The spec each grid point is derived from (not a ``SweepSpec``).
    grid : tuple of (str, tuple) pairs
        Field name → values.  Constructor also accepts a ``dict``.
    """

    kind: ClassVar[str] = "sweep"
    is_container: ClassVar[bool] = True

    base: ExperimentSpec = None  # type: ignore[assignment]
    grid: tuple[tuple[str, tuple], ...] = ()

    def __post_init__(self):
        if not isinstance(self.base, ExperimentSpec) or self.base.is_container:
            raise ValidationError("SweepSpec.base must be a concrete (non-container) spec")
        grid = self.grid
        if isinstance(grid, dict):
            grid = tuple((name, tuple(values)) for name, values in grid.items())
        else:
            grid = tuple((name, tuple(values)) for name, values in grid)
        if not grid:
            raise ValidationError("SweepSpec.grid must name at least one field")
        base_fields = {f.name for f in fields(self.base)}
        for name, values in grid:
            if name not in base_fields:
                raise ValidationError(
                    f"SweepSpec.grid names unknown field {name!r} of {self.base.kind!r}"
                )
            if not values:
                raise ValidationError(f"SweepSpec.grid field {name!r} has no values")
        object.__setattr__(self, "grid", grid)

    def to_dict(self) -> dict:
        """Serialize with the base spec nested and the grid as pairs."""
        return {
            "kind": self.kind,
            "base": self.base.to_dict(),
            "grid": [[name, [_jsonify(v) for v in values]] for name, values in self.grid],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        """Rebuild a sweep (and its nested base spec) from dict form.

        Unknown keys are rejected (they used to be silently dropped here,
        deserializing to a different workload than the sender
        fingerprinted); missing ``base``/``grid`` raise a clear error.
        """
        payload = {k: v for k, v in data.items() if k != "kind"}
        cls._check_unknown_keys(payload)
        for required in ("base", "grid"):
            if required not in payload:
                raise ValidationError(
                    f"SweepSpec dict is missing required field {required!r}"
                )
        base = spec_from_dict(payload["base"])
        grid = tuple(
            (name, tuple(tuple(v) if isinstance(v, list) else v for v in values))
            for name, values in payload["grid"]
        )
        return cls(base=base, grid=grid)

    def expand(self) -> list[ExperimentSpec]:
        """Concrete specs of every grid point (Cartesian product)."""
        names = [name for name, _ in self.grid]
        axes = [values for _, values in self.grid]
        out: list[ExperimentSpec] = []
        for point in itertools.product(*axes):
            out.append(replace(self.base, **dict(zip(names, point))))
        return out

    def payload_header(self) -> dict:
        """Container-payload fields placed alongside ``children``."""
        return {
            "grid": [[name, [_jsonify(v) for v in values]] for name, values in self.grid]
        }

    def __len__(self) -> int:
        """Number of grid points."""
        total = 1
        for _, values in self.grid:
            total *= len(values)
        return total


@dataclass(frozen=True)
class DriftStudySpec(ExperimentSpec):
    """Time series of one child spec re-run under drifted calibrations.

    Spec-ifies :func:`repro.experiments.drift.run_drift_study`: the child
    ``base`` spec is executed once per simulated calendar day, with day
    ``d > 0`` targeting the drifted device
    ``drift_device_name(base.device, drift_seed, d)`` (resolved through
    :class:`repro.devices.drift.CalibrationDriftModel`, deterministic in
    ``drift_seed``).  Day 0 runs the nominal device *unchanged*, so it
    cache-shares with any standalone run of ``base`` — per-snapshot cache
    reuse exactly like :class:`SweepSpec`'s ``cached_points``.

    Attributes
    ----------
    base : ExperimentSpec
        The per-snapshot workload (a concrete spec with a ``device``
        field, not a container).
    n_days : int
        Number of daily snapshots, day 0 = nominal calibration.
    drift_seed : int
        Seed of the deterministic drift model.
    """

    kind: ClassVar[str] = "drift_study"
    is_container: ClassVar[bool] = True

    base: ExperimentSpec = None  # type: ignore[assignment]
    n_days: int = 5
    drift_seed: int = 7

    def __post_init__(self):
        if not isinstance(self.base, ExperimentSpec) or self.base.is_container:
            raise ValidationError(
                "DriftStudySpec.base must be a concrete (non-container) spec"
            )
        if not any(f.name == "device" for f in fields(self.base)):
            raise ValidationError(
                f"DriftStudySpec.base kind {self.base.kind!r} has no 'device' field"
            )
        if "@drift" in getattr(self.base, "device"):
            raise ValidationError(
                "DriftStudySpec.base must target a nominal device, "
                f"got {self.base.device!r}"
            )
        if self.n_days < 1:
            raise ValidationError(f"n_days must be positive, got {self.n_days}")
        if self.drift_seed < 0:
            raise ValidationError(f"drift_seed must be >= 0, got {self.drift_seed}")

    @classmethod
    def _convert_fields(cls, payload: dict) -> dict:
        if "base" not in payload:
            raise ValidationError(
                "DriftStudySpec dict is missing required field 'base'"
            )
        if not isinstance(payload["base"], dict) or "kind" not in payload["base"]:
            raise ValidationError(
                "DriftStudySpec.base must be a serialized spec dict with a "
                f"'kind' tag, got {payload['base']!r}"
            )
        payload["base"] = spec_from_dict(payload["base"])
        return payload

    def expand(self) -> list[ExperimentSpec]:
        """One concrete child spec per day (day 0 = the base unchanged)."""
        from ..devices.library import drift_device_name

        out: list[ExperimentSpec] = [self.base]
        for day in range(1, self.n_days):
            out.append(
                replace(
                    self.base,
                    device=drift_device_name(self.base.device, self.drift_seed, day),
                )
            )
        return out

    def payload_header(self) -> dict:
        """Container-payload fields placed alongside ``children``."""
        return {"days": list(range(self.n_days)), "drift_seed": self.drift_seed}

    def __len__(self) -> int:
        """Number of daily snapshots."""
        return self.n_days
