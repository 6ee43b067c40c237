"""Cross-experiment preparation planning.

A batch of specs submitted to a :class:`~repro.session.session.Session`
usually shares expensive preparation: Figs. 3 and 4 both benchmark qubit 0
of montreal, so they need the *same* single-qubit Clifford channel table; a
custom-vs-default IRB pair nests the same GRAPE spec, so they need one
pulse optimization; every spec of a sweep shares its device backend.  PR 1
and PR 2 deduplicated this work *within* one experiment (gate-channel
cache, persistent store); the planner deduplicates it *across*
experiments.

The planner is deliberately **pure**: :func:`plan_specs` inspects spec
fields only — it builds nothing, imports no backend, and runs in
microseconds.  It emits build-ordered :class:`PrepStep` descriptors
keyed by content (device name, qubit tuple, GRAPE-spec fingerprint), each
listing its consumer specs; the session executes each step exactly once
(guarded by per-key locks for concurrent ``submit()``) before fanning the
experiments out.  The plan is wired, not run: the session decides where
each step runs.  It sends the ``grape`` and ``grape_batch`` steps to its
process pool, largest first, and builds the rest on its own thread
meanwhile; a spec that needs a pulse waits only for its own step.

With a ``store`` attached the planner is additionally **cache-aware**:
specs whose result is already in the store's ``results`` namespace (keyed
by spec cache-fingerprint × device properties fingerprint — see
``docs/caching.md``) are marked in :attr:`SessionPlan.cached` and removed
from every step's consumer list; a step whose every consumer is cached is
dropped entirely, so a fully warm batch plans **zero** preparation and a
partially warm one prepares only what its cold specs need (sweeps resolve
at per-point granularity this way).  The cache probe reads device
properties through :func:`repro.devices.library.get_device` — static
calibration data, no backend is built.

Step kinds, in build order (:attr:`SessionPlan.steps`; the GRAPE steps
largest first):

``backend``
    Instantiate the device's :class:`~repro.backend.backend.PulseBackend`.
``grape_batch``
    Stack the cold points of a batchable GRAPE group (same device, qubits,
    grid and model class — only initial conditions and targets differ) into
    one cross-point optimization pass (see
    :mod:`repro.core.grape_batch`); bit-identical to the per-point path,
    gated by ``$REPRO_GRAPE_BATCH`` / ``plan_specs(batch_grape=...)``.
``grape``
    Run one pulse optimization (on the session's process pool) and lower
    it to a schedule.
``group``
    Enumerate (or load from the store) the n-qubit Clifford group.
``table``
    Build the per-Clifford channel table of one (device, qubit-tuple),
    covering the union of element indices every consumer's sequences
    touch — with a persistent store attached this is the single write the
    store counters observe.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .specs import ExperimentSpec, GRAPESpec
from ..utils.validation import ValidationError

__all__ = [
    "PrepStep",
    "SessionPlan",
    "plan_specs",
    "expand_specs",
    "prep_steps_for",
    "register_spec_planner",
    "grape_batching_enabled",
    "GRAPE_BATCH_ENV",
]

#: Environment switch of cross-point GRAPE batching (default on).
GRAPE_BATCH_ENV = "REPRO_GRAPE_BATCH"

_FALSY = {"0", "false", "no", "off"}

#: Build phase of each preparation kind.  Backends go first: a GRAPE step
#: needs its device's properties.  The GRAPE steps, which a session runs on
#: its process pool, go next, so the pool starts before the session builds
#: the groups and tables on its own thread.
_KIND_PHASE = {"backend": 0, "grape_batch": 1, "grape": 1, "group": 2, "table": 3}


def grape_batching_enabled(flag: bool | None = None) -> bool:
    """Resolve the GRAPE-batching switch from an argument and the environment.

    Mirrors :func:`repro.store.results.result_cache_enabled`: batching is on
    by default, ``flag=False`` (``Session(grape_batch=False)`` /
    ``plan_specs(batch_grape=False)``) disables it, and
    ``$REPRO_GRAPE_BATCH=0`` always wins so a per-point baseline can be
    forced without touching code.
    """
    env = os.environ.get(GRAPE_BATCH_ENV)
    env_ok = env is None or env.strip().lower() not in _FALSY
    flag_ok = True if flag is None else bool(flag)
    return env_ok and flag_ok


@dataclass(frozen=True)
class PrepStep:
    """One shared preparation artifact to build exactly once.

    Attributes
    ----------
    key : tuple
        Hashable content key, e.g. ``("table", "montreal", (0,))`` or
        ``("grape", "<fingerprint>")``.  Two specs needing the same key
        share one build.
    kind : str
        ``"group"`` | ``"backend"`` | ``"grape"`` | ``"table"``.
    detail : str
        Human-readable description (for logs and plan reprs).
    payload : object, optional
        Kind-specific build input — for ``grape`` steps, the
        :class:`~repro.session.specs.GRAPESpec` itself (its fingerprint is
        already in the key, so equal keys imply equal payloads).
    """

    key: tuple
    kind: str
    detail: str
    payload: object = None


@dataclass
class SessionPlan:
    """Deduplicated, ordered preparation plan for a batch of specs.

    Attributes
    ----------
    specs : list of ExperimentSpec
        The flat (sweep-expanded) spec list the plan covers.
    steps : list of PrepStep
        Dependency-ordered unique preparation steps.
    consumers : dict
        ``step.key`` → indices into :attr:`specs` that need the step.
    cached : list of int
        Indices into :attr:`specs` whose result is already in the store's
        result cache (only populated when planning with a ``store``); the
        steps those specs would have needed are dropped unless an uncached
        spec also needs them.
    """

    specs: list[ExperimentSpec]
    steps: list[PrepStep] = field(default_factory=list)
    consumers: dict[tuple, list[int]] = field(default_factory=dict)
    cached: list[int] = field(default_factory=list)

    @property
    def shared_steps(self) -> list[PrepStep]:
        """Steps consumed by more than one spec (the dedup payoff)."""
        return [s for s in self.steps if len(self.consumers.get(s.key, ())) > 1]

    def describe(self) -> str:
        """Multi-line human-readable plan summary."""
        cached = f", {len(self.cached)} cached" if self.cached else ""
        lines = [f"session plan: {len(self.specs)} spec(s), {len(self.steps)} prep step(s){cached}"]
        for step in self.steps:
            users = len(self.consumers.get(step.key, ()))
            shared = f" [shared x{users}]" if users > 1 else ""
            lines.append(f"  - {step.kind}: {step.detail}{shared}")
        return "\n".join(lines)


def _canonical_device(device: str) -> str:
    """Canonical device key — delegates to the device registry's aliasing."""
    from ..devices.library import canonical_device_name

    return canonical_device_name(device)


def expand_specs(specs) -> list[ExperimentSpec]:
    """Flatten containers (sweeps, drift studies) into concrete specs.

    Recursive, so a container whose ``expand()`` ever yields another
    container still flattens fully; non-containers pass through.
    """
    flat: list[ExperimentSpec] = []
    for spec in specs:
        if spec.is_container:
            flat.extend(expand_specs(spec.expand()))
        else:
            flat.append(spec)
    return flat


#: Per-kind prep planners (``spec.kind`` → planner callable); filled by
#: :func:`register_spec_planner`.  New spec kinds plug in here and inherit
#: dedup, cache-aware planning and session execution without touching
#: :func:`plan_specs`.
_SPEC_PLANNERS: dict[str, object] = {}


def register_spec_planner(*kinds: str):
    """Decorator registering a planner callable for one or more spec kinds."""

    def decorator(fn):
        for kind in kinds:
            _SPEC_PLANNERS[kind] = fn
        return fn

    return decorator


def prep_steps_for(spec: ExperimentSpec) -> list[PrepStep]:
    """The preparation steps one concrete spec needs, in build order."""
    if spec.is_container:
        raise ValidationError("expand containers before planning (see expand_specs)")
    planner = _SPEC_PLANNERS.get(spec.kind)
    if planner is None:
        raise ValidationError(
            f"cannot plan spec of kind {getattr(spec, 'kind', '?')!r}; "
            f"registered: {sorted(_SPEC_PLANNERS)}"
        )
    return planner(spec)


def _backend_step(device: str) -> PrepStep:
    return PrepStep(
        key=("backend", device), kind="backend", detail=f"PulseBackend({device})"
    )


def _pulse_step(spec: ExperimentSpec) -> PrepStep:
    """The shared ``grape`` step of a pulse spec, keyed canonically.

    Keys on :meth:`canonical_pulse_spec`'s fingerprint, so an lbfgs
    ``OptimizerSpec`` and its equivalent legacy ``GRAPESpec`` share one
    optimization artifact — the thin-alias contract.
    """
    canonical = spec.canonical_pulse_spec()
    device = _canonical_device(canonical.device)
    method = getattr(canonical, "method", "LBFGS")
    return PrepStep(
        key=("grape", canonical.fingerprint()),
        kind="grape",
        detail=(
            f"optimize {canonical.gate} ({canonical.duration_ns:g} ns, "
            f"{str(method).lower()}) on {device}"
        ),
        payload=canonical,
    )


@register_spec_planner("grape", "optimizer")
def _plan_pulse_spec(spec) -> list[PrepStep]:
    device = _canonical_device(spec.device)
    return [_backend_step(device), _pulse_step(spec)]


@register_spec_planner("rb", "irb")
def _plan_rb_spec(spec) -> list[PrepStep]:
    device = _canonical_device(spec.device)
    n_qubits = len(spec.qubits)
    steps: list[PrepStep] = [
        PrepStep(
            key=("group", n_qubits),
            kind="group",
            detail=f"{n_qubits}-qubit Clifford group",
        ),
        _backend_step(device),
    ]
    calibration = getattr(spec, "calibration", None)
    if calibration is not None:
        calibration_device = _canonical_device(calibration.device)
        if calibration_device != device:
            steps.append(_backend_step(calibration_device))
        steps.append(_pulse_step(calibration))
    steps.append(
        PrepStep(
            key=("table", device, spec.qubits),
            kind="table",
            detail=f"Clifford channel table {device} q{list(spec.qubits)}",
        )
    )
    return steps


@register_spec_planner("xeb", "purity_rb", "cycle")
def _plan_protocol_spec(spec) -> list[PrepStep]:
    device = _canonical_device(spec.device)
    n_qubits = len(spec.qubits)
    return [
        PrepStep(
            key=("group", n_qubits),
            kind="group",
            detail=f"{n_qubits}-qubit Clifford group",
        ),
        _backend_step(device),
        PrepStep(
            key=("table", device, spec.qubits),
            kind="table",
            detail=f"Clifford channel table {device} q{list(spec.qubits)}",
        ),
    ]


def _grape_group_key(spec: GRAPESpec) -> tuple:
    """Model-identity key of a GRAPE spec for cross-point batching.

    Two specs with equal keys share the exact same drift/control
    Hamiltonians and slot grid: the optimizer model depends only on the
    device calibration, the qubit tuple, the transmon level count and the
    gate *class* (every single-qubit gate uses the same Duffing model; CX
    uses the CR model, and its two-qubit tuple already separates it).
    Seeds, initial-pulse shapes, amplitude bounds, stopping criteria and
    the target gate itself may all differ — they only change initial
    conditions and targets, which the stacked evaluator carries per point.
    """
    return (
        _canonical_device(spec.device),
        spec.qubits,
        spec.duration_ns,
        spec.n_ts,
        spec.optimizer_levels,
        spec.gate.lower() == "cx",
    )


def _batchable_grape(spec: GRAPESpec) -> bool:
    """Whether a GRAPE spec is eligible for the stacked closed-system pass."""
    return spec.method.upper() == "LBFGS" and not spec.include_decoherence


def _grape_batch_steps(
    steps: dict[tuple, PrepStep], consumers: dict[tuple, list[int]]
) -> None:
    """Group batchable ``grape`` steps into ``grape_batch`` steps (in place).

    Groups of ≥2 model-identical points get one ``grape_batch`` step whose
    payload is the member spec tuple and whose consumers are the union of
    the members'.  The per-point ``grape`` steps stay in the plan — they
    order *after* the batch step, find their artifact already registered,
    and keep the per-point keys (and hence pulse-cache entries and
    provenance) exactly as the fan-out path produces them.
    """
    groups: dict[tuple, list[PrepStep]] = {}
    for step in steps.values():
        if step.kind != "grape":
            continue
        spec = step.payload
        if isinstance(spec, GRAPESpec) and _batchable_grape(spec):
            groups.setdefault(_grape_group_key(spec), []).append(step)
    for group_key, members in groups.items():
        if len(members) < 2:
            continue
        members = sorted(members, key=lambda s: s.key)
        key = ("grape_batch", tuple(step.key[1] for step in members))
        specs = tuple(step.payload for step in members)
        device, qubits = group_key[0], group_key[1]
        steps[key] = PrepStep(
            key=key,
            kind="grape_batch",
            detail=f"stack {len(members)} pulse optimizations on {device} q{list(qubits)}",
            payload=specs,
        )
        merged: list[int] = []
        for step in members:
            for position in consumers.get(step.key, []):
                if position not in merged:
                    merged.append(position)
        consumers[key] = merged


def _device_properties_fingerprint(device: str) -> str:
    """Properties fingerprint of a named device (no backend is built)."""
    from ..devices.library import get_device

    return get_device(device).fingerprint()


def plan_specs(specs, store=None, properties_fingerprint=None, batch_grape=None) -> SessionPlan:
    """Build the deduplicated preparation plan of a batch of specs.

    Parameters
    ----------
    specs : iterable of ExperimentSpec
        Specs to plan (sweeps are expanded first).
    store : ArtifactStore, optional
        When given, each spec is probed against the store's result cache
        (``store.has_result``): cached specs are listed in
        :attr:`SessionPlan.cached`, dropped from every step's consumers,
        and steps left without consumers are dropped entirely — a fully
        warm batch plans zero preparation.
    properties_fingerprint : callable, optional
        ``device name -> properties fingerprint`` used for the cache
        probe.  Defaults to fingerprinting the library device; a session
        passes its own resolver so adopted backends are honoured.
    batch_grape : bool, optional
        Whether model-identical closed-system GRAPE points are grouped into
        ``grape_batch`` steps (see :func:`grape_batching_enabled`; the
        ``$REPRO_GRAPE_BATCH`` environment override always wins).

    Returns
    -------
    SessionPlan
        Unique steps in build order (backends, then GRAPE optimizations,
        largest first, then groups, then channel tables), each annotated
        with its consumer specs.
    """
    flat = expand_specs(specs)
    cached: list[int] = []
    if store is not None:
        resolver = properties_fingerprint or _device_properties_fingerprint
        # one resolver call per device per plan: the default resolver
        # rebuilds and re-hashes the whole calibration snapshot, which a
        # wide sweep would otherwise repeat once per grid point
        fingerprints: dict[str, str] = {}
        for position, spec in enumerate(flat):
            fp = fingerprints.get(spec.device)
            if fp is None:
                fp = resolver(spec.device)
                fingerprints[spec.device] = fp
            if store.has_result(spec.cache_fingerprint(), fp):
                cached.append(position)
    cached_set = set(cached)
    by_key: dict[tuple, PrepStep] = {}
    consumers: dict[tuple, list[int]] = {}
    for position, spec in enumerate(flat):
        if position in cached_set:
            continue
        for step in prep_steps_for(spec):
            by_key.setdefault(step.key, step)
            consumers.setdefault(step.key, []).append(position)
    if grape_batching_enabled(batch_grape):
        _grape_batch_steps(by_key, consumers)
    ordered = sorted(by_key.values(), key=_build_order)
    return SessionPlan(specs=flat, steps=ordered, consumers=consumers, cached=cached)


def _grape_cost(spec) -> int:
    """Rough work of one pulse optimization, to start the largest first.

    One cost evaluation multiplies ``n_ts`` propagators of dimension
    ``levels**n_qubits`` — superoperators, of squared dimension, when the
    model is open — so it scales as ``n_ts * dim**3``.
    """
    dim = spec.optimizer_levels ** len(spec.qubits)
    if spec.include_decoherence:
        dim *= dim
    return spec.n_ts * dim**3


def _build_order(step: PrepStep) -> tuple:
    """Sort key of a plan step: its kind's phase, then the largest GRAPE first.

    The longest optimization then starts at once.  A ``grape_batch`` step
    costs its members' sum, so it precedes the per-point ``grape`` steps of
    its members: the stacked pass registers their artifacts first, and the
    solo steps find them already built.
    """
    if step.kind == "grape":
        cost = _grape_cost(step.payload)
    elif step.kind == "grape_batch":
        cost = sum(_grape_cost(spec) for spec in step.payload)
    else:
        cost = 0
    return (_KIND_PHASE[step.kind], -cost, step.key)
