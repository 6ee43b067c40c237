"""Spec-conformance harness: the contract every registered spec obeys.

The session's spec registry (:func:`repro.session.specs.registered_spec_kinds`)
is open — new experiment kinds plug in with a dataclass, a planner entry and
an executor entry.  This harness is the other half of that bargain: one
:class:`SpecExample` per kind, plus check functions any spec class must pass:

* lossless ``to_dict`` → JSON → ``from_dict`` round-trips,
* :meth:`~repro.session.specs.ExperimentSpec.fingerprint` stability and
  per-field sensitivity,
* ``cache_fingerprint()`` equal to the fingerprint (no execution knobs),
* unknown-key rejection on every ``from_dict`` path,
* warm result-cache replay with **zero** executions and prep builds,
  proven by session and store counters (:func:`run_warm_replay_check`).

Checks raise plain ``AssertionError``/``ValidationError`` — no pytest
dependency — so :func:`run_warm_replay_check` can be driven headlessly from
a spawned subprocess (the multiprocessing start-method matrix) exactly as
from the parametrized test module.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace

from repro.session.results import ExperimentResult
from repro.session.specs import (
    CycleBenchSpec,
    DriftStudySpec,
    ExperimentSpec,
    GRAPESpec,
    IRBSpec,
    OptimizerSpec,
    PurityRBSpec,
    RBSpec,
    SweepSpec,
    XEBSpec,
    _SPEC_KINDS,
    registered_spec_kinds,
    spec_from_dict,
)
from repro.utils.validation import ValidationError

__all__ = [
    "EXAMPLES",
    "SpecExample",
    "check_cache_fingerprint_excludes_execution_knobs",
    "check_fingerprint_sensitivity",
    "check_fingerprint_stability",
    "check_roundtrip",
    "check_unknown_key_rejection",
    "run_contract_battery",
    "run_warm_replay_check",
    "temporary_spec_kind",
]


@dataclass
class SpecExample:
    """One registered kind's conformance workload.

    ``spec`` is a *tiny* but real instance (sub-second execution);
    ``alternates`` maps field names to a different valid value, proving
    the fingerprint is sensitive to each listed field.
    """

    spec: ExperimentSpec
    alternates: dict = field(default_factory=dict)


_TINY_GRAPE = GRAPESpec(
    device="montreal", gate="x", duration_ns=28.0, n_ts=6, max_iter=10, seed=11
)
_TINY_RB = RBSpec(
    device="montreal", qubits=(0,), lengths=(1, 2, 4), n_seeds=2, shots=50, seed=5
)

#: One example per registered spec kind — the conformance tests fail if a
#: kind exists without an entry here, so adding a spec class forces adding
#: its contract workload.
EXAMPLES: dict[str, SpecExample] = {
    "grape": SpecExample(
        spec=_TINY_GRAPE,
        alternates={"duration_ns": 42.0, "n_ts": 8, "seed": 12, "gate": "sx"},
    ),
    "optimizer": SpecExample(
        spec=OptimizerSpec(
            device="montreal", gate="x", duration_ns=28.0, n_ts=6,
            method="spsa", max_iter=5, seed=3,
        ),
        alternates={
            "method": "grape",
            "max_iter": 6,
            "options": (("spsa_a", 0.1),),
            "seed": 4,
        },
    ),
    "rb": SpecExample(
        spec=_TINY_RB,
        alternates={"shots": 60, "seed": 6, "lengths": (1, 2, 4, 8), "n_seeds": 3},
    ),
    "irb": SpecExample(
        spec=IRBSpec(
            device="montreal", gate="x", qubits=(0,),
            lengths=(1, 2, 4), n_seeds=2, shots=50, seed=5,
        ),
        alternates={"seed": 6, "gate": "sx", "calibration": _TINY_GRAPE},
    ),
    "xeb": SpecExample(
        # seed 1 keeps every depth non-degenerate (some ideal outputs of
        # random 1q Clifford words are uniform and carry no XEB signal)
        spec=XEBSpec(
            device="montreal", qubits=(0,), depths=(1, 2, 4),
            n_circuits=4, shots=50, seed=1,
        ),
        alternates={"n_circuits": 5, "seed": 3, "shots": 60},
    ),
    "purity_rb": SpecExample(
        spec=PurityRBSpec(
            device="montreal", qubits=(0,), lengths=(1, 2, 4), n_seeds=2, seed=7
        ),
        alternates={"seed": 8, "n_seeds": 3, "engine": "circuits"},
    ),
    "cycle": SpecExample(
        spec=CycleBenchSpec(
            device="montreal", gate="x", qubits=(0,),
            lengths=(1, 2, 4), n_seeds=2, shots=50, seed=7,
        ),
        alternates={"seed": 8, "shots": 60, "gate": "sx"},
    ),
    "sweep": SpecExample(
        spec=SweepSpec(base=_TINY_RB, grid={"seed": (5, 6)}),
        alternates={
            "grid": (("seed", (5, 7)),),
            "base": replace(_TINY_RB, shots=60),
        },
    ),
    "drift_study": SpecExample(
        spec=DriftStudySpec(base=_TINY_RB, n_days=2, drift_seed=7),
        alternates={
            "n_days": 3,
            "drift_seed": 8,
            "base": replace(_TINY_RB, shots=60),
        },
    ),
}


# ---------------------------------------------------------------------- #
# contract checks
# ---------------------------------------------------------------------- #
def check_roundtrip(spec: ExperimentSpec) -> None:
    """``to_dict`` → JSON text → ``from_dict`` is lossless."""
    data = spec.to_dict()
    assert data["kind"] == spec.kind
    wire = json.dumps(data)
    restored = spec_from_dict(json.loads(wire))
    assert restored == spec, f"{spec.kind}: JSON round-trip changed the spec"
    assert type(restored) is type(spec)
    assert restored.fingerprint() == spec.fingerprint()
    assert restored.cache_fingerprint() == spec.cache_fingerprint()


def check_fingerprint_stability(spec: ExperimentSpec) -> None:
    """Fingerprints are pure functions of field values."""
    assert spec.fingerprint() == spec.fingerprint()
    rebuilt = spec_from_dict(spec.to_dict())
    assert rebuilt.fingerprint() == spec.fingerprint()
    assert len(spec.fingerprint()) == 64  # SHA-256 hex


def check_fingerprint_sensitivity(example: SpecExample) -> None:
    """Each listed alternate value changes the fingerprint."""
    base_fp = example.spec.fingerprint()
    assert example.alternates, f"{example.spec.kind}: no alternates declared"
    for name, value in example.alternates.items():
        alt = replace(example.spec, **{name: value})
        assert alt.fingerprint() != base_fp, (
            f"{example.spec.kind}: fingerprint ignores field {name!r}"
        )


def check_cache_fingerprint_excludes_execution_knobs(spec: ExperimentSpec) -> None:
    """No spec carries an execution knob, so the cache key is the fingerprint.

    Process fan-out belongs to the ``Session``; a spec field that only
    changed *how* a spec runs would split (or have to be cut out of) the
    result-cache key.
    """
    names = {f.name for f in fields(spec)}
    assert "num_workers" not in names, f"{spec.kind}: num_workers is a session knob"
    assert spec.cache_fingerprint() == spec.fingerprint()


def check_unknown_key_rejection(spec: ExperimentSpec) -> None:
    """``from_dict`` rejects extra keys instead of silently dropping them."""
    data = spec.to_dict()
    data["definitely_not_a_spec_field"] = 1
    try:
        spec_from_dict(data)
    except ValidationError as exc:
        message = str(exc)
        assert "definitely_not_a_spec_field" in message, (
            f"{spec.kind}: rejection must name the offending key, got {message!r}"
        )
    else:
        raise AssertionError(
            f"{spec.kind}: from_dict accepted an unknown key (silently dropped "
            "keys deserialize to a different workload than the sender fingerprinted)"
        )


def run_contract_battery(example: SpecExample) -> None:
    """Every serialization/fingerprint check against one example."""
    check_roundtrip(example.spec)
    check_fingerprint_stability(example.spec)
    check_fingerprint_sensitivity(example)
    check_cache_fingerprint_excludes_execution_knobs(example.spec)
    check_unknown_key_rejection(example.spec)


# ---------------------------------------------------------------------- #
# warm-replay conformance (headless: drivable from a spawned subprocess)
# ---------------------------------------------------------------------- #
def _payload_fingerprint(payload: dict) -> str:
    return ExperimentResult(kind="probe", spec={}, payload=payload).payload_fingerprint()


def run_warm_replay_check(kind: str, root) -> dict:
    """Cold-run a kind's example into ``root``, re-run warm, assert zero work.

    Returns the warm session's counter snapshot (for reporting).  The
    assertions are the result-cache contract: a second session over the
    same store serves the identical payload with **zero** executions and
    **zero** prep builds; containers resolve every child from the cache.
    """
    from repro.session import Session

    example = EXAMPLES[kind]
    spec = example.spec
    with Session(store=str(root), num_workers=1) as cold_session:
        cold = cold_session.run(spec)
        assert cold_session.stats_snapshot()["executions"] >= 1
    with Session(store=str(root), num_workers=1) as warm_session:
        warm = warm_session.run(spec)
        stats = warm_session.stats_snapshot()
    assert stats["executions"] == 0, f"{kind}: warm replay executed ({stats})"
    assert stats["prep_builds"] == 0, f"{kind}: warm replay built prep ({stats})"
    if spec.is_container:
        assert warm.provenance["cached_points"] == warm.provenance["n_points"]
        cold_children = cold.payload["children"]
        warm_children = warm.payload["children"]
        assert len(cold_children) == len(warm_children)
        for cold_child, warm_child in zip(cold_children, warm_children):
            assert _payload_fingerprint(warm_child["payload"]) == _payload_fingerprint(
                cold_child["payload"]
            ), f"{kind}: warm child payload is not bit-identical"
    else:
        assert warm.cache_hit
        assert warm.payload_fingerprint() == cold.payload_fingerprint(), (
            f"{kind}: warm payload is not bit-identical"
        )
    return stats


# ---------------------------------------------------------------------- #
# negative control
# ---------------------------------------------------------------------- #
@contextmanager
def temporary_spec_kind(cls: type):
    """Register a spec class for one block, then scrub the registry.

    Defining an ``ExperimentSpec`` subclass auto-registers its ``kind``;
    tests that declare throwaway (including deliberately broken) spec
    classes wrap the definition's use in this context manager so the
    global registry — and every ``registered_spec_kinds()`` parametrize —
    stays clean afterwards.
    """
    assert cls.kind in _SPEC_KINDS, f"{cls.kind!r} never registered"
    try:
        yield cls
    finally:
        _SPEC_KINDS.pop(cls.kind, None)
        assert cls.kind not in registered_spec_kinds()
