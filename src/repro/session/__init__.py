"""Declarative experiment sessions: specs, planning, execution, results.

The paper's deliverable is a *suite* of experiments (Figs. 1–8, Table I);
this package is the one way to run them — specs built by the constructors
in :mod:`repro.experiments`, run by a :class:`Session`:

* :mod:`~repro.session.specs` — frozen, serializable experiment
  specifications (:class:`GRAPESpec`, :class:`OptimizerSpec`,
  :class:`RBSpec`, :class:`IRBSpec`, :class:`XEBSpec`,
  :class:`PurityRBSpec`, :class:`CycleBenchSpec`, and the containers
  :class:`SweepSpec` / :class:`DriftStudySpec`) with
  ``to_dict``/``from_dict`` round-trips and content fingerprints,
* :mod:`~repro.session.planner` — the pure cross-experiment planner that
  fingerprints each spec's preparation needs and deduplicates shared
  artifacts (Clifford groups, device backends, GRAPE pulses, channel
  tables) across a batch,
* :mod:`~repro.session.session` — :class:`Session`, owning the backends,
  the persistent store and the process pool; ``submit(spec)`` returns a
  future, ``run_all(specs)`` plans jointly and fans out,
* :mod:`~repro.session.results` — the uniform :class:`ExperimentResult`
  (payload + provenance manifest) with lossless JSON save/load.

See ``docs/sessions.md`` for the full API guide.
"""

from .planner import (
    PrepStep,
    SessionPlan,
    expand_specs,
    plan_specs,
    prep_steps_for,
    register_spec_planner,
)
from .results import ExperimentResult
from .session import Session
from .specs import (
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
    registered_spec_kinds,
    spec_from_dict,
)

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
    "ExperimentResult",
    "Session",
    "SessionPlan",
    "PrepStep",
    "plan_specs",
    "prep_steps_for",
    "register_spec_planner",
    "expand_specs",
]
