"""Spec constructors and pipeline steps reproducing the paper's evaluation.

Experiments run one way: build specs, then run them through a
:class:`~repro.session.session.Session`.  Each module maps onto a part of
the paper:

* :mod:`~repro.experiments.gates` — the per-gate pipeline steps the session
  calls (build Hamiltonian from backend data → `pulseoptim` → cast into a
  pulse schedule) and the output-state histogram of Figs. 3–6,
* :mod:`~repro.experiments.figures` — spec constructors for every figure,
* :mod:`~repro.experiments.table1` — the Table I sweep over gates and pulse
  durations,
* :mod:`~repro.experiments.drift` — the Section V calibration-drift study
  (optimize once vs optimize daily),
* :mod:`~repro.experiments.optimizers` — the Section II optimizer comparison
  (L-BFGS-B vs SPSA vs plain GRAPE vs CRAB) and the design-choice ablations.
"""

from .gates import (
    GateExperimentConfig,
    optimize_gate_pulse,
    pulse_schedule_from_result,
    gate_histogram,
)
from .table1 import Table1Row, generate_table1, format_table1, table1_row_specs, TABLE1_PAPER_VALUES
from .drift import DriftStudyResult, drift_study_spec, run_drift_study
from .optimizers import optimizer_comparison_specs

__all__ = [
    "GateExperimentConfig",
    "optimize_gate_pulse",
    "pulse_schedule_from_result",
    "gate_histogram",
    "Table1Row",
    "generate_table1",
    "format_table1",
    "table1_row_specs",
    "TABLE1_PAPER_VALUES",
    "DriftStudyResult",
    "drift_study_spec",
    "run_drift_study",
    "optimizer_comparison_specs",
]
