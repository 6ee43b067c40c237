"""Single-qubit gate calibration campaign (X, √X, H) with interleaved RB.

Reproduces the workflow behind Figs. 3–5 and the single-qubit rows of
Table I: for each gate, optimize a custom pulse from the backend's reported
calibration, replace the default gate with it, and characterize both with
interleaved randomized benchmarking on the simulated ibmq_montreal /
ibmq_toronto devices.  The campaign is the X 105 ns, √X 162 ns and H 28 ns
rows of Table I, run as spec triples through one session.

Run with:  python examples/single_qubit_gate_calibration.py          (fast)
           python examples/single_qubit_gate_calibration.py --full   (better statistics)
"""

from __future__ import annotations

import argparse

from repro.experiments import gate_histogram, table1_row_specs
from repro.experiments.table1 import TABLE1_ROWS
from repro.session import Session

CAMPAIGN = (("x", 105.0), ("sx", 162.0), ("h", 28.0))


def main(full: bool = False) -> None:
    rows = [row for row in TABLE1_ROWS if (row["gate"], row["duration_ns"]) in CAMPAIGN]
    triples = [table1_row_specs(row, fast=not full, seed=2022) for row in rows]

    print(f"{'gate':<5}{'device':<11}{'duration':>9}  {'custom IRB':>13}  {'default IRB':>13}  {'improvement':>12}")
    print("-" * 72)
    with Session(store=None, num_workers=1, seed=2022) as session:
        results = session.run_all(
            [triple[key] for triple in triples for key in ("grape", "custom_irb", "default_irb")]
        )
        for position, (row, triple) in enumerate(zip(rows, triples)):
            pulse, custom, default = results[3 * position : 3 * position + 3]
            improvement = 1.0 - custom["gate_error"] / default["gate_error"]
            print(
                f"{row['gate']:<5}{row['device']:<11}{row['duration_ns']:>7.0f}ns  "
                f"{custom['gate_error']:>9.2e}±{custom['gate_error_std']:.0e}  "
                f"{default['gate_error']:>9.2e}±{default['gate_error_std']:.0e}  "
                f"{improvement * 100:>11.0f}%"
            )
            grape = triple["grape"]
            histogram = gate_histogram(
                session.backend_for(grape.device), grape.gate, grape.qubits,
                schedule=session.schedule_for(grape), shots=2000, seed=2022,
            )
            probabilities = dict(sorted(histogram.probabilities().items()))
            print(f"      histogram after custom {grape.gate}: {probabilities}")
            print(
                f"      exact channel errors: custom {pulse['custom_channel_error']:.2e}, "
                f"default {pulse['default_channel_error']:.2e}"
            )
    print("\n(The paper's Table I values are in repro.experiments.TABLE1_PAPER_VALUES.)")


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--full", action="store_true", help="use publication-quality RB statistics")
    main(parser.parse_args().full)
