"""The paper's claims, checked on the specs that reproduce them.

One :class:`~repro.session.session.Session` runs every Fig. 1–8 / Table I
spec once (seed 2022, fast mode; 28 after deduplication by fingerprint).
The tests read their payloads, and take the histograms of Figs. 3–6 from
the session's shared backends and pulses.  The claims, with the
parameters each figure was generated with:

* optimized X, √X and short-H pulses beat the default gates (Figs. 3–4,
  Table I),
* the long 267 ns H and the CX do not (Figs. 5–8, Table I),
* L-BFGS-B beats SPSA (Section II) and the design-choice ablations keep
  their direction (exact gradients converge, error grows with duration,
  the leakage-aware model is not worse, daily re-optimization tracks
  drift).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import QuantumCircuit, transpile
from repro.experiments import gate_histogram, generate_table1, optimizer_comparison_specs, run_drift_study
from repro.experiments.figures import (
    fig1_spec,
    fig2_spec,
    fig3_specs,
    fig4_specs,
    fig5_specs,
    fig6_specs,
    fig7_spec,
    fig8_specs,
)
from repro.experiments.optimizers import ablation_duration_sweep, ablation_gradient
from repro.experiments.table1 import TABLE1_ROWS, table1_row_specs
from repro.pulse.channels import DriveChannel
from repro.session import GRAPESpec, Session

SEED = 2022

#: Fig. 3 error rates (custom, default) of the seed-2022 fast batch; the
#: reproduction must stay within ±20% of them.
FIG3_ERROR_RATES = (4.3747e-4, 3.0212e-3)


def _paper_specs() -> list:
    """Every Fig. / Table I spec at the paper seed, deduplicated (28)."""
    specs = [fig1_spec(SEED), fig2_spec(SEED), fig7_spec(SEED)]
    for triple in (fig3_specs(SEED), fig4_specs(SEED), fig5_specs(SEED), fig8_specs(SEED)):
        specs.extend(triple.values())
    specs.extend(fig6_specs(SEED).values())
    for row in TABLE1_ROWS:
        specs.extend(table1_row_specs(row, seed=SEED).values())
    return list({spec.fingerprint(): spec for spec in specs}.values())


@pytest.fixture(scope="module")
def paper(tmp_path_factory):
    """``(session, result_of)`` after one run of the whole paper batch.

    The store lets Table I's own batch replay from the result cache.
    """
    specs = _paper_specs()
    assert len(specs) == 28
    store = tmp_path_factory.mktemp("paper-store")
    with Session(store=store, num_workers=1, seed=SEED) as session:
        results = dict(zip((s.fingerprint() for s in specs), session.run_all(specs)))
        yield session, lambda spec: results[spec.fingerprint()]


def _histogram(session, grape: GRAPESpec, shots: int, seed: int, custom: bool = True):
    return gate_histogram(
        session.backend_for(grape.device),
        grape.gate,
        grape.qubits,
        schedule=session.schedule_for(grape) if custom else None,
        shots=shots,
        seed=seed,
    )


def _irb_errors(result_of, specs: dict) -> tuple[float, float]:
    return result_of(specs["custom_irb"])["gate_error"], result_of(specs["default_irb"])["gate_error"]


def test_fig1_pulses(paper):
    _, result_of = paper
    result = result_of(fig1_spec(SEED))
    assert result["fid_err"] < 5e-3
    assert result["final_amps"][0].shape == result["initial_amps"][0].shape


def test_fig2_schedule(paper):
    session, _ = paper
    spec = fig2_spec(SEED)
    schedule = session.schedule_for(spec)
    props = session.backend_for(spec.device).properties
    assert schedule.channel_samples(DriveChannel(0)).size == schedule.duration
    # "confirmed in the transpiling process": the custom x survives as-is
    circuit = QuantumCircuit(1)
    circuit.x(0)
    circuit.add_calibration("x", (0,), schedule)
    circuit.measure(0, 0)
    transpiled = transpile(circuit, coupling=props.coupling)
    assert ("x", (0,)) in transpiled.calibrations
    assert schedule.duration * props.dt > 90


def test_fig3_irb(paper):
    session, result_of = paper
    specs = fig3_specs(SEED)
    custom, default = _irb_errors(result_of, specs)
    assert custom < default
    for measured, baseline in zip((custom, default), FIG3_ERROR_RATES):
        assert measured == pytest.approx(baseline, rel=0.2)
    histogram = _histogram(session, specs["grape"], shots=4000, seed=SEED)
    assert histogram.probabilities().get("1", 0.0) > 0.8


def test_fig4_irb(paper):
    session, result_of = paper
    specs = fig4_specs(SEED)
    custom, default = _irb_errors(result_of, specs)
    assert custom < default
    p1 = _histogram(session, specs["grape"], shots=4000, seed=SEED).probabilities().get("1", 0.0)
    assert 0.35 < p1 < 0.65  # approximately balanced superposition


def test_fig5_irb(paper):
    _, result_of = paper
    custom, default = _irb_errors(result_of, fig5_specs(SEED))
    # the 267 ns custom H does NOT beat the default
    assert custom > 0.5 * default


@pytest.mark.parametrize("device", ["boeblingen", "rome"])
def test_fig6_histograms(paper, device):
    session, _ = paper
    spec = fig6_specs(SEED)[device]
    custom_p11 = _histogram(session, spec, shots=3000, seed=SEED).probability("11")
    default_p11 = _histogram(session, spec, shots=3000, seed=SEED + 1, custom=False).probability("11")
    assert 0.6 < custom_p11 < 0.98
    # little-to-no improvement over the default CX
    assert abs(custom_p11 - default_p11) < 0.15


def test_fig7_schedule(paper):
    session, result_of = paper
    spec = fig7_spec(SEED)
    assert result_of(spec)["fid_err"] < 1e-3
    props = session.backend_for(spec.device).properties
    assert session.schedule_for(spec).duration * props.dt > 1000


def test_fig8_irb(paper):
    _, result_of = paper
    custom, default = _irb_errors(result_of, fig8_specs(SEED))
    # same (1e-2) order and close: no dramatic improvement, as in the paper
    assert 0.0 < custom < 0.08
    assert 0.0 < default < 0.08
    assert abs(custom - default) < 0.05


def test_table1_error_rates(paper):
    session, _ = paper
    rows = generate_table1(session, fast=True, seed=SEED)
    assert len(rows) == 7
    by_key = {(row.gate, row.duration_ns): row for row in rows}
    for key in (("x", 105.0), ("x", 56.0), ("sx", 162.0), ("sx", 31.0), ("h", 28.0)):
        assert by_key[key].custom_channel_error < by_key[key].default_channel_error, key
    # the long 2-level-optimized H shows no significant improvement
    long_h = by_key[("h", 267.0)]
    assert long_h.custom_channel_error > 0.6 * long_h.default_channel_error


def test_optimizer_comparison_lbfgs_beats_spsa(paper):
    session, _ = paper
    specs = optimizer_comparison_specs(
        gate="x",
        methods=("lbfgs", "grape", "spsa", "crab", "krotov", "goat"),
        n_ts=12,
        duration_ns=105.0,
        max_iter=150,
        seed=SEED,
    )
    fid_err = {spec.method: result["fid_err"] for spec, result in zip(specs, session.run_all(specs))}
    assert fid_err["lbfgs"] < fid_err["spsa"]
    assert fid_err["lbfgs"] < 1e-8


def test_ablation_gradient():
    out = ablation_gradient(gate="x", duration_ns=105.0, n_ts=12, seed=SEED)
    assert out["exact"]["fid_err"] < 1e-8


def test_ablation_duration_sweep():
    out = ablation_duration_sweep(
        gate="x", durations_ns=(28.0, 56.0, 105.0, 162.0, 267.0), n_ts=10, seed=SEED
    )
    assert out["device_channel_error"][-1] > out["device_channel_error"][1]


def test_ablation_optimizer_levels(paper):
    """2-level (paper-faithful) vs 3-level (leakage-aware) 162 ns √X."""
    session, _ = paper
    specs = [
        GRAPESpec(
            device="montreal", gate="sx", qubits=(0,), duration_ns=162.0, n_ts=14,
            optimizer_levels=levels, include_decoherence=False, max_iter=150, seed=SEED,
        )
        for levels in (2, 3)
    ]
    two_level, three_level = (r["custom_channel_error"] for r in session.run_all(specs))
    # the leakage-aware optimization must not be worse on the device
    assert three_level <= two_level * 1.2


def test_drift_study_daily_tracks_drift():
    result = run_drift_study(
        gate="x", n_days=4, duration_ns=105.0, n_ts=12, drift_seed=7, seed=SEED,
        histogram_shots=1500,
    )
    summary = result.summary()
    assert summary["mean_channel_error_daily"] <= summary["mean_channel_error_once"] * 1.5
    assert np.all(result.channel_error_daily > 0)
