"""Tests for the experiment pipeline steps (gate pipeline, Table I, drift, optimizer comparison).

These are integration-level tests; they use reduced sequence lengths, seeds
and shots so the whole file stays within a couple of minutes, while still
exercising the full optimize → lower → execute → benchmark pipeline.
"""

import numpy as np
import pytest

from repro.experiments import (
    GateExperimentConfig,
    gate_histogram,
    generate_table1,
    format_table1,
    optimize_gate_pulse,
    optimizer_comparison_specs,
    pulse_schedule_from_result,
    run_drift_study,
)
from repro.experiments.optimizers import ablation_duration_sweep, ablation_gradient, ablation_open_vs_closed
from repro.experiments.table1 import TABLE1_PAPER_VALUES, TABLE1_ROWS, Table1Row
from repro.pulse.channels import ControlChannel, DriveChannel
from repro.qobj import average_gate_fidelity, x_gate
from repro.session import GRAPESpec, IRBSpec, Session, spec_from_dict
from repro.utils.validation import ValidationError


class TestGateExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            GateExperimentConfig(gate="t")
        with pytest.raises(ValidationError):
            GateExperimentConfig(gate="cx", qubits=(0,))
        with pytest.raises(ValidationError):
            GateExperimentConfig(gate="x", qubits=(0,), duration_ns=-1)

    @pytest.mark.parametrize("duration", [float("nan"), float("inf")])
    def test_non_finite_duration_rejected(self, duration):
        with pytest.raises(ValidationError, match="finite"):
            GateExperimentConfig(gate="x", qubits=(0,), duration_ns=duration)
        with pytest.raises(ValidationError, match="finite"):
            spec_from_dict({"kind": "grape", "duration_ns": duration})


class TestGatePipeline:
    @pytest.fixture(scope="class")
    def x_experiment(self, montreal_props):
        config = GateExperimentConfig(
            gate="x", qubits=(0,), duration_ns=105.0, n_ts=10, include_decoherence=False,
            max_iter=80, seed=7,
        )
        opt = optimize_gate_pulse(montreal_props, config)
        sched = pulse_schedule_from_result(montreal_props, config, opt)
        return config, opt, sched

    def test_optimization_quality(self, x_experiment):
        _, opt, _ = x_experiment
        assert opt.fid_err < 1e-6

    def test_schedule_duration_matches_config(self, x_experiment, montreal_props):
        config, _, sched = x_experiment
        expected_samples = montreal_props.samples_for_duration(config.duration_ns)
        assert abs(sched.duration - expected_samples) <= config.n_ts

    def test_schedule_on_drive_channel(self, x_experiment):
        _, _, sched = x_experiment
        assert DriveChannel(0) in sched.channels

    def test_custom_pulse_beats_default_on_device(self, x_experiment, backend):
        _, _, sched = x_experiment
        custom = backend.simulator.schedule_channel(sched, qubits=[0])
        custom_err = 1 - average_gate_fidelity(custom, x_gate())
        default_err = 1 - average_gate_fidelity(backend.gate_channel("x", (0,)), x_gate())
        assert custom_err < default_err

    def test_histogram_mostly_excited(self, x_experiment, backend):
        _, _, sched = x_experiment
        res = gate_histogram(backend, "x", (0,), schedule=sched, shots=2000, seed=5)
        assert 0.8 < res.probability("1") < 0.97

    def test_cx_schedule_uses_three_channels(self, montreal_props):
        config = GateExperimentConfig(
            gate="cx", qubits=(0, 1), duration_ns=1193.0, n_ts=16, optimizer_levels=2,
            init_pulse_type="GAUSSIAN_SQUARE", init_pulse_scale=0.1, max_iter=250, seed=3,
        )
        opt = optimize_gate_pulse(montreal_props, config)
        sched = pulse_schedule_from_result(montreal_props, config, opt)
        kinds = {type(ch) for ch in sched.channels}
        assert ControlChannel in kinds and DriveChannel in kinds
        assert opt.fid_err < 1e-3

    def test_gate_pipeline_end_to_end(self):
        grape = GRAPESpec(
            device="montreal", gate="x", qubits=(0,), duration_ns=56.0, n_ts=8,
            include_decoherence=False, max_iter=60, seed=11,
        )
        irb = dict(device="montreal", gate="x", qubits=(0,), lengths=(1, 12, 36, 72),
                   n_seeds=3, shots=300, seed=11)
        with Session(store=None, num_workers=1) as session:
            pulse, custom, default = session.run_all(
                [grape, IRBSpec(calibration=grape, **irb), IRBSpec(calibration=None, **irb)]
            )
            histogram = gate_histogram(
                session.backend_for("montreal"), "x", (0,),
                schedule=session.schedule_for(grape), shots=800, seed=11,
            )
        assert pulse["custom_channel_error"] < pulse["default_channel_error"]
        assert np.isfinite(custom["gate_error"]) and default["gate_error"] > 0
        assert histogram.probability("1") > 0.8


class TestTable1:
    def test_paper_values_cover_all_rows(self):
        assert len(TABLE1_PAPER_VALUES) == 7
        assert len(TABLE1_ROWS) == 7

    def test_single_row_generation_and_formatting(self):
        with Session(store=None, num_workers=1) as session:
            rows = generate_table1(session, rows=[TABLE1_ROWS[1]], fast=True, seed=5)
        assert len(rows) == 1
        row = rows[0]
        assert isinstance(row, Table1Row)
        assert row.custom_channel_error < row.default_channel_error
        table = format_table1(rows)
        assert "x" in table and "paper" in table
        assert row.paper_values() == TABLE1_PAPER_VALUES[("x", 56.0)]


class TestDriftStudy:
    def test_three_day_study(self):
        result = run_drift_study(gate="x", n_days=3, duration_ns=56.0, n_ts=8, histogram_shots=500, seed=4)
        assert result.days.size == 3
        assert np.all(result.channel_error_once > 0)
        assert np.all(result.channel_error_daily > 0)
        summary = result.summary()
        assert summary["n_days"] == 3
        # re-optimizing daily should not be (much) worse on average than reusing day-0 pulses
        assert summary["mean_channel_error_daily"] <= summary["mean_channel_error_once"] * 1.5

    def test_cx_rejected(self):
        with pytest.raises(ValidationError):
            run_drift_study(gate="cx")


class TestOptimizerComparison:
    def test_lbfgs_wins_over_spsa(self):
        specs = optimizer_comparison_specs(
            gate="x", methods=("lbfgs", "spsa"), n_ts=8, duration_ns=80.0, max_iter=120, seed=3
        )
        assert [spec.method for spec in specs] == ["lbfgs", "spsa"]
        with Session(store=None, num_workers=1) as session:
            lbfgs, spsa = session.run_all(specs)
        assert lbfgs["fid_err"] < spsa["fid_err"]
        assert spsa["method"] == "SPSA" and spsa["n_fun_evals"] > 0

    def test_ablation_gradient(self):
        out = ablation_gradient(n_ts=8, duration_ns=80.0)
        assert out["exact"]["fid_err"] < 1e-6
        assert out["approx"]["fid_err"] < 1e-4

    def test_ablation_open_vs_closed(self, montreal_props):
        out = ablation_open_vs_closed(gate="sx", duration_ns=60.0, n_ts=8, properties=montreal_props)
        assert set(out) == {"closed", "open"}
        for branch in out.values():
            assert branch["device_channel_error"] < 0.05

    def test_ablation_duration_sweep_monotone_leakage(self, montreal_props):
        out = ablation_duration_sweep(gate="x", durations_ns=(56.0, 267.0), n_ts=8, properties=montreal_props)
        assert out["durations_ns"].size == 2
        # optimizer reports (near-)zero error for both durations...
        assert np.all(out["optimizer_fid_err"] < 1e-5)
        # ...but the device error grows with duration (decoherence + mismatch)
        assert out["device_channel_error"][1] > out["device_channel_error"][0]
