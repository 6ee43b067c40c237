"""Cross-point batched GRAPE: bit-identity and lockstep semantics.

The library's contract is that batching is a pure execution-strategy
change: every per-point result — optimizer iterates and final amplitudes —
is bit-identical to the per-point path.  These tests assert that contract
at each layer: the stacked evaluator vs the solo cost/gradient, and the
batch driver vs solo optimizations.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.grape import grape_cost_and_gradient
from repro.core.grape_batch import LockstepEvaluator, StackedClosedEvaluator
from repro.core.parametrization import TimeGrid, initial_amplitudes
from repro.experiments.gates import (
    GateExperimentConfig,
    optimize_gate_pulse,
    optimize_gate_pulse_batch,
)
from repro.qobj.gates import standard_gate_unitary
from repro.utils.validation import ValidationError


def _toy_model(d=3, n_ctrls=2, seed=0):
    rng = np.random.default_rng(seed)
    def herm():
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return (m + m.conj().T) / 2.0
    drift = herm()
    controls = [herm() for _ in range(n_ctrls)]
    targets = []
    for _ in range(4):
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        targets.append(q)
    return drift, controls, targets


class TestStackedClosedEvaluator:
    @pytest.mark.parametrize("subspace_dim", [None, 2])
    @pytest.mark.parametrize("gradient", ["exact", "approx"])
    def test_bit_identical_to_solo(self, subspace_dim, gradient):
        drift, controls, targets = _toy_model()
        dt, n_ts = 0.7, 9
        stacked = StackedClosedEvaluator(
            drift, controls, targets, dt,
            phase_option="PSU", gradient=gradient, subspace_dim=subspace_dim,
        )
        rng = np.random.default_rng(42)
        amps = [rng.normal(size=(len(controls), n_ts)) for _ in targets]
        batch = stacked.evaluate(amps, list(range(len(targets))))
        for a, target, (cost, grad) in zip(amps, targets, batch):
            solo_cost, solo_grad = grape_cost_and_gradient(
                drift, controls, a, dt, target,
                phase_option="PSU", gradient=gradient, subspace_dim=subspace_dim,
            )
            assert cost == solo_cost
            assert np.array_equal(grad, solo_grad)

    @pytest.mark.parametrize("gradient", ["exact", "approx"])
    def test_cached_einsum_path_bit_identical(self, gradient, monkeypatch):
        """The stacked pass on cached paths gives the bytes of ``optimize=True``."""
        import repro.core.grape_batch as batch_module

        drift, controls, targets = _toy_model(seed=5)
        stacked = StackedClosedEvaluator(drift, controls, targets, 0.6, gradient=gradient)
        rng = np.random.default_rng(11)
        amps = [rng.normal(size=(len(controls), 7)) for _ in targets]
        points = list(range(len(targets)))
        cached = stacked.evaluate(amps, points)
        monkeypatch.setattr(
            batch_module,
            "_einsum",
            lambda subscripts, *operands: np.einsum(subscripts, *operands, optimize=True),
        )
        for (cost, grad), (ref_cost, ref_grad) in zip(cached, stacked.evaluate(amps, points)):
            assert cost == ref_cost
            assert grad.tobytes() == ref_grad.tobytes()

    def test_partial_stack_still_bit_identical(self):
        drift, controls, targets = _toy_model(seed=3)
        stacked = StackedClosedEvaluator(drift, controls, targets, 0.5)
        rng = np.random.default_rng(7)
        amps = [rng.normal(size=(len(controls), 6)) for _ in range(2)]
        # evaluate a 2-point sub-stack of a 4-point evaluator
        batch = stacked.evaluate(amps, [1, 3])
        for a, idx, (cost, grad) in zip(amps, [1, 3], batch):
            solo_cost, solo_grad = grape_cost_and_gradient(
                drift, controls, a, 0.5, targets[idx], phase_option="PSU",
            )
            assert cost == solo_cost and np.array_equal(grad, solo_grad)

    def test_validation(self):
        drift, controls, targets = _toy_model()
        with pytest.raises(ValidationError):
            StackedClosedEvaluator(drift, controls, targets, 0.5, phase_option="XX")
        with pytest.raises(ValidationError):
            StackedClosedEvaluator(drift, controls, targets, 0.5, gradient="nope")
        with pytest.raises(ValidationError):
            StackedClosedEvaluator(drift, controls, [], 0.5)


class TestLockstepEvaluator:
    def test_retire_unblocks_survivors(self):
        drift, controls, targets = _toy_model(seed=5)
        stacked = StackedClosedEvaluator(drift, controls, targets[:2], 0.5)
        lockstep = LockstepEvaluator(stacked)
        rng = np.random.default_rng(1)
        amps = rng.normal(size=(len(controls), 6))
        out = {}

        def survivor():
            out["result"] = lockstep.for_point(0)(amps)

        thread = threading.Thread(target=survivor)
        thread.start()
        # point 0 is blocked until point 1 leaves the stack
        thread.join(timeout=0.3)
        assert thread.is_alive()
        lockstep.retire(1)
        thread.join(timeout=5)
        assert not thread.is_alive()
        cost, grad = out["result"]
        solo_cost, solo_grad = grape_cost_and_gradient(
            drift, controls, amps, 0.5, targets[0], phase_option="PSU",
        )
        assert cost == solo_cost and np.array_equal(grad, solo_grad)

    def test_error_fans_out_to_every_waiter(self):
        drift, controls, targets = _toy_model(seed=9)
        stacked = StackedClosedEvaluator(drift, controls, targets[:2], 0.5)
        lockstep = LockstepEvaluator(stacked)
        errors = []

        def point(i, amps):
            try:
                lockstep.for_point(i)(amps)
            except RuntimeError as exc:
                errors.append(exc)

        good = np.zeros((len(controls), 6))
        bad = np.zeros((len(controls) + 1, 6))  # control-count mismatch breaks the stack
        threads = [
            threading.Thread(target=point, args=(0, good)),
            threading.Thread(target=point, args=(1, bad)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert len(errors) == 2
        assert all(e.__cause__ is not None for e in errors)


class TestOptimizeGatePulseBatch:
    @pytest.fixture(scope="class")
    def configs(self):
        return [
            GateExperimentConfig(gate="x", qubits=(0,), duration_ns=105.0, n_ts=8,
                                 max_iter=30, seed=7),
            GateExperimentConfig(gate="sx", qubits=(0,), duration_ns=105.0, n_ts=8,
                                 max_iter=30, seed=11),
            GateExperimentConfig(gate="x", qubits=(0,), duration_ns=105.0, n_ts=8,
                                 max_iter=30, seed=23, init_pulse_type="RND"),
        ]

    def test_bit_identical_to_solo_runs(self, montreal_props, configs):
        solo = [optimize_gate_pulse(montreal_props, c) for c in configs]
        batch = optimize_gate_pulse_batch(montreal_props, configs)
        assert len(batch) == len(solo)
        for s, b in zip(solo, batch):
            assert np.array_equal(s.final_amps, b.final_amps)
            assert s.fid_err == b.fid_err
            assert s.fid_err_history == b.fid_err_history
            assert s.n_iter == b.n_iter and s.n_fun_evals == b.n_fun_evals
            assert s.termination_reason == b.termination_reason

    def test_mixed_models_fall_back_to_sequential(self, montreal_props, configs):
        mixed = [configs[0],
                 GateExperimentConfig(gate="x", qubits=(1,), duration_ns=105.0,
                                      n_ts=8, max_iter=30, seed=7)]
        fallback = optimize_gate_pulse_batch(montreal_props, mixed)
        solo = [optimize_gate_pulse(montreal_props, c) for c in mixed]
        for s, b in zip(solo, fallback):
            assert np.array_equal(s.final_amps, b.final_amps)

    def test_open_system_points_are_not_stacked(self, montreal_props):
        configs = [
            GateExperimentConfig(gate="x", qubits=(0,), duration_ns=60.0, n_ts=6,
                                 max_iter=5, seed=s, include_decoherence=True)
            for s in (1, 2)
        ]
        batch = optimize_gate_pulse_batch(montreal_props, configs)
        solo = [optimize_gate_pulse(montreal_props, c) for c in configs]
        for s, b in zip(solo, batch):
            assert np.array_equal(s.final_amps, b.final_amps)
