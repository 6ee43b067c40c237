"""Cross-point batched GRAPE: bit-identity, lockstep semantics, planning.

The whole feature's contract is that batching is a pure execution-strategy
change: every per-point result — optimizer iterates, final amplitudes,
pulse-cache entries, session payloads — is bit-identical to the per-point
fan-out path.  These tests assert that contract at each layer: the stacked
evaluator vs the solo cost/gradient, the batch driver vs solo optimizations,
the planner's grouping, and a full session sweep under both modes.
"""

from __future__ import annotations

import json
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
from repro.session import Session
from repro.session.planner import grape_batching_enabled, plan_specs
from repro.session.specs import GRAPESpec, SweepSpec
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


class TestPlannerBatching:
    def _sweep(self, **base_overrides):
        base = GRAPESpec(device="montreal", gate="x", qubits=(0,), duration_ns=105.0,
                         n_ts=8, seed=7, **base_overrides)
        return SweepSpec(base=base, grid={"seed": (7, 11, 23)})

    def test_batchable_sweep_plans_one_batch_step(self):
        plan = plan_specs([self._sweep()])
        kinds = [s.kind for s in plan.steps]
        assert kinds.count("grape_batch") == 1
        assert kinds.count("grape") == 3
        batch = next(s for s in plan.steps if s.kind == "grape_batch")
        # the batch step orders before its member grape steps
        assert kinds.index("grape_batch") < kinds.index("grape")
        assert len(batch.payload) == 3
        assert sorted(plan.consumers[batch.key]) == [0, 1, 2]

    def test_open_system_and_non_lbfgs_points_stay_solo(self):
        for sweep in (self._sweep(include_decoherence=True), self._sweep(method="GRAPE")):
            plan = plan_specs([sweep])
            assert all(s.kind != "grape_batch" for s in plan.steps)

    def test_flag_and_env_gate(self, monkeypatch):
        plan = plan_specs([self._sweep()], batch_grape=False)
        assert all(s.kind != "grape_batch" for s in plan.steps)
        monkeypatch.setenv("REPRO_GRAPE_BATCH", "0")
        assert not grape_batching_enabled()
        assert not grape_batching_enabled(True)  # env always wins
        plan = plan_specs([self._sweep()])
        assert all(s.kind != "grape_batch" for s in plan.steps)
        monkeypatch.delenv("REPRO_GRAPE_BATCH")
        assert grape_batching_enabled()
        assert not grape_batching_enabled(False)


def _scrub(obj):
    """Drop run-volatile payload fields (wall clocks, store locations)."""
    if isinstance(obj, dict):
        return {
            k: _scrub(v)
            for k, v in obj.items()
            if k not in ("timings", "store_root", "wall_time", "trace")
        }
    if isinstance(obj, list):
        return [_scrub(v) for v in obj]
    return obj


class TestSessionBatchedSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return SweepSpec(
            base=GRAPESpec(device="montreal", gate="x", qubits=(0,), duration_ns=105.0,
                           n_ts=8, max_iter=25, seed=7),
            grid={"seed": (7, 11), "init_pulse_scale": (0.25, 0.4)},
        )

    def _run(self, sweep, root, batch):
        with Session(store=root, num_workers=1, trace_sink=False, grape_batch=batch) as s:
            result = s.run_all([sweep])[0]
            stats = s.stats_snapshot()
            fps = {
                point.fingerprint(): s.store.pulse_key(
                    point.cache_fingerprint(), s.properties_fingerprint_for(point.device)
                )
                for point in sweep.expand()
            }
            pulses = {fp: s.store.load_pulse(key) for fp, key in fps.items()}
        return result, stats, fps, pulses

    def test_batched_sweep_bit_identical_to_fan_out(self, sweep, tmp_path):
        r_off, st_off, keys_off, pulses_off = self._run(sweep, tmp_path / "off", False)
        r_on, st_on, keys_on, pulses_on = self._run(sweep, tmp_path / "on", True)
        # identical per-point payloads (wall clocks and paths scrubbed)
        assert json.dumps(_scrub(r_off.payload), sort_keys=True, default=str) == \
               json.dumps(_scrub(r_on.payload), sort_keys=True, default=str)
        # identical pulse-cache keys and stored amplitudes
        assert keys_off == keys_on
        for fp, pulse in pulses_off.items():
            assert pulse is not None and pulses_on[fp] is not None
            assert np.array_equal(pulse.final_amps, pulses_on[fp].final_amps)
            assert pulse.fid_err == pulses_on[fp].fid_err
        # both modes execute every point exactly once
        assert st_off["executions"] == st_on["executions"] == 4

    def test_warm_replay_after_batched_run(self, sweep, tmp_path):
        root = tmp_path / "warm"
        cold, _, _, pulses_cold = self._run(sweep, root, True)
        warm, stats, _, pulses_warm = self._run(sweep, root, True)
        assert stats["executions"] == 0
        # provenance legitimately differs (the replay records cache hits);
        # the experiment payloads must not
        def payload_only(obj):
            if isinstance(obj, dict):
                return {k: payload_only(v) for k, v in _scrub(obj).items() if k != "provenance"}
            if isinstance(obj, list):
                return [payload_only(v) for v in obj]
            return obj

        cold_children = [payload_only(c) for c in cold.payload["children"]]
        warm_children = [payload_only(c) for c in warm.payload["children"]]
        assert json.dumps(cold_children, sort_keys=True, default=str) == \
               json.dumps(warm_children, sort_keys=True, default=str)
        for fp, pulse in pulses_cold.items():
            assert np.array_equal(pulse.final_amps, pulses_warm[fp].final_amps)
