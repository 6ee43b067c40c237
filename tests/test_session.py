"""Tests for the declarative session layer (specs, planner, Session, results).

The load-bearing guarantees under test:

* spec ``to_dict``/``from_dict``/``fingerprint`` round-trips (including
  nested GRAPE calibrations and sweeps),
* the planner fingerprints preparation needs and deduplicates shared
  artifacts across a batch,
* concurrent ``submit()`` of overlapping specs builds each shared channel
  table **exactly once** (asserted through the store's write counters),
* session results are **bit-identical** to running the standalone
  experiment classes directly,
* :class:`ExperimentResult` JSON persistence is lossless.
"""

import json
from concurrent.futures import Future

import numpy as np
import pytest

from repro.backend import PulseBackend
from repro.benchmarking.irb import InterleavedRBExperiment
from repro.benchmarking.rb import StandardRB
from repro.circuits.gate import Gate
from repro.devices import fake_montreal
from repro.session import (
    ExperimentResult,
    GRAPESpec,
    IRBSpec,
    RBSpec,
    Session,
    SweepSpec,
    plan_specs,
    spec_from_dict,
)
from repro.store import ArtifactStore
from repro.utils import parallel
from repro.utils.validation import ValidationError

#: Small-but-real GRAPE workload reused across the session tests.
FAST_GRAPE = dict(
    device="montreal", gate="x", qubits=(0,), duration_ns=56.0, n_ts=8,
    include_decoherence=False, max_iter=60, seed=11,
)
#: Small-but-real IRB workload (a couple of seconds wall clock in total).
FAST_IRB = dict(
    device="montreal", gate="x", qubits=(0,), lengths=(1, 8, 16),
    n_seeds=2, shots=200, seed=11,
)


class TestSpecRoundTrips:
    def test_grape_round_trip(self):
        spec = GRAPESpec(**FAST_GRAPE)
        data = spec.to_dict()
        assert data["kind"] == "grape"
        back = spec_from_dict(json.loads(json.dumps(data)))
        assert back == spec
        assert back.fingerprint() == spec.fingerprint()

    def test_irb_round_trip_with_nested_calibration(self):
        spec = IRBSpec(calibration=GRAPESpec(**FAST_GRAPE), **FAST_IRB)
        back = spec_from_dict(json.loads(json.dumps(spec.to_dict())))
        assert back == spec
        assert back.calibration == spec.calibration
        assert back.fingerprint() == spec.fingerprint()

    def test_rb_round_trip(self):
        spec = RBSpec(device="montreal", qubits=(0,), lengths=(1, 4), n_seeds=2, seed=3)
        back = spec_from_dict(spec.to_dict())
        assert back == spec
        assert isinstance(back.qubits, tuple) and isinstance(back.lengths, tuple)

    def test_sweep_round_trip_and_expand(self):
        base = RBSpec(device="montreal", qubits=(0,), lengths=(1, 4), n_seeds=1)
        sweep = SweepSpec(base=base, grid={"seed": (1, 2, 3), "shots": (64, 128)})
        assert len(sweep) == 6
        points = sweep.expand()
        assert len(points) == 6
        assert {p.seed for p in points} == {1, 2, 3}
        assert points[0] == RBSpec(
            device="montreal", qubits=(0,), lengths=(1, 4), n_seeds=1, seed=1, shots=64
        )
        back = spec_from_dict(json.loads(json.dumps(sweep.to_dict())))
        assert back == sweep
        assert [p.fingerprint() for p in back.expand()] == [p.fingerprint() for p in points]

    def test_fingerprint_sensitivity(self):
        a = IRBSpec(**FAST_IRB)
        b = IRBSpec(**{**FAST_IRB, "shots": 201})
        c = IRBSpec(calibration=GRAPESpec(**FAST_GRAPE), **FAST_IRB)
        assert len({a.fingerprint(), b.fingerprint(), c.fingerprint()}) == 3
        # field order / reconstruction does not change the fingerprint
        assert spec_from_dict(c.to_dict()).fingerprint() == c.fingerprint()

    def test_validation(self):
        with pytest.raises(ValidationError):
            spec_from_dict({"kind": "nope"})
        with pytest.raises(ValidationError):
            RBSpec(device="montreal", qubits=(0, 1, 2))
        with pytest.raises(ValidationError):
            SweepSpec(base=RBSpec(), grid={"not_a_field": (1,)})
        with pytest.raises(ValidationError):
            SweepSpec(base=RBSpec(), grid={})
        with pytest.raises(ValidationError):
            IRBSpec(calibration="not-a-spec", **FAST_IRB)  # type: ignore[arg-type]


class TestPlanner:
    def test_overlapping_specs_share_table_backend_group(self):
        custom = IRBSpec(calibration=GRAPESpec(**FAST_GRAPE), **FAST_IRB)
        default = IRBSpec(**FAST_IRB)
        plan = plan_specs([custom, default])
        by_kind = {}
        for step in plan.steps:
            by_kind.setdefault(step.kind, []).append(step)
        assert len(by_kind["table"]) == 1
        assert len(by_kind["backend"]) == 1
        assert len(by_kind["group"]) == 1
        assert len(by_kind["grape"]) == 1  # only the custom spec nests one
        table_key = by_kind["table"][0].key
        assert sorted(plan.consumers[table_key]) == [0, 1]
        assert table_key == ("table", "montreal", (0,))
        assert len(plan.shared_steps) == 3

    def test_device_aliases_collapse(self):
        a = RBSpec(device="montreal", qubits=(0,), lengths=(1,), n_seeds=1, seed=1)
        b = RBSpec(device="ibmq_montreal", qubits=(0,), lengths=(1,), n_seeds=1, seed=2)
        plan = plan_specs([a, b])
        assert sum(1 for s in plan.steps if s.kind == "backend") == 1

    def test_distinct_devices_distinct_tables(self):
        a = RBSpec(device="montreal", qubits=(0,), lengths=(1,), n_seeds=1)
        b = RBSpec(device="toronto", qubits=(0,), lengths=(1,), n_seeds=1)
        plan = plan_specs([a, b])
        assert sum(1 for s in plan.steps if s.kind == "table") == 2
        assert sum(1 for s in plan.steps if s.kind == "group") == 1  # 1q group shared

    def test_sweeps_expand_before_planning(self):
        base = RBSpec(device="montreal", qubits=(0,), lengths=(1, 4), n_seeds=1)
        sweep = SweepSpec(base=base, grid={"seed": (1, 2, 3)})
        plan = plan_specs([sweep])
        assert len(plan.specs) == 3
        assert sum(1 for s in plan.steps if s.kind == "table") == 1

    def test_describe_mentions_sharing(self):
        plan = plan_specs([IRBSpec(**FAST_IRB), IRBSpec(**{**FAST_IRB, "shots": 300})])
        text = plan.describe()
        assert "shared x2" in text and "table" in text


class TestExperimentResult:
    def test_json_round_trip_arrays(self, tmp_path):
        result = ExperimentResult(
            kind="rb",
            spec={"kind": "rb"},
            payload={
                "lengths": np.array([1.0, 4.0, 16.0]),
                "survival": np.array([[0.99, 0.97], [0.95, 0.94]]),
                "channel": np.array([[1 + 2j, 0], [0, 1 - 2j]]),
                "alpha": 0.998,
                "n": 3,
                "nested": {"counts": {"0": 120, "1": 8}, "tags": ["a", "b"]},
            },
            provenance={"spec_fingerprint": "f" * 64, "timings": {"execute_s": 0.1}},
        )
        path = result.save(tmp_path / "out" / "result.json")
        back = ExperimentResult.load(path)
        assert back.kind == "rb"
        assert np.array_equal(back["lengths"], result["lengths"])
        assert back["lengths"].dtype == result["lengths"].dtype
        assert np.array_equal(back["survival"], result["survival"])
        assert np.array_equal(back["channel"], result["channel"])
        assert back["channel"].dtype == np.dtype(complex)
        assert back["alpha"] == result["alpha"]
        assert back["nested"] == result["nested"]
        assert back.provenance == result.provenance
        assert back.spec_fingerprint == "f" * 64

    def test_rejects_foreign_documents(self):
        with pytest.raises(ValidationError):
            ExperimentResult.from_json(json.dumps({"format": "something-else"}))


@pytest.fixture(scope="module")
def session_results():
    """One session run of (custom IRB, default IRB, grape) reused by tests."""
    grape = GRAPESpec(**FAST_GRAPE)
    custom = IRBSpec(calibration=grape, **FAST_IRB)
    default = IRBSpec(**FAST_IRB)
    with Session(store=None, num_workers=1, seed=11) as session:
        custom_res, default_res, grape_res = session.run_all([custom, default, grape])
        schedule = session.schedule_for(grape)
    return grape, custom, default, custom_res, default_res, grape_res, schedule


class TestSessionExecution:
    def test_bit_identical_to_standalone_drivers(self, session_results):
        grape, custom, default, custom_res, default_res, grape_res, schedule = session_results
        from repro.experiments.gates import (
            GateExperimentConfig, optimize_gate_pulse, pulse_schedule_from_result,
        )

        props = fake_montreal()
        backend = PulseBackend(props, calibrated_qubits=[0, 1], seed=11)
        config = GateExperimentConfig(
            gate="x", qubits=(0,), duration_ns=56.0, n_ts=8,
            include_decoherence=False, max_iter=60, seed=11,
        )
        opt = optimize_gate_pulse(props, config)
        sched = pulse_schedule_from_result(props, config, opt)
        assert sched.fingerprint() == schedule.fingerprint()
        assert grape_res["fid_err"] == opt.fid_err

        for calibration, result in ((sched, custom_res), (None, default_res)):
            standalone = InterleavedRBExperiment(
                backend, Gate.standard("x"), [0], lengths=(1, 8, 16), n_seeds=2,
                shots=200, seed=11, custom_calibration=calibration,
            ).run()
            assert np.array_equal(result["interleaved_survival_mean"],
                                  standalone.interleaved.survival_mean)
            assert np.array_equal(result["reference_survival_mean"],
                                  standalone.reference.survival_mean)
            assert result["gate_error"] == standalone.gate_error
            assert result["gate_error_std"] == standalone.gate_error_std

    def test_provenance_manifest(self, session_results):
        _, custom, _, custom_res, _, grape_res, _ = session_results
        assert custom_res.spec_fingerprint == custom.fingerprint()
        assert custom_res.provenance["store_root"] is None
        timings = custom_res.provenance["timings"]
        assert timings["prepare_s"] >= 0 and timings["execute_s"] > 0
        assert len(custom_res.provenance["properties_fingerprint"]) == 64
        assert "schedule_fingerprint" in grape_res.provenance

    def test_result_spec_rehydrates(self, session_results):
        _, custom, _, custom_res, _, _, _ = session_results
        assert spec_from_dict(custom_res.spec) == custom

    def test_rb_spec_matches_standalone(self):
        spec = RBSpec(device="montreal", qubits=(0,), lengths=(1, 8, 16), n_seeds=2,
                      shots=200, seed=5)
        with Session(store=None, num_workers=1) as session:
            result = session.run(spec)
        backend = PulseBackend(fake_montreal(), calibrated_qubits=[0, 1], seed=5)
        standalone = StandardRB(backend, [0], lengths=(1, 8, 16), n_seeds=2,
                                shots=200, seed=5).run()
        assert np.array_equal(result["survival_mean"], standalone.survival_mean)
        assert result["error_per_clifford"] == standalone.error_per_clifford

    def test_sweep_execution(self):
        base = RBSpec(device="montreal", qubits=(0,), lengths=(1, 4, 8), n_seeds=1,
                      shots=100, seed=0)
        sweep = SweepSpec(base=base, grid={"seed": (1, 2)})
        with Session(store=None, num_workers=1) as session:
            result = session.run(sweep)
        assert result.kind == "sweep"
        assert result.provenance["n_points"] == 2
        children = result["children"]
        assert len(children) == 2
        assert children[0]["spec"]["seed"] == 1
        assert children[0]["payload"]["survival_mean"] is not None

    def test_submit_returns_future(self):
        spec = RBSpec(device="montreal", qubits=(0,), lengths=(1, 4, 8), n_seeds=1,
                      shots=50, seed=1)
        with Session(store=None, num_workers=1) as session:
            future = session.submit(spec)
            assert isinstance(future, Future)
            assert future.result().kind == "rb"
        with pytest.raises(ValidationError):
            session.submit(spec)  # closed

    def test_adopted_backend_is_reused(self):
        backend = PulseBackend(fake_montreal(), calibrated_qubits=[0, 1], seed=1)
        with Session(backend=backend, store=None, num_workers=1) as session:
            assert session.backend_for("montreal") is backend
            assert session.backend_for("ibmq_montreal") is backend


class TestProcessPoolStart:
    def test_multi_worker_session_starts_pool_at_construction(self):
        """Every pool worker is alive before the session runs any thread."""
        parallel.shutdown_pool()
        try:
            with Session(store=None, num_workers=2) as session:
                workers = list(parallel._POOL._processes.values())
                assert parallel._POOL_KEY[0] == 2
                assert len(workers) == 2
                assert all(worker.is_alive() for worker in workers)
                assert not session._executor._threads
        finally:
            parallel.shutdown_pool()

    def test_serial_session_starts_no_pool(self):
        parallel.shutdown_pool()
        with Session(store=None, num_workers=1):
            assert parallel._POOL is None


class TestSharedPreparation:
    def test_concurrent_submit_builds_table_exactly_once(self, tmp_path):
        """The acceptance criterion: overlapping specs, one table write."""
        store = ArtifactStore(tmp_path / "store")
        grape = GRAPESpec(**FAST_GRAPE)
        specs = [
            IRBSpec(calibration=grape, **FAST_IRB),
            IRBSpec(**FAST_IRB),
            IRBSpec(**{**FAST_IRB, "shots": 300}),  # same sequences, new shots
        ]
        with Session(store=store, num_workers=1, max_concurrency=3) as session:
            futures = [session.submit(spec) for spec in specs]
            results = [future.result() for future in futures]
        tables = store.namespace_stats("channel_tables")
        assert tables["writes"] == 1
        assert tables["write_skips"] == 0
        assert tables["elements_written"] > 0
        # all three replay the same stored table
        keys = {r.provenance["store_key"] for r in results}
        assert len(keys) == 1
        # and the default/custom results still differ where they should
        assert results[0]["gate_error"] != results[1]["gate_error"]

    def test_concurrent_submit_differing_needs_no_redundant_elements(self, tmp_path):
        """Non-identical overlapping specs: every element built exactly once.

        Different seeds touch different element subsets, so incremental
        submits may legitimately append generations — but no element is
        ever rebuilt, and concurrent execution over the shared table must
        stay consistent (regression test for the prep/execute table race).
        """
        store = ArtifactStore(tmp_path / "store")
        specs = [
            IRBSpec(**{**FAST_IRB, "seed": seed}) for seed in (21, 22, 23, 24)
        ]
        with Session(store=store, num_workers=1, max_concurrency=4) as session:
            futures = [session.submit(spec) for spec in specs]
            results = [future.result() for future in futures]
        # the 1q group has 24 elements: across four seeds (plus merges)
        # nothing may ever be written twice
        assert store.stats["channel_tables"]["elements_written"] <= 24
        ids, _ = store.load_channel_table(results[0].provenance["store_key"])
        assert store.stats["channel_tables"]["elements_written"] == len(ids)
        # every spec individually matches its standalone run
        backend = PulseBackend(fake_montreal(), calibrated_qubits=[0, 1], seed=11)
        for spec, result in zip(specs, results):
            standalone = InterleavedRBExperiment(
                backend, Gate.standard("x"), [0], lengths=spec.lengths,
                n_seeds=spec.n_seeds, shots=spec.shots, seed=spec.seed,
            ).run()
            assert np.array_equal(result["interleaved_survival_mean"],
                                  standalone.interleaved.survival_mean)
            assert result["gate_error"] == standalone.gate_error

    def test_run_all_plans_union_before_fanout(self, tmp_path):
        """Different seeds → different element subsets → still one write."""
        store = ArtifactStore(tmp_path / "store")
        specs = [
            RBSpec(device="montreal", qubits=(0,), lengths=(1, 4, 8), n_seeds=1,
                   shots=50, seed=seed)
            for seed in (1, 2, 3)
        ]
        with Session(store=store, num_workers=1) as session:
            session.run_all(specs)
        assert store.stats["channel_tables"]["writes"] == 1

    def test_grape_optimized_exactly_once(self, monkeypatch):
        import repro.experiments.gates as gates_module

        calls = []
        original = gates_module.optimize_gate_pulse

        def counting(properties, config, **kwargs):
            calls.append(config.gate)
            return original(properties, config, **kwargs)

        monkeypatch.setattr(gates_module, "optimize_gate_pulse", counting)
        grape = GRAPESpec(**FAST_GRAPE)
        custom_a = IRBSpec(calibration=grape, **FAST_IRB)
        custom_b = IRBSpec(calibration=grape, **{**FAST_IRB, "shots": 300})
        with Session(store=None, num_workers=1) as session:
            session.run_all([custom_a, custom_b, grape])
            session.schedule_for(grape)
        assert calls == ["x"]

    def test_store_results_bit_identical_to_storeless(self, tmp_path):
        spec = IRBSpec(**FAST_IRB)
        with Session(store=tmp_path / "store", num_workers=1) as stored_session:
            stored = stored_session.run(spec)
        with Session(store=None, num_workers=1) as plain_session:
            plain = plain_session.run(spec)
        assert np.array_equal(stored["interleaved_survival_mean"],
                              plain["interleaved_survival_mean"])
        assert stored["gate_error"] == plain["gate_error"]
