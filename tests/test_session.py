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
import os
import signal
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from golden.paper_golden import paper_specs

from repro.backend import PulseBackend
from repro.benchmarking.irb import InterleavedRBExperiment
from repro.benchmarking.rb import StandardRB
from repro.circuits.gate import Gate
from repro.devices import fake_montreal
from repro.experiments.figures import fig3_specs, fig4_specs, fig8_specs
from repro.session import (
    CycleBenchSpec,
    ExperimentResult,
    GRAPESpec,
    IRBSpec,
    PurityRBSpec,
    RBSpec,
    Session,
    SweepSpec,
    XEBSpec,
    plan_specs,
    spec_from_dict,
)
from repro.session import session as session_module
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

    @pytest.mark.parametrize(
        "kind, field, values",
        [
            ("rb", "lengths", [1.9, 4, 8, 16]),
            ("irb", "lengths", [1, 4, True, 16]),
            ("purity_rb", "lengths", [1, 4.5, 8]),
            ("cycle", "lengths", [1, 2, "4"]),
            ("xeb", "depths", [1, 2.5, 4]),
            ("rb", "qubits", [0.7]),
            ("irb", "qubits", [True]),
        ],
    )
    def test_integer_fields_refuse_lossy_coercion(self, kind, field, values):
        # a truncated 1.9 -> 1 would fingerprint as another spec's workload
        with pytest.raises(ValidationError, match="integers"):
            spec_from_dict({"kind": kind, field: values})

    def test_integral_floats_are_accepted(self):
        spec = spec_from_dict({"kind": "rb", "qubits": [0.0], "lengths": [1.0, 4.0, 8]})
        assert spec.qubits == (0,) and spec.lengths == (1, 4, 8)
        assert spec == RBSpec(qubits=(0,), lengths=(1, 4, 8))
        xeb = spec_from_dict({"kind": "xeb", "depths": [1, 2.0, 4]})
        assert xeb.depths == (1, 2, 4)

    @pytest.mark.parametrize(
        "kind, bad",
        [
            pytest.param(kind, bad, id=f"{kind}-{label}")
            for kind in ("rb", "irb", "purity_rb", "cycle")
            for label, bad in (
                ("zero-shots", {"shots": 0}),
                ("zero-seeds", {"n_seeds": 0}),
                ("zero-length", {"lengths": [0, 4, 8]}),
                ("repeated-qubit", {"qubits": [0, 0]}),
                ("negative-qubit", {"qubits": [-1]}),
            )
            # purity RB computes purities exactly and has no shots field
            if not (kind == "purity_rb" and "shots" in bad)
        ],
    )
    def test_run_fields_validated_at_construction(self, kind, bad):
        with pytest.raises(ValidationError):
            spec_from_dict({"kind": kind, **bad})


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

    def test_build_order_starts_the_largest_optimization_first(self):
        specs = [
            spec
            for triple in (fig3_specs(), fig4_specs(), fig8_specs())
            for spec in triple.values()
        ]
        sweep = SweepSpec(base=GRAPESpec(**FAST_GRAPE), grid={"seed": (1, 2)})
        plan = plan_specs(specs + [sweep])
        kinds = [step.kind for step in plan.steps]
        assert kinds == sorted(kinds, key=["backend", "grape", "group", "table"].index)
        grape = [step for step in plan.steps if step.kind == "grape"]
        # the 1193 ns CX first; each sweep point is its own grape step
        assert grape[0].payload.gate == "cx"
        points = {("grape", point.fingerprint()) for point in sweep.expand()}
        assert len(points) == 2 and points <= {step.key for step in grape}

    def test_paper_batch_plans_one_grape_step_per_pulse(self):
        plan = plan_specs(paper_specs())
        assert len(plan.specs) == 28
        pulses = set()
        for spec in plan.specs:
            pulse = spec.calibration if spec.kind == "irb" else spec
            if pulse is not None and pulse.kind in ("grape", "optimizer"):
                pulses.add(("grape", pulse.canonical_pulse_spec().fingerprint()))
        grape_keys = [step.key for step in plan.steps if step.kind == "grape"]
        assert len(pulses) == 13
        assert sorted(grape_keys) == sorted(pulses)
        assert {step.kind for step in plan.steps} == {"backend", "grape", "group", "table"}

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
        parsed = ExperimentResult.from_document(json.loads(path.read_text()))
        assert parsed.payload_fingerprint() == back.payload_fingerprint()
        assert parsed.provenance == back.provenance and parsed.spec == back.spec
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
        with pytest.raises(ValidationError):
            ExperimentResult.from_document({"format": "something-else"})


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
        """Different seeds → different element subsets → no element twice.

        ``run_all`` creates the shared table before the specs fan out; each
        spec then builds and persists the elements its own sequences use,
        so a batch may append several generations, but every element is
        written once and every payload equals its standalone run.
        """
        store = ArtifactStore(tmp_path / "store")
        specs = [
            RBSpec(device="montreal", qubits=(0,), lengths=(1, 4, 8), n_seeds=1,
                   shots=50, seed=seed)
            for seed in (1, 2, 3)
        ]
        with Session(store=store, num_workers=1) as session:
            results = session.run_all(specs)
        assert len({r.provenance["store_key"] for r in results}) == 1
        ids, _ = store.load_channel_table(results[0].provenance["store_key"])
        assert store.stats["channel_tables"]["elements_written"] == len(ids)
        backend = PulseBackend(fake_montreal(), calibrated_qubits=[0, 1], seed=5)
        for spec, result in zip(specs, results):
            standalone = StandardRB(backend, [0], lengths=spec.lengths, n_seeds=spec.n_seeds,
                                    shots=spec.shots, seed=spec.seed).run()
            assert np.array_equal(result["survival_mean"], standalone.survival_mean)
            assert result["error_per_clifford"] == standalone.error_per_clifford

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

    def test_grape_iterations_come_from_the_spec_alone(self, monkeypatch):
        """No environment variable caps GRAPE: a capped pulse would be
        published, and later replayed, under the uncapped spec's keys."""
        grape = GRAPESpec(**FAST_GRAPE)
        with Session(store=None, num_workers=1) as session:
            reference = session.run(grape)["n_iter"]
        monkeypatch.setenv("REPRO_MAX_OPT_ITER", "2")
        with Session(store=None, num_workers=1) as session:
            assert session.run(grape)["n_iter"] == reference > 2

    def test_store_results_bit_identical_to_storeless(self, tmp_path):
        spec = IRBSpec(**FAST_IRB)
        with Session(store=tmp_path / "store", num_workers=1) as stored_session:
            stored = stored_session.run(spec)
        with Session(store=None, num_workers=1) as plain_session:
            plain = plain_session.run(spec)
        assert np.array_equal(stored["interleaved_survival_mean"],
                              plain["interleaved_survival_mean"])
        assert stored["gate_error"] == plain["gate_error"]


#: Every sequence generator an executor calls, at the binding it calls.
_SEQUENCE_GENERATORS = (
    ("repro.benchmarking.rb", "rb_sequences"),
    ("repro.benchmarking.irb", "rb_sequences"),
    ("repro.benchmarking.xeb", "xeb_sequences"),
    ("repro.benchmarking.purity", "purity_rb_sequences"),
    ("repro.benchmarking.cycle", "cycle_sequences"),
)


class TestSequenceDraws:
    """Each executed spec draws its sequences exactly once."""

    @pytest.mark.parametrize("num_workers", [1, 2])
    @pytest.mark.parametrize("with_store", [False, True])
    @pytest.mark.parametrize("mode", ["run_all", "submit"])
    def test_one_draw_per_executed_spec(self, tmp_path, monkeypatch, mode, with_store,
                                        num_workers):
        import importlib

        draws: list[tuple[str, int]] = []
        for module_name, name in _SEQUENCE_GENERATORS:
            module = importlib.import_module(module_name)
            original = getattr(module, name)

            def counting(*args, _original=original, _name=name, **kwargs):
                draws.append((_name, kwargs["seed"]))
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        # long enough decays that every fit has a finite covariance
        shape = dict(device="montreal", qubits=(0,), lengths=(1, 16, 48, 96), n_seeds=2, seed=31)
        specs = [
            RBSpec(shots=50, **shape),
            IRBSpec(gate="x", shots=50, **{**shape, "seed": 32}),
            XEBSpec(device="montreal", qubits=(0,), depths=(1, 2, 4), n_circuits=4,
                    shots=50, seed=1),
            PurityRBSpec(**{**shape, "seed": 33}),
            CycleBenchSpec(gate="x", shots=50, **{**shape, "seed": 34}),
        ]
        store = ArtifactStore(tmp_path / "store") if with_store else None
        with Session(store=store, num_workers=num_workers) as session:
            if mode == "run_all":
                session.run_all(specs)
            else:
                for future in [session.submit(spec) for spec in specs]:
                    future.result()
            assert session.stats["executions"] == len(specs)
        assert sorted(draws) == sorted([
            ("rb_sequences", 31), ("rb_sequences", 32), ("xeb_sequences", 1),
            ("purity_rb_sequences", 33), ("cycle_sequences", 34),
        ])


#: The pool task of a cold GRAPE step, as the session module defines it.
_OPTIMIZE_PULSE = session_module._optimize_pulse


def _sigkill_first_attempt(properties, config, method_options):
    """Pool task that SIGKILLs its worker on the first attempt, then optimizes."""
    marker = Path(os.environ["REPRO_TEST_SIGKILL_MARKER"])
    with open(marker, "a") as handle:
        handle.write("attempt\n")
    if marker.read_text().count("attempt") == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return _OPTIMIZE_PULSE(properties, config, method_options)


class TestPooledPrep:
    """Cold GRAPE steps run on the process pool while the session goes on."""

    def test_pooled_batch_matches_serial(self):
        specs = [
            spec
            for triple in (fig3_specs(), fig4_specs(), fig8_specs())
            for spec in triple.values()
        ]
        fingerprints = {}
        for workers in (1, 2):
            with Session(store=None, num_workers=workers) as session:
                results = session.run_all(specs)
            fingerprints[workers] = [result.payload_fingerprint() for result in results]
        assert fingerprints[2] == fingerprints[1]

    #: An IRB whose decay fits are well posed (five lengths spanning the decay).
    IRB = {**FAST_IRB, "lengths": (1, 16, 48, 96, 160), "n_seeds": 4}

    @pytest.mark.parametrize("late", ["before_dispatch", "after_dispatch"])
    def test_custom_irb_submitted_during_run_all_optimizes_once(
        self, tmp_path, monkeypatch, late
    ):
        """A late submit shares the batch's pulse: one build, one publication."""
        store = ArtifactStore(tmp_path / "store")
        grape = GRAPESpec(**FAST_GRAPE)
        late_spec = IRBSpec(calibration=grape, **{**self.IRB, "shots": 300})
        batch = [grape, IRBSpec(calibration=grape, **self.IRB), IRBSpec(**self.IRB)]
        late_futures = []
        build_plan = Session._build_plan

        def build_plan_with_late_submit(session, plan):
            if late == "before_dispatch":
                late_futures.append(session.submit(late_spec))
            build_plan(session, plan)
            if late == "after_dispatch":
                late_futures.append(session.submit(late_spec))

        monkeypatch.setattr(Session, "_build_plan", build_plan_with_late_submit)
        with Session(store=store, num_workers=2) as session:
            session.run_all(batch)
            late_result = late_futures[0].result()
        assert session.stats["prep_builds"] == len(session._artifacts)
        assert len([key for key in session._artifacts if key[0] == "grape"]) == 1
        assert store.stats["pulses"]["writes"] == 1
        assert store.stats["pulses"].get("write_skips", 0) == 0  # published once
        with Session(store=None, num_workers=1) as serial:
            reference = serial.run(late_spec)
        assert late_result.payload_fingerprint() == reference.payload_fingerprint()

    @pytest.mark.skipif(os.name == "nt", reason="needs SIGKILL (POSIX)")
    def test_killed_worker_is_replaced_and_the_step_retried(self, tmp_path, monkeypatch):
        grape = GRAPESpec(**FAST_GRAPE)
        with Session(store=None, num_workers=1) as serial:
            reference = serial.run(grape)
        marker = tmp_path / "attempts"
        monkeypatch.setenv("REPRO_TEST_SIGKILL_MARKER", str(marker))
        monkeypatch.setattr(session_module, "_optimize_pulse", _sigkill_first_attempt)
        parallel.shutdown_pool()  # workers must see the marker variable
        try:
            with Session(store=None, num_workers=2) as session:
                first_pool = parallel._POOL
                result = session.run(grape)
            assert parallel._POOL is not first_pool
            assert marker.read_text().count("attempt") == 2
        finally:
            parallel.shutdown_pool()
        assert result.payload_fingerprint() == reference.payload_fingerprint()


# --------------------------------------------------------------------------- #
# fresh-seed IRB on a warmed store (the seed-study self-check)
# --------------------------------------------------------------------------- #
def test_fresh_seed_irb_on_warm_store_matches_storeless_rerun(tmp_path):
    """Store-backed results of a multi-worker session are functions of their spec alone.

    The store is warmed with the Fig. 3-5 triples; one fresh-seed batch of
    custom and default IRB for X, SX and H then reads the warmed channel
    tables and pulses, and each result must equal a store-less re-run.
    """
    import dataclasses
    import math

    from repro.experiments.figures import fig5_specs

    triples = [fig3_specs(2022), fig4_specs(2022), fig5_specs(2022)]
    root = tmp_path / "store"
    with Session(store=root) as warm:
        warm.run_all([spec for triple in triples for spec in triple.values()])
    batch = [
        dataclasses.replace(triple[name], seed=1_000_001)
        for triple in triples
        for name in ("custom_irb", "default_irb")
    ]
    with Session(store=root) as session:
        results = session.run_all(batch)
    tables = session.store.stats["channel_tables"]
    assert session.stats["cache_hits"] == 0
    assert tables["writes"] + tables["elements_written"] == 0
    assert all(math.isfinite(r.payload["gate_error"]) for r in results)
    with Session(store=None) as check:
        again = check.run_all(batch)
    assert [r.payload_fingerprint() for r in again] == [r.payload_fingerprint() for r in results]
