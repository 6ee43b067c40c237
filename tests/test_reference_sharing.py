"""A batch computes each distinct IRB reference curve once.

An IRB reference curve depends on the backend, qubits, lengths,
``n_seeds``, shots, seed, engine and fixed asymptote — not on the
interleaved gate — so IRB specs of one ``Session.run_all`` (or one
container's children) that agree on those read one curve.  Under test:

* how many curves a seed-study-shaped batch composes, samples and fits,
* bit-identity of every shared payload against a solo run of its spec,
* exactly-once under concurrent executor threads,
* scope: no curve outlives its batch, and single runs never share.
"""

import dataclasses
import sys
import threading
import time

import pytest

from repro.backend import PulseBackend
from repro.benchmarking import engine
from repro.benchmarking.irb import InterleavedRBExperiment
from repro.devices import fake_montreal
from repro.experiments.figures import fig3_specs, fig4_specs, fig5_specs
from repro.session import IRBSpec, Session, SweepSpec

#: Small IRB workload whose reference curve the gates below share.
SMALL_IRB = dict(
    device="montreal", qubits=(0,), lengths=(1, 8, 16), n_seeds=2, shots=100, seed=5,
)


@pytest.fixture
def curves(monkeypatch):
    """Every curve the channel engine fits, as its ``interleaved`` flag."""
    fitted: list[bool] = []
    lock = threading.Lock()
    fit = engine._fitted_curve

    def counting(context, groups, *args):
        with lock:
            fitted.append(any(group.interleaved for group in groups))
        return fit(context, groups, *args)

    monkeypatch.setattr(engine, "_fitted_curve", counting)
    return fitted


def _seed_study_batch(seeds) -> list:
    """Custom and default IRB of X, SX (montreal) and H (toronto) per seed."""
    triples = [fig3_specs(), fig4_specs(), fig5_specs()]
    return [
        dataclasses.replace(triple[name], seed=seed)
        for seed in seeds
        for triple in triples
        for name in ("custom_irb", "default_irb")
    ]


def _curve_entries(session: Session) -> list:
    registry = list(session._artifacts) + list(session._artifact_locks) + list(session.prep_timings)
    return [key for key in registry if key[0] == "reference"]


def test_seed_study_batch_fits_each_distinct_curve_once(curves):
    batch = _seed_study_batch((1_000_001, 1_000_002))
    with Session(store=None, num_workers=1) as session:
        results = session.run_all(batch)
        assert _curve_entries(session) == []
    # per seed: 6 interleaved curves, one montreal and one toronto reference
    assert len(curves) == 16
    assert curves.count(False) == 4
    for spec, result in zip(batch, results):
        with Session(store=None, num_workers=1) as solo:
            alone = solo.run(spec)
        assert result.payload_fingerprint() == alone.payload_fingerprint(), spec


def test_shared_reference_is_computed_once_under_concurrency(curves, monkeypatch):
    fit = engine._fitted_curve

    def slow_reference(context, groups, *args):
        if not any(group.interleaved for group in groups):
            time.sleep(0.2)  # the other threads arrive while it is built
        return fit(context, groups, *args)

    monkeypatch.setattr(engine, "_fitted_curve", slow_reference)
    gates = ("x", "sx", "h", "z")
    batch = [IRBSpec(gate=gate, **SMALL_IRB) for gate in gates]
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # more thread switches inside the registry
    try:
        with Session(store=None, num_workers=1, max_concurrency=4) as session:
            runner = threading.Thread(target=lambda: results.extend(session.run_all(batch)))
            runner.start()
            runner.join(timeout=120)
            assert not runner.is_alive()
            assert _curve_entries(session) == []
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == len(gates)
    assert curves.count(False) == 1
    assert curves.count(True) == len(gates)
    references = {result.payload["reference_alpha"] for result in results}
    assert len(references) == 1


def test_curves_do_not_outlive_their_batch(curves, tmp_path):
    with Session(store=tmp_path / "store", num_workers=1) as session:
        session.run_all([IRBSpec(gate=gate, **SMALL_IRB) for gate in ("x", "sx")])
        assert _curve_entries(session) == []
        assert len(curves) == 3
        for seed in range(20):
            session.run(IRBSpec(gate=("x", "sx")[seed % 2], **{**SMALL_IRB, "seed": 100 + seed}))
        assert _curve_entries(session) == []
    # a single run computes its own reference
    assert len(curves) == 3 + 2 * 20


def test_single_runs_compute_their_own_reference(curves):
    with Session(store=None, num_workers=1) as session:
        for gate in ("x", "sx"):
            session.run(IRBSpec(gate=gate, **SMALL_IRB))
    assert curves.count(False) == 2


def test_container_children_share_a_reference(curves):
    sweep = SweepSpec(base=IRBSpec(gate="x", **SMALL_IRB), grid={"gate": ("x", "sx", "h")})
    with Session(store=None, num_workers=1) as session:
        result = session.run(sweep)
        assert _curve_entries(session) == []
    assert curves.count(False) == 1 and curves.count(True) == 3
    with Session(store=None, num_workers=1) as solo:
        alone = solo.run(IRBSpec(gate="sx", **SMALL_IRB))
    assert result.payload["children"][1]["payload"]["reference_alpha"] == alone.payload["reference_alpha"]


def test_unseeded_specs_never_share(curves):
    # fresh random sequences each run: lengths that fit a real decay
    unseeded = {**SMALL_IRB, "lengths": (1, 16, 48, 96), "n_seeds": 4, "shots": 400, "seed": None}
    batch = [IRBSpec(gate=gate, **unseeded) for gate in ("x", "sx")]
    with Session(store=None, num_workers=1) as session:
        session.run_all(batch)
    assert curves.count(False) == 2


class TestExperimentReferenceKey:
    def _experiment(self, gate="x", **overrides):
        backend = PulseBackend(fake_montreal(), calibrated_qubits=[0], seed=1)
        fields = {"lengths": (1, 8, 16), "n_seeds": 2, "shots": 100, "seed": 5, **overrides}
        return InterleavedRBExperiment(backend, gate, [0], **fields)

    def test_key_ignores_the_gate_and_its_calibration(self):
        assert self._experiment("x").reference_key() == self._experiment("sx").reference_key()

    @pytest.mark.parametrize(
        "field, value",
        [("lengths", (1, 8, 24)), ("n_seeds", 3), ("shots", 101), ("seed", 6), ("engine", "circuits")],
    )
    def test_key_follows_every_curve_input(self, field, value):
        assert self._experiment().reference_key() != self._experiment(**{field: value}).reference_key()

    def test_unseeded_experiment_has_no_key(self):
        assert self._experiment(seed=None).reference_key() is None

    def test_shared_reference_equals_own(self):
        own = self._experiment("sx").run()
        first = self._experiment("x").run()
        shared = self._experiment("sx").run(reference=lambda compute: first.reference)
        assert shared.reference is first.reference
        assert shared.gate_error == own.gate_error
        assert shared.reference.per_sequence == own.reference.per_sequence
