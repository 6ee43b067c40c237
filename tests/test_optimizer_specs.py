"""The optimizer zoo behind :class:`OptimizerSpec`.

Three contracts:

* **reachability** — every method in
  :data:`~repro.session.specs.OPTIMIZER_METHODS` runs to convergence
  through ``Session.submit`` *and* through the HTTP service,
* **thin alias** — ``OptimizerSpec(method="lbfgs")`` is bit-identical to
  the legacy :class:`GRAPESpec` path: same cache fingerprint, same pulse
  artifact, same payload, proven by session counters,
* **validation** — bad methods, foreign/non-scalar/duplicate options and
  unsupported method/model combinations are rejected at construction.
"""

from __future__ import annotations

import pytest

from repro.experiments.optimizers import optimizer_comparison_specs
from repro.service import ExperimentService, ServiceClient, ServiceConfig
from repro.session import GRAPESpec, OptimizerSpec, Session
from repro.session.specs import OPTIMIZER_METHODS
from repro.store import ArtifactStore
from repro.utils.validation import ValidationError

#: Per-method settings that reach fid_err ≤ 1e-3 in well under a second,
#: all on the 2-level model (``optimizer_levels=2``, the
#: :func:`optimizer_comparison_specs` convention — leakage-free, so every
#: method can actually reach machine-precision fidelity).  CRAB's Fourier
#: ansatz additionally needs a longer pulse, a finer grid and a SINE ramp.
_FAST = dict(duration_ns=56.0, n_ts=8, max_iter=60, optimizer_levels=2, seed=2022)
CONVERGENCE_SETTINGS = {
    "lbfgs": _FAST,
    "grape": _FAST,
    "spsa": _FAST,
    "krotov": _FAST,
    "goat": _FAST,
    "crab": dict(
        duration_ns=80.0,
        n_ts=16,
        max_iter=300,
        optimizer_levels=2,
        init_pulse_type="SINE",
        init_pulse_scale=0.2,
        seed=5,
    ),
}

CONVERGENCE_THRESHOLD = 1e-3


def test_settings_cover_every_method():
    assert set(CONVERGENCE_SETTINGS) == set(OPTIMIZER_METHODS)


class TestEveryMethodThroughSession:
    @pytest.fixture(scope="class")
    def zoo_results(self, tmp_path_factory):
        """One session run of every optimizer method (shared by the class)."""
        root = tmp_path_factory.mktemp("optimizer-zoo") / "store"
        specs = [
            OptimizerSpec(device="montreal", gate="x", method=method, **settings)
            for method, settings in CONVERGENCE_SETTINGS.items()
        ]
        with Session(store=str(root), num_workers=1) as session:
            results = session.run_all(specs)
        return dict(zip(CONVERGENCE_SETTINGS, results))

    @pytest.mark.parametrize("method", sorted(OPTIMIZER_METHODS))
    def test_method_converges(self, zoo_results, method):
        result = zoo_results[method]
        assert result.kind == "optimizer"
        assert result.payload["fid_err"] <= CONVERGENCE_THRESHOLD, (
            f"{method}: fid_err={result.payload['fid_err']:.3e}"
        )

    @pytest.mark.parametrize("method", sorted(set(OPTIMIZER_METHODS) - {"lbfgs"}))
    def test_non_lbfgs_payload_carries_optimizer_digest(self, zoo_results, method):
        payload = zoo_results[method].payload
        assert payload["method"] == method.upper()
        assert payload["n_fun_evals"] >= 1
        assert isinstance(payload["termination_reason"], str)
        assert payload["converged"] in (True, False)
        assert "wall_time" not in payload  # payloads stay deterministic

    def test_lbfgs_payload_matches_legacy_grape_shape(self, zoo_results):
        # the alias returns exactly the legacy payload — no extra digest
        # fields, or it could never share the GRAPESpec result-cache entry
        assert "converged" not in zoo_results["lbfgs"].payload


class TestLbfgsThinAlias:
    ALIAS_FIELDS = dict(
        device="montreal", gate="x", duration_ns=28.0, n_ts=6, max_iter=10, seed=11
    )

    def test_cache_fingerprint_delegates_to_grape_spec(self):
        alias = OptimizerSpec(method="lbfgs", **self.ALIAS_FIELDS)
        legacy = GRAPESpec(**self.ALIAS_FIELDS)
        canonical = alias.canonical_pulse_spec()
        assert isinstance(canonical, GRAPESpec)
        assert canonical == legacy
        assert alias.cache_fingerprint() == legacy.cache_fingerprint()
        # ...while the submission identities stay distinct
        assert alias.fingerprint() != legacy.fingerprint()

    def test_options_break_the_alias(self):
        alias = OptimizerSpec(
            method="grape", options={"initial_step": 0.05}, **self.ALIAS_FIELDS
        )
        assert alias.canonical_pulse_spec() is alias
        assert alias.cache_fingerprint() != GRAPESpec(**self.ALIAS_FIELDS).cache_fingerprint()

    def test_alias_replays_legacy_run_bit_identically(self, tmp_path):
        legacy = GRAPESpec(**self.ALIAS_FIELDS)
        alias = OptimizerSpec(method="lbfgs", **self.ALIAS_FIELDS)
        with Session(store=str(tmp_path / "store"), num_workers=1) as session:
            reference = session.run(legacy)
            before = session.stats_snapshot()
            aliased = session.run(alias)
            after = session.stats_snapshot()
        assert not reference.cache_hit
        assert aliased.cache_hit
        assert after["executions"] == before["executions"]
        assert after["prep_builds"] == before["prep_builds"]
        assert aliased.payload_fingerprint() == reference.payload_fingerprint()


class TestThroughHTTPService:
    def test_optimizer_spec_over_the_wire(self, tmp_path):
        spec = OptimizerSpec(
            device="montreal", gate="x", method="spsa",
            duration_ns=28.0, n_ts=6, max_iter=5, seed=3,
        )
        config = ServiceConfig(
            host="127.0.0.1", port=0,
            store=ArtifactStore(tmp_path / "store"),
            queue_path=tmp_path / "queue.sqlite3", workers=1,
        )
        with ExperimentService(config) as service, ServiceClient(service.url) as client:
            job_id = client.submit(spec)
            remote = client.result(job_id, timeout=120.0)
        assert remote.kind == "optimizer"
        assert remote.payload["method"] == "SPSA"
        assert remote.payload["fid_err"] >= 0.0


class TestValidation:
    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError, match="method"):
            OptimizerSpec(method="adam")

    def test_foreign_option_rejected(self):
        with pytest.raises(ValidationError, match="not valid for method"):
            OptimizerSpec(method="spsa", options={"n_coeffs": 4})

    def test_non_scalar_option_rejected(self):
        with pytest.raises(ValidationError, match="JSON scalar"):
            OptimizerSpec(method="spsa", options={"spsa_a": [0.1, 0.2]})

    def test_duplicate_options_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            OptimizerSpec(
                method="spsa", options=(("spsa_a", 0.1), ("spsa_a", 0.2))
            )

    def test_krotov_open_system_rejected(self):
        with pytest.raises(ValidationError, match="closed-system"):
            OptimizerSpec(method="krotov", include_decoherence=True)

    def test_method_is_normalized_lowercase(self):
        assert OptimizerSpec(method="SPSA").method == "spsa"


def test_optimizer_comparison_specs_covers_the_zoo():
    specs = optimizer_comparison_specs()
    assert len(specs) == len(OPTIMIZER_METHODS)
    assert [s.method for s in specs] == list(OPTIMIZER_METHODS)
    assert all(s.kind == "optimizer" for s in specs)
    assert len({s.fingerprint() for s in specs}) == len(specs)
