"""Protocol zoo: linear XEB, purity RB and cycle benchmarking.

The headline contract each protocol ships with is **engine equivalence**:
the fast superoperator ``channels`` engine and the reference per-shot
``circuits`` engine agree on every per-depth statistic to ≤ 1e-6 (they
draw the same sequences and the same shot noise from the shared seeding
discipline; only the propagation math differs).  Plus each protocol's own
physics checks and the session/provenance integration.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.benchmarking.clifford import clifford_group
from repro.benchmarking.fitting import FIT_STATUSES
from repro.benchmarking.cycle import cycle_sequences, pauli_indices, run_cycle_benchmark
from repro.benchmarking.purity import purity_rb_sequences, run_purity_rb, state_purity
from repro.benchmarking.xeb import (
    ideal_output_probabilities,
    linear_xeb_fidelities,
    run_xeb,
    xeb_sequences,
)
from repro.session import CycleBenchSpec, PurityRBSpec, Session, XEBSpec
from repro.utils.validation import ValidationError

ENGINE_TOL = 1e-6

#: seed 1 keeps at least one XEB circuit per depth non-degenerate (a random
#: 1q Clifford word's ideal output is uniform ~2/3 of the time, which
#: carries zero cross-entropy signal and is dropped by both engines)
XEB_ARGS = dict(depths=(1, 2, 4), n_circuits=4, shots=50, seed=1)
PURITY_ARGS = dict(lengths=(1, 2, 4), n_seeds=2, seed=7)
CYCLE_ARGS = dict(lengths=(1, 2, 4), n_seeds=2, shots=50, seed=7)


class TestEngineEquivalence:
    def test_xeb_channels_matches_circuits(self, backend):
        fast = run_xeb(backend, [0], engine="channels", **XEB_ARGS)
        slow = run_xeb(backend, [0], engine="circuits", **XEB_ARGS)
        np.testing.assert_allclose(fast.depths, slow.depths)
        assert np.max(np.abs(fast.fidelity - slow.fidelity)) <= ENGINE_TOL
        assert abs(fast.layer_fidelity - slow.layer_fidelity) <= ENGINE_TOL

    def test_purity_channels_matches_circuits(self, backend):
        fast = run_purity_rb(backend, [0], engine="channels", **PURITY_ARGS)
        slow = run_purity_rb(backend, [0], engine="circuits", **PURITY_ARGS)
        np.testing.assert_allclose(fast.lengths, slow.lengths)
        assert (
            np.max(np.abs(fast.shifted_purity_mean - slow.shifted_purity_mean))
            <= ENGINE_TOL
        )
        assert abs(fast.unitarity - slow.unitarity) <= ENGINE_TOL

    def test_cycle_channels_matches_circuits(self, backend):
        fast = run_cycle_benchmark(backend, "x", [0], engine="channels", **CYCLE_ARGS)
        slow = run_cycle_benchmark(backend, "x", [0], engine="circuits", **CYCLE_ARGS)
        np.testing.assert_allclose(fast.rb.lengths, slow.rb.lengths)
        assert (
            np.max(np.abs(fast.rb.survival_mean - slow.rb.survival_mean)) <= ENGINE_TOL
        )
        assert abs(fast.error_per_cycle - slow.error_per_cycle) <= ENGINE_TOL

    @pytest.mark.parametrize("runner", [run_xeb, run_purity_rb])
    def test_unknown_engine_rejected(self, backend, runner):
        args = XEB_ARGS if runner is run_xeb else PURITY_ARGS
        with pytest.raises(ValidationError, match="engine"):
            runner(backend, [0], engine="tensor", **args)


class TestXEBPhysics:
    def test_layer_fidelity_in_physical_range(self, backend):
        result = run_xeb(backend, [0], **XEB_ARGS)
        assert 0.0 < result.layer_fidelity <= 1.0
        assert result.layer_fidelity_err >= 0.0
        assert result.n_qubits == 1

    def test_fidelity_decays_with_depth(self, noiseless_backend):
        # even without decoherence the calibrated gates carry coherent
        # model error, so the XEB fidelity decays with circuit depth —
        # that decay (not absolute unity) is the protocol's signal
        result = run_xeb(
            noiseless_backend, [0], depths=(1, 2, 4), n_circuits=6, shots=4000, seed=1
        )
        assert result.layer_fidelity > 0.9
        assert result.fidelity[-1] < result.fidelity[0]

    def test_fully_degenerate_depth_rejected(self, backend):
        # seed 7, depth 1: every sampled circuit's ideal output is uniform
        with pytest.raises(ValidationError, match="uniform ideal output"):
            run_xeb(backend, [0], depths=(1, 2, 4), n_circuits=4, shots=50, seed=7)

    def test_ideal_probabilities_normalized(self):
        group = clifford_group(1)
        sequences = xeb_sequences([0], depths=(1, 2, 4), n_circuits=3, seed=1)
        for sequence in sequences:
            probs = ideal_output_probabilities(group, sequence.clifford_indices)
            assert probs.shape == (2,)
            assert abs(probs.sum() - 1.0) < 1e-12

    def test_linear_xeb_estimator_near_one_on_ideal_sampler(self):
        # counts drawn from each circuit's own ideal distribution must
        # estimate fidelity ≈ 1 (the estimator's defining property)
        group = clifford_group(1)
        sequences = xeb_sequences([0], depths=(2,), n_circuits=4, seed=1)
        rng = np.random.default_rng(0)
        counts_list = []
        for sequence in sequences:
            probs = ideal_output_probabilities(group, sequence.clifford_indices)
            shots = rng.multinomial(200_000, probs)
            counts_list.append({"0": int(shots[0]), "1": int(shots[1])})
        depths, fidelities, _ = linear_xeb_fidelities(sequences, counts_list, group)
        assert list(depths) == [2]
        assert abs(fidelities[0] - 1.0) < 5e-2


class TestPurityPhysics:
    def test_unitarity_bounds(self, backend):
        result = run_purity_rb(backend, [0], **PURITY_ARGS)
        assert 0.0 < result.unitarity <= 1.0
        assert np.all(result.shifted_purity_mean > 0.0)
        assert np.all(result.shifted_purity_mean <= 1.0 + 1e-9)

    def test_state_purity_of_identity_and_depolarizing_channels(self):
        identity = np.eye(4, dtype=complex)  # superoperator: ρ unchanged, pure
        # fully depolarizing channel (column-stacked superoperator):
        # every input ρ ↦ I/2, purity 1/2
        depolarizing = 0.5 * np.outer(
            np.eye(2, dtype=complex).ravel(), np.eye(2, dtype=complex).ravel()
        )
        assert abs(state_purity(identity, 1) - 1.0) < 1e-12
        assert abs(state_purity(depolarizing, 1) - 0.5) < 1e-12

    def test_sequences_are_seed_deterministic(self):
        a = purity_rb_sequences([0], lengths=(1, 2), n_seeds=2, seed=3)
        b = purity_rb_sequences([0], lengths=(1, 2), n_seeds=2, seed=3)
        assert [s.clifford_indices for s in a] == [s.clifford_indices for s in b]


class TestCyclePhysics:
    def test_pauli_indices_are_the_four_paulis(self):
        group = clifford_group(1)
        indices = pauli_indices(group)
        assert len(indices) == 4
        assert len(set(indices)) == 4
        assert all(0 <= i < len(group) for i in indices)

    def test_error_per_cycle_nonnegative(self, backend):
        result = run_cycle_benchmark(backend, "x", [0], **CYCLE_ARGS)
        assert result.gate == "x"
        assert result.error_per_cycle >= 0.0
        assert result.error_per_cycle < 0.5

    def test_sequences_interleave_paulis(self):
        plain = cycle_sequences([0], "x", lengths=(2,), n_seeds=1, seed=3)
        assert all(len(s.clifford_indices) >= 2 for s in plain)


class TestSessionIntegration:
    @pytest.mark.parametrize(
        "spec",
        [
            XEBSpec(device="montreal", qubits=(0,), **XEB_ARGS),
            PurityRBSpec(device="montreal", qubits=(0,), **PURITY_ARGS),
            CycleBenchSpec(device="montreal", gate="x", qubits=(0,), **CYCLE_ARGS),
        ],
        ids=["xeb", "purity_rb", "cycle"],
    )
    def test_submit_records_table_provenance(self, tmp_path, spec):
        with Session(store=str(tmp_path / "store"), num_workers=1) as session:
            result = session.run(spec)
        assert result.kind == spec.kind
        assert result.provenance["spec_fingerprint"] == spec.fingerprint()
        # the channel-table artifact that fed the run is recorded
        assert len(result.provenance["store_key"]) == 64
        assert result["fit_status"] in FIT_STATUSES
        assert result["reduced_chi2"] > 0
