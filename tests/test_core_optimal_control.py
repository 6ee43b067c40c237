"""Tests for the optimal-control core: parametrization, gradients, optimizers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    FourierAnsatz,
    OptimResult,
    TimeGrid,
    clip_amplitudes,
    grape_cost_and_gradient,
    initial_amplitudes,
    optimize_pulse_unitary,
    unitary_psu_infidelity,
)
from repro.core.parametrization import PULSE_TYPES
from repro.devices import TransmonModel, QubitProperties
from repro.devices.transmon import collapse_operators, embed_qubit_unitary
from repro.qobj import hadamard, sx_gate, x_gate
from repro.utils.validation import ValidationError

Q = QubitProperties(frequency=4.911, anharmonicity=-0.33, t1=86_760, t2=90_000, drive_strength=0.05)
MODEL2 = TransmonModel(Q, levels=2)
DRIFT2 = MODEL2.drift_hamiltonian()
CTRLS2 = MODEL2.control_hamiltonians()


class TestTimeGridAndGuesses:
    def test_time_grid(self):
        grid = TimeGrid(n_ts=10, evo_time=50.0)
        assert grid.dt == pytest.approx(5.0)
        assert grid.midpoints[0] == pytest.approx(2.5)
        assert len(grid.boundaries) == 11

    def test_time_grid_validation(self):
        with pytest.raises(ValidationError):
            TimeGrid(n_ts=0, evo_time=10.0)

    @pytest.mark.parametrize("pulse_type", PULSE_TYPES)
    def test_initial_amplitudes_shapes_and_bounds(self, pulse_type):
        grid = TimeGrid(n_ts=20, evo_time=100.0)
        amps = initial_amplitudes(2, grid, pulse_type=pulse_type, scale=0.3, seed=1)
        assert amps.shape == (2, 20)
        assert np.all(np.abs(amps) <= 1.0 + 1e-12)

    def test_unknown_pulse_type(self):
        with pytest.raises(ValidationError):
            initial_amplitudes(1, TimeGrid(5, 10.0), pulse_type="SQUIGGLE")

    def test_drag_guess_structure(self):
        grid = TimeGrid(n_ts=50, evo_time=100.0)
        amps = initial_amplitudes(2, grid, pulse_type="DRAG", scale=0.4)
        # first row symmetric (Gaussian), second row antisymmetric (derivative)
        assert amps[0].max() == pytest.approx(0.4, rel=1e-6)
        assert np.allclose(amps[1], -amps[1][::-1], atol=1e-9)

    def test_clip_amplitudes(self):
        out = clip_amplitudes(np.array([[2.0, -3.0]]), -1.0, 1.0)
        assert np.allclose(out, [[1.0, -1.0]])
        untouched = clip_amplitudes(np.array([[2.0]]), None, None)
        assert untouched[0, 0] == pytest.approx(2.0)


class TestGradients:
    def _fd_gradient(self, amps, dt, target, **kw):
        grad = np.zeros_like(amps)
        eps = 1e-6
        for j in range(amps.shape[0]):
            for k in range(amps.shape[1]):
                up, down = amps.copy(), amps.copy()
                up[j, k] += eps
                down[j, k] -= eps
                cu, _ = grape_cost_and_gradient(DRIFT2, CTRLS2, up, dt, target, **kw)
                cd, _ = grape_cost_and_gradient(DRIFT2, CTRLS2, down, dt, target, **kw)
                grad[j, k] = (cu - cd) / (2 * eps)
        return grad

    def test_closed_exact_gradient(self, rng):
        amps = rng.uniform(-0.3, 0.3, size=(2, 6))
        cost, grad = grape_cost_and_gradient(DRIFT2, CTRLS2, amps, 5.0, x_gate(), gradient="exact")
        assert np.allclose(grad, self._fd_gradient(amps, 5.0, x_gate(), gradient="exact"), atol=1e-7)
        assert 0.0 <= cost <= 1.0

    def test_closed_su_gradient(self, rng):
        amps = rng.uniform(-0.3, 0.3, size=(2, 5))
        _, grad = grape_cost_and_gradient(DRIFT2, CTRLS2, amps, 4.0, x_gate(), phase_option="SU", gradient="exact")
        fd = self._fd_gradient(amps, 4.0, x_gate(), phase_option="SU", gradient="exact")
        assert np.allclose(grad, fd, atol=1e-7)

    def test_open_exact_gradient(self, rng):
        amps = rng.uniform(-0.3, 0.3, size=(2, 4))
        cops = collapse_operators(2, Q.t1, Q.t2)
        _, grad = grape_cost_and_gradient(DRIFT2, CTRLS2, amps, 6.0, x_gate(), c_ops=cops, gradient="exact")
        fd = self._fd_gradient(amps, 6.0, x_gate(), c_ops=cops, gradient="exact")
        assert np.allclose(grad, fd, atol=1e-7)

    def test_subspace_gradient_three_levels(self, rng):
        model3 = TransmonModel(Q, levels=3)
        drift3, ctrls3 = model3.drift_hamiltonian(), model3.control_hamiltonians()
        target3 = embed_qubit_unitary(x_gate(), 3)
        amps = rng.uniform(-0.2, 0.2, size=(2, 4))
        cost, grad = grape_cost_and_gradient(drift3, ctrls3, amps, 8.0, target3, gradient="exact", subspace_dim=2)
        eps = 1e-6
        fd = np.zeros_like(grad)
        for j in range(2):
            for k in range(4):
                up, down = amps.copy(), amps.copy()
                up[j, k] += eps
                down[j, k] -= eps
                cu, _ = grape_cost_and_gradient(drift3, ctrls3, up, 8.0, target3, gradient="exact", subspace_dim=2)
                cd, _ = grape_cost_and_gradient(drift3, ctrls3, down, 8.0, target3, gradient="exact", subspace_dim=2)
                fd[j, k] = (cu - cd) / (2 * eps)
        assert np.allclose(grad, fd, atol=1e-7)

    @pytest.mark.parametrize("gradient", ["exact", "approx"])
    @pytest.mark.parametrize("open_system", [False, True], ids=["closed", "open"])
    def test_cached_einsum_path_bit_identical(self, rng, monkeypatch, gradient, open_system):
        """A cached contraction path gives the bytes ``optimize=True`` gives."""
        import repro.core.grape as grape_module

        model3 = TransmonModel(Q, levels=3)
        drift3, ctrls3 = model3.drift_hamiltonian(), model3.control_hamiltonians()
        target3 = embed_qubit_unitary(x_gate(), 3)
        amps = rng.uniform(-0.2, 0.2, size=(2, 7))
        kwargs = dict(
            c_ops=collapse_operators(3, Q.t1, Q.t2) if open_system else None,
            gradient=gradient,
            subspace_dim=2,
        )
        # the second call takes the path from the cache
        cached = [
            grape_cost_and_gradient(drift3, ctrls3, amps, 8.0, target3, **kwargs) for _ in range(2)
        ]
        monkeypatch.setattr(
            grape_module,
            "_einsum",
            lambda subscripts, *operands: np.einsum(subscripts, *operands, optimize=True),
        )
        cost, grad = grape_cost_and_gradient(drift3, ctrls3, amps, 8.0, target3, **kwargs)
        for cached_cost, cached_grad in cached:
            assert cached_cost == cost
            assert cached_grad.tobytes() == grad.tobytes()

    def test_approx_gradient_close_to_exact_for_small_dt(self, rng):
        amps = rng.uniform(-0.3, 0.3, size=(2, 20))
        _, g_exact = grape_cost_and_gradient(DRIFT2, CTRLS2, amps, 0.5, x_gate(), gradient="exact")
        _, g_approx = grape_cost_and_gradient(DRIFT2, CTRLS2, amps, 0.5, x_gate(), gradient="approx")
        assert np.allclose(g_exact, g_approx, atol=5e-3)

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            grape_cost_and_gradient(DRIFT2, CTRLS2, np.zeros(5), 1.0, x_gate())


class TestOptimizers:
    def test_lbfgs_reaches_target(self):
        res = optimize_pulse_unitary(DRIFT2, CTRLS2, np.eye(2), x_gate(), n_ts=10, evo_time=80.0, seed=0)
        assert res.fid_err < 1e-8
        assert res.converged
        assert res.final_amps.shape == (2, 10)
        assert unitary_psu_infidelity(x_gate(), res.final_operator) < 1e-8

    def test_lbfgs_respects_amplitude_bounds(self):
        res = optimize_pulse_unitary(
            DRIFT2, CTRLS2, np.eye(2), hadamard(), n_ts=12, evo_time=60.0,
            amp_lbound=-0.2, amp_ubound=0.2, seed=1,
        )
        assert np.all(res.final_amps <= 0.2 + 1e-9)
        assert np.all(res.final_amps >= -0.2 - 1e-9)
        assert res.fid_err < 1e-6

    def test_grape_descent_improves(self):
        res = optimize_pulse_unitary(
            DRIFT2, CTRLS2, np.eye(2), x_gate(), n_ts=8, evo_time=60.0,
            method="GRAPE", max_iter=60, seed=2,
        )
        assert res.fid_err < res.fid_err_history[0]
        assert res.fid_err < 1e-3
        assert res.method == "GRAPE"

    def test_krotov_improves_monotonically(self):
        res = optimize_pulse_unitary(
            DRIFT2, CTRLS2, np.eye(2), hadamard(), n_ts=10, evo_time=60.0,
            method="KROTOV", max_iter=40, seed=3,
        )
        history = np.array(res.fid_err_history)
        assert np.all(np.diff(history) <= 1e-10)
        assert res.fid_err < 1e-4

    def test_spsa_converges_roughly(self):
        res = optimize_pulse_unitary(
            DRIFT2, CTRLS2, np.eye(2), x_gate(), n_ts=8, evo_time=60.0,
            method="SPSA", max_iter=200, seed=4,
        )
        assert res.fid_err < 1e-2
        assert res.n_fun_evals > 100

    def test_crab_converges_roughly(self):
        res = optimize_pulse_unitary(
            DRIFT2, CTRLS2, np.eye(2), x_gate(), n_ts=16, evo_time=80.0,
            method="CRAB", max_iter=300, seed=5, init_pulse_type="SINE", init_pulse_scale=0.2,
        )
        assert res.fid_err < 5e-2

    def test_goat_reaches_high_fidelity(self):
        res = optimize_pulse_unitary(
            DRIFT2, CTRLS2, np.eye(2), x_gate(), n_ts=30, evo_time=80.0,
            method="GOAT", max_iter=150, seed=6, n_modes=3,
        )
        assert res.fid_err < 1e-6
        assert "theta" in res.metadata

    def test_lbfgs_beats_spsa(self):
        """The paper's central optimizer finding."""
        common = dict(n_ts=10, evo_time=80.0, max_iter=150, seed=7)
        lbfgs = optimize_pulse_unitary(DRIFT2, CTRLS2, np.eye(2), x_gate(), method="LBFGS", **common)
        spsa = optimize_pulse_unitary(DRIFT2, CTRLS2, np.eye(2), x_gate(), method="SPSA", **common)
        assert lbfgs.fid_err < spsa.fid_err

    def test_open_system_optimization_bounded_by_decoherence(self):
        cops = collapse_operators(2, Q.t1, Q.t2)
        res = optimize_pulse_unitary(
            DRIFT2, CTRLS2, np.eye(2), x_gate(), n_ts=10, evo_time=105.0,
            c_ops=cops, max_iter=100, seed=8,
        )
        # cannot beat the decoherence floor, but must get close to it
        assert 1e-4 < res.fid_err < 5e-3

    def test_non_identity_initial_operator(self):
        res = optimize_pulse_unitary(DRIFT2, CTRLS2, x_gate(), x_gate(), n_ts=8, evo_time=60.0, seed=9)
        # starting from X and targeting X means the pulse must implement identity
        assert unitary_psu_infidelity(np.eye(2), res.final_operator) < 1e-6

    def test_invalid_method(self):
        with pytest.raises(ValidationError):
            optimize_pulse_unitary(DRIFT2, CTRLS2, np.eye(2), x_gate(), n_ts=4, evo_time=10.0, method="NEWTON")

    def test_explicit_initial_amps(self):
        init = np.full((2, 6), 0.1)
        res = optimize_pulse_unitary(
            DRIFT2, CTRLS2, np.eye(2), sx_gate(), n_ts=6, evo_time=40.0, initial_amps=init, seed=10
        )
        assert np.allclose(res.initial_amps, init)
        assert res.fid_err < 1e-7

    def test_result_repr_and_properties(self):
        res = optimize_pulse_unitary(DRIFT2, CTRLS2, np.eye(2), x_gate(), n_ts=6, evo_time=50.0, seed=11)
        assert isinstance(res, OptimResult)
        assert "fid_err" in repr(res)
        assert res.fidelity == pytest.approx(1 - res.fid_err)


class TestFourierAnsatz:
    def test_amplitudes_and_chain_rule_shapes(self):
        ansatz = FourierAnsatz(n_ctrls=2, n_modes=3, grid=TimeGrid(20, 100.0))
        theta = np.linspace(-0.1, 0.1, ansatz.n_params)
        amps = ansatz.amplitudes(theta)
        assert amps.shape == (2, 20)
        grad = ansatz.chain_rule(np.ones((2, 20)))
        assert grad.shape == (ansatz.n_params,)

    def test_window_zeroes_edges(self):
        ansatz = FourierAnsatz(n_ctrls=1, n_modes=2, grid=TimeGrid(64, 64.0))
        amps = ansatz.amplitudes(np.array([0.5, -0.3]))
        assert abs(amps[0, 0]) < 0.05
        assert abs(amps[0, -1]) < 0.05


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=1000))
def test_psu_cost_bounded(seed):
    rng = np.random.default_rng(seed)
    amps = rng.uniform(-0.5, 0.5, size=(2, 5))
    cost, _ = grape_cost_and_gradient(DRIFT2, CTRLS2, amps, 3.0, hadamard())
    assert -1e-9 <= cost <= 1.0 + 1e-9
