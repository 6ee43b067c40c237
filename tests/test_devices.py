"""Tests for device models: properties, transmon, cross-resonance, coupling, drift, library."""

import numpy as np
import pytest

from repro.devices import (
    BackendProperties,
    CalibrationDriftModel,
    CouplingMap,
    CrossResonanceModel,
    QubitProperties,
    TransmonModel,
    fake_boeblingen,
    fake_montreal,
    fake_rome,
    fake_toronto,
    get_device,
    heavy_hex_falcon27,
    linear_coupling,
)
from repro.devices.properties import TWO_PI
from repro.devices.transmon import collapse_operators, drive_operators, duffing_drift, embed_qubit_unitary, computational_projector
from repro.qobj import cx_gate, hadamard, pauli
from harness.quantum import is_hermitian
from repro.utils.validation import ValidationError


class TestQubitProperties:
    def test_valid_construction(self):
        q = QubitProperties(frequency=5.0, t1=80_000, t2=90_000)
        assert q.pure_dephasing_rate >= 0

    def test_t2_bound(self):
        with pytest.raises(ValidationError):
            QubitProperties(frequency=5.0, t1=10_000, t2=30_000)

    def test_confusion_matrix_columns_sum_to_one(self):
        q = QubitProperties(frequency=5.0, readout_p01=0.1, readout_p10=0.02)
        m = q.confusion_matrix()
        assert np.allclose(m.sum(axis=0), 1.0)
        assert m[0, 1] == pytest.approx(0.1)

    def test_pure_dephasing_zero_when_t2_limit(self):
        q = QubitProperties(frequency=5.0, t1=50_000, t2=100_000)
        assert q.pure_dephasing_rate == pytest.approx(0.0)


class TestBackendProperties:
    def test_montreal_published_values(self):
        b = fake_montreal()
        assert b.n_qubits == 27
        assert b.quantum_volume == 128
        assert b.qubit(0).frequency == pytest.approx(4.911)
        assert b.qubit(0).t1 == pytest.approx(86_760.0)
        assert b.average_single_qubit_gate_error() == pytest.approx(4.268e-4, rel=1e-6)

    def test_toronto_published_values(self):
        b = fake_toronto()
        assert b.quantum_volume == 32
        assert b.qubit(0).frequency == pytest.approx(5.225)
        assert b.average_t1() == pytest.approx(83_520.0, rel=0.05)

    def test_qubit0_low_connectivity(self):
        b = fake_montreal()
        assert b.neighbors(0) == [1]

    def test_gate_properties_lookup(self):
        b = fake_montreal()
        g = b.gate_properties("x", (0,))
        assert g is not None and g.duration == pytest.approx(32.0)
        assert b.gate_properties("x", (99,)) is None

    def test_with_qubit_returns_modified_copy(self):
        b = fake_montreal()
        b2 = b.with_qubit(0, t1=50_000.0, t2=50_000.0)
        assert b2.qubit(0).t1 == pytest.approx(50_000.0)
        assert b.qubit(0).t1 == pytest.approx(86_760.0)

    def test_samples_for_duration(self):
        b = fake_montreal()
        assert b.samples_for_duration(32.0) == round(32.0 / b.dt)

    def test_invalid_qubit_index(self):
        with pytest.raises(ValidationError):
            fake_rome().qubit(10)

    def test_registry(self):
        assert get_device("ibmq_montreal").name == "fake_montreal"
        assert get_device("ROME").n_qubits == 5
        with pytest.raises(KeyError):
            get_device("ibmq_unknown")

    def test_all_devices_build(self):
        for factory in (fake_montreal, fake_toronto, fake_boeblingen, fake_rome):
            props = factory()
            assert props.n_qubits >= 5
            # coupled qubits are never degenerate (CR model requirement)
            for a, b in props.coupling:
                assert abs(props.qubit(a).frequency - props.qubit(b).frequency) > 1e-4


class TestTransmonModel:
    def test_duffing_drift_spectrum(self):
        drift = duffing_drift(3, anharmonicity_ghz=-0.33, detuning_ghz=0.0)
        evals = np.sort(np.linalg.eigvalsh(drift))
        # level 2 sits at 2*pi*alpha below the harmonic ladder
        assert evals[0] == pytest.approx(TWO_PI * (-0.33), rel=1e-9)
        assert is_hermitian(drift)

    def test_drive_operators_reduce_to_pauli(self):
        hx, hy = drive_operators(2, 0.05)
        assert np.allclose(hx, TWO_PI * 0.05 * 0.5 * pauli("X"))
        assert np.allclose(hy, TWO_PI * 0.05 * 0.5 * pauli("Y"))

    def test_collapse_operator_rates(self):
        ops = collapse_operators(2, t1_ns=10_000, t2_ns=8_000)
        assert len(ops) == 2  # damping + dephasing
        assert np.allclose(ops[0][0, 1], np.sqrt(1 / 10_000))

    def test_collapse_no_dephasing_at_t2_limit(self):
        ops = collapse_operators(2, t1_ns=10_000, t2_ns=20_000)
        assert len(ops) == 1

    def test_embed_qubit_unitary(self):
        u3 = embed_qubit_unitary(hadamard(), 3)
        assert np.allclose(u3[:2, :2], hadamard())
        assert u3[2, 2] == 1.0

    def test_embed_rejects_wrong_shape(self):
        with pytest.raises(ValidationError):
            embed_qubit_unitary(cx_gate(), 3)

    def test_computational_projector(self):
        p = computational_projector(3, 2)
        assert p.shape == (4, 9)
        assert np.allclose(p @ p.conj().T, np.eye(4))

    def test_model_views(self):
        q = QubitProperties(frequency=5.0, detuning_error=1e-4)
        device = TransmonModel(q, levels=3, use_true_detuning=True)
        optimizer = device.optimizer_view()
        assert not np.allclose(device.drift_hamiltonian(), optimizer.drift_hamiltonian())
        assert np.allclose(optimizer.drift_hamiltonian()[:2, :2], 0.0)

    def test_pi_pulse_amplitude(self):
        q = QubitProperties(frequency=5.0, drive_strength=0.05)
        model = TransmonModel(q)
        amp = model.pi_pulse_amplitude(50.0)
        assert amp == pytest.approx(1.0 / (2 * 0.05 * 50.0))


class TestCrossResonance:
    def _model(self, **kw):
        c = QubitProperties(frequency=4.911, detuning_error=5e-5)
        t = QubitProperties(frequency=4.995)
        return CrossResonanceModel(control=c, target=t, coupling_ghz=0.002, **kw)

    def test_control_terms_structure(self):
        model = self._model()
        xi, ix, zx = model.control_hamiltonians()
        assert np.allclose(xi * 2 / (TWO_PI * model.control.drive_strength), pauli("XI"))
        assert np.allclose(ix * 2 / (TWO_PI * model.target.drive_strength), pauli("IX"))
        # the ZX rate is J/Delta * drive strength
        expected = model.coupling_ghz / model.delta_12 * model.control.drive_strength
        assert model.zx_rate_per_amplitude == pytest.approx(expected)

    def test_quadrature_terms(self):
        model = self._model()
        yi, iy, zy = model.quadrature_control_hamiltonians()
        assert np.allclose(yi * 2 / (TWO_PI * model.control.drive_strength), pauli("YI"))

    def test_drift_views(self):
        model = self._model(include_detuning=False)
        drift_opt = model.optimizer_view().drift_hamiltonian()
        drift_dev = model.device_view().drift_hamiltonian()
        # both contain the known ZZ term; only the device view adds detunings
        assert not np.allclose(drift_opt, drift_dev)
        assert is_hermitian(drift_dev)

    def test_collapse_operators_count(self):
        ops = self._model().collapse_operators()
        assert len(ops) >= 2 and all(op.shape == (4, 4) for op in ops)

    def test_degenerate_frequencies_rejected(self):
        c = QubitProperties(frequency=5.0)
        t = QubitProperties(frequency=5.0)
        with pytest.raises(ValidationError):
            CrossResonanceModel(control=c, target=t)

    def test_target_is_cnot(self):
        assert np.allclose(self._model().target_unitary(), cx_gate())


class TestCouplingMap:
    def test_falcon27_structure(self):
        cmap = heavy_hex_falcon27()
        assert cmap.n_qubits == 27
        assert cmap.is_connected()
        assert cmap.neighbors(0) == [1]
        assert 0 in cmap.lowest_degree_qubits()

    def test_linear_coupling(self):
        cmap = linear_coupling(5)
        assert cmap.are_coupled(2, 3)
        assert not cmap.are_coupled(0, 4)
        assert cmap.distance(0, 4) == 4
        assert cmap.shortest_path(0, 2) == [0, 1, 2]

    def test_invalid_edge(self):
        with pytest.raises(ValidationError):
            CouplingMap(3, [(0, 3)])

    def test_contains(self):
        cmap = linear_coupling(4)
        assert (1, 2) in cmap


class TestDrift:
    def test_day0_is_nominal(self):
        model = CalibrationDriftModel(nominal=fake_montreal(), seed=3)
        assert model.properties_on_day(0) is model.nominal

    def test_deterministic_per_day(self):
        model = CalibrationDriftModel(nominal=fake_montreal(), seed=3)
        a = model.properties_on_day(4)
        b = model.properties_on_day(4)
        assert a.qubit(0).detuning_error == pytest.approx(b.qubit(0).detuning_error)

    def test_days_differ(self):
        model = CalibrationDriftModel(nominal=fake_montreal(), seed=3)
        d1 = model.properties_on_day(1).qubit(0)
        d2 = model.properties_on_day(2).qubit(0)
        assert d1.detuning_error != pytest.approx(d2.detuning_error)

    def test_t2_constraint_maintained(self):
        model = CalibrationDriftModel(nominal=fake_montreal(), seed=11, t2_rel_sigma=0.5)
        for day in range(1, 6):
            q = model.properties_on_day(day).qubit(0)
            assert q.t2 <= 2 * q.t1 + 1e-9

    def test_properties_over_days(self):
        model = CalibrationDriftModel(nominal=fake_rome(), seed=1)
        snaps = model.properties_over_days(3)
        assert len(snaps) == 3

    def test_invalid_day(self):
        model = CalibrationDriftModel(nominal=fake_rome())
        with pytest.raises(ValidationError):
            model.properties_on_day(-1)
