"""Tests for the operator and state constructors: one representation, plain arrays."""

import numpy as np
import pytest

import repro.qobj
from harness.quantum import (
    bell_state,
    coherent,
    ghz_state,
    ket2dm,
    maximally_mixed_dm,
    plus_state,
    thermal_dm,
)
from repro.qobj import (
    basis,
    destroy,
    identity,
    num,
    pauli,
    projector_op,
    sigmam,
    sigmap,
    sigmax,
    sigmay,
    sigmaz,
)
from repro.utils.validation import ValidationError

#: One call per public constructor (a callable returning an operator, ket or gate).
CONSTRUCTOR_CALLS = {
    "identity": lambda: repro.qobj.identity(3),
    "sigmax": lambda: repro.qobj.sigmax(3),
    "sigmay": lambda: repro.qobj.sigmay(),
    "sigmaz": lambda: repro.qobj.sigmaz(),
    "sigmap": lambda: repro.qobj.sigmap(),
    "sigmam": lambda: repro.qobj.sigmam(),
    "pauli": lambda: repro.qobj.pauli("XZ"),
    "destroy": lambda: repro.qobj.destroy(3),
    "create": lambda: repro.qobj.create(3),
    "num": lambda: repro.qobj.num(3),
    "projector_op": lambda: repro.qobj.projector_op(1, 3),
    "basis": lambda: repro.qobj.basis(3, 1),
    "expand_operator": lambda: repro.qobj.expand_operator(repro.qobj.x_gate(), 2, 1),
    "rx_gate": lambda: repro.qobj.rx_gate(0.3),
    "ry_gate": lambda: repro.qobj.ry_gate(0.3),
    "rz_gate": lambda: repro.qobj.rz_gate(0.3),
    "phase_gate": lambda: repro.qobj.phase_gate(0.3),
    "u3_gate": lambda: repro.qobj.u3_gate(0.1, 0.2, 0.3),
    "cr_gate": lambda: repro.qobj.cr_gate(0.3),
    "standard_gate_unitary": lambda: repro.qobj.standard_gate_unitary("h"),
}
#: The fixed (argument-free) gate unitaries.
CONSTRUCTOR_CALLS.update(
    {
        name: getattr(repro.qobj, name)
        for name in repro.qobj.gates.__all__
        if name not in CONSTRUCTOR_CALLS and name != "GATE_UNITARIES"
    }
)


class TestOneRepresentation:
    def test_every_constructor_is_covered(self):
        """Each public operator, state and gate constructor of ``repro.qobj`` is listed above."""
        modules = (repro.qobj.operators, repro.qobj.states, repro.qobj.gates)
        constructors = {name for module in modules for name in module.__all__} - {"GATE_UNITARIES"}
        constructors.add("expand_operator")
        assert constructors == set(CONSTRUCTOR_CALLS)
        assert constructors <= set(repro.qobj.__all__)

    @pytest.mark.parametrize("name", sorted(CONSTRUCTOR_CALLS))
    def test_constructor_returns_complex_ndarray(self, name):
        out = CONSTRUCTOR_CALLS[name]()
        assert type(out) is np.ndarray
        assert out.dtype == complex and out.ndim == 2

    @pytest.mark.parametrize("label", ["X", "Y", "Z"])
    def test_pauli_returns_a_fresh_array(self, label):
        """Writing into one result must not change the next call's."""
        first = pauli(label)
        expected = first.copy()
        first[0, 0] = 7.0
        assert np.array_equal(pauli(label), expected)


class TestOperators:
    def test_pauli_algebra(self):
        x, y, z = (sigmax(), sigmay(), sigmaz())
        assert np.allclose(x @ y - y @ x, 2j * z)
        assert np.allclose(x @ x, np.eye(2))

    def test_embedded_pauli_three_levels(self):
        x3 = sigmax(levels=3)
        assert x3.shape == (3, 3)
        assert np.allclose(x3[:2, :2], sigmax())
        assert np.allclose(x3[2, :], 0)

    def test_ladder_operators(self):
        assert np.allclose(sigmap() @ basis(2, 0), basis(2, 1))
        assert np.allclose(sigmam(), sigmap().conj().T)

    def test_destroy_create_commutator(self):
        n_levels = 6
        a = destroy(n_levels)
        comm = a @ a.conj().T - a.conj().T @ a
        # [a, a†] = 1 except the truncated corner
        assert np.allclose(np.diag(comm)[:-1], 1.0)

    def test_number_operator(self):
        assert np.allclose(np.diag(num(4)), [0, 1, 2, 3])
        a = destroy(4)
        assert np.allclose(a.conj().T @ a, num(4))

    def test_multi_qubit_pauli_label(self):
        zx = pauli("ZX")
        assert zx.shape == (4, 4)
        assert np.allclose(zx, np.kron(sigmaz(), sigmax()))

    def test_pauli_invalid_label(self):
        with pytest.raises(ValueError):
            pauli("XQ")

    def test_projector_op(self):
        p2 = projector_op(2, 3)
        assert p2[2, 2] == 1.0 and np.sum(np.abs(p2)) == 1.0

    def test_identity_alias(self):
        assert np.allclose(identity(3), np.eye(3))


class TestStates:
    def test_basis_and_bounds(self):
        assert basis(4, 2)[2, 0] == 1.0
        with pytest.raises(ValidationError):
            basis(2, 2)

    def test_ket2dm(self):
        rho = ket2dm(plus_state())
        assert np.allclose(rho, 0.5 * np.ones((2, 2)))

    def test_maximally_mixed(self):
        rho = maximally_mixed_dm(4)
        assert np.trace(rho) == pytest.approx(1.0)
        assert np.allclose(rho, np.eye(4) / 4)

    def test_bell_states_orthonormal(self):
        labels = ["phi+", "phi-", "psi+", "psi-"]
        kets = [bell_state(lbl) for lbl in labels]
        gram = np.array([[abs(np.vdot(a, b)) for b in kets] for a in kets])
        assert np.allclose(gram, np.eye(4), atol=1e-12)

    def test_bell_state_unknown(self):
        with pytest.raises(ValidationError):
            bell_state("phi")

    def test_ghz_state(self):
        ket = ghz_state(3)
        assert abs(ket[0, 0]) ** 2 == pytest.approx(0.5)
        assert abs(ket[-1, 0]) ** 2 == pytest.approx(0.5)

    def test_coherent_state_mean_photon_number(self):
        alpha = 0.8
        ket = coherent(25, alpha)
        n_op = num(25)
        mean_n = float(np.real((ket.conj().T @ n_op @ ket)[0, 0]))
        assert mean_n == pytest.approx(abs(alpha) ** 2, rel=1e-3)

    def test_thermal_dm(self):
        rho = thermal_dm(30, 0.5)
        assert np.trace(rho).real == pytest.approx(1.0)
        mean_n = float(np.real(np.trace(num(30) @ rho)))
        assert mean_n == pytest.approx(0.5, rel=1e-2)

    def test_thermal_dm_zero_temperature(self):
        rho = thermal_dm(5, 0.0)
        assert rho[0, 0] == pytest.approx(1.0)
