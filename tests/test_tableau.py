"""Symplectic-tableau composer vs matrix-multiply ground truth.

Every tableau operation (extraction from a unitary, composition, inversion,
group indexing) is checked against the explicit matrix algebra of the
Clifford group on random 1q/2q sequences, per the PR acceptance criteria.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.benchmarking.clifford import CliffordGroup, _bfs_tree, _generator_list, clifford_group
from repro.benchmarking.rb import _recovery_index
from repro.benchmarking.tableau import (
    CliffordTableauIndex,
    Tableau,
    _push_through,
    generator_tableau,
    identity_tableau,
    tableau_compose,
    tableau_from_unitary,
    tableau_from_word,
    tableau_images,
    tableau_inverse,
    tableau_key,
    tableau_keys,
)
from repro.utils.validation import ValidationError


@pytest.fixture(scope="module")
def group1():
    return clifford_group(1)


@pytest.fixture(scope="module")
def group2():
    return clifford_group(2)


class TestTableauPrimitives:
    def test_identity_tableau_matches_identity_unitary(self):
        for n in (1, 2):
            assert identity_tableau(n) == tableau_from_unitary(np.eye(2**n))

    def test_generator_tableaux_match_their_unitaries(self):
        # reuse the group's generator list: names, local qubits and matrices
        for (name, qubits), matrix in _generator_list(2):
            assert generator_tableau(name, qubits, 2) == tableau_from_unitary(matrix)

    def test_word_tableau_matches_element_unitary(self, group1, group2):
        rng = np.random.default_rng(11)
        for element in group1._elements:
            assert tableau_from_word(element.word, 1) == tableau_from_unitary(element.matrix)
        for index in rng.integers(0, len(group2), size=50):
            element = group2.element(int(index))
            assert tableau_from_word(element.word, 2) == tableau_from_unitary(element.matrix)

    @pytest.mark.parametrize("n", [1, 2])
    def test_compose_matches_matrix_product_on_random_sequences(self, n, group1, group2):
        group = group1 if n == 1 else group2
        rng = np.random.default_rng(n)
        for _ in range(25):
            indices = rng.integers(0, len(group), size=rng.integers(2, 8))
            tab = identity_tableau(n)
            mat = np.eye(2**n, dtype=complex)
            for index in indices:
                element = group.element(int(index))
                tab = tableau_compose(tab, tableau_from_word(element.word, n))
                mat = element.matrix @ mat
            assert tab == tableau_from_unitary(mat)

    @pytest.mark.parametrize("n", [1, 2])
    def test_inverse_matches_conjugate_transpose(self, n, group1, group2):
        group = group1 if n == 1 else group2
        rng = np.random.default_rng(20 + n)
        for index in rng.integers(0, len(group), size=30):
            element = group.element(int(index))
            tab = tableau_from_word(element.word, n)
            assert tableau_inverse(tab) == tableau_from_unitary(element.matrix.conj().T)
            # inverse composes to the identity in both orders
            assert tableau_compose(tab, tableau_inverse(tab)) == identity_tableau(n)
            assert tableau_compose(tableau_inverse(tab), tab) == identity_tableau(n)

    def test_rejects_non_clifford_unitary(self):
        t_gate = np.diag([1.0, np.exp(1j * np.pi / 4)])
        with pytest.raises(ValidationError):
            tableau_from_unitary(t_gate)

    def test_rejects_phase_parity_violation(self):
        # X -> X with phase 1 is not Hermitian-consistent
        with pytest.raises(ValidationError):
            Tableau(n=1, rows=(1, 2), phases=(1, 0))

    def test_keys_unique_across_both_groups(self, group1, group2):
        for group in (group1, group2):
            index = group.tableau_index()
            keys = {tableau_key(index.tableau(i)) for i in range(len(group))}
            assert len(keys) == len(group)


class TestCliffordTableauIndex:
    @pytest.mark.parametrize("n", [1, 2])
    def test_compose_index_matches_matrix_lookup(self, n, group1, group2):
        group = group1 if n == 1 else group2
        index = group.tableau_index()
        rng = np.random.default_rng(33 + n)
        for first, second in rng.integers(0, len(group), size=(40, 2)):
            expected = group.lookup(
                group.element(int(second)).matrix @ group.element(int(first)).matrix
            ).index
            assert index.compose_index(int(first), int(second)) == expected

    @pytest.mark.parametrize("n", [1, 2])
    def test_inverse_index_matches_matrix_lookup(self, n, group1, group2):
        group = group1 if n == 1 else group2
        index = group.tableau_index()
        rng = np.random.default_rng(44 + n)
        for i in rng.integers(0, len(group), size=40):
            expected = group.lookup(group.element(int(i)).matrix.conj().T).index
            assert index.inverse_index(int(i)) == expected

    def test_group_compose_and_inverse_delegate_consistently(self, group2):
        """CliffordGroup.compose/inverse (tableau path for 2q) match matrices."""
        rng = np.random.default_rng(5)
        for first, second in rng.integers(0, len(group2), size=(20, 2)):
            a, b = group2.element(int(first)), group2.element(int(second))
            assert group2.compose(a, b).index == group2.lookup(b.matrix @ a.matrix).index
            assert group2.inverse(a).index == group2.lookup(a.matrix.conj().T).index

    @pytest.mark.parametrize("n", [1, 2])
    def test_recovery_index_inverts_random_sequences(self, n, group1, group2):
        """The RB recovery computed through tableaux really inverts the word."""
        group = group1 if n == 1 else group2
        rng = np.random.default_rng(55 + n)
        for _ in range(10):
            indices = [int(i) for i in rng.integers(0, len(group), size=6)]
            recovery = _recovery_index(group, indices)
            total = np.eye(2**n, dtype=complex)
            for i in indices:
                total = group.element(i).matrix @ total
            total = group.element(recovery).matrix @ total
            # net unitary is the identity up to global phase
            flat = total.ravel()
            phase = flat[int(np.argmax(np.abs(flat) > 1e-9))]
            np.testing.assert_allclose(total / phase, np.eye(2**n), atol=1e-9)

    def test_from_arrays_round_trip(self, group2):
        index = group2.tableau_index()
        rows, phases = index.to_arrays()
        rebuilt = CliffordTableauIndex(2, rows, phases)
        assert len(rebuilt) == len(index)
        rng = np.random.default_rng(66)
        for first, second in rng.integers(0, len(group2), size=(20, 2)):
            assert rebuilt.compose_index(int(first), int(second)) == index.compose_index(
                int(first), int(second)
            )
            assert rebuilt.inverse_index(int(first)) == index.inverse_index(int(first))


class TestVectorizedKernels:
    """The array kernels against their scalar references, on every element."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_image_tables_match_push_through(self, n, group1, group2):
        index = (group1 if n == 1 else group2).tableau_index()
        image_rows, image_phases = tableau_images(*index.to_arrays())
        for i in range(len(index)):
            tableau = index.tableau(i)
            expected = [_push_through(v, tableau) for v in range(4**n)]
            assert list(zip(image_rows[i].tolist(), image_phases[i].tolist())) == expected

    @pytest.mark.parametrize("n", [1, 2])
    def test_keys_match_scalar_keys(self, n, group1, group2):
        index = (group1 if n == 1 else group2).tableau_index()
        keys = tableau_keys(*index.to_arrays())
        assert keys.tolist() == [tableau_key(index.tableau(i)) for i in range(len(index))]

    @pytest.mark.parametrize("n", [1, 2])
    def test_inverse_table_matches_scalar_inverse(self, n):
        # a fresh index, so the table is built here by the vectorized pass
        index = CliffordTableauIndex(n, *clifford_group(n).tableau_index().to_arrays())
        for i in range(len(index)):
            expected = index.index_of_tableau(tableau_inverse(index.tableau(i)))
            assert index.inverse_index(i) == expected

    @pytest.mark.parametrize("n", [1, 2])
    def test_bfs_tree_matches_sequential_reference(self, n):
        # one tableau at a time off a queue: parents in discovery order,
        # generators in list order, first discovery wins
        generators = [generator_tableau(name, qubits, n) for (name, qubits), _ in _generator_list(n)]
        tableaux, parents, last_gates = [identity_tableau(n)], [-1], [-1]
        seen = {tableau_key(tableaux[0])}
        for parent, tableau in enumerate(tableaux):
            for gate, generator in enumerate(generators):
                child = tableau_compose(tableau, generator)
                if tableau_key(child) not in seen:
                    seen.add(tableau_key(child))
                    tableaux.append(child)
                    parents.append(parent)
                    last_gates.append(gate)
        arrays = CliffordGroup(n).to_arrays()
        tree = _bfs_tree(n, arrays["words"], arrays["word_offsets"])
        assert [t.tolist() for t in tree] == [parents, last_gates]
        assert arrays["tableau_rows"].tolist() == [list(t.rows) for t in tableaux]
        assert arrays["tableau_phases"].tolist() == [list(t.phases) for t in tableaux]


#: sha256 of every ``CliffordGroup(n).to_arrays()`` array and of the stacked
#: element matrices, recorded from the matrix-keyed enumeration this
#: tableau BFS replaced.  Seeded sampling and persisted group files depend on
#: the element order, so it must never change silently.
_PINNED_ENUMERATION = {
    1: {
        "words": "6a4b4eeaa7688f6d57f227631c8a0f180781f17dbce84e949828c66871111bf8",
        "word_offsets": "01974222e6dc71a0f30979b5b0257ca0aa83241fa7121eeabea89246511142a8",
        "tableau_rows": "731bfc6b35f632d8a487741d2104e39cf0903ce470ae2caca05eda93149dc01d",
        "tableau_phases": "d3268882ed51df221a661ebccae236688c2c3e9cb7cff288ad86b823a4878972",
        "matrices": "cde5748a25c55fa1c0e54c640ec126e326bf7f0af742d7d704393d27dc083d1b",
    },
    2: {
        "words": "642f6dd866d3fa0659539b67fbcda0e98baf8cafab6ede474637d27720b9bc0d",
        "word_offsets": "5b0a3ec9314807e7b188eb3af256dae98226daebb7c553be71346a12fadf09b1",
        "tableau_rows": "fdfbe3201c3fb72441c0dcbda6eeef974e6e878882800c3d22f7d2242dbc4966",
        "tableau_phases": "04efb262139b01e39fcec384054ef70fbba6aafecce2711d221e87f0d803cd24",
        "matrices": "09e09b91018b56a6228bfb57013103a7044f72c99579e10ce2ba94f69823bcc0",
    },
}


@pytest.mark.parametrize("n", [1, 2])
def test_fresh_enumeration_matches_pinned_digests(n):
    group = CliffordGroup(n)
    arrays = group.to_arrays()
    arrays["matrices"] = np.stack([group.element(i).matrix for i in range(len(group))])
    digests = {
        name: hashlib.sha256(np.ascontiguousarray(arrays[name]).tobytes()).hexdigest()
        for name in _PINNED_ENUMERATION[n]
    }
    assert digests == _PINNED_ENUMERATION[n]
