"""The single- and two-qubit Clifford groups with native-gate words.

Randomized benchmarking needs to (a) sample Cliffords uniformly, (b) compose
them, (c) find the inverse of a composed sequence, and (d) express every
element — including the recovery — as a circuit over the device's native
gates.

Both groups are built once (and cached) by breadth-first search over a
generating set (H and S on each qubit, plus CNOTs for two qubits), storing
for every element a word of generator gates that produces it.  Elements are
identified by their symplectic tableau (:mod:`repro.benchmarking.tableau`),
which fixes a Clifford up to global phase, so the search enumerates the
Clifford group modulo phase — 24 elements for one qubit and 11520 for two
qubits, the standard counts.  The search runs one level at a time on tableau
arrays, in the order a one-element-at-a-time queue would find the elements.
Composition, inversion and lookup are tableau arithmetic; element matrices
are only derived, by replaying the generator products one BFS level at a
time, so a group built cold and one loaded from the store hold bit-identical
matrices.  On a 2-vCPU VM the two-qubit build takes ≈0.04 s, less than
loading it from the store (≈0.05 s).

Generator words found by BFS are short for one qubit (≤ 5 gates, which the
transpiler then collapses to at most two ``sx`` pulses plus virtual Z) and
moderate for two qubits (a few CNOTs plus single-qubit gates), which is the
same order as the hardware-efficient decompositions used by Qiskit's RB.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tableau import (
    CliffordTableauIndex,
    _compose_through,
    generator_tableau,
    identity_tableau,
    tableau_from_unitary,
    tableau_images,
    tableau_keys,
)
from ..circuits.circuit import QuantumCircuit
from ..qobj.gates import cx_gate, hadamard, s_gate
from ..utils.seeding import default_rng
from ..utils.validation import ValidationError

__all__ = ["CliffordElement", "CliffordGroup", "clifford_group"]

#: Generator-gate ids used by the packed word encoding of the group store.
_GATE_IDS = {"h": 0, "s": 1, "cx": 2}

#: Expected group orders (modulo phase) used as safety checks.
_EXPECTED_ORDER = {1: 24, 2: 11520}


@dataclass(frozen=True)
class CliffordElement:
    """One Clifford group element.

    Attributes
    ----------
    index:
        Position in the group's element table.
    word:
        Tuple of ``(gate_name, qubit_indices)`` pairs (local indices 0..n-1)
        generating the element, in circuit (time) order.
    matrix:
        A representative unitary (global phase fixed by the construction).
    """

    index: int
    word: tuple[tuple[str, tuple[int, ...]], ...]
    matrix: np.ndarray

    def __repr__(self) -> str:
        return f"CliffordElement(index={self.index}, word_len={len(self.word)})"


class CliffordGroup:
    """The n-qubit Clifford group (n = 1 or 2) with native-gate words."""

    def __init__(self, n_qubits: int):
        _check_qubit_count(n_qubits)
        images = _generator_images(n_qubits)
        gates = np.arange(len(images[0]))
        start = identity_tableau(n_qubits)
        rows = [np.array([start.rows], dtype=np.uint8)]
        phases = [np.array([start.phases], dtype=np.uint8)]
        parents = [np.array([-1])]
        last_gates = [np.array([-1])]
        seen = tableau_keys(rows[0], phases[0])
        frontier = np.array([0])
        # One BFS level per pass.  The level's children, in parent-major,
        # generator-minor order, keep their first occurrences that no earlier
        # level holds: the order a one-at-a-time queue discovers them in.
        while len(frontier):
            child_rows, child_phases = _compose_through(
                rows[-1][:, None], phases[-1][:, None], *images, gates[None, :]
            )
            child_rows = child_rows.reshape(-1, 2 * n_qubits)
            child_phases = child_phases.reshape(-1, 2 * n_qubits)
            keys = tableau_keys(child_rows, child_phases)
            _, first = np.unique(keys, return_index=True)
            first = np.sort(first[~np.isin(keys[first], seen)])
            parents.append(frontier[first // len(gates)])
            last_gates.append(first % len(gates))
            rows.append(child_rows[first])
            phases.append(child_phases[first])
            seen = np.concatenate([seen, keys[first]])
            frontier = frontier[-1] + 1 + np.arange(len(first))
        index = CliffordTableauIndex(n_qubits, np.concatenate(rows), np.concatenate(phases))
        self._assemble(n_qubits, np.concatenate(parents), np.concatenate(last_gates), index)

    def _assemble(
        self,
        n_qubits: int,
        parents: np.ndarray,
        last_gates: np.ndarray,
        tableau_index: CliffordTableauIndex,
    ) -> None:
        """Set up the elements from the BFS tree.

        Element ``i`` is element ``parents[i]`` followed by generator
        ``last_gates[i]``.  Words are replayed in index order and matrices
        one BFS level at a time, each as ``generator_matrix @ parent_matrix``
        in one stacked matmul per level, so a cold build and a store load
        derive bit-identical elements.
        """
        expected = _EXPECTED_ORDER[n_qubits]
        if len(tableau_index) != expected:
            raise ValidationError(
                f"Clifford group has {len(tableau_index)} elements, expected {expected}"
            )
        generators = _generator_list(n_qubits)
        words: list[tuple] = [()]
        for parent, gate in zip(parents[1:].tolist(), last_gates[1:].tolist()):
            words.append(words[parent] + (generators[gate][0],))
        depths = np.array([len(word) for word in words])
        gate_matrices = np.stack([matrix for _, matrix in generators])
        dim = 2**n_qubits
        matrices = np.empty((expected, dim, dim), dtype=complex)
        matrices[0] = np.eye(dim, dtype=complex)
        for depth in range(1, int(depths.max()) + 1):
            level = np.flatnonzero(depths == depth)
            matrices[level] = np.matmul(gate_matrices[last_gates[level]], matrices[parents[level]])
        self.n_qubits = n_qubits
        self._elements = [
            CliffordElement(index=index, word=word, matrix=matrices[index])
            for index, word in enumerate(words)
        ]
        self._tableau_index = tableau_index

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._elements)

    @property
    def dim(self) -> int:
        """Hilbert-space dimension ``2**n_qubits``."""
        return 2**self.n_qubits

    def element(self, index: int) -> CliffordElement:
        """The group element at a table index."""
        return self._elements[index]

    @property
    def identity(self) -> CliffordElement:
        """The identity element (index 0)."""
        return self._elements[0]

    def sample(self, rng=None) -> CliffordElement:
        """Uniformly random group element."""
        rng = default_rng(rng)
        return self._elements[int(rng.integers(len(self._elements)))]

    def _index_of_matrix(self, matrix: np.ndarray) -> int | None:
        """Element index of ``matrix`` up to global phase, or None."""
        m = np.asarray(matrix, dtype=complex)
        # checked before keying: a tableau key does not encode its qubit count
        if m.shape != (self.dim, self.dim):
            return None
        try:
            return self._tableau_index.index_of_tableau(tableau_from_unitary(m))
        except ValidationError:
            return None

    def lookup(self, matrix: np.ndarray) -> CliffordElement:
        """Find the group element equal to ``matrix`` up to global phase."""
        index = self._index_of_matrix(matrix)
        if index is None:
            raise ValidationError("matrix is not an element of the Clifford group")
        return self._elements[index]

    def contains(self, matrix: np.ndarray) -> bool:
        """Whether ``matrix`` is a Clifford (up to global phase)."""
        return self._index_of_matrix(matrix) is not None

    def compose(self, first: CliffordElement, second: CliffordElement) -> CliffordElement:
        """Group element of ``second ∘ first`` (``first`` applied first)."""
        return self._elements[self.compose_index(first.index, second.index)]

    def inverse(self, element: CliffordElement) -> CliffordElement:
        """The group inverse of ``element``."""
        return self._elements[self.inverse_index(element.index)]

    def tableau_index(self) -> CliffordTableauIndex:
        """The group's symplectic-tableau index (every element's tableau)."""
        return self._tableau_index

    def compose_index(self, first: int, second: int) -> int:
        """Index of ``second ∘ first`` by element index (tableau arithmetic)."""
        return self._tableau_index.compose_index(first, second)

    def inverse_index(self, index: int) -> int:
        """Index of the group inverse by element index."""
        return self._tableau_index.inverse_index(index)

    # ------------------------------------------------------------------ #
    # circuit output
    # ------------------------------------------------------------------ #
    def append_to_circuit(
        self,
        circuit: QuantumCircuit,
        element: CliffordElement,
        physical_qubits: tuple[int, ...] | list[int],
    ) -> QuantumCircuit:
        """Append the element's native-gate word to ``circuit``.

        ``physical_qubits`` maps the element's local qubits 0..n-1 onto the
        circuit's (physical) qubit indices.
        """
        physical = tuple(int(q) for q in physical_qubits)
        if len(physical) != self.n_qubits:
            raise ValidationError(
                f"expected {self.n_qubits} physical qubits, got {len(physical)}"
            )
        for name, local_qubits in element.word:
            mapped = [physical[q] for q in local_qubits]
            if name == "h":
                circuit.h(mapped[0])
            elif name == "s":
                circuit.s(mapped[0])
            elif name == "cx":
                circuit.cx(mapped[0], mapped[1])
            else:  # pragma: no cover - generators are limited to h/s/cx
                raise ValidationError(f"unexpected generator gate {name!r}")
        return circuit

    def average_word_length(self) -> float:
        """Mean number of generator gates per element (diagnostic)."""
        return float(np.mean([len(e.word) for e in self._elements]))

    # ------------------------------------------------------------------ #
    # persistence (consumed by repro.store)
    # ------------------------------------------------------------------ #
    def to_arrays(self) -> dict[str, np.ndarray]:
        """Flatten the enumerated group into plain arrays.

        The payload is everything needed to rebuild the group without
        re-running the breadth-first enumeration; it is what
        :class:`~repro.store.ArtifactStore` persists.  Element matrices are
        not included: :meth:`from_arrays` re-derives them bit-identically
        from the words.

        Returns
        -------
        dict of str to ndarray
            ``words`` (total_gates, 3) int8 ``(gate_id, q0, q1)`` triples,
            ``word_offsets`` (N+1,) int32 and ``tableau_rows`` /
            ``tableau_phases`` (N, 2n) uint8.
        """
        triples: list[tuple[int, int, int]] = []
        offsets = [0]
        for element in self._elements:
            triples.extend(_pack_gate(name, qubits) for name, qubits in element.word)
            offsets.append(len(triples))
        rows, phases = self._tableau_index.to_arrays()
        return {
            "words": np.array(triples, dtype=np.int8).reshape(-1, 3),
            "word_offsets": np.array(offsets, dtype=np.int32),
            "tableau_rows": rows,
            "tableau_phases": phases,
        }

    @classmethod
    def from_arrays(cls, n_qubits: int, arrays: dict[str, np.ndarray]) -> "CliffordGroup":
        """Rebuild an enumerated group from :meth:`to_arrays` output.

        Skips the breadth-first search: the words give every element's BFS
        parent and last generator, and the tableaux are restored as stored
        (rows in range, phases of Hermitian parity, keys unique).  Each
        stored tableau must equal its parent's tableau composed with that
        generator, checked in one gather over the generators' image tables;
        that ties the words to the tableaux, so distinct tableau keys prove
        the elements distinct.

        Raises
        ------
        ValidationError
            If the arrays do not describe the group's BFS enumeration.
        """
        _check_qubit_count(n_qubits)
        offsets = np.asarray(arrays["word_offsets"], dtype=np.int64)
        expected = _EXPECTED_ORDER[n_qubits]
        if len(offsets) != expected + 1:
            raise ValidationError(
                f"group arrays describe {len(offsets) - 1} elements, expected {expected}"
            )
        parents, last_gates = _bfs_tree(n_qubits, arrays["words"], offsets)
        index = CliffordTableauIndex(n_qubits, arrays["tableau_rows"], arrays["tableau_phases"])
        if len(index) != expected or index.tableau(0) != identity_tableau(n_qubits):
            raise ValidationError("group arrays do not start at the identity tableau")
        rows, phases = index.to_arrays()
        want_rows, want_phases = _compose_through(
            rows[parents[1:]], phases[parents[1:]], *_generator_images(n_qubits), last_gates[1:]
        )
        mismatched = np.flatnonzero(
            np.any(want_rows != rows[1:], axis=1) | np.any(want_phases != phases[1:], axis=1)
        )
        if len(mismatched):
            raise ValidationError(
                f"group arrays element {mismatched[0] + 1}: tableau does not match its word"
            )
        group = cls.__new__(cls)
        group._assemble(n_qubits, parents, last_gates, index)
        return group


def _check_qubit_count(n_qubits: int) -> None:
    if n_qubits not in (1, 2):
        raise ValidationError(f"CliffordGroup supports 1 or 2 qubits, got {n_qubits}")


def _pack_gate(name: str, qubits: tuple[int, ...]) -> tuple[int, int, int]:
    """``(gate_id, q0, q1)`` triple of a generator gate (``q1 = -1`` for 1q gates)."""
    return (_GATE_IDS[name], qubits[0], qubits[1] if len(qubits) > 1 else -1)


def _cx_reversed() -> np.ndarray:
    """CNOT with qubit 1 (least significant factor) as control."""
    return np.array(
        [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
    )


def _generator_list(n_qubits: int) -> list[tuple[tuple[str, tuple[int, ...]], np.ndarray]]:
    """Generator gates ``((name, local_qubits), matrix)`` in BFS order.

    The list order fixes the enumeration order, and the matrices are the
    exact operands every element matrix is replayed from.
    """
    h = hadamard()
    s = s_gate()
    if n_qubits == 1:
        return [(("h", (0,)), h), (("s", (0,)), s)]
    eye = np.eye(2, dtype=complex)
    return [
        (("h", (0,)), np.kron(h, eye)),
        (("h", (1,)), np.kron(eye, h)),
        (("s", (0,)), np.kron(s, eye)),
        (("s", (1,)), np.kron(eye, s)),
        (("cx", (0, 1)), cx_gate()),
        (("cx", (1, 0)), _cx_reversed()),
    ]


def _generator_images(n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`~repro.benchmarking.tableau.tableau_images` of the generators, in list order."""
    tableaux = [
        generator_tableau(name, qubits, n_qubits) for (name, qubits), _ in _generator_list(n_qubits)
    ]
    return tableau_images([t.rows for t in tableaux], [t.phases for t in tableaux])


def _bfs_tree(
    n_qubits: int, triples: np.ndarray, offsets: np.ndarray
) -> tuple[list[int], list[int]]:
    """Every element's BFS parent and last generator, read off stored words.

    The breadth-first search gives element ``i`` the word of an earlier
    element (its parent) plus one generator, so the parent is found by the
    word prefix.

    Parameters
    ----------
    n_qubits : int
        1 or 2.
    triples : ndarray
        ``(total_gates, 3)`` packed ``(gate_id, q0, q1)`` rows.
    offsets : ndarray
        ``(N+1,)`` word boundaries: element ``i`` owns rows
        ``triples[offsets[i]:offsets[i+1]]``.

    Returns
    -------
    parents, last_gates : ndarray
        Parent index and :func:`_generator_list` position per element
        (``-1`` for the identity, element 0).
    """
    gate_of = {
        _pack_gate(name, qubits): position
        for position, ((name, qubits), _) in enumerate(_generator_list(n_qubits))
    }
    packed = np.ascontiguousarray(triples, dtype=np.int8)
    if offsets[0] != 0 or offsets[1] != 0:
        raise ValidationError("group arrays element 0 must be the identity's empty word")
    parents = [-1]
    last_gates = [-1]
    index_by_word: dict[bytes, int] = {b"": 0}
    for index in range(1, len(offsets) - 1):
        start, stop = int(offsets[index]), int(offsets[index + 1])
        if stop <= start:
            raise ValidationError(
                f"group arrays element {index} has an empty word but is not the identity"
            )
        parent = index_by_word.get(packed[start : stop - 1].tobytes())
        if parent is None:
            raise ValidationError(
                f"group arrays element {index} has no BFS parent for its word prefix"
            )
        gate = gate_of.get(tuple(int(v) for v in packed[stop - 1]))
        if gate is None:
            raise ValidationError(
                f"group arrays element {index} uses unknown generator {tuple(packed[stop - 1])}"
            )
        parents.append(parent)
        last_gates.append(gate)
        index_by_word[packed[start:stop].tobytes()] = index
    return np.array(parents), np.array(last_gates)


#: Process-wide group cache (one entry per qubit count).
_GROUP_CACHE: dict[int, CliffordGroup] = {}


def clifford_group(n_qubits: int, store=None) -> CliffordGroup:
    """Cached accessor for the 1- or 2-qubit Clifford group.

    Parameters
    ----------
    n_qubits : int
        1 or 2.
    store : optional
        A persistent store selector (``"auto"``, a directory path, a
        :class:`~repro.store.ArtifactStore`, or ``None`` for in-process
        only — see :func:`~repro.store.resolve_store`).  With a store, the
        enumerated group (words and tableaux) is loaded from disk when
        present, skipping the two-qubit breadth-first search, and persisted
        after a cold build.

    Returns
    -------
    CliffordGroup
        The (process-cached) group.
    """
    from ..store import resolve_store

    store = resolve_store(store)
    group = _GROUP_CACHE.get(n_qubits)
    if group is None:
        arrays = store.load_group_arrays(n_qubits) if store is not None else None
        if arrays is not None:
            try:
                group = CliffordGroup.from_arrays(n_qubits, arrays)
            except ValidationError:
                # corrupt or stale file: drop it and self-heal via a rebuild
                store.remove_group_arrays(n_qubits)
                group = None
        if group is None:
            group = CliffordGroup(n_qubits)
        _GROUP_CACHE[n_qubits] = group
    if store is not None:
        store.ensure_group_saved(group)
    return group
