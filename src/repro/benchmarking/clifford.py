"""The single- and two-qubit Clifford groups with native-gate words.

Randomized benchmarking needs to (a) sample Cliffords uniformly, (b) compose
them, (c) find the inverse of a composed sequence, and (d) express every
element — including the recovery — as a circuit over the device's native
gates.

Both groups are built once (and cached) by breadth-first search over a
generating set (H and S on each qubit, plus CNOTs for two qubits), storing
for every element a word of generator gates that produces it.  Matrices are
compared up to global phase via a canonical phase normalization, so the
search enumerates the Clifford group modulo phase — 24 elements for one
qubit and 11520 for two qubits, the standard counts.

Generator words found by BFS are short for one qubit (≤ 5 gates, which the
transpiler then collapses to at most two ``sx`` pulses plus virtual Z) and
moderate for two qubits (a few CNOTs plus single-qubit gates), which is the
same order as the hardware-efficient decompositions used by Qiskit's RB.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .tableau import CliffordTableauIndex
from ..circuits.circuit import QuantumCircuit
from ..qobj.gates import cx_gate, hadamard, s_gate
from ..utils.seeding import default_rng
from ..utils.validation import ValidationError

__all__ = ["CliffordElement", "CliffordGroup", "clifford_group"]

#: Generator-gate ids used by the packed word encoding of the group store.
_GATE_IDS = {"h": 0, "s": 1, "cx": 2}
_GATE_NAMES = {v: k for k, v in _GATE_IDS.items()}

#: Expected group orders (modulo phase) used as safety checks.
_EXPECTED_ORDER = {1: 24, 2: 11520}


def _phase_normalize(matrix: np.ndarray, decimals: int = 6) -> bytes:
    """Canonical byte-key of a unitary up to global phase."""
    m = np.asarray(matrix, dtype=complex)
    flat = m.ravel()
    # first entry with non-negligible magnitude defines the phase reference
    idx = int(np.argmax(np.abs(flat) > 1e-7))
    ref = flat[idx]
    normalized = m * (np.conj(ref) / abs(ref))
    rounded = np.round(normalized, decimals) + 0.0  # +0.0 kills negative zeros
    return rounded.tobytes()


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
        if n_qubits not in (1, 2):
            raise ValidationError(f"CliffordGroup supports 1 or 2 qubits, got {n_qubits}")
        self.n_qubits = n_qubits
        self._elements: list[CliffordElement] = []
        self._key_to_index: dict[bytes, int] = {}
        self._tableau_index: CliffordTableauIndex | None = None
        self._build()

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _generators(self) -> list[tuple[tuple[str, tuple[int, ...]], np.ndarray]]:
        return _generator_list(self.n_qubits)

    def _build(self) -> None:
        dim = 2**self.n_qubits
        identity = np.eye(dim, dtype=complex)
        generators = self._generators()
        start = CliffordElement(index=0, word=(), matrix=identity)
        self._elements = [start]
        self._key_to_index = {_phase_normalize(identity): 0}
        queue: deque[int] = deque([0])
        while queue:
            idx = queue.popleft()
            base = self._elements[idx]
            for gate, gen_matrix in generators:
                new_matrix = gen_matrix @ base.matrix
                key = _phase_normalize(new_matrix)
                if key in self._key_to_index:
                    continue
                element = CliffordElement(
                    index=len(self._elements),
                    word=base.word + (gate,),
                    matrix=new_matrix,
                )
                self._key_to_index[key] = element.index
                self._elements.append(element)
                queue.append(element.index)
        expected = _EXPECTED_ORDER[self.n_qubits]
        if len(self._elements) != expected:
            raise ValidationError(
                f"Clifford group construction produced {len(self._elements)} elements, "
                f"expected {expected}"
            )

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

    def lookup(self, matrix: np.ndarray) -> CliffordElement:
        """Find the group element equal to ``matrix`` up to global phase."""
        key = _phase_normalize(matrix)
        if key not in self._key_to_index:
            raise ValidationError("matrix is not an element of the Clifford group")
        return self._elements[self._key_to_index[key]]

    def contains(self, matrix: np.ndarray) -> bool:
        """Whether ``matrix`` is a Clifford (up to global phase)."""
        return _phase_normalize(matrix) in self._key_to_index

    def compose(self, first: CliffordElement, second: CliffordElement) -> CliffordElement:
        """Group element of ``second ∘ first`` (``first`` applied first)."""
        return self._elements[self.compose_index(first.index, second.index)]

    def inverse(self, element: CliffordElement) -> CliffordElement:
        """The group inverse of ``element``."""
        return self._elements[self.inverse_index(element.index)]

    def tableau_index(self) -> CliffordTableauIndex:
        """The group's symplectic-tableau index (built once, cached).

        Maps every element to its packed tableau so composition and
        inversion are integer arithmetic plus a dict lookup — no ``2^n``
        matrix products.  Restored from persisted arrays when the group is
        loaded through :func:`clifford_group` with a store.
        """
        if self._tableau_index is None:
            self._tableau_index = CliffordTableauIndex.from_group(self)
        return self._tableau_index

    def compose_index(self, first: int, second: int) -> int:
        """Index of ``second ∘ first`` by element index.

        For the single-qubit group the full 24×24 multiplication table is
        built once and composition becomes an integer lookup — the RB engine
        composes tens of thousands of elements per experiment, so this path
        avoids the matrix-product-plus-hash lookup entirely.  The two-qubit
        group (11520 elements) composes symplectic tableaux instead
        (see :mod:`repro.benchmarking.tableau`) — pure integer arithmetic,
        roughly 5× faster than the 4×4 matrix-product-plus-hash path it
        replaced, and independent of the element matrices.
        """
        if self.n_qubits == 1:
            table = self._compose_table()
            return int(table[first, second])
        return self.tableau_index().compose_index(first, second)

    def inverse_index(self, index: int) -> int:
        """Index of the group inverse by element index."""
        if self.n_qubits == 1:
            table = self._inverse_table()
            return int(table[index])
        return self.tableau_index().inverse_index(index)

    def _compose_table(self) -> np.ndarray:
        table = getattr(self, "_compose_table_cache", None)
        if table is None:
            n = len(self._elements)
            table = np.empty((n, n), dtype=np.int32)
            for i, a in enumerate(self._elements):
                for j, b in enumerate(self._elements):
                    table[i, j] = self.lookup(b.matrix @ a.matrix).index
            self._compose_table_cache = table
        return table

    def _inverse_table(self) -> np.ndarray:
        table = getattr(self, "_inverse_table_cache", None)
        if table is None:
            table = np.array(
                [self.lookup(e.matrix.conj().T).index for e in self._elements], dtype=np.int32
            )
            self._inverse_table_cache = table
        return table

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
    def to_arrays(self, include_matrices: bool = False) -> dict[str, np.ndarray]:
        """Flatten the enumerated group into plain arrays.

        The payload (generator words as packed int triples, tableau
        rows/phases) is everything needed to rebuild the group without
        re-running the breadth-first enumeration; it is what
        :class:`~repro.store.ArtifactStore` persists so
        warm sessions skip the ~2 s two-qubit BFS.  Element matrices are
        **omitted by default** — they dominated the persisted two-qubit
        file (~2.9 MB of ~3 MB) and :meth:`from_arrays` re-derives them
        bit-identically from the words (see
        :func:`_matrices_from_words`).

        Parameters
        ----------
        include_matrices : bool
            Also emit the ``matrices`` stack (the pre-slimming format,
            still accepted by :meth:`from_arrays` for old store files).

        Returns
        -------
        dict of str to ndarray
            ``words`` (total_gates, 3) int8 ``(gate_id, q0, q1)`` triples,
            ``word_offsets`` (N+1,) int32, ``tableau_rows`` /
            ``tableau_phases`` (N, 2n) uint8, and — only with
            ``include_matrices`` — ``matrices`` (N, d, d) complex.
        """
        triples: list[tuple[int, int, int]] = []
        offsets = [0]
        for element in self._elements:
            for name, qubits in element.word:
                q0 = qubits[0]
                q1 = qubits[1] if len(qubits) > 1 else -1
                triples.append((_GATE_IDS[name], q0, q1))
            offsets.append(len(triples))
        rows, phases = self.tableau_index().to_arrays()
        arrays = {
            "words": np.array(triples, dtype=np.int8).reshape(-1, 3),
            "word_offsets": np.array(offsets, dtype=np.int32),
            "tableau_rows": rows,
            "tableau_phases": phases,
        }
        if include_matrices:
            arrays["matrices"] = np.stack([e.matrix for e in self._elements])
        return arrays

    @classmethod
    def from_arrays(cls, n_qubits: int, arrays: dict[str, np.ndarray]) -> "CliffordGroup":
        """Rebuild an enumerated group from :meth:`to_arrays` output.

        Skips the breadth-first search entirely: elements, the
        phase-normalized lookup dictionary and the tableau index are all
        restored from the arrays.  Slim payloads (the default
        :meth:`to_arrays` output) carry no ``matrices`` entry — the element
        matrices are re-derived from the words, bit-identical to the eager
        enumeration; payloads from older store files that still embed the
        matrices are used as-is.
        """
        if n_qubits not in (1, 2):
            raise ValidationError(f"CliffordGroup supports 1 or 2 qubits, got {n_qubits}")
        group = cls.__new__(cls)
        group.n_qubits = n_qubits
        triples = np.asarray(arrays["words"], dtype=np.int64)
        offsets = np.asarray(arrays["word_offsets"], dtype=np.int64)
        expected = _EXPECTED_ORDER[n_qubits]
        if len(offsets) != expected + 1:
            raise ValidationError(
                f"group arrays describe {len(offsets) - 1} elements, expected {expected}"
            )
        if "matrices" in arrays:
            matrices = np.ascontiguousarray(arrays["matrices"], dtype=complex)
        else:
            matrices = _matrices_from_words(n_qubits, arrays["words"], offsets)
        if matrices.shape[0] != expected:
            raise ValidationError(
                f"group arrays carry {matrices.shape[0]} matrices, expected {expected}"
            )
        elements: list[CliffordElement] = []
        for index in range(expected):
            word = tuple(
                (
                    _GATE_NAMES[int(gate_id)],
                    (int(q0),) if q1 < 0 else (int(q0), int(q1)),
                )
                for gate_id, q0, q1 in triples[offsets[index] : offsets[index + 1]]
            )
            elements.append(CliffordElement(index=index, word=word, matrix=matrices[index]))
        group._elements = elements
        group._key_to_index = {
            _phase_normalize(e.matrix): e.index for e in elements
        }
        if len(group._key_to_index) != expected:
            raise ValidationError("group arrays contain duplicate elements")
        group._tableau_index = CliffordTableauIndex.from_arrays(
            n_qubits, arrays["tableau_rows"], arrays["tableau_phases"]
        )
        return group


def _cx_reversed() -> np.ndarray:
    """CNOT with qubit 1 (least significant factor) as control."""
    return np.array(
        [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
    )


def _generator_list(n_qubits: int) -> list[tuple[tuple[str, tuple[int, ...]], np.ndarray]]:
    """Generator gates ``((name, local_qubits), matrix)`` of the BFS.

    Shared by the breadth-first enumeration and by the lazy
    matrix-from-words derivation of :meth:`CliffordGroup.from_arrays`: both
    must multiply the *exact same* float matrices for the derived element
    matrices to be bit-identical to the eagerly enumerated ones.
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


def _matrices_from_words(
    n_qubits: int, triples: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """Re-derive every element matrix from the stored generator words.

    Element matrices dominate the persisted two-qubit group file (11520 ×
    4×4 complex ≈ 2.9 MB of the ~3 MB total), yet they are fully determined
    by the words: the breadth-first search created every element as
    ``generator_matrix @ parent_matrix`` where the parent's word is the
    element's word minus its last gate.  Replaying exactly that product in
    index order reproduces each matrix **bit-identically** (same operands,
    same operation, same order), so the store can drop the matrices and
    this function rebuilds them in a few tens of milliseconds on load.

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
    ndarray
        ``(N, d, d)`` complex element matrices in index order.
    """
    gens: dict[tuple[int, int, int], np.ndarray] = {}
    for (name, qubits), matrix in _generator_list(n_qubits):
        q0 = qubits[0]
        q1 = qubits[1] if len(qubits) > 1 else -1
        gens[(_GATE_IDS[name], q0, q1)] = matrix
    packed = np.ascontiguousarray(triples, dtype=np.int8)
    n_elements = len(offsets) - 1
    dim = 2**n_qubits
    matrices = np.empty((n_elements, dim, dim), dtype=complex)
    matrices[0] = np.eye(dim, dtype=complex)
    index_by_word: dict[bytes, int] = {packed[0:0].tobytes(): 0}
    for index in range(1, n_elements):
        start, stop = int(offsets[index]), int(offsets[index + 1])
        if stop <= start:
            raise ValidationError(
                f"group arrays element {index} has an empty word but is not the identity"
            )
        prefix = packed[start : stop - 1].tobytes()
        parent = index_by_word.get(prefix)
        if parent is None:
            raise ValidationError(
                f"group arrays element {index} has no BFS parent for its word prefix"
            )
        gate_id, q0, q1 = (int(v) for v in packed[stop - 1])
        generator = gens.get((gate_id, q0, q1))
        if generator is None:
            raise ValidationError(
                f"group arrays element {index} uses unknown generator {(gate_id, q0, q1)}"
            )
        matrices[index] = generator @ matrices[parent]
        index_by_word[packed[start:stop].tobytes()] = index
    return matrices


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
        enumerated group (words, matrices, tableaux) is loaded from disk
        when present — skipping the ~2 s two-qubit breadth-first search —
        and persisted after a cold build.

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
