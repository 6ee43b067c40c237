"""Symplectic-tableau representation of the 1q/2q Clifford groups.

A Clifford unitary is determined (up to global phase) by its conjugation
action on the Pauli generators: for each generator ``G_j`` in
``(X_0 … X_{n-1}, Z_0 … Z_{n-1})``,

    ``U G_j U† = i^{p_j} · P(v_j)``

where ``v_j`` is a ``2n``-bit vector (x-part | z-part), ``p_j ∈ Z_4`` and
``P(v)`` is the canonically ordered Pauli word
``(∏_q X_q^{x_q}) (∏_q Z_q^{z_q})``.  The ``2n`` rows ``v_j`` form a binary
symplectic matrix and the phases a mod-4 vector, so group composition and
inversion reduce to *integer arithmetic* — no ``2^n × 2^n`` complex matrix
products and no byte-level matrix hashing.

This module packs each row into a single Python int (bit ``k`` = X on qubit
``k``, bit ``n+k`` = Z on qubit ``k``) so a full tableau is ``2n`` small
ints plus ``2n`` phases, composable in a few dozen bit operations, and the
whole tableau packs into one integer key (:func:`tableau_key`).  These keys
are how :class:`~repro.benchmarking.clifford.CliffordGroup` enumerates,
composes, inverts and looks up elements; no group arithmetic multiplies
matrices.

The multiplication rule behind both composition and inversion is

    ``P(u) · P(w) = (−1)^{u_z · w_x} · P(u ⊕ w)``

(the x/z block convention never produces stray ``±i`` factors), and the
inverse uses the symplectic relation ``M⁻¹ = J Mᵀ J`` with ``J`` the
x↔z block swap, followed by one phase back-substitution pass per row.

:class:`CliffordTableauIndex` holds the tableau of every group element in
element-index order, keyed by packed integer, giving O(1)
``compose_index`` / ``inverse_index``.  Its arrays round-trip through
:mod:`repro.store` so the enumeration is shared across sessions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..utils.validation import ValidationError

__all__ = [
    "Tableau",
    "identity_tableau",
    "generator_tableau",
    "tableau_compose",
    "tableau_inverse",
    "tableau_key",
    "tableau_from_word",
    "tableau_from_unitary",
    "tableau_to_unitary_phase_free",
    "CliffordTableauIndex",
]


@dataclass(frozen=True)
class Tableau:
    """Packed symplectic tableau of an n-qubit Clifford (n = 1 or 2).

    Attributes
    ----------
    n : int
        Number of qubits.
    rows : tuple of int
        ``2n`` packed bit-vectors; row ``j`` is the Pauli word that the
        generator ``G_j`` maps to under conjugation (bit ``k`` = X on qubit
        ``k``, bit ``n+k`` = Z on qubit ``k``).  Rows ``0 … n-1`` are the
        images of ``X_0 … X_{n-1}``, rows ``n … 2n-1`` of ``Z_0 … Z_{n-1}``.
    phases : tuple of int
        Mod-4 phase exponents: ``U G_j U† = i^{phases[j]} P(rows[j])``.
    """

    n: int
    rows: tuple[int, ...]
    phases: tuple[int, ...]

    def __post_init__(self):
        """Validate row count, bit width and the phase-parity invariant."""
        if len(self.rows) != 2 * self.n or len(self.phases) != 2 * self.n:
            raise ValidationError(
                f"tableau needs {2 * self.n} rows and phases, "
                f"got {len(self.rows)}/{len(self.phases)}"
            )
        limit = 1 << (2 * self.n)
        xmask = (1 << self.n) - 1
        for v, p in zip(self.rows, self.phases):
            if not 0 <= v < limit:
                raise ValidationError(f"row {v:#x} out of range for n={self.n}")
            if not 0 <= p < 4:
                raise ValidationError(f"phase {p} must be in 0..3")
            # Hermiticity of i^p P(v) requires p ≡ popcount(x & z) (mod 2)
            if (p ^ ((v & xmask) & (v >> self.n)).bit_count()) & 1:
                raise ValidationError(
                    f"phase {p} violates the Hermiticity parity of row {v:#x}"
                )


def identity_tableau(n: int) -> Tableau:
    """Tableau of the identity on ``n`` qubits."""
    return Tableau(n=n, rows=tuple(1 << j for j in range(2 * n)), phases=(0,) * (2 * n))


def generator_tableau(name: str, qubits: tuple[int, ...], n: int) -> Tableau:
    """Tableau of a Clifford generator gate on local qubits.

    Parameters
    ----------
    name : str
        One of ``"h"``, ``"s"``, ``"cx"`` — the generating set of
        :class:`~repro.benchmarking.clifford.CliffordGroup`.
    qubits : tuple of int
        Local qubit indices the gate acts on (``(q,)`` for h/s,
        ``(control, target)`` for cx).
    n : int
        Total number of qubits of the tableau.

    Returns
    -------
    Tableau
        The gate's conjugation tableau.
    """
    rows = [1 << j for j in range(2 * n)]
    phases = [0] * (2 * n)
    if name == "h":
        (q,) = qubits
        rows[q] = 1 << (n + q)  # X_q -> Z_q
        rows[n + q] = 1 << q  # Z_q -> X_q
    elif name == "s":
        (q,) = qubits
        rows[q] = (1 << q) | (1 << (n + q))  # X_q -> Y_q = i * X_q Z_q
        phases[q] = 1
    elif name == "cx":
        c, t = qubits
        rows[c] = (1 << c) | (1 << t)  # X_c -> X_c X_t
        rows[n + t] = (1 << (n + c)) | (1 << (n + t))  # Z_t -> Z_c Z_t
    else:
        raise ValidationError(f"unknown Clifford generator {name!r}")
    return Tableau(n=n, rows=tuple(rows), phases=tuple(phases))


def _push_through(vector: int, tableau: Tableau) -> tuple[int, int]:
    """Conjugate the Pauli word ``P(vector)`` by ``tableau``'s Clifford.

    Returns ``(row, phase)`` with ``U P(vector) U† = i^{phase} P(row)``;
    the accumulation follows the canonical generator ordering of ``P``.
    """
    n = tableau.n
    xmask = (1 << n) - 1
    acc_v = 0
    acc_p = 0
    k = 0
    v = vector
    while v:
        if v & 1:
            row_k = tableau.rows[k]
            acc_p += tableau.phases[k] + 2 * (((acc_v >> n) & row_k & xmask).bit_count() & 1)
            acc_v ^= row_k
        v >>= 1
        k += 1
    return acc_v, acc_p & 3


def tableau_compose(first: Tableau, second: Tableau) -> Tableau:
    """Tableau of ``second ∘ first`` (``first`` applied first in time).

    Matches the matrix convention of
    :meth:`CliffordGroup.compose <repro.benchmarking.clifford.CliffordGroup.compose>`:
    the composed unitary is ``U_second @ U_first``.

    Parameters
    ----------
    first, second : Tableau
        Tableaux to compose, in circuit (time) order.

    Returns
    -------
    Tableau
        The composed tableau.
    """
    if first.n != second.n:
        raise ValidationError("cannot compose tableaux on different qubit counts")
    rows = []
    phases = []
    for v, p in zip(first.rows, first.phases):
        acc_v, acc_p = _push_through(v, second)
        rows.append(acc_v)
        phases.append((p + acc_p) & 3)
    return Tableau(n=first.n, rows=tuple(rows), phases=tuple(phases))


def tableau_inverse(tableau: Tableau) -> Tableau:
    """Tableau of the inverse Clifford.

    The symplectic part is ``M⁻¹ = J Mᵀ J`` (``J`` swaps the x and z
    blocks); each inverse phase follows from pushing the inverse row back
    through the original tableau, which must land on the bare generator.
    """
    n = tableau.n
    two_n = 2 * n

    def _sigma(i: int) -> int:
        return i + n if i < n else i - n

    inv_rows = []
    for j in range(two_n):
        row = 0
        for k in range(two_n):
            if (tableau.rows[_sigma(k)] >> _sigma(j)) & 1:
                row |= 1 << k
        inv_rows.append(row)
    inv_phases = []
    for j, w in enumerate(inv_rows):
        acc_v, acc_p = _push_through(w, tableau)
        if acc_v != 1 << j:  # pragma: no cover - guards invalid input tableaux
            raise ValidationError("tableau is not symplectic; cannot invert")
        inv_phases.append((-acc_p) & 3)
    return Tableau(n=n, rows=tuple(inv_rows), phases=tuple(inv_phases))


def tableau_key(tableau: Tableau) -> int:
    """Pack a tableau into a single integer key (unique per Clifford).

    The key interleaves each row's ``2n`` bits with its 2-bit phase, so two
    tableaux collide iff they describe the same Clifford modulo global
    phase.  For two qubits the key fits in 24 bits.
    """
    width = 2 * tableau.n + 2
    key = 0
    for j in range(2 * tableau.n):
        key |= (tableau.rows[j] | (tableau.phases[j] << (2 * tableau.n))) << (j * width)
    return key


def tableau_from_word(
    word: tuple[tuple[str, tuple[int, ...]], ...], n: int
) -> Tableau:
    """Tableau of a generator word (gates in circuit order)."""
    out = identity_tableau(n)
    for name, qubits in word:
        out = tableau_compose(out, generator_tableau(name, qubits, n))
    return out


@lru_cache(maxsize=2)
def _pauli_words(n: int) -> np.ndarray:
    """Stack of all ``P(v)`` matrices for ``v`` in 0..4^n-1 (qubit 0 most significant)."""
    eye = np.eye(2, dtype=complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    words = []
    for v in range(1 << (2 * n)):
        x_part = np.array([[1.0 + 0j]])
        z_part = np.array([[1.0 + 0j]])
        for q in range(n):
            x_part = np.kron(x_part, x if (v >> q) & 1 else eye)
            z_part = np.kron(z_part, z if (v >> (n + q)) & 1 else eye)
        words.append(x_part @ z_part)
    return np.array(words)


def tableau_from_unitary(u: np.ndarray) -> Tableau:
    """Extract the tableau of a Clifford unitary by conjugating generators.

    Parameters
    ----------
    u : ndarray
        Unitary of dimension ``2^n`` with ``n`` = 1 or 2 (qubit 0 is the
        most significant tensor factor, the library-wide convention).

    Returns
    -------
    Tableau
        The tableau of ``u``.

    Raises
    ------
    ValidationError
        If ``u`` is not a Clifford (some conjugated generator is not
        ``i^p`` times a Pauli word).
    """
    u = np.asarray(u, dtype=complex)
    dim = u.shape[0]
    n = int(round(np.log2(dim)))
    if u.shape != (dim, dim) or 2**n != dim or n not in (1, 2):
        raise ValidationError(f"expected a 2^n x 2^n unitary with n in (1, 2), got {u.shape}")
    paulis = _pauli_words(n)
    images = u @ paulis[[1 << j for j in range(2 * n)]] @ u.conj().T
    # projections tr(P(v)† image) / dim of every generator image onto every
    # Pauli word; the words are orthonormal, so a Clifford image has one
    # projection of modulus 1, on its row, with its phase
    scales = np.einsum("vab,jab->jv", paulis.conj(), images) / dim
    rows = np.argmax(np.abs(scales), axis=1)
    phases = np.round(np.angle(scales[np.arange(2 * n), rows]) / (np.pi / 2)).astype(int) & 3
    if not np.allclose(images, (1j**phases)[:, None, None] * paulis[rows], atol=1e-6):
        raise ValidationError("matrix is not a Clifford unitary")
    return Tableau(n=n, rows=tuple(int(v) for v in rows), phases=tuple(int(p) for p in phases))


def tableau_to_unitary_phase_free(tableau: Tableau) -> np.ndarray:
    """Reconstruct a unitary with this tableau (global phase arbitrary).

    Looks the tableau up in the cached group and returns that element's
    matrix (replayed from its generator word) — intended for tests and
    diagnostics.
    """
    from .clifford import clifford_group

    group = clifford_group(tableau.n)
    index = group.tableau_index().index_of_key(tableau_key(tableau))
    return group.element(index).matrix


class CliffordTableauIndex:
    """Tableau table of a full Clifford group: O(1) integer compose/inverse.

    Built by the group's breadth-first enumeration or restored from
    persisted arrays; afterwards ``compose_index`` and ``inverse_index``
    are pure integer operations plus one dict lookup.

    Parameters
    ----------
    n_qubits : int
        Number of qubits of the group.
    tableaux : list of Tableau
        Tableau of every group element, in element-index order.
    """

    def __init__(self, n_qubits: int, tableaux: list[Tableau]):
        self.n_qubits = n_qubits
        self._tableaux = tableaux
        self._key_to_index = {tableau_key(t): i for i, t in enumerate(tableaux)}
        if len(self._key_to_index) != len(tableaux):
            raise ValidationError("tableau keys are not unique across the group")
        self._inverse_table: np.ndarray | None = None
        # The 1q group composes through a 24×24 table: a table read is about
        # ten times cheaper than one tableau composition, and RB composes
        # once per sampled Clifford.  A 2q table would need 11520² entries.
        self._compose_table: list[list[int]] | None = None
        if n_qubits == 1:
            size = range(len(tableaux))
            self._compose_table = [[self._compose(i, j) for j in size] for i in size]

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_arrays(cls, n_qubits: int, rows: np.ndarray, phases: np.ndarray) -> "CliffordTableauIndex":
        """Rebuild the index from persisted ``(N, 2n)`` row/phase arrays."""
        tableaux = [
            Tableau(n=n_qubits, rows=tuple(int(v) for v in r), phases=tuple(int(p) for p in ph))
            for r, ph in zip(rows, phases)
        ]
        return cls(n_qubits, tableaux)

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Rows and phases as ``(N, 2n)`` uint8 arrays (for the store)."""
        rows = np.array([t.rows for t in self._tableaux], dtype=np.uint8)
        phases = np.array([t.phases for t in self._tableaux], dtype=np.uint8)
        return rows, phases

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        """Number of group elements indexed."""
        return len(self._tableaux)

    def tableau(self, index: int) -> Tableau:
        """Tableau of the element at ``index``."""
        return self._tableaux[index]

    def index_of_key(self, key: int) -> int:
        """Element index of a packed tableau key."""
        index = self._key_to_index.get(key)
        if index is None:
            raise ValidationError("tableau key is not an element of the group")
        return index

    def index_of_tableau(self, tableau: Tableau) -> int:
        """Element index of a tableau (must belong to the group)."""
        return self.index_of_key(tableau_key(tableau))

    def _compose(self, first: int, second: int) -> int:
        composed = tableau_compose(self._tableaux[first], self._tableaux[second])
        return self._key_to_index[tableau_key(composed)]

    def compose_index(self, first: int, second: int) -> int:
        """Element index of ``second ∘ first`` — integer arithmetic only."""
        if self._compose_table is not None:
            return self._compose_table[first][second]
        return self._compose(first, second)

    def inverse_index(self, index: int) -> int:
        """Element index of the group inverse (table built on first use)."""
        table = self._inverse_table
        if table is None:
            table = np.array(
                [self._key_to_index[tableau_key(tableau_inverse(t))] for t in self._tableaux],
                dtype=np.int32,
            )
            self._inverse_table = table
        return int(table[index])
