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

The scalar routines have array twins over ``(N, 2n)`` row/phase arrays:
:func:`tableau_images` tabulates the image of every Pauli vector through
each tableau, so composing with a tableau is a gather from its
``4**n``-entry table, and :func:`tableau_keys` packs keys.  The group's
breadth-first enumeration, its load-time check and the inverse table run
on those; the scalar routines stay the reference and serve single
compositions and lookups.  On a 2-vCPU VM the two-qubit enumeration takes
≈0.04 s and its inverse table ≈0.01 s, against ≈0.44 s and ≈0.12 s for
the scalar loops.

The multiplication rule behind both composition and inversion is

    ``P(u) · P(w) = (−1)^{u_z · w_x} · P(u ⊕ w)``

(the x/z block convention never produces stray ``±i`` factors), and the
inverse uses the symplectic relation ``M⁻¹ = J Mᵀ J`` with ``J`` the
x↔z block swap, followed by one phase back-substitution pass per row.

:class:`CliffordTableauIndex` holds the row/phase arrays of every group
element in element-index order with their sorted packed keys, for integer
``compose_index`` / ``inverse_index`` and their array twins
``compose_indices`` / ``inverse_indices``, which generate and invert whole
batches of RB sequences in a few gathers.  Its arrays round-trip through
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
    "tableau_images",
    "tableau_keys",
    "tableau_from_word",
    "tableau_from_unitary",
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


#: Parity (popcount mod 2) of every 4-bit value, for the vectorized kernels.
_PARITY = np.array([bin(v).count("1") & 1 for v in range(16)], dtype=np.uint8)


def tableau_images(rows: np.ndarray, phases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Image of every Pauli vector through each of ``N`` tableaux.

    The vectorized form of pushing a Pauli word through a tableau:
    ``U_i P(v) U_i† = i^{image_phases[i, v]} P(image_rows[i, v])``.  Each
    vector ``v`` extends ``v`` without its highest set bit ``k`` by row
    ``k``, the accumulation order of the scalar :func:`tableau_compose`.

    Parameters
    ----------
    rows, phases : ndarray
        ``(N, 2n)`` packed rows and mod-4 phases of the tableaux.

    Returns
    -------
    image_rows, image_phases : ndarray
        ``(N, 4**n)`` uint8 tables indexed by tableau and Pauli vector.
    """
    rows = np.asarray(rows, dtype=np.uint8)
    phases = np.asarray(phases, dtype=np.uint8)
    n = rows.shape[-1] // 2
    xmask = (1 << n) - 1
    image_rows = np.zeros((len(rows), 1 << (2 * n)), dtype=np.uint8)
    image_phases = np.zeros_like(image_rows)
    for v in range(1, 1 << (2 * n)):
        k = v.bit_length() - 1
        acc_v = image_rows[:, v ^ (1 << k)]
        sign = _PARITY[(acc_v >> n) & rows[:, k] & xmask]
        image_rows[:, v] = acc_v ^ rows[:, k]
        image_phases[:, v] = (image_phases[:, v ^ (1 << k)] + phases[:, k] + 2 * sign) & 3
    return image_rows, image_phases


def tableau_keys(rows: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Packed :func:`tableau_key` of every tableau in ``(..., 2n)`` arrays.

    Parameters
    ----------
    rows, phases : ndarray
        ``(..., 2n)`` packed rows and mod-4 phases.

    Returns
    -------
    ndarray
        int64 keys, shape ``rows.shape[:-1]``.
    """
    rows = np.asarray(rows, dtype=np.int64)
    phases = np.asarray(phases, dtype=np.int64)
    n = rows.shape[-1] // 2
    packed = (rows | (phases << (2 * n))) << (np.arange(2 * n) * (2 * n + 2))
    return np.bitwise_or.reduce(packed, axis=-1)


def _compose_through(rows, phases, image_rows, image_phases, second):
    """Vectorized ``tableau_compose(first, tableaux[second])``.

    ``rows``/``phases`` are the ``(..., 2n)`` arrays of the first tableaux,
    ``image_rows``/``image_phases`` the :func:`tableau_images` of the second
    ones and ``second`` their positions, broadcast against
    ``rows.shape[:-1]``.  Returns the composed rows and phases.
    """
    select = np.asarray(second)[..., None]
    return image_rows[select, rows], (phases + image_phases[select, rows]) & 3


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


class CliffordTableauIndex:
    """Tableau table of a full Clifford group: integer compose/inverse.

    Holds every element's tableau as ``(N, 2n)`` row/phase arrays in
    element-index order, with their packed keys sorted for lookup.
    ``compose_index`` is one scalar tableau composition (a table read for
    one qubit) and ``inverse_index`` a read of a table built in one
    vectorized pass on first use.  ``compose_indices`` and
    ``inverse_indices`` are their twins over int arrays, one gather each.

    Parameters
    ----------
    n_qubits : int
        Number of qubits of the group.
    rows, phases : ndarray
        ``(N, 2n)`` packed rows and mod-4 phases of every element, in
        element-index order (as persisted by :mod:`repro.store`).

    Raises
    ------
    ValidationError
        If a row is out of range, a phase breaks the Hermiticity parity or
        two elements share a tableau.
    """

    def __init__(self, n_qubits: int, rows: np.ndarray, phases: np.ndarray):
        rows = np.asarray(rows)
        phases = np.asarray(phases)
        if rows.ndim != 2 or rows.shape != phases.shape or rows.shape[1] != 2 * n_qubits:
            raise ValidationError(
                f"tableau arrays need shape (N, {2 * n_qubits}), got {rows.shape}/{phases.shape}"
            )
        rows_ok = np.all((rows >= 0) & (rows < 1 << (2 * n_qubits)))
        if not (rows_ok and np.all((phases >= 0) & (phases < 4))):
            raise ValidationError(f"tableau row or phase out of range for n={n_qubits}")
        self.n_qubits = n_qubits
        self._rows = rows.astype(np.uint8)
        self._phases = phases.astype(np.uint8)
        # Hermiticity of i^p P(v) requires p ≡ popcount(x & z) (mod 2)
        xmask = (1 << n_qubits) - 1
        if np.any((self._phases ^ _PARITY[self._rows & xmask & (self._rows >> n_qubits)]) & 1):
            raise ValidationError("a tableau phase violates the Hermiticity parity of its row")
        keys = tableau_keys(self._rows, self._phases)
        self._order = np.argsort(keys, kind="stable")
        self._sorted_keys = keys[self._order]
        if np.any(self._sorted_keys[1:] == self._sorted_keys[:-1]):
            raise ValidationError("tableau keys are not unique across the group")
        self._inverse_table: np.ndarray | None = None
        self._images: tuple[np.ndarray, np.ndarray] | None = None
        # The 1q group composes through a 24×24 table: a table read is about
        # ten times cheaper than one tableau composition.  A 2q table would
        # need 11520² entries.
        self._compose_table: np.ndarray | None = None
        if n_qubits == 1:
            composed = _compose_through(
                self._rows[:, None],
                self._phases[:, None],
                *self._image_tables(),
                np.arange(len(keys))[None, :],
            )
            self._compose_table = self._indices_of_keys(tableau_keys(*composed))

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Rows and phases as ``(N, 2n)`` uint8 arrays (for the store)."""
        return self._rows.copy(), self._phases.copy()

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        """Number of group elements indexed."""
        return len(self._rows)

    def tableau(self, index: int) -> Tableau:
        """Tableau of the element at ``index``."""
        return Tableau(
            n=self.n_qubits,
            rows=tuple(self._rows[index].tolist()),
            phases=tuple(self._phases[index].tolist()),
        )

    def _indices_of_keys(self, keys: np.ndarray) -> np.ndarray:
        """Element indices of packed tableau keys (any shape)."""
        positions = np.minimum(np.searchsorted(self._sorted_keys, keys), len(self._rows) - 1)
        if not np.array_equal(self._sorted_keys[positions], keys):
            raise ValidationError("tableau key is not an element of the group")
        return self._order[positions]

    def index_of_key(self, key: int) -> int:
        """Element index of a packed tableau key."""
        return int(self._indices_of_keys(np.int64(key)))

    def index_of_tableau(self, tableau: Tableau) -> int:
        """Element index of a tableau (must belong to the group)."""
        return self.index_of_key(tableau_key(tableau))

    def compose_index(self, first: int, second: int) -> int:
        """Element index of ``second ∘ first`` — integer arithmetic only."""
        if self._compose_table is not None:
            return int(self._compose_table[first, second])
        return self.index_of_tableau(tableau_compose(self.tableau(first), self.tableau(second)))

    def inverse_index(self, index: int) -> int:
        """Element index of the group inverse (table built on first use)."""
        return int(self._inverses()[index])

    def compose_indices(self, first, second) -> np.ndarray:
        """Element indices of ``second ∘ first`` over broadcast int arrays.

        The array twin of :meth:`compose_index`: one gather from the
        compose table for one qubit, one :func:`_compose_through` over the
        cached image tables plus one key lookup for two.

        Parameters
        ----------
        first, second : array_like of int
            Element indices, broadcast against each other.

        Returns
        -------
        ndarray
            Element indices of the compositions, in the broadcast shape.
        """
        first, second = np.broadcast_arrays(np.asarray(first), np.asarray(second))
        if self._compose_table is not None:
            return self._compose_table[first, second]
        rows, phases = _compose_through(
            self._rows[first], self._phases[first], *self._image_tables(), second
        )
        return self._indices_of_keys(tableau_keys(rows, phases))

    def inverse_indices(self, indices) -> np.ndarray:
        """Element indices of the group inverses of an int array (one gather)."""
        return self._inverses()[np.asarray(indices)]

    def _image_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """:func:`tableau_images` of every element (built on first use)."""
        images = self._images
        if images is None:
            images = self._images = tableau_images(self._rows, self._phases)
        return images

    def _inverses(self) -> np.ndarray:
        """Inverse of every element by index (built on first use)."""
        table = self._inverse_table
        if table is None:
            table = self._inverse_table = self._build_inverse_table()
        return table

    def _build_inverse_table(self) -> np.ndarray:
        """Inverse of every element in one pass, as :func:`tableau_inverse`.

        The rows come from the symplectic transpose ``J Mᵀ J`` by bit
        operations; pushing them back through the element gives the bare
        generators times ``i^p``, and the inverse phases are ``-p``.
        """
        n = self.n_qubits
        two_n = 2 * n
        bits = (self._rows[:, :, None] >> np.arange(two_n, dtype=np.uint8)) & 1
        swap = np.roll(np.arange(two_n), -n)  # x <-> z block swap J
        inverse_bits = bits[:, swap][:, :, swap].transpose(0, 2, 1)
        inverse_rows = (inverse_bits << np.arange(two_n, dtype=np.uint8)).sum(axis=-1, dtype=np.uint8)
        back_rows, back_phases = _compose_through(
            inverse_rows,
            np.zeros_like(inverse_rows),
            *self._image_tables(),
            np.arange(len(self._rows)),
        )
        if np.any(back_rows != 1 << np.arange(two_n)):  # pragma: no cover - guards invalid tableaux
            raise ValidationError("tableau is not symplectic; cannot invert")
        inverse_keys = tableau_keys(inverse_rows, (4 - back_phases) & 3)
        return self._indices_of_keys(inverse_keys).astype(np.int32)
