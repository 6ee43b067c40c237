"""Device coupling maps (qubit connectivity graphs).

The 27-qubit IBM Falcon devices used in the paper (ibmq_montreal and
ibmq_toronto share the same topology, as the paper notes) use a heavy-hex
lattice.  The paper deliberately uses qubit 0, which is connected only to
qubit 1, to keep the Hamiltonian model simple — :meth:`CouplingMap.degree`
lets experiment code make the same choice programmatically.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from ..utils.validation import ValidationError

__all__ = ["CouplingMap", "heavy_hex_falcon27", "linear_coupling"]

#: Edge list of the 27-qubit IBM Falcon r4 heavy-hex lattice
#: (ibmq_montreal / ibmq_toronto / ibmq_mumbai ... family).
FALCON27_EDGES: tuple[tuple[int, int], ...] = (
    (0, 1),
    (1, 2),
    (1, 4),
    (2, 3),
    (3, 5),
    (4, 7),
    (5, 8),
    (6, 7),
    (7, 10),
    (8, 9),
    (8, 11),
    (10, 12),
    (11, 14),
    (12, 13),
    (12, 15),
    (13, 14),
    (14, 16),
    (15, 18),
    (16, 19),
    (17, 18),
    (18, 21),
    (19, 20),
    (19, 22),
    (21, 23),
    (22, 25),
    (23, 24),
    (24, 25),
    (25, 26),
)


class CouplingMap:
    """Undirected qubit-connectivity graph with convenience queries.

    Stored as an adjacency dict (qubit → set of neighbours); distances and
    paths come from a breadth-first search.
    """

    def __init__(self, n_qubits: int, edges: Iterable[tuple[int, int]]):
        if n_qubits < 1:
            raise ValidationError(f"n_qubits must be >= 1, got {n_qubits}")
        self._adjacency: dict[int, set[int]] = {q: set() for q in range(n_qubits)}
        for a, b in edges:
            if not (0 <= a < n_qubits and 0 <= b < n_qubits) or a == b:
                raise ValidationError(f"invalid edge ({a}, {b}) for {n_qubits} qubits")
            self._adjacency[int(a)].add(int(b))
            self._adjacency[int(b)].add(int(a))

    # ------------------------------------------------------------------ #
    @property
    def n_qubits(self) -> int:
        return len(self._adjacency)

    @property
    def edges(self) -> list[tuple[int, int]]:
        return sorted((a, b) for a, neighbours in self._adjacency.items() for b in neighbours if a < b)

    def neighbors(self, qubit: int) -> list[int]:
        """Qubits directly coupled to ``qubit``."""
        self._check(qubit)
        return sorted(self._adjacency[qubit])

    def degree(self, qubit: int) -> int:
        """Number of neighbors of ``qubit``."""
        self._check(qubit)
        return len(self._adjacency[qubit])

    def are_coupled(self, a: int, b: int) -> bool:
        """Whether a two-qubit gate between ``a`` and ``b`` is directly supported."""
        self._check(a)
        self._check(b)
        return b in self._adjacency[a]

    def _parents(self, source: int) -> dict[int, int | None]:
        """Breadth-first search tree from ``source``: reached qubit → its parent."""
        parents: dict[int, int | None] = {source: None}
        frontier = deque([source])
        while frontier:
            qubit = frontier.popleft()
            for neighbour in sorted(self._adjacency[qubit]):
                if neighbour not in parents:
                    parents[neighbour] = qubit
                    frontier.append(neighbour)
        return parents

    def distance(self, a: int, b: int) -> int:
        """Shortest-path distance between two qubits."""
        return len(self.shortest_path(a, b)) - 1

    def shortest_path(self, a: int, b: int) -> list[int]:
        """One shortest path between two qubits (inclusive of endpoints)."""
        self._check(a)
        self._check(b)
        parents = self._parents(a)
        if b not in parents:
            raise ValidationError(f"qubits {a} and {b} are not connected")
        path = [b]
        while path[-1] != a:
            path.append(parents[path[-1]])
        return path[::-1]

    def is_connected(self) -> bool:
        """Whether every qubit can reach every other via couplings."""
        return len(self._parents(0)) == self.n_qubits

    def lowest_degree_qubits(self) -> list[int]:
        """Qubits with the minimum connectivity (the paper picks such a qubit)."""
        min_deg = min(len(neighbours) for neighbours in self._adjacency.values())
        return [q for q, neighbours in self._adjacency.items() if len(neighbours) == min_deg]

    def _check(self, qubit: int) -> None:
        if not 0 <= qubit < self.n_qubits:
            raise ValidationError(f"qubit {qubit} out of range [0, {self.n_qubits})")

    def __contains__(self, edge: tuple[int, int]) -> bool:
        a, b = edge
        return self.are_coupled(a, b)

    def __repr__(self) -> str:
        return f"CouplingMap(n_qubits={self.n_qubits}, n_edges={len(self.edges)})"


def heavy_hex_falcon27() -> CouplingMap:
    """The 27-qubit heavy-hex coupling map of the IBM Falcon family."""
    return CouplingMap(27, FALCON27_EDGES)


def linear_coupling(n_qubits: int) -> CouplingMap:
    """A linear chain 0-1-2-...-(n-1), used for the smaller 5-qubit devices."""
    if n_qubits < 1:
        raise ValidationError(f"n_qubits must be >= 1, got {n_qubits}")
    return CouplingMap(n_qubits, [(i, i + 1) for i in range(n_qubits - 1)])
