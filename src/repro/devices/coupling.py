"""Device coupling maps (qubit connectivity graphs).

The 27-qubit IBM Falcon devices used in the paper (ibmq_montreal and
ibmq_toronto share the same topology, as the paper notes) use a heavy-hex
lattice.  The paper deliberately uses qubit 0, which is connected only to
qubit 1, to keep the Hamiltonian model simple — :meth:`CouplingMap.degree`
lets experiment code make the same choice programmatically.
"""

from __future__ import annotations

from typing import Iterable

import networkx as nx

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
    """Undirected qubit-connectivity graph with convenience queries."""

    def __init__(self, n_qubits: int, edges: Iterable[tuple[int, int]]):
        if n_qubits < 1:
            raise ValidationError(f"n_qubits must be >= 1, got {n_qubits}")
        self._graph = nx.Graph()
        self._graph.add_nodes_from(range(n_qubits))
        for a, b in edges:
            if not (0 <= a < n_qubits and 0 <= b < n_qubits) or a == b:
                raise ValidationError(f"invalid edge ({a}, {b}) for {n_qubits} qubits")
            self._graph.add_edge(int(a), int(b))

    # ------------------------------------------------------------------ #
    @property
    def n_qubits(self) -> int:
        return self._graph.number_of_nodes()

    @property
    def edges(self) -> list[tuple[int, int]]:
        return sorted(tuple(sorted(e)) for e in self._graph.edges)

    def neighbors(self, qubit: int) -> list[int]:
        """Qubits directly coupled to ``qubit``."""
        self._check(qubit)
        return sorted(self._graph.neighbors(qubit))

    def degree(self, qubit: int) -> int:
        """Number of neighbors of ``qubit``."""
        self._check(qubit)
        return int(self._graph.degree[qubit])

    def are_coupled(self, a: int, b: int) -> bool:
        """Whether a two-qubit gate between ``a`` and ``b`` is directly supported."""
        self._check(a)
        self._check(b)
        return self._graph.has_edge(a, b)

    def distance(self, a: int, b: int) -> int:
        """Shortest-path distance between two qubits."""
        self._check(a)
        self._check(b)
        return int(nx.shortest_path_length(self._graph, a, b))

    def shortest_path(self, a: int, b: int) -> list[int]:
        """One shortest path between two qubits (inclusive of endpoints)."""
        self._check(a)
        self._check(b)
        return list(nx.shortest_path(self._graph, a, b))

    def is_connected(self) -> bool:
        """Whether every qubit can reach every other via couplings."""
        return nx.is_connected(self._graph)

    def lowest_degree_qubits(self) -> list[int]:
        """Qubits with the minimum connectivity (the paper picks such a qubit)."""
        degrees = dict(self._graph.degree)
        min_deg = min(degrees.values())
        return sorted(q for q, d in degrees.items() if d == min_deg)

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
