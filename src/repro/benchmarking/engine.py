"""Batched execution engine for randomized benchmarking.

The circuit path executes every RB sequence by transpiling the full circuit
and composing a gate channel per instruction — ``O(total gates)`` Python
work per sequence even though the whole workload reduces to ~24 distinct
Clifford channels (one qubit) replayed thousands of times.

This engine instead:

1. builds, lazily and once per backend, the superoperator channel of every
   Clifford *group element* used by the workload (each element's native-gate
   word is transpiled and composed through the exact same
   :meth:`~repro.backend.backend.PulseBackend.circuit_channel` machinery as
   the circuit path, so the two paths agree to floating point),
2. groups the sequences by (length, interleaved) into ``(k, m)`` element
   index arrays, resolves the used channels once as a dense
   ``(ids, channels)`` pair (the store's memory map, or one stack of the
   in-memory table) and finds every position with one ``searchsorted``,
3. composes each length group as ``m`` stacked ``4^n × 4^n`` matmuls over
   its ``k`` sequences — element, then the interleaved gate's channel when
   present, recovery last, the operand order of a per-sequence loop — and
   samples every sequence through the same :mod:`repro.backend.sampling`
   pipeline and per-sequence seeds as the circuit path,
4. runs one RB *curve* (every length group of one experiment pass) as one
   call on the persistent process pool via
   :func:`repro.utils.parallel.pool_submit`: the worker composes every
   group, samples every sequence and, for :func:`fit_sequences_with_channels`,
   fits the decay, so the calling process only prepares the call and waits
   (``num_workers`` knob; one worker runs the call inline).

Tables are cached on the backend instance and invalidated together with the
backend's gate-channel cache when the device properties drift.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .clifford import CliffordElement, CliffordGroup
from .rb import RBResult, _fit_survivals, _sequence_fields
from ..backend.noise import readout_confusion_matrix
from ..backend.sampling import channel_output_probabilities, sample_measurement
from ..circuits.circuit import QuantumCircuit
from ..circuits.gate import Gate
from ..circuits.transpiler import transpile
from ..pulse.schedule import Schedule
from ..store import ChannelTableHandle, resolve_store
from ..utils.parallel import pool_submit
from ..utils.seeding import default_rng
from ..utils.validation import ValidationError

__all__ = [
    "CliffordChannelTable",
    "clifford_channel_table",
    "interleaved_gate_channel",
    "execute_sequences_with_channels",
    "fit_sequences_with_channels",
    "used_element_indices",
]


def used_element_indices(sequences) -> np.ndarray:
    """Distinct group-element indices a sequence workload touches.

    Includes every sampled Clifford index and every recovery index — the
    exact set of channels the executor composes.  An executor with a store
    passes this to :meth:`CliffordChannelTable.ensure`, so its elements are
    built and persisted before it reads them.

    Parameters
    ----------
    sequences : list of RBSequence
        Sequences with element indices (and, usually, recovery indices)
        populated.

    Returns
    -------
    ndarray
        Sorted int64 group-element indices used by the workload.
    """
    parts = [np.asarray(sequence.clifford_indices, dtype=np.int64) for sequence in sequences]
    recoveries = [s.recovery_index for s in sequences if s.recovery_index is not None]
    parts.append(np.asarray(recoveries, dtype=np.int64))
    return np.unique(np.concatenate(parts))


class CliffordChannelTable:
    """Lazy per-Clifford-element channel cache for one backend + qubit set.

    Every element channel is produced by transpiling the element's
    native-gate word into the backend basis and composing the backend's
    cached gate channels — i.e. by the identical code path the circuit
    executor walks, just once per element instead of once per occurrence.

    With a persistent ``store`` attached, previously materialized channels
    are served from a read-only memory map of the on-disk table (one
    kernel-page-cache copy shared by every process of a ``num_workers``
    pool), and freshly built channels are merged back via
    :meth:`flush` — warm sessions skip the per-element transpile entirely.

    Parameters
    ----------
    backend : PulseBackend
        The backend whose gate channels compose the element channels.
    physical_qubits : sequence of int
        Physical qubits the Clifford words act on (order fixes the
        local-to-physical mapping).
    group : CliffordGroup
        The Clifford group being tabulated.
    store : ArtifactStore, optional
        Persistent store; ``None`` keeps the table purely in-memory.
    """

    def __init__(self, backend, physical_qubits: Sequence[int], group: CliffordGroup, store=None):
        self.backend = backend
        self.physical_qubits = tuple(int(q) for q in physical_qubits)
        if len(self.physical_qubits) != group.n_qubits:
            raise ValidationError(
                f"expected {group.n_qubits} physical qubits, got {len(self.physical_qubits)}"
            )
        #: Qubit ordering the channels are expressed on (sorted, first qubit =
        #: most significant factor) — matches ``PulseBackend.circuit_channel``.
        self.active = sorted(self.physical_qubits)
        self.group = group
        self.store = store
        self.store_key: str | None = None
        self._channels: dict[int, np.ndarray] = {}
        #: Pending (built this session, not yet flushed) element indices.
        self._dirty: set[int] = set()
        #: Serializes *builders* (channel construction, flush): the session
        #: executes experiments on threads over one shared table, and one
        #: experiment's ``ensure`` must not race another's extending the
        #: table.  The read path stays lock-free.
        self._build_lock = threading.RLock()
        #: Current on-disk generation as one ``(ids, channels)`` tuple.
        #: Held in a single attribute so a :meth:`flush` swapping in a new
        #: generation is atomic to concurrent readers (ids and channels can
        #: never be observed mismatched).
        self._stored_pair: tuple[np.ndarray, np.ndarray] | None = None
        if store is not None:
            self.store_key = store.channel_table_key(backend, self.physical_qubits, group)
            self._stored_pair = store.load_channel_table(self.store_key)

    def channel(self, element: CliffordElement) -> np.ndarray:
        """Superoperator channel of a Clifford element (cached)."""
        return self.channel_by_index(element.index)

    def _stored_channel(self, index: int) -> np.ndarray | None:
        """The persisted channel of an element, or None when not on disk."""
        pair = self._stored_pair
        if pair is None or len(pair[0]) == 0:
            return None
        ids, channels = pair
        pos = int(np.searchsorted(ids, index))
        if pos >= len(ids) or ids[pos] != index:
            return None
        return channels[pos]

    def channel_by_index(self, index: int) -> np.ndarray:
        """Channel of the element at a group index (mmap, cache, or build).

        The hit paths (memory map, in-memory dict) are lock-free; a miss
        takes the table's build lock, re-checks, and builds — so
        concurrent threads never construct (or record) an element twice.
        """
        stored = self._stored_channel(index)
        if stored is not None:
            return stored
        channel = self._channels.get(index)
        if channel is not None:
            return channel
        with self._build_lock:
            stored = self._stored_channel(index)  # a racing flush published it
            if stored is not None:
                return stored
            channel = self._channels.get(index)
            if channel is not None:
                return channel
            element = self.group.element(index)
            circuit = QuantumCircuit(
                max(self.physical_qubits) + 1, 0, name=f"clifford_{index}"
            )
            self.group.append_to_circuit(circuit, element, self.physical_qubits)
            transpiled = transpile(
                circuit,
                basis_gates=self.backend.properties.basis_gates,
                coupling=self.backend.properties.coupling,
            )
            channel, _ = self.backend.circuit_channel(
                transpiled, qubits=self.active, transpiled=True
            )
            self._channels[index] = channel
            self._dirty.add(index)
            return channel

    def stack(self, indices: np.ndarray) -> np.ndarray:
        """Channels of ``indices`` as one ``(len(indices), 4^n, 4^n)`` array."""
        return np.stack([np.asarray(self.channel_by_index(i)) for i in indices.tolist()])

    def _covered(self, indices: np.ndarray) -> np.ndarray:
        """Mask of the ``indices`` reachable without building (disk or memory).

        Lock-free: the stored pair is read before the in-memory keys, and a
        flush publishes its generation before it empties the dict, so a
        racing flush can only hide an element (the caller then takes the
        build lock), never report a missing one.
        """
        pair = self._stored_pair
        known = [np.fromiter(tuple(self._channels), dtype=np.int64)]
        if pair is not None:
            known.append(pair[0])
        return np.isin(indices, np.concatenate(known))

    def ensure(self, indices) -> None:
        """Build (and, with a store, persist) the channels of ``indices``.

        Thread-safe: when every index is already reachable (and nothing
        built is waiting for a flush) it returns without the build lock;
        otherwise the build-and-flush runs under the lock, so concurrent
        ``ensure`` calls (experiments of one session sharing the table)
        serialize instead of racing, and each element is built once.  With
        a store, a call that builds anything writes one merged generation.
        """
        indices = np.unique(np.fromiter(indices, dtype=np.int64))
        if (self.store is None or not self._dirty) and self._covered(indices).all():
            return
        with self._build_lock:
            for index in indices[~self._covered(indices)].tolist():
                self.channel_by_index(index)
            self.flush()

    def flush(self) -> None:
        """Merge channels built this session into the persistent store.

        No-op without a store or without fresh channels.  After a flush the
        table re-opens the merged on-disk generation, so subsequent reads —
        and worker processes via :meth:`handle` — see one consistent memory
        map.

        The post-flush state swap is ordered for concurrent readers (the
        session executes experiments on threads): the merged generation is
        published to :attr:`_stored_pair` *before* the in-memory dict is
        replaced, and both are whole-attribute assignments — a reader
        always finds a channel in at least one of the two places, and
        never sees a mismatched (ids, channels) pair.  Writers
        (``ensure``/``flush``/lazy builds) serialize on the table's own
        build lock.
        """
        with self._build_lock:
            if self.store is None or not self._dirty:
                return
            fresh = {index: self._channels[index] for index in self._dirty}
            self.store.save_channel_table(
                self.store_key,
                fresh,
                metadata={
                    "backend": self.backend.name,
                    "physical_qubits": list(self.physical_qubits),
                    "n_qubits": self.group.n_qubits,
                },
            )
            loaded = self.store.load_channel_table(self.store_key)
            if loaded is not None:
                self._stored_pair = loaded
                self._channels = {}
            self._dirty = set()

    def handle(self) -> ChannelTableHandle | None:
        """Picklable handle to the current on-disk generation (or None)."""
        if self.store is None:
            return None
        return self.store.handle(self.store_key)

    def __len__(self) -> int:
        """Number of channels reachable without building (memory + disk)."""
        pair = self._stored_pair
        stored = 0 if pair is None else len(pair[0])
        return len(self._channels) + stored


def clifford_channel_table(
    backend, physical_qubits: Sequence[int], group: CliffordGroup, store=None
) -> CliffordChannelTable:
    """The backend's (cached) Clifford channel table for a qubit set.

    Tables live on the backend instance and are dropped by
    ``PulseBackend.clear_channel_cache`` / the properties-drift freshness
    check, so a drifted calibration snapshot never serves stale channels.
    On disk the same guarantee holds by construction: the store key digests
    the properties fingerprint, so a drifted snapshot addresses a different
    table.

    Parameters
    ----------
    backend : PulseBackend
        The backend to tabulate.
    physical_qubits : sequence of int
        Physical qubits of the Clifford words.
    group : CliffordGroup
        Group being tabulated.
    store : optional
        Store selector (``"auto"``, a path or a store instance);
        ``None`` keeps the table purely in memory.

    Returns
    -------
    CliffordChannelTable
        The cached (per backend instance, per qubit set, per store) table.
    """
    backend._check_cache_freshness()
    store = resolve_store(store)
    key = (
        tuple(int(q) for q in physical_qubits),
        group.n_qubits,
        None if store is None else str(store.root),
    )
    table = backend._clifford_channel_tables.get(key)
    if table is None:
        table = CliffordChannelTable(backend, physical_qubits, group, store=store)
        backend._clifford_channel_tables[key] = table
    return table


def interleaved_gate_channel(
    backend,
    gate: Gate,
    physical_qubits: Sequence[int],
    calibration: Schedule | None = None,
) -> np.ndarray:
    """Channel of the interleaved gate exactly as the circuit path sees it.

    The gate is placed in a one-gate circuit (with the custom calibration
    attached, when given), transpiled, and composed through
    ``circuit_channel`` — reproducing transpiler pass-through of calibrated
    gates, virtual-Z handling and default-gate incoherent error.
    """
    qubits = tuple(int(q) for q in physical_qubits)
    circuit = QuantumCircuit(max(qubits) + 1, 0, name=f"interleaved_{gate.name}")
    circuit.append(gate, qubits)
    if calibration is not None:
        circuit.add_calibration(gate.name, qubits, calibration)
    transpiled = transpile(
        circuit,
        basis_gates=backend.properties.basis_gates,
        coupling=backend.properties.coupling,
    )
    channel, _ = backend.circuit_channel(transpiled, qubits=sorted(qubits), transpiled=True)
    return channel


# --------------------------------------------------------------------------- #
# sequence execution
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class _LengthGroup:
    """The sequences of one (length, interleaved) pair as arrays (picklable).

    ``positions`` are the sequences' places in the caller's input order.
    """

    indices: np.ndarray
    recovery: np.ndarray
    interleaved: bool
    sample_seeds: tuple[int, ...]
    names: tuple[str, ...]
    positions: tuple[int, ...]


@dataclass(frozen=True)
class _EngineContext:
    """Shared, picklable execution context of one curve's pool call.

    Exactly one of ``channels`` (a dense ``(ids, channels)`` pair of the
    used elements, pickled with the call) and ``handle`` (a
    :class:`ChannelTableHandle` whose arrays the worker memory-maps
    locally, sharing the kernel page cache) is set.
    """

    channels: tuple[np.ndarray, np.ndarray] | None
    handle: ChannelTableHandle | None
    interleaved_channel: np.ndarray | None
    active: tuple[int, ...]
    measured: tuple[tuple[int, int], ...]
    confusion: np.ndarray
    shots: int
    backend_name: str

    def table(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``(ids, channels)`` pair, ids sorted ascending.

        A memory map is returned as a plain ndarray view of the same
        pages: gathers from it then skip ``np.memmap``'s Python-level
        ``__getitem__``.
        """
        if self.handle is None:
            return self.channels
        ids, channels = self.handle.table()
        return ids, np.asarray(channels)


def _composed(context: _EngineContext, groups: list[_LengthGroup]) -> list[np.ndarray]:
    """Every group's composed channels, one ``(k, 4^n, 4^n)`` stack per group.

    The groups of one kind (plain or interleaved) are composed as one
    stack with their sequences longest first, so step ``j`` multiplies the
    prefix of sequences longer than ``j`` in one matmul: ``max(m)`` steps
    instead of ``Σ m``.  Each sequence meets the same operands in the same
    order as composed alone (element, interleaved gate, recovery last),
    and a stacked matmul works slice by slice, so every channel is
    bit-identical to a per-sequence loop's.
    """
    ids, channels = context.table()
    dim = channels.shape[-1]
    stacks: list[np.ndarray] = [None] * len(groups)
    for interleaved in (False, True):
        order = sorted(
            (i for i, group in enumerate(groups) if group.interleaved == interleaved),
            key=lambda i: -groups[i].indices.shape[1],
        )
        if not order:
            continue
        chosen = [groups[i] for i in order]
        lengths = [group.indices.shape[1] for group in chosen]
        counts = [len(group.recovery) for group in chosen]
        ends = np.cumsum(counts)
        starts = ends - counts
        positions = np.zeros((ends[-1], lengths[0]), dtype=np.intp)
        for group, start, end, m in zip(chosen, starts, ends, lengths):
            positions[start:end, :m] = np.searchsorted(ids, group.indices)
        total = np.tile(np.eye(dim, dtype=complex), (ends[-1], 1, 1))
        inter = context.interleaved_channel if interleaved else None
        live = len(chosen)
        for j in range(lengths[0]):
            while lengths[live - 1] <= j:
                live -= 1
            n = ends[live - 1]
            total[:n] = channels[positions[:n, j]] @ total[:n]
            if inter is not None:
                total[:n] = inter @ total[:n]
        recovery = channels[np.searchsorted(ids, np.concatenate([group.recovery for group in chosen]))]
        total = recovery @ total
        for i, start, end in zip(order, starts, ends):
            stacks[i] = total[start:end]
    return stacks


def _sampled(context: _EngineContext, group: _LengthGroup, totals: np.ndarray) -> list[float]:
    """Ground-state survival of each of a group's composed channels."""
    survivals = []
    for channel, sample_seed, name in zip(totals, group.sample_seeds, group.names):
        probs = channel_output_probabilities(channel, len(context.active))
        result = sample_measurement(
            probs,
            list(context.active),
            list(context.measured),
            context.confusion,
            default_rng(sample_seed),
            context.shots,
            name,
            context.backend_name,
        )
        survivals.append(result.ground_state_population())
    return survivals


def _survivals(context: _EngineContext, groups: list[_LengthGroup]) -> list[float]:
    """Every group's survivals, scattered back to input order (pool-call body)."""
    survivals = [0.0] * sum(len(group.positions) for group in groups)
    for group, totals in zip(groups, _composed(context, groups)):
        for position, value in zip(group.positions, _sampled(context, group, totals)):
            survivals[position] = value
    return survivals


def _fitted_curve(
    context: _EngineContext,
    groups: list[_LengthGroup],
    lengths: np.ndarray,
    seed_indices: np.ndarray,
    n_qubits: int,
    fixed_asymptote: float | None,
) -> RBResult:
    """Compose, sample and fit one curve (pool-call body)."""
    survivals = _survivals(context, groups)
    return _fit_survivals(lengths, seed_indices, survivals, n_qubits, fixed_asymptote)


def _prepare(
    backend,
    sequences,
    physical_qubits: Sequence[int],
    shots: int,
    group: CliffordGroup,
    interleaved_gate: Gate | None,
    interleaved_calibration: Schedule | None,
    seed,
    store,
) -> tuple[_EngineContext, list[_LengthGroup]]:
    """The parent-side half of an execution: context and length groups.

    Validates the sequences, resolves the interleaved gate's channel,
    draws the per-sequence sample seeds and makes sure every used table
    element is reachable by the worker (persisted and memory-mapped with
    a store, stacked into the context without one).
    """
    physical_qubits = [int(q) for q in physical_qubits]
    table = clifford_channel_table(backend, physical_qubits, group, store=store)
    needs_interleaved = any(seq.interleaved for seq in sequences)
    inter_channel = None
    if needs_interleaved:
        if interleaved_gate is None:
            raise ValidationError(
                "interleaved sequences require the interleaved gate to be passed explicitly"
            )
        inter_channel = interleaved_gate_channel(
            backend, interleaved_gate, physical_qubits, calibration=interleaved_calibration
        )
    if any(seq.recovery_index is None for seq in sequences):
        raise ValidationError(
            "sequence is missing its recovery index; regenerate it with rb_sequences()"
        )
    # one seed per sequence, drawn in sequence order (matches the loop path)
    sample_seeds = default_rng(seed).integers(2**31 - 1, size=len(sequences)).tolist()
    members: dict[tuple[int, bool], list[int]] = {}
    for position, seq in enumerate(sequences):
        members.setdefault((len(seq.clifford_indices), bool(seq.interleaved)), []).append(position)
    groups = []
    for (_, interleaved), positions in members.items():
        chosen = [sequences[p] for p in positions]
        groups.append(
            _LengthGroup(
                indices=np.array([seq.clifford_indices for seq in chosen], dtype=np.int64),
                recovery=np.array([seq.recovery_index for seq in chosen], dtype=np.int64),
                interleaved=interleaved,
                sample_seeds=tuple(sample_seeds[p] for p in positions),
                names=tuple(
                    f"{'irb' if seq.interleaved else 'rb'}_m{seq.length}_s{seq.seed_index}"
                    for seq in chosen
                ),
                positions=tuple(positions),
            )
        )
    used = np.unique(np.concatenate([np.append(g.indices, g.recovery) for g in groups]))
    handle = None
    if table.store is not None:
        table.ensure(used)
        handle = table.handle()
        # A concurrent cold-start on the same key may have won the
        # manifest race with a generation missing some of our elements
        # (merges are last-writer-wins); only ship the handle when it
        # covers the workload, else fall back to a stack of the channels.
        if handle is not None and not np.isin(used, handle.table()[0]).all():
            handle = None
    context = _EngineContext(
        channels=None if handle is not None else (used, table.stack(used)),
        handle=handle,
        interleaved_channel=inter_channel,
        active=tuple(table.active),
        measured=tuple((int(q), clbit) for clbit, q in enumerate(physical_qubits)),
        confusion=readout_confusion_matrix(
            [backend.properties.qubit(q) for q in physical_qubits]
        ),
        shots=int(shots),
        backend_name=backend.name,
    )
    return context, groups


def execute_sequences_with_channels(
    backend,
    sequences,
    physical_qubits: Sequence[int],
    shots: int,
    group: CliffordGroup,
    interleaved_gate: Gate | None = None,
    interleaved_calibration: Schedule | None = None,
    seed=None,
    num_workers: int = 1,
    store=None,
) -> list[float]:
    """Execute RB sequences by composing cached channels; returns survivals.

    Per-sequence sampling seeds are drawn from ``seed`` in sequence order —
    the same draws, in the same order, as the circuit-based executor — so
    the two engines produce identical survival statistics (up to float
    tolerance of the composed channels).

    Parameters
    ----------
    backend : PulseBackend
        Backend whose cached gate channels back the Clifford table.
    sequences : list of RBSequence
        Sequences with element indices and recovery indices populated.
    physical_qubits : sequence of int
        Benchmarked physical qubits.
    shots : int
        Shots per sequence.
    group : CliffordGroup
        The Clifford group of the sequences.
    interleaved_gate : Gate, optional
        Gate inserted after every Clifford of interleaved sequences.
    interleaved_calibration : Schedule, optional
        Custom calibration of the interleaved gate.
    seed : optional
        Seed of the per-sequence sampling-seed stream.
    num_workers : int
        Size of the persistent process pool the length groups are composed
        and sampled on, as one call (see
        :func:`repro.utils.parallel.pool_submit`; ``1`` runs them inline).
    store : optional
        Persistent channel-store selector (``"auto"``, path, store
        instance, or ``None`` = no store: the used channels are stacked
        and pickled with the call).  With a store, used channels are
        persisted before dispatch and the worker memory-maps them instead
        of receiving pickled copies.

    Returns
    -------
    list of float
        Ground-state survival of every sequence, in input order.
    """
    if not sequences:
        return []
    context, groups = _prepare(
        backend, sequences, physical_qubits, shots, group,
        interleaved_gate, interleaved_calibration, seed, store,
    )
    return pool_submit(_survivals, context, groups, num_workers=num_workers).result()


def fit_sequences_with_channels(
    backend,
    sequences,
    physical_qubits: Sequence[int],
    shots: int,
    group: CliffordGroup,
    fixed_asymptote: float | None = None,
    interleaved_gate: Gate | None = None,
    interleaved_calibration: Schedule | None = None,
    seed=None,
    num_workers: int = 1,
    store=None,
) -> RBResult:
    """Execute one RB curve's sequences and fit its decay in one pool call.

    The sequences are prepared exactly as by
    :func:`execute_sequences_with_channels`; the pool worker then composes
    and samples every length group and fits ``A·α^m + B`` to the survivals,
    so only the fitted :class:`~repro.benchmarking.rb.RBResult` comes back.
    The result equals fitting the survivals of
    :func:`execute_sequences_with_channels` in the calling process, at any
    ``num_workers``.

    Parameters
    ----------
    backend, sequences, physical_qubits, shots, group
        As for :func:`execute_sequences_with_channels`; ``sequences`` must
        not be empty.
    fixed_asymptote : float, optional
        Fixed asymptote ``B`` of the decay fit (``None`` fits it).
    interleaved_gate, interleaved_calibration, seed, num_workers, store
        As for :func:`execute_sequences_with_channels`.

    Returns
    -------
    RBResult
        Per-length means and spreads, per-sequence survivals and the fit.
    """
    if not sequences:
        raise ValidationError("no RB sequences to execute")
    context, groups = _prepare(
        backend, sequences, physical_qubits, shots, group,
        interleaved_gate, interleaved_calibration, seed, store,
    )
    lengths, seed_indices = _sequence_fields(sequences)
    call = pool_submit(
        _fitted_curve, context, groups, lengths, seed_indices, group.n_qubits,
        fixed_asymptote, num_workers=num_workers,
    )
    return call.result()
