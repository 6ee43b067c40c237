"""Array-native RB generation and execution against scalar references.

Sequence generation draws each (seed, length) row with one vectorized
``rng.integers`` call and recovers every row by pairwise tableau reduction;
the channel engine composes each length group as stacked matmuls.  Both
must reproduce, bit for bit, the scalar loops they replace — the loops are
copied here as the references.  A curve run as one pool call must equal the
same curve run inline, field for field.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.backend import PulseBackend
from repro.backend.noise import readout_confusion_matrix
from repro.backend.sampling import channel_output_probabilities, sample_measurement
from repro.benchmarking import InterleavedRBExperiment, clifford_group, execute_rb_sequences
from repro.benchmarking.cycle import cycle_sequences, pauli_indices
from repro.benchmarking.engine import (
    clifford_channel_table,
    execute_sequences_with_channels,
    interleaved_gate_channel,
    used_element_indices,
)
from repro.benchmarking.purity import purity_rb_sequences
from repro.benchmarking.rb import (
    _draw_rows,
    _locate_interleaved_element,
    rb_sequences,
)
from repro.circuits.gate import Gate
from repro.pulse.calibrations import default_drag_x
from repro.session.specs import CycleBenchSpec, IRBSpec, PurityRBSpec, RBSpec
from repro.utils import parallel
from repro.utils.seeding import default_rng, spawn_rngs
from repro.utils.validation import ValidationError


# --------------------------------------------------------------------------- #
# scalar references (the loops the array paths replace)
# --------------------------------------------------------------------------- #
def _scalar_recovery(group, indices, interleaved_index=None):
    net = group.identity.index
    for idx in indices:
        net = group.compose_index(net, idx)
        if interleaved_index is not None:
            net = group.compose_index(net, interleaved_index)
    return group.inverse_index(net)


def _scalar_rb_sequences(qubits, lengths, n_seeds, seed, interleaved_gate=None, interleaved_qubits=None):
    """(interleaved, length, seed_index, indices, recovery) of every sequence."""
    group = clifford_group(len(qubits))
    out = []
    sampled = {}
    for seed_index, rng in enumerate(spawn_rngs(seed, n_seeds)):
        for m in lengths:
            indices = tuple(group.sample(rng).index for _ in range(m))
            sampled[(seed_index, m)] = indices
            out.append((False, m, seed_index, indices, _scalar_recovery(group, indices)))
    if interleaved_gate is not None:
        element = _locate_interleaved_element(
            group, interleaved_gate, qubits, interleaved_qubits or qubits
        )
        for seed_index in range(n_seeds):
            for m in lengths:
                indices = sampled[(seed_index, m)]
                recovery = _scalar_recovery(group, indices, element.index)
                out.append((True, m, seed_index, indices, recovery))
    return out


def _scalar_cycle_sequences(qubits, gate, lengths, n_seeds, seed):
    group = clifford_group(len(qubits))
    element = _locate_interleaved_element(group, gate, qubits, qubits)
    paulis = pauli_indices(group)
    out = []
    for seed_index, rng in enumerate(spawn_rngs(seed, n_seeds)):
        for m in lengths:
            indices = tuple(paulis[int(rng.integers(len(paulis)))] for _ in range(m))
            out.append((True, m, seed_index, indices, _scalar_recovery(group, indices, element.index)))
    return out


def _fields(sequences):
    return [
        (s.interleaved, s.length, s.seed_index, s.clifford_indices, s.recovery_index)
        for s in sequences
    ]


# --------------------------------------------------------------------------- #
# draws and tableau arrays
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("n", [24, 11520, 2**31 - 1])
def test_vector_draws_equal_scalar_draws(n):
    """``rng.integers(n, size=m)`` must stay the stream of ``m`` scalar draws.

    Generation and the engine's sample seeds both rely on it; a numpy
    change that breaks it would silently change every payload.
    """
    lengths = [1, 2, 7, 16, 48, 160]
    for seed in (0, 3, 2022, 1_000_017):
        rows = _draw_rows(seed, 3, lengths, n)
        expected = [
            [int(rng.integers(n)) for _ in range(m)]
            for rng in spawn_rngs(seed, 3)
            for m in lengths
        ]
        assert [row.tolist() for row in rows] == expected
        scalar = default_rng(seed)
        assert default_rng(seed).integers(n, size=50).tolist() == [
            int(scalar.integers(n)) for _ in range(50)
        ]


@pytest.mark.parametrize("n_qubits", [1, 2])
def test_compose_and_inverse_indices_match_scalar(n_qubits):
    group = clifford_group(n_qubits)
    index = group.tableau_index()
    rng = np.random.default_rng(40 + n_qubits)
    first = rng.integers(len(group), size=(7, 9))
    second = rng.integers(len(group), size=(7, 9))
    composed = index.compose_indices(first, second)
    assert composed.shape == (7, 9)
    assert composed.tolist() == [
        [index.compose_index(int(a), int(b)) for a, b in zip(ra, rb)]
        for ra, rb in zip(first, second)
    ]
    # broadcasting a scalar second operand
    assert index.compose_indices(first[0], 5).tolist() == [
        index.compose_index(int(a), 5) for a in first[0]
    ]
    assert index.inverse_indices(first).tolist() == [
        [index.inverse_index(int(a)) for a in row] for row in first
    ]


# --------------------------------------------------------------------------- #
# generation: array path == scalar loop
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", [0, 7, 2022])
@pytest.mark.parametrize(
    "qubits, lengths, gate, gate_qubits",
    [
        ((0,), (1, 4, 16, 48, 160), None, None),
        ((0,), (1, 5, 16, 33), "sx", None),
        ((0, 1), (1, 2, 4, 9, 24), None, None),
        ((1, 0), (1, 3, 8, 17), "cx", None),
        ((0, 1), (1, 3, 8, 17), "cx", (1, 0)),
    ],
)
def test_rb_sequences_equal_scalar_reference(seed, qubits, lengths, gate, gate_qubits):
    interleaved = Gate.standard(gate) if gate else None
    array = rb_sequences(
        list(qubits),
        lengths,
        3,
        seed=seed,
        interleaved_gate=interleaved,
        interleaved_qubits=list(gate_qubits) if gate_qubits else None,
        build_circuits=False,
    )
    reference = _scalar_rb_sequences(
        list(qubits), lengths, 3, seed, interleaved, list(gate_qubits) if gate_qubits else None
    )
    assert _fields(array) == reference
    for sequence in array:
        assert all(type(i) is int for i in sequence.clifford_indices)
        assert type(sequence.recovery_index) is int


@pytest.mark.parametrize("seed", [1, 11, 99])
@pytest.mark.parametrize("qubits, gate", [((0,), "x"), ((0, 1), "cx"), ((1, 0), "cx")])
def test_cycle_sequences_equal_scalar_reference(seed, qubits, gate):
    lengths = (1, 4, 9, 16)
    array = cycle_sequences(list(qubits), gate, lengths=lengths, n_seeds=3, seed=seed, build_circuits=False)
    reference = _scalar_cycle_sequences(list(qubits), Gate.standard(gate), lengths, 3, seed)
    assert _fields(array) == reference


def test_used_element_indices_is_sorted_union():
    sequences = rb_sequences([0], (1, 8, 24), 3, seed=5, build_circuits=False)
    expected = set()
    for sequence in sequences:
        expected.update(sequence.clifford_indices)
        expected.add(sequence.recovery_index)
    assert used_element_indices(sequences).tolist() == sorted(expected)


# --------------------------------------------------------------------------- #
# repeated lengths
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("spec_cls", [RBSpec, IRBSpec, PurityRBSpec, CycleBenchSpec])
def test_specs_reject_repeated_lengths(spec_cls):
    with pytest.raises(ValidationError, match="distinct"):
        spec_cls(lengths=(1, 16, 16, 48))
    with pytest.raises(ValidationError, match="distinct"):
        spec_cls.from_dict({"lengths": [1, 16, 16, 48]})


def test_generators_reject_repeated_lengths():
    with pytest.raises(ValidationError, match="distinct"):
        rb_sequences([0], (1, 16, 16, 48), 2, seed=1, interleaved_gate=Gate.standard("x"))
    with pytest.raises(ValidationError, match="distinct"):
        cycle_sequences([0], "x", lengths=(4, 4), n_seeds=2, seed=1)
    with pytest.raises(ValidationError, match="distinct"):
        purity_rb_sequences([0], lengths=(2, 8, 2), n_seeds=2, seed=1)


@pytest.mark.parametrize("gate", [Gate.standard("t"), Gate.standard("rx", 0.3)])
def test_non_clifford_interleaved_gate_is_named(gate):
    with pytest.raises(ValidationError, match=f"interleaved gate '{gate.name}' is not a Clifford"):
        rb_sequences([0], (1, 4, 8), 1, seed=1, interleaved_gate=gate)


# --------------------------------------------------------------------------- #
# execution: stacked matmuls == per-sequence loop
# --------------------------------------------------------------------------- #
def _reference_survivals(backend, sequences, qubits, shots, group, gate, seed):
    """The per-sequence ``@`` loop over table channels, sampled as the engine samples."""
    table = clifford_channel_table(backend, qubits, group, store=None)
    inter = interleaved_gate_channel(backend, gate, qubits) if gate is not None else None
    confusion = readout_confusion_matrix([backend.properties.qubit(q) for q in qubits])
    measured = [(q, clbit) for clbit, q in enumerate(qubits)]
    rng = default_rng(seed)
    survivals = []
    for seq in sequences:
        sample_seed = int(rng.integers(2**31 - 1))
        recovery = table.channel_by_index(seq.recovery_index)
        total = np.eye(recovery.shape[0], dtype=complex)
        for idx in seq.clifford_indices:
            total = table.channel_by_index(idx) @ total
            if seq.interleaved:
                total = inter @ total
        total = recovery @ total
        result = sample_measurement(
            channel_output_probabilities(total, len(table.active)),
            list(table.active),
            measured,
            confusion,
            default_rng(sample_seed),
            shots,
            f"{'irb' if seq.interleaved else 'rb'}_m{seq.length}_s{seq.seed_index}",
            backend.name,
        )
        survivals.append(result.ground_state_population())
    return survivals


@pytest.mark.parametrize("num_workers", [1, 2])
@pytest.mark.parametrize("with_store", [False, True])
@pytest.mark.parametrize(
    "qubits, gate, lengths",
    [([0], "x", (1, 5, 16, 40)), ([0, 1], "cx", (1, 2, 5, 9))],
)
def test_stacked_execution_equals_per_sequence_loop(
    montreal_props, tmp_path, qubits, gate, lengths, with_store, num_workers
):
    group = clifford_group(len(qubits))
    interleaved = Gate.standard(gate)
    sequences = rb_sequences(
        qubits, lengths, 3, seed=17, interleaved_gate=interleaved, build_circuits=False
    )
    # interleave the length groups so results must be scattered back
    sequences = sequences[::2] + sequences[1::2][::-1]
    backend = PulseBackend(montreal_props, calibrated_qubits=[0, 1], seed=8)
    survivals = execute_sequences_with_channels(
        backend,
        sequences,
        qubits,
        200,
        group,
        interleaved_gate=interleaved,
        seed=29,
        num_workers=num_workers,
        store=tmp_path / "store" if with_store else None,
    )
    reference = _reference_survivals(backend, sequences, qubits, 200, group, interleaved, 29)
    assert survivals == reference


# --------------------------------------------------------------------------- #
# one pool call per curve == inline
# --------------------------------------------------------------------------- #
def _curve_fields(result):
    """Every RBResult field a payload is built from, as plain comparable values."""
    fit = result.fit
    return (
        result.lengths.tolist(),
        result.survival_mean.tolist(),
        result.survival_std.tolist(),
        result.per_sequence,
        (fit.alpha, fit.alpha_err, fit.a, fit.a_err, fit.b, fit.b_err, fit.status, fit.reduced_chi2),
    )


def _irb_curves(props, qubits, gate, lengths, calibration, store, num_workers):
    """Reference and interleaved curve fields of one IRB run, then one standard curve."""
    backend = PulseBackend(props, calibrated_qubits=[0, 1], seed=5)
    experiment = InterleavedRBExperiment(
        backend, gate, qubits, lengths=lengths, n_seeds=3, shots=300, seed=41,
        custom_calibration=calibration, num_workers=num_workers, store=store,
    )
    result = experiment.run()
    sequences = rb_sequences(qubits, lengths, 3, seed=43, build_circuits=False)
    standard = execute_rb_sequences(
        backend, sequences, len(qubits), 300, seed=47, num_workers=num_workers,
        physical_qubits=qubits, store=store,
    )
    return [_curve_fields(c) for c in (result.reference, result.interleaved, standard)]


@pytest.fixture(params=["fork", "spawn"])
def pool_method(request, monkeypatch):
    """A 2-worker persistent pool on the given start method (shut down after)."""
    import multiprocessing

    if request.param not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{request.param} unavailable")
    monkeypatch.setenv("REPRO_MP_START", request.param)
    parallel.shutdown_pool()
    yield request.param
    parallel.shutdown_pool()


def test_pool_curves_equal_inline_curves(montreal_props, tmp_path, pool_method):
    custom_x = default_drag_x(0, montreal_props.qubit(0), montreal_props.dt, amplitude_error=0.01)
    cases = [
        ([0], "x", (1, 8, 24, 60), custom_x),
        ([0, 1], "cx", (1, 2, 4, 8), None),
    ]
    for qubits, gate, lengths, calibration in cases:
        for with_store in (False, True):
            store = tmp_path / f"store-{gate}" if with_store else None
            inline = _irb_curves(montreal_props, qubits, gate, lengths, calibration, store, 1)
            pooled = _irb_curves(montreal_props, qubits, gate, lengths, calibration, store, 2)
            assert pooled == inline, (gate, with_store)


def test_worker_validation_error_surfaces_as_inline(montreal_props, pool_method):
    backend = PulseBackend(montreal_props, calibrated_qubits=[0], seed=5)
    sequences = rb_sequences([0], (1, 8), 2, seed=3, build_circuits=False)
    raised = []
    for num_workers in (1, 2):
        with pytest.raises(ValidationError) as info:
            execute_rb_sequences(
                backend, sequences, 1, 100, seed=9, num_workers=num_workers,
                physical_qubits=[0], store=None,
            )
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1]
    assert "three sequence lengths" in raised[0][1]


# --------------------------------------------------------------------------- #
# warm-path table coverage
# --------------------------------------------------------------------------- #
def test_cold_two_qubit_irb_writes_one_table_generation(montreal_props, tmp_path, monkeypatch):
    """Both curves' elements go to disk in one generation, and the curves stay bit-identical."""
    from repro.store import ArtifactStore

    writes = []
    original = ArtifactStore.save_channel_table

    def counting(self, *args, **kwargs):
        writes.append(args[0])
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ArtifactStore, "save_channel_table", counting)
    curves = {}
    for store in (tmp_path / "store", None):
        backend = PulseBackend(montreal_props, calibrated_qubits=[0, 1], seed=5)
        result = InterleavedRBExperiment(
            backend, "cx", [0, 1], lengths=(1, 2, 4), n_seeds=2, shots=100, seed=41, store=store,
        ).run()
        curves[store is not None] = [_curve_fields(c) for c in (result.reference, result.interleaved)]
    assert len(writes) == 1
    assert curves[True] == curves[False]


@pytest.mark.parametrize("with_store", [False, True])
def test_ensure_on_covered_indices_does_not_wait_for_the_build_lock(
    montreal_props, tmp_path, with_store
):
    backend = PulseBackend(montreal_props, calibrated_qubits=[0, 1], seed=9)
    table = clifford_channel_table(
        backend, [0], clifford_group(1), store=tmp_path / "store" if with_store else None
    )
    table.ensure(range(24))
    held, release = threading.Event(), threading.Event()

    def hold_lock():
        with table._build_lock:
            held.set()
            release.wait(30)

    holder = threading.Thread(target=hold_lock)
    holder.start()
    try:
        assert held.wait(10)
        caller = threading.Thread(target=table.ensure, args=(np.array([0, 5, 23, 5]),))
        caller.start()
        caller.join(10)
        assert not caller.is_alive()
    finally:
        release.set()
        holder.join()
