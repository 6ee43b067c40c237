"""Measurement sampling shared by the backend and the RB execution engine.

These are pure functions of plain arrays so that (a) the circuit path in
:class:`~repro.backend.backend.PulseBackend` and (b) the batched
randomized-benchmarking executor in :mod:`repro.benchmarking.engine` sample
through *exactly* the same code — survival probabilities agree to floating
point between the two execution paths — and so that process-pool workers
can sample without pickling a whole backend.
"""

from __future__ import annotations

import numpy as np

from .noise import apply_readout_error
from .result import Result
from ..qobj.superop import apply_superop
from ..utils.validation import ValidationError

__all__ = ["channel_output_probabilities", "sample_measurement"]


def channel_output_probabilities(channel: np.ndarray, n_qubits: int) -> np.ndarray:
    """Outcome probabilities of a channel applied to ``|0...0><0...0|``.

    Returns the clipped, normalized diagonal of the output density matrix
    over the full ``2^n`` register.
    """
    dim = 2**n_qubits
    rho0 = np.zeros((dim, dim), dtype=complex)
    rho0[0, 0] = 1.0
    rho = apply_superop(channel, rho0)
    probs_all = np.clip(np.real(np.diag(rho)), 0.0, None)
    total = probs_all.sum()
    if total <= 0:
        raise ValidationError("simulation produced a non-positive state")
    return probs_all / total


def sample_measurement(
    probs_all: np.ndarray,
    active: list[int],
    measured: list[tuple[int, int]],
    confusion: np.ndarray,
    rng: np.random.Generator,
    shots: int,
    name: str,
    backend_name: str,
) -> Result:
    """Marginalize, apply readout error and sample counts.

    Parameters
    ----------
    probs_all:
        Full-register outcome probabilities (first active qubit = most
        significant bit).
    active:
        Qubits the probabilities are expressed on.
    measured:
        ``(qubit, clbit)`` pairs to sample.
    confusion:
        Joint readout confusion matrix of the measured qubits, in
        measurement order.
    rng:
        Generator used for the multinomial draw.
    shots:
        Number of samples.
    name, backend_name:
        Result metadata.
    """
    index_of = {q: i for i, q in enumerate(active)}
    meas_qubits = [q for q, _ in measured]
    for q in meas_qubits:
        if q not in index_of:
            raise ValidationError(f"measured qubit {q} is not part of the simulated register {active}")
    n = len(active)
    # marginalize the full-register probabilities onto the measured qubits
    probs_tensor = probs_all.reshape([2] * n) if n > 0 else probs_all
    keep_axes = [index_of[q] for q in meas_qubits]
    other_axes = tuple(i for i in range(n) if i not in keep_axes)
    marg = probs_tensor.sum(axis=other_axes) if other_axes else probs_tensor
    # reorder axes into measurement order
    current = [a for a in range(n) if a in keep_axes]
    perm = [current.index(a) for a in keep_axes]
    marg = np.transpose(marg, perm).reshape(-1)
    # readout error
    noisy = apply_readout_error(marg, confusion)
    samples = rng.multinomial(shots, noisy)
    n_meas = len(meas_qubits)
    # order counts keys by classical bit index
    clbit_order = np.argsort([c for _, c in measured], kind="stable")
    counts: dict[str, int] = {}
    ideal: dict[str, float] = {}
    for outcome_index, count in enumerate(samples):
        bits_meas_order = format(outcome_index, f"0{n_meas}b")
        bits_clbit_order = "".join(bits_meas_order[i] for i in clbit_order)
        if count > 0:
            counts[bits_clbit_order] = counts.get(bits_clbit_order, 0) + int(count)
        prob = float(noisy[outcome_index])
        if prob > 0:
            ideal[bits_clbit_order] = ideal.get(bits_clbit_order, 0.0) + prob
    if not counts:  # degenerate case: all probability mass sampled to zero counts
        counts = {"0" * n_meas: shots}
    return Result(
        counts=counts,
        shots=shots,
        probabilities_ideal=ideal,
        metadata={"name": name, "measured_qubits": meas_qubits, "backend": backend_name},
    )
