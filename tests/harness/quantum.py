"""Reference quantum-information helpers for the tests.

The package keeps only what its pipeline reaches; these helpers are what the
tests build fixtures and oracles from: random states and unitaries, a few
named states, tensor products and partial traces, state and unitary
fidelities, structural matrix checks and CPTP checks.  Every object is a
plain complex ``numpy.ndarray``; kets are ``(d, 1)`` column vectors.
"""

from __future__ import annotations

from functools import reduce
from typing import Iterable, Sequence

import numpy as np
import scipy.linalg as la

from repro.qobj.gates import rz_gate, sx_gate
from repro.qobj.superop import super_to_choi
from repro.utils.linalg import vec
from repro.utils.seeding import default_rng
from repro.utils.validation import ValidationError

# --------------------------------------------------------------------------- #
# structural checks and small linear algebra
# --------------------------------------------------------------------------- #


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose (Hermitian adjoint) of ``a``."""
    return np.conj(np.swapaxes(np.asarray(a), -1, -2))


def is_hermitian(a: np.ndarray, atol: float = 1e-10) -> bool:
    """Whether ``a`` is Hermitian within absolute tolerance ``atol``."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    return bool(np.allclose(a, a.conj().T, atol=atol, rtol=0.0))


def is_unitary(a: np.ndarray, atol: float = 1e-8) -> bool:
    """Whether ``a`` is unitary: ``a a† = I`` within ``atol``."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    return bool(np.allclose(a @ a.conj().T, np.eye(a.shape[0]), atol=atol, rtol=0.0))


def is_density_matrix(a: np.ndarray, atol: float = 1e-8) -> bool:
    """Whether ``a`` is Hermitian, unit-trace and positive semidefinite."""
    a = np.asarray(a)
    if not is_hermitian(a, atol=atol):
        return False
    if not np.isclose(np.trace(a).real, 1.0, atol=atol):
        return False
    return bool(np.all(la.eigvalsh(a) >= -atol))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``[a, b] = a b - b a``."""
    return a @ b - b @ a


def anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``{a, b} = a b + b a``."""
    return a @ b + b @ a


def frobenius_norm(a: np.ndarray) -> float:
    """Frobenius norm of ``a``."""
    return float(np.linalg.norm(np.asarray(a), ord="fro"))


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value of ``a``."""
    return float(np.linalg.norm(np.asarray(a), ord=2))


def nearest_unitary(a: np.ndarray) -> np.ndarray:
    """Closest unitary to ``a`` in Frobenius norm (unitary polar factor, via SVD)."""
    u, _, vh = np.linalg.svd(np.asarray(a, dtype=complex))
    return u @ vh


def nearest_hermitian(a: np.ndarray) -> np.ndarray:
    """Closest Hermitian matrix to ``a``: ``(a + a†)/2``."""
    a = np.asarray(a, dtype=complex)
    return 0.5 * (a + a.conj().T)


def overlap(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt overlap ``Tr(a† b)``."""
    return complex(np.einsum("ij,ij->", np.conj(a), b))


def projector(ket: np.ndarray) -> np.ndarray:
    """Projector ``|ket><ket|``."""
    k = np.asarray(ket, dtype=complex).reshape(-1, 1)
    return k @ k.conj().T


def gram_schmidt(vectors: np.ndarray, atol: float = 1e-12) -> np.ndarray:
    """Orthonormalize the columns of ``vectors``, dropping dependent ones."""
    v = np.array(vectors, dtype=complex, copy=True)
    if v.ndim == 1:
        v = v[:, None]
    out = []
    for j in range(v.shape[1]):
        w = v[:, j].copy()
        for q in out:
            w -= q * (q.conj() @ w)
        nrm = np.linalg.norm(w)
        if nrm > atol:
            out.append(w / nrm)
    if not out:
        return np.zeros((v.shape[0], 0), dtype=complex)
    return np.column_stack(out)


# --------------------------------------------------------------------------- #
# random objects
# --------------------------------------------------------------------------- #


def random_unitary(dim: int, seed=None) -> np.ndarray:
    """Haar-random unitary (QR of a Ginibre matrix with Mezzadri's phase fix)."""
    rng = default_rng(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_statevector(dim: int, seed=None) -> np.ndarray:
    """Haar-random pure state (column vector)."""
    rng = default_rng(seed)
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return (z / np.linalg.norm(z)).reshape(-1, 1)


def random_density_matrix(dim: int, rank: int | None = None, seed=None) -> np.ndarray:
    """Random density matrix from the Hilbert-Schmidt (Ginibre) ensemble."""
    rng = default_rng(seed)
    rank = dim if rank is None else int(rank)
    if not 1 <= rank <= dim:
        raise ValueError(f"rank must be in [1, {dim}], got {rank}")
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_hermitian(dim: int, scale: float = 1.0, seed=None) -> np.ndarray:
    """Random Hermitian matrix from the Gaussian unitary ensemble (scaled)."""
    rng = default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * 0.5 * (a + a.conj().T) / np.sqrt(dim)


# --------------------------------------------------------------------------- #
# named states
# --------------------------------------------------------------------------- #


def ket2dm(ket) -> np.ndarray:
    """Density matrix ``|ket><ket|`` of a ket."""
    vec_ = np.asarray(ket, dtype=complex).reshape(-1, 1)
    return vec_ @ vec_.conj().T


def maximally_mixed_dm(dim: int) -> np.ndarray:
    """The maximally mixed state ``I/dim``."""
    return np.eye(dim, dtype=complex) / dim


def plus_state() -> np.ndarray:
    """Single-qubit ``|+> = (|0> + |1>)/sqrt(2)``."""
    return np.array([[1.0], [1.0]], dtype=complex) / np.sqrt(2.0)


def bell_state(which: str = "phi+") -> np.ndarray:
    """One of the Bell states ``"phi+"``, ``"phi-"``, ``"psi+"``, ``"psi-"``."""
    amp = 1.0 / np.sqrt(2.0)
    table = {
        "phi+": [amp, 0, 0, amp],
        "phi-": [amp, 0, 0, -amp],
        "psi+": [0, amp, amp, 0],
        "psi-": [0, amp, -amp, 0],
    }
    key = which.lower()
    if key not in table:
        raise ValidationError(f"unknown Bell state {which!r}; choose from {sorted(table)}")
    return np.array(table[key], dtype=complex).reshape(-1, 1)


def ghz_state(n_qubits: int = 3) -> np.ndarray:
    """The ``n_qubits`` GHZ state ``(|0...0> + |1...1>)/sqrt(2)``."""
    if n_qubits < 1:
        raise ValidationError(f"n_qubits must be >= 1, got {n_qubits}")
    ket = np.zeros((2**n_qubits, 1), dtype=complex)
    ket[0, 0] = ket[-1, 0] = 1.0 / np.sqrt(2.0)
    return ket


def coherent(dim: int, alpha: complex) -> np.ndarray:
    """Truncated coherent state ``|alpha>``, renormalized after truncation."""
    n = np.arange(dim)
    if alpha == 0:
        amps = np.eye(dim)[0].astype(complex)
    else:
        # alpha^n / sqrt(n!) in log space for stability
        log_fact = np.cumsum(np.log(np.maximum(n, 1)))
        amps = np.exp(n * np.log(complex(alpha)) - 0.5 * log_fact)
    ket = amps.reshape(-1, 1)
    return ket / np.linalg.norm(ket)


def thermal_dm(dim: int, n_mean: float) -> np.ndarray:
    """Truncated thermal (Bose-Einstein) state with mean occupation ``n_mean``."""
    if n_mean < 0:
        raise ValidationError(f"n_mean must be >= 0, got {n_mean}")
    n = np.arange(dim, dtype=float)
    probs = (n_mean / (1.0 + n_mean)) ** n / (1.0 + n_mean)
    return np.diag(probs / probs.sum()).astype(complex)


# --------------------------------------------------------------------------- #
# tensor structure
# --------------------------------------------------------------------------- #


def tensor(*factors) -> np.ndarray:
    """Kronecker product of the factors, leftmost = most significant (qubit 0)."""
    if len(factors) == 1 and isinstance(factors[0], (list, tuple)):
        factors = tuple(factors[0])
    if not factors:
        raise ValidationError("tensor() requires at least one factor")
    arrays = []
    for factor in factors:
        arr = np.asarray(factor, dtype=complex)
        arrays.append(arr.reshape(-1, 1) if arr.ndim == 1 else arr)
    return reduce(np.kron, arrays)


def _density(state) -> np.ndarray:
    arr = np.asarray(state, dtype=complex)
    if arr.ndim == 1 or arr.shape[1] == 1:
        return ket2dm(arr)
    return arr


def ptrace(state, keep: int | Iterable[int], dims: Sequence[int] | None = None) -> np.ndarray:
    """Partial trace of a ket or density matrix with subsystem dimensions ``dims``.

    Keeps the subsystems in ``keep`` (0 = leftmost tensor factor), in their
    original relative order.
    """
    if dims is None:
        raise ValidationError("ptrace requires explicit subsystem dims")
    keep_list = [int(keep)] if isinstance(keep, (int, np.integer)) else sorted(int(k) for k in keep)
    rho = _density(state)
    sub_dims = [int(d) for d in dims]
    if int(np.prod(sub_dims)) != rho.shape[0]:
        raise ValidationError(f"subsystem dims {sub_dims!r} inconsistent with state dimension {rho.shape[0]}")
    n_sub = len(sub_dims)
    if any(k < 0 or k >= n_sub for k in keep_list):
        raise ValidationError(f"keep indices {keep_list} out of range for {n_sub} subsystems")
    tensor_rho = rho.reshape(sub_dims + sub_dims)
    # trace out from the highest index down so the leg positions stay valid
    traced = [i for i in range(n_sub) if i not in keep_list]
    for count, idx in enumerate(sorted(traced, reverse=True)):
        tensor_rho = np.trace(tensor_rho, axis1=idx, axis2=idx + n_sub - count)
    d = int(np.prod([sub_dims[i] for i in keep_list]))
    return tensor_rho.reshape(d, d)


def permute_subsystems(obj, order: Sequence[int], dims: Sequence[int]) -> np.ndarray:
    """Reorder the tensor factors of a ket or operator.

    ``order[i]`` is the index of the current subsystem moved to position ``i``.
    """
    order = [int(o) for o in order]
    sub_dims = [int(d) for d in dims]
    n = len(sub_dims)
    if sorted(order) != list(range(n)):
        raise ValidationError(f"order must be a permutation of 0..{n - 1}, got {order}")
    data = np.asarray(obj, dtype=complex)
    if data.ndim == 1 or data.shape[1] == 1:
        return np.transpose(data.reshape(sub_dims), order).reshape(-1, 1)
    d = int(np.prod(sub_dims))
    axes = order + [o + n for o in order]
    return np.transpose(data.reshape(sub_dims + sub_dims), axes).reshape(d, d)


# --------------------------------------------------------------------------- #
# fidelities and distances
# --------------------------------------------------------------------------- #


def state_fidelity(a, b) -> float:
    """Uhlmann fidelity ``(Tr sqrt(sqrt(a) b sqrt(a)))^2`` of kets or density matrices."""
    a_arr = np.asarray(a, dtype=complex)
    b_arr = np.asarray(b, dtype=complex)
    a_is_ket = a_arr.ndim == 1 or a_arr.shape[1] == 1
    b_is_ket = b_arr.ndim == 1 or b_arr.shape[1] == 1
    if a_is_ket and b_is_ket:
        return float(abs(np.vdot(a_arr.reshape(-1), b_arr.reshape(-1))) ** 2)
    if a_is_ket or b_is_ket:
        ket = (a_arr if a_is_ket else b_arr).reshape(-1)
        rho = b_arr if a_is_ket else a_arr
        return float(np.real(ket.conj() @ rho @ ket))
    sqrt_rho = la.sqrtm(a_arr)
    inner = sqrt_rho @ b_arr @ sqrt_rho
    inner = 0.5 * (inner + inner.conj().T)
    evals = np.clip(la.eigvalsh(inner), 0.0, None)
    return float(np.sum(np.sqrt(evals)) ** 2)


def trace_distance(a, b) -> float:
    """Trace distance ``0.5 * ||a - b||_1`` between two states."""
    return float(0.5 * np.sum(np.linalg.svd(_density(a) - _density(b), compute_uv=False)))


def purity(state) -> float:
    """Purity ``Tr(rho^2)`` of a state."""
    rho = _density(state)
    return float(np.real(np.trace(rho @ rho)))


def hilbert_schmidt_distance(a, b) -> float:
    """Hilbert-Schmidt distance ``||a - b||_F`` between two operators."""
    return float(np.linalg.norm(np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex), ord="fro"))


def unitary_overlap_fidelity(u_target, u_final) -> float:
    """Phase-insensitive overlap fidelity ``|Tr(U_t† U_f)|^2 / N^2``."""
    ut = np.asarray(u_target, dtype=complex)
    uf = np.asarray(u_final, dtype=complex)
    if ut.shape != uf.shape:
        raise ValidationError(f"unitary shapes differ: {ut.shape} vs {uf.shape}")
    n = ut.shape[0]
    val = abs(np.trace(ut.conj().T @ uf)) ** 2 / n**2
    return float(min(max(val, 0.0), 1.0 + 1e-12))


def unitary_infidelity(u_target, u_final) -> float:
    """``1 - unitary_overlap_fidelity(u_target, u_final)``."""
    return float(1.0 - unitary_overlap_fidelity(u_target, u_final))


def synthesis_fidelity_check(u: np.ndarray, gate_list: list[tuple[str, float]]) -> float:
    """``|Tr(U† V)| / 2`` between ``u`` and the product ``V`` of an ``rz``/``sx`` list."""
    v = np.eye(2, dtype=complex)
    for name, angle in gate_list:
        if name == "rz":
            v = rz_gate(angle) @ v
        elif name == "sx":
            v = sx_gate() @ v
        else:
            raise ValidationError(f"unexpected gate {name!r} in synthesized list")
    return float(abs(np.trace(np.asarray(u, dtype=complex).conj().T @ v)) / 2.0)


# --------------------------------------------------------------------------- #
# channel checks (column-stacking superoperators)
# --------------------------------------------------------------------------- #


def choi_to_super(choi: np.ndarray) -> np.ndarray:
    """Inverse of :func:`repro.qobj.superop.super_to_choi` (the reshuffle is an involution)."""
    c = np.asarray(choi, dtype=complex)
    d2 = c.shape[0]
    d = int(round(np.sqrt(d2)))
    return np.transpose(c.reshape(d, d, d, d), (3, 1, 2, 0)).reshape(d2, d2)


def is_trace_preserving(superop: np.ndarray, atol: float = 1e-8) -> bool:
    """Whether ``Tr(E(rho)) = Tr(rho)`` for all ``rho``: ``vec(I)† S = vec(I)†``."""
    s = np.asarray(superop, dtype=complex)
    d = int(round(np.sqrt(s.shape[0])))
    vec_id = vec(np.eye(d, dtype=complex))
    return bool(np.allclose(vec_id.conj() @ s, vec_id.conj(), atol=atol))


def is_cptp(superop: np.ndarray, atol: float = 1e-8) -> bool:
    """Complete positivity (Choi matrix PSD) and trace preservation."""
    choi = super_to_choi(superop)
    evals = la.eigvalsh(0.5 * (choi + choi.conj().T))
    if np.any(evals < -atol * max(1.0, abs(evals).max())):
        return False
    return is_trace_preserving(superop, atol=atol)
