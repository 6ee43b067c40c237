"""Single-qubit gate synthesis.

Any single-qubit unitary can be written (up to global phase) as

    U = e^{iγ} RZ(φ) RY(θ) RZ(λ)                       (ZYZ Euler angles)
      = e^{iγ'} RZ(φ+π) · SX · RZ(θ+π) · SX · RZ(λ)    (ZXZXZ / McKay form)

The second form uses only the IBM basis gates (virtual RZ plus two physical
SX pulses) and is what the transpiler emits for arbitrary single-qubit gates
— including the Clifford recovery gates of randomized benchmarking.
"""

from __future__ import annotations

import cmath

import numpy as np

from ..utils.validation import ValidationError

__all__ = ["zyz_decomposition", "u3_to_zxzxz", "decompose_1q_to_basis"]


def zyz_decomposition(u: np.ndarray, atol: float = 1e-9) -> tuple[float, float, float, float]:
    """ZYZ Euler angles of a 2×2 unitary.

    Returns ``(theta, phi, lam, phase)`` such that
    ``U = exp(i·phase) · RZ(phi) · RY(theta) · RZ(lam)``.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValidationError(f"expected a 2x2 matrix, got shape {u.shape}")
    if not np.allclose(u @ u.conj().T, np.eye(2), atol=1e-7):
        raise ValidationError("matrix is not (numerically) unitary")
    det = np.linalg.det(u)
    # remove global phase so the matrix is special unitary
    phase = 0.5 * cmath.phase(det)
    su = u * np.exp(-1j * phase)
    # su = [[cos(t/2) e^{-i(phi+lam)/2}, -sin(t/2) e^{-i(phi-lam)/2}],
    #       [sin(t/2) e^{ i(phi-lam)/2},  cos(t/2) e^{ i(phi+lam)/2}]]
    c = abs(su[0, 0])
    c = min(1.0, max(0.0, c))
    theta = 2.0 * np.arccos(c)
    if abs(np.sin(theta / 2.0)) > atol:
        plus = cmath.phase(su[1, 1])  # (phi + lam)/2
        minus = cmath.phase(su[1, 0])  # (phi - lam)/2
        phi = plus + minus
        lam = plus - minus
    else:
        # theta ~ 0 (or pi): only the sum (difference) of angles is defined
        if c > 0.5:  # theta ~ 0
            phi = 2.0 * cmath.phase(su[1, 1])
            lam = 0.0
        else:  # theta ~ pi
            theta = np.pi
            phi = 2.0 * cmath.phase(su[1, 0])
            lam = 0.0
    return float(theta), float(phi), float(lam), float(phase)


def u3_to_zxzxz(theta: float, phi: float, lam: float) -> list[tuple[str, float]]:
    """ZXZXZ (McKay) decomposition of ``U(theta, phi, lam)``.

    Returns a gate list ``[("rz", lam), ("sx", 0), ("rz", theta+pi), ("sx", 0),
    ("rz", phi+pi)]`` in *circuit order* (first element applied first), which
    reproduces the unitary up to global phase.
    """
    return [
        ("rz", float(lam)),
        ("sx", 0.0),
        ("rz", float(theta) + np.pi),
        ("sx", 0.0),
        ("rz", float(phi) + np.pi),
    ]


def decompose_1q_to_basis(u: np.ndarray, simplify: bool = True, atol: float = 1e-9) -> list[tuple[str, float]]:
    """Decompose an arbitrary single-qubit unitary into ``rz``/``sx`` gates.

    Returns a list of ``(name, angle)`` pairs in circuit order.  With
    ``simplify=True``, pure Z rotations collapse to a single ``rz`` and
    rotations with ``theta = ±π/2`` use a single ``sx``.
    """
    theta, phi, lam, _ = zyz_decomposition(u, atol=atol)
    two_pi = 2.0 * np.pi

    def _norm(angle: float) -> float:
        return float((angle + np.pi) % two_pi - np.pi)

    if simplify:
        if abs(np.sin(theta / 2.0)) < 1e-9:
            # diagonal (or anti-diagonal handled below): a single RZ suffices
            total = _norm(phi + lam + (np.pi * 2 if abs(theta - 2 * np.pi) < 1e-9 else 0.0))
            if abs(theta) < 1e-9 or abs(theta - 2 * np.pi) < 1e-9:
                return [("rz", total)] if abs(total) > atol else []
        if abs(theta - np.pi / 2.0) < 1e-9:
            # RY(pi/2) = RZ(pi/2)·RX(pi/2)·RZ(-pi/2) and SX ∝ RX(pi/2), hence
            # U = RZ(phi) RY(pi/2) RZ(lam) ∝ RZ(phi + pi/2) · SX · RZ(lam - pi/2)
            return [
                ("rz", _norm(lam - np.pi / 2.0)),
                ("sx", 0.0),
                ("rz", _norm(phi + np.pi / 2.0)),
            ]
    seq = u3_to_zxzxz(theta, phi, lam)
    out = []
    for name, angle in seq:
        if name == "rz":
            angle = _norm(angle)
            if abs(angle) < atol and simplify:
                continue
        out.append((name, angle))
    return out

