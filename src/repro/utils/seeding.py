"""Reproducible random-number-generator management.

All stochastic components of the library (measurement sampling, SPSA, RB
sequence sampling, calibration drift) accept either an integer seed, an
existing :class:`numpy.random.Generator`, or ``None``; :func:`default_rng`
normalizes these into a Generator.  :func:`spawn_rngs` derives independent
child generators for parallel work, following NumPy's recommended
``SeedSequence.spawn`` pattern so results are reproducible regardless of the
execution order of the children.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["default_rng", "spawn_rngs", "stable_hash_seed"]

RngLike = "int | np.random.Generator | np.random.SeedSequence | None"


def default_rng(seed=None) -> np.random.Generator:
    """Normalize ``seed`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` (fresh entropy), an ``int``, a ``SeedSequence``, or an
        existing ``Generator`` (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed, n: int) -> list[np.random.Generator]:
    """Derive ``n`` statistically independent generators from ``seed``.

    Uses ``SeedSequence.spawn`` so child streams are independent and
    reproducible.  If ``seed`` is already a Generator, children are spawned
    from its bit generator's seed sequence.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if isinstance(seed, np.random.Generator):
        ss = seed.bit_generator.seed_seq  # type: ignore[attr-defined]
    elif isinstance(seed, np.random.SeedSequence):
        ss = seed
    else:
        ss = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in ss.spawn(n)]


def stable_hash_seed(*parts) -> int:
    """Derive a stable 63-bit integer seed from arbitrary hashable parts.

    Unlike Python's built-in ``hash``, this is stable across processes and
    interpreter invocations (no hash randomization), which makes derived
    experiment seeds reproducible in reports.
    """
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode("utf-8"))
        h.update(b"\x00")
    return int.from_bytes(h.digest()[:8], "little") & ((1 << 63) - 1)
