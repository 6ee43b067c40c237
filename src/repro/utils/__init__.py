"""Shared utilities: ``vec``/``unvec``, validation, seeding, parallel map, locks.

These are intentionally small, dependency-free building blocks used across the
whole library.
"""

from .linalg import vec, unvec
from .validation import (
    ValidationError,
    check_positive,
    check_probability,
)
from .seeding import default_rng, spawn_rngs, stable_hash_seed
from .parallel import parallel_map, pool_start_method, shutdown_pool
from .locks import FileLock

__all__ = [
    "vec",
    "unvec",
    "ValidationError",
    "check_positive",
    "check_probability",
    "default_rng",
    "spawn_rngs",
    "stable_hash_seed",
    "parallel_map",
    "pool_start_method",
    "shutdown_pool",
    "FileLock",
]
