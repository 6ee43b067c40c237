"""Argument validators that only the tests exercise.

They raise :class:`~repro.utils.validation.ValidationError`, like the
validators the package keeps (``check_positive``, ``check_probability``).
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.utils.validation import ValidationError


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValidationError` with ``message`` if ``condition`` is false."""
    if not condition:
        raise ValidationError(message)


def check_square(a: Any, name: str = "matrix") -> np.ndarray:
    """Validate that ``a`` is a square 2-D array; return it as complex ndarray."""
    arr = np.asarray(a)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(
            f"{name} must be a square 2-D array, got shape {arr.shape!r}"
        )
    return np.asarray(arr, dtype=complex)


def check_shape(a: Any, shape: Sequence[int], name: str = "array") -> np.ndarray:
    """Validate that ``a`` has exactly the given ``shape``."""
    arr = np.asarray(a)
    if tuple(arr.shape) != tuple(shape):
        raise ValidationError(
            f"{name} must have shape {tuple(shape)!r}, got {arr.shape!r}"
        )
    return arr


def check_in_range(
    value: float,
    low: float,
    high: float,
    name: str = "value",
    inclusive: bool = True,
) -> float:
    """Validate that a scalar lies inside ``[low, high]`` (or ``(low, high)``)."""
    v = float(value)
    if inclusive:
        ok = low <= v <= high
    else:
        ok = low < v < high
    if not ok:
        bracket = "[]" if inclusive else "()"
        raise ValidationError(
            f"{name} must be in {bracket[0]}{low}, {high}{bracket[1]}, got {v}"
        )
    return v
