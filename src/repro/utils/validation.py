"""Lightweight argument validation helpers.

These helpers raise :class:`ValidationError` (a ``ValueError`` subclass) with
uniform, descriptive messages.  They are used at public API boundaries so that
user mistakes surface early with actionable errors instead of deep NumPy
broadcasting failures.
"""

from __future__ import annotations

__all__ = [
    "ValidationError",
    "check_positive",
    "check_probability",
]


class ValidationError(ValueError):
    """Raised when an argument fails validation at a public API boundary."""


def check_positive(value: float, name: str = "value", strict: bool = True) -> float:
    """Validate that a scalar is positive (strictly, by default)."""
    v = float(value)
    if strict and not v > 0:
        raise ValidationError(f"{name} must be > 0, got {v}")
    if not strict and not v >= 0:
        raise ValidationError(f"{name} must be >= 0, got {v}")
    return v


def check_probability(value: float, name: str = "probability") -> float:
    """Validate that a scalar lies in the closed interval [0, 1]."""
    v = float(value)
    if not (0.0 <= v <= 1.0):
        raise ValidationError(f"{name} must be in [0, 1], got {v}")
    return v
