"""Fixed-step RK4 for ``dy/dt = f(t, y)``: an ODE oracle independent of the PWC kernels."""

from __future__ import annotations

from typing import Callable

import numpy as np


def rk4_integrate(
    f: Callable[[float, np.ndarray], np.ndarray],
    y0: np.ndarray,
    times: np.ndarray,
    substeps: int = 1,
) -> list[np.ndarray]:
    """States at every entry of the increasing grid ``times`` (the first is ``y0``).

    Each grid interval takes ``substeps`` classical Runge-Kutta 4 steps.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be a non-empty, strictly increasing 1-D array")
    y = np.array(y0, dtype=complex, copy=True)
    out = [y.copy()]
    for t0, t1 in zip(times[:-1], times[1:]):
        h = (t1 - t0) / substeps
        for i in range(substeps):
            t = t0 + i * h
            k1 = f(t, y)
            k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
            k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
            k4 = f(t + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(y.copy())
    return out
