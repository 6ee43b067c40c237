"""Exponential-decay fitting for randomized benchmarking.

Standard and interleaved RB both fit the ground-state survival probability
against the sequence length ``m`` with the zeroth-order model

    P(m) = A · α^m + B,

where ``α`` is the depolarizing parameter, and ``A``/``B`` absorb state
preparation and measurement (SPAM) errors.  The error per Clifford follows as
``EPC = (d − 1)/d · (1 − α)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import curve_fit

from ..utils.validation import ValidationError

__all__ = ["RBDecayFit", "fit_rb_decay", "error_per_clifford"]


def _decay_model(m: np.ndarray, a: float, alpha: float, b: float) -> np.ndarray:
    return a * np.power(alpha, m) + b


@dataclass(frozen=True)
class RBDecayFit:
    """Result of fitting ``A·α^m + B`` to survival probabilities.

    ``alpha_err``, ``a_err`` and ``b_err`` are 1σ uncertainties from the fit
    covariance (propagated from the per-length scatter when available).
    """

    alpha: float
    alpha_err: float
    a: float
    a_err: float
    b: float
    b_err: float
    lengths: np.ndarray
    survival: np.ndarray

    def predicted(self, lengths: np.ndarray | None = None) -> np.ndarray:
        """Model prediction at the given (or fitted) lengths."""
        m = self.lengths if lengths is None else np.asarray(lengths, dtype=float)
        return _decay_model(m, self.a, self.alpha, self.b)

    def error_per_clifford(self, n_qubits: int) -> tuple[float, float]:
        """EPC and its 1σ uncertainty for an ``n_qubits`` RB experiment."""
        return error_per_clifford(self.alpha, self.alpha_err, n_qubits)


def error_per_clifford(alpha: float, alpha_err: float, n_qubits: int) -> tuple[float, float]:
    """Error per Clifford ``(d-1)/d (1-α)`` with propagated uncertainty."""
    d = 2**n_qubits
    scale = (d - 1.0) / d
    return scale * (1.0 - alpha), scale * alpha_err


def fit_rb_decay(
    lengths,
    survival_probabilities,
    survival_stds=None,
    p_asymptote: float | None = None,
) -> RBDecayFit:
    """Fit the RB decay curve.

    Parameters
    ----------
    lengths:
        Sequence lengths ``m`` (number of Cliffords before the recovery).
    survival_probabilities:
        Mean ground-state survival probability at each length (averaged over
        seeds).
    survival_stds:
        Optional standard deviations used as fit weights.
    p_asymptote:
        Optional fixed asymptote ``B`` (e.g. ``1/d`` for an unbiased
        readout); when given only ``A`` and ``α`` are fitted.

    Returns
    -------
    RBDecayFit
    """
    m = np.asarray(lengths, dtype=float)
    p = np.asarray(survival_probabilities, dtype=float)
    if m.ndim != 1 or p.shape != m.shape:
        raise ValidationError("lengths and survival_probabilities must be 1-D arrays of equal length")
    if m.size < 3:
        raise ValidationError("at least three sequence lengths are required to fit the decay")
    sigma = None
    if survival_stds is not None:
        sigma = np.asarray(survival_stds, dtype=float)
        if sigma.shape != m.shape:
            raise ValidationError("survival_stds must match the shape of lengths")
        # avoid zero-weight divisions for deterministic points
        sigma = np.where(sigma > 1e-6, sigma, 1e-6)

    # Initial guesses: alpha from the ratio of neighbouring points, A and B
    # from the end points.
    b0 = min(max(p.min() * 0.9, 0.0), 0.75) if p_asymptote is None else p_asymptote
    a0 = max(p[0] - b0, 1e-3)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = (p[1:] - b0) / np.where(np.abs(p[:-1] - b0) > 1e-9, p[:-1] - b0, 1.0)
        spans = np.maximum(m[1:] - m[:-1], 1.0)
        valid = (ratios > 0) & (ratios < 1)
        alpha0 = float(np.exp(np.mean(np.log(ratios[valid]) / spans[valid]))) if np.any(valid) else 0.99
    alpha0 = min(max(alpha0, 1e-3), 0.999999)

    if p_asymptote is None:
        def model(mm, a, alpha, b):
            return _decay_model(mm, a, alpha, b)

        p0 = [a0, alpha0, b0]
        bounds = ([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    else:
        def model(mm, a, alpha):
            return _decay_model(mm, a, alpha, p_asymptote)

        p0 = [a0, alpha0]
        bounds = ([0.0, 0.0], [1.0, 1.0])

    popt, pcov = curve_fit(
        model,
        m,
        p,
        p0=p0,
        sigma=sigma,
        absolute_sigma=sigma is not None,
        bounds=bounds,
        maxfev=20000,
    )
    perr = np.sqrt(np.clip(np.diag(pcov), 0.0, None))
    if p_asymptote is None:
        a, alpha, b = popt
        a_err, alpha_err, b_err = perr
    else:
        a, alpha = popt
        a_err, alpha_err = perr
        b, b_err = float(p_asymptote), 0.0
    return RBDecayFit(
        alpha=float(alpha),
        alpha_err=float(alpha_err),
        a=float(a),
        a_err=float(a_err),
        b=float(b),
        b_err=float(b_err),
        lengths=m,
        survival=p,
    )
