"""Exponential-decay fitting for randomized benchmarking.

Standard and interleaved RB both fit the ground-state survival probability
against the sequence length ``m`` with the zeroth-order model

    P(m) = A · α^m + B,

where ``α`` is the depolarizing parameter, and ``A``/``B`` absorb state
preparation and measurement (SPAM) errors.  The error per Clifford follows as
``EPC = (d − 1)/d · (1 − α)``.

The fit is a variable projection (Golub & Pereyra 1973): for a fixed ``α``
the model is linear in ``A`` and ``B``, so the weighted least-squares
``(A, B)`` over the box ``[0, 1]²`` has a closed form, and only the profile
residual ``SSR(α)`` is minimized numerically — for a whole vector of ``α``
candidates at once, first on a coarse grid over ``[0, 1]``, then on ever
finer grids around the best candidate, and last by a parabolic step.  Every step is elementwise NumPy with
per-row sums, so a fit is bit-identical in any process at any BLAS thread
count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..utils.validation import ValidationError

__all__ = ["FIT_STATUSES", "RBDecayFit", "fit_rb_decay", "error_per_clifford"]

#: Outcomes of a decay fit, in the order they take precedence:
#: ``underdetermined`` — no more points than free parameters;
#: ``covariance_singular`` — the Jacobian at the solution is rank-deficient
#: (the errors are reported as ``inf``); ``at_bound`` — a parameter sits on
#: an edge of its box ``[0, 1]``; ``ok`` — none of these.
FIT_STATUSES = ("ok", "underdetermined", "covariance_singular", "at_bound")

#: Coarse α candidates: a uniform grid over [0, 1] plus a log-spaced one
#: towards 1, where RB decays live (neighbours 26% apart in 1 − α).
_ALPHA_GRID = np.unique(np.concatenate([np.linspace(0.0, 1.0, 21), 1.0 - np.logspace(-7, -1, 61)]))
#: Candidates per refinement level; each level narrows the bracket around
#: the best candidate by ``(_ZOOM_POINTS - 1) / 2``.
_ZOOM_POINTS = 129
#: Bracket width at which the grid search stops and the parabolic polish
#: takes over (it then lands within ~1e-8 of the profile minimum).
_ALPHA_TOL = 5e-5
#: Bracket width to which a minimum next to a kink of the profile (where a
#: box constraint turns active) is narrowed instead.
_KINK_TOL = 1e-10
#: Refinement levels at most.
_MAX_LEVELS = 12
#: The values a parameter takes on the edges of its box.
_EDGES = np.array([[0.0], [1.0]])


def _decay_model(m: np.ndarray, a: float, alpha: float, b: float) -> np.ndarray:
    return a * np.power(alpha, m) + b


@dataclass(frozen=True)
class RBDecayFit:
    """Result of fitting ``A·α^m + B`` to survival probabilities.

    ``alpha_err``, ``a_err`` and ``b_err`` are 1σ uncertainties from the fit
    covariance (propagated from the per-length scatter when available);
    ``status`` is one of :data:`FIT_STATUSES` and ``reduced_chi2`` the
    weighted residual sum of squares per degree of freedom (``inf`` when
    there is none).
    """

    alpha: float
    alpha_err: float
    a: float
    a_err: float
    b: float
    b_err: float
    lengths: np.ndarray
    survival: np.ndarray
    status: str
    reduced_chi2: float

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


def _unit_clip(values):
    return np.minimum(np.maximum(values, 0.0), 1.0)


def _box_linear_fit(alphas, m, p, w, b_fixed):
    """Best ``(A, B)`` in ``[0, 1]²`` and the residual for every α candidate.

    Returns ``(a, b, ssr, face)``, each of shape ``(K,)`` for ``K``
    candidates; ``face`` names the active constraints (0 = none), so the
    profile is smooth between neighbours with equal faces.  Without
    ``b_fixed`` the unconstrained weighted least squares is taken where it
    lies in the box; elsewhere the optimum is on an edge, and the four
    edges' optima (the other parameter's clipped least squares) compete.
    """
    x = np.power(alphas[:, None], m)
    wx = w * x
    sx = wx.sum(axis=1)
    sxx = (wx * x).sum(axis=1)
    sxp = (wx * p).sum(axis=1)
    if b_fixed is not None:
        a = np.where(sxx > 0, (sxp - b_fixed * sx) / sxx, 0.0)
        face = (a < 0) + 2 * (a > 1)
        a = _unit_clip(a)
        b = np.full_like(a, b_fixed)
    else:
        sw, sp = w.sum(), (w * p).sum()
        a = (sw * sxp - sx * sp) / (sw * sxx - sx * sx)
        b = (sp - a * sx) / sw
        interior = np.maximum(np.abs(a - 0.5), np.abs(b - 0.5)) <= 0.5
        face = np.zeros(len(alphas), dtype=np.intp)
        if not interior.all():
            # edges A = 0, 1 (B free) and B = 0, 1 (A free), as rows
            edge_a, edge_b = np.empty((4, len(alphas))), np.empty((4, len(alphas)))
            edge_a[:2] = edge_b[2:] = _EDGES
            edge_a[2:] = _unit_clip(np.where(sxx > 0, (sxp - _EDGES * sx) / sxx, 0.0))
            edge_b[:2] = _unit_clip((sp - _EDGES * sx) / sw)
            # SSR(A, B) up to the constant Σw·p², from the moments
            cost = edge_a * (edge_a * sxx - 2 * sxp) + edge_b * (edge_b * sw - 2 * sp + 2 * edge_a * sx)
            best = np.argmin(cost, axis=0)
            columns = best, np.arange(len(alphas))
            a = np.where(interior, a, edge_a[columns])
            b = np.where(interior, b, edge_b[columns])
            face = np.where(interior, 0, 1 + best)
    residual = p - a[:, None] * x - b[:, None]
    return a, b, (w * residual * residual).sum(axis=1), face


def _solve_alpha(m, p, w, b_fixed):
    """The α minimizing the profile residual, with its ``(A, B)`` and SSR.

    A coarse grid, then finer grids over the bracket around the best
    candidate, narrow the minimum to ``_ALPHA_TOL`` — and further while the
    best candidate and its neighbours lie on different faces of the box,
    where the profile has a kink.  The vertex of the parabola through the
    three then polishes the minimum, when that lowers the residual.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        alphas = _ALPHA_GRID
        a, b, ssr, face = _box_linear_fit(alphas, m, p, w, b_fixed)
        for _ in range(_MAX_LEVELS):
            i = int(np.argmin(ssr))
            near = slice(max(i - 1, 0), i + 2)
            lo, hi = alphas[near][0], alphas[near][-1]
            smooth = (face[near] == face[i]).all()
            if hi - lo <= (_ALPHA_TOL if smooth else _KINK_TOL):
                break
            alphas = np.linspace(lo, hi, _ZOOM_POINTS)
            a, b, ssr, face = _box_linear_fit(alphas, m, p, w, b_fixed)
        i = int(np.argmin(ssr))
        best = float(alphas[i]), float(a[i]), float(b[i]), float(ssr[i])
        if 0 < i < len(alphas) - 1:
            (x0, x1, x2), (f0, f1, f2) = alphas[i - 1:i + 2], ssr[i - 1:i + 2]
            curvature = (f0 - f1) * (x2 - x1) + (f2 - f1) * (x1 - x0)
            if curvature > 0:
                shift = ((x1 - x0) ** 2 * (f1 - f2) - (x2 - x1) ** 2 * (f1 - f0)) / (2 * curvature)
                vertex = np.array([min(max(x1 + shift, x0), x2)])
                a, b, ssr, _ = _box_linear_fit(vertex, m, p, w, b_fixed)
                if ssr[0] < best[3]:
                    best = float(vertex[0]), float(a[0]), float(b[0]), float(ssr[0])
    return best


def _covariance(m, sigma, alpha, a, free_b, ssr, dof, absolute_sigma):
    """Parameter covariance at the solution with ``curve_fit``'s semantics.

    The weighted analytic Jacobian is pseudo-inverted, dropping singular
    values below ``eps · max(J.shape) · s[0]``; without absolute ``sigma``
    the covariance is scaled by ``SSR / dof``.  Returns ``(cov, singular)``,
    ``singular`` when a singular value was dropped or the result is not
    finite.
    """
    power = np.power(alpha, m)
    slope = np.where(m > 0, m * np.power(alpha, np.maximum(m - 1, 0)), 0.0)
    columns = [power, a * slope] + ([np.ones_like(m)] if free_b else [])
    jac = np.stack(columns, axis=1) / sigma[:, None]
    _, s, vt = np.linalg.svd(jac, full_matrices=False)
    keep = s > np.finfo(float).eps * max(jac.shape) * s[0]
    vt, s = vt[keep], s[keep]
    cov = (vt[:, :, None] * vt[:, None, :] / (s * s)[:, None, None]).sum(axis=0)
    if not absolute_sigma:
        cov = cov * (ssr / dof) if dof > 0 else np.full_like(cov, np.inf)
    singular = not keep.all() or not np.all(np.isfinite(cov))
    return cov, singular


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
        Optional standard deviations: fit weights ``1/σ²`` and absolute
        uncertainties.  Without them the covariance is scaled by the
        residual variance, as by :func:`scipy.optimize.curve_fit`.
    p_asymptote:
        Optional fixed asymptote ``B`` (e.g. ``1/d`` for an unbiased
        readout); when given only ``A`` and ``α`` are fitted.

    Returns
    -------
    RBDecayFit
        ``A``, ``α`` and ``B`` in ``[0, 1]`` with their 1σ errors, the fit
        ``status`` and the reduced χ².
    """
    m = np.asarray(lengths, dtype=float)
    p = np.asarray(survival_probabilities, dtype=float)
    if m.ndim != 1 or p.shape != m.shape:
        raise ValidationError("lengths and survival_probabilities must be 1-D arrays of equal length")
    if m.size < 3:
        raise ValidationError("at least three sequence lengths are required to fit the decay")
    if np.any(m < 0) or not np.all(np.isfinite(m)) or not np.all(np.isfinite(p)):
        raise ValidationError("lengths must be finite and >= 0, survival probabilities finite")
    if survival_stds is None:
        sigma = np.ones_like(m)
    else:
        sigma = np.asarray(survival_stds, dtype=float)
        if sigma.shape != m.shape:
            raise ValidationError("survival_stds must match the shape of lengths")
        # avoid zero-weight divisions for deterministic points
        sigma = np.where(sigma > 1e-6, sigma, 1e-6)
    free_b = p_asymptote is None
    dof = m.size - (3 if free_b else 2)
    alpha, a, b, ssr = _solve_alpha(m, p, 1.0 / (sigma * sigma), p_asymptote)
    cov, singular = _covariance(m, sigma, alpha, a, free_b, ssr, dof, survival_stds is not None)
    errors = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    if singular:
        errors = np.full_like(errors, np.inf)
    bounded = (a, alpha, b) if free_b else (a, alpha)
    if dof <= 0:
        status = "underdetermined"
    elif singular:
        status = "covariance_singular"
    elif any(value in (0.0, 1.0) for value in bounded):
        status = "at_bound"
    else:
        status = "ok"
    return RBDecayFit(
        alpha=alpha,
        alpha_err=float(errors[1]),
        a=a,
        a_err=float(errors[0]),
        b=b,
        b_err=float(errors[2]) if free_b else 0.0,
        lengths=m,
        survival=p,
        status=status,
        reduced_chi2=ssr / dof if dof > 0 else float("inf"),
    )
