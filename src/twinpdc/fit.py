"""Spectral-overlap extraction from visibility-vs-mean-photon-number data.

The overlap O in [0, 1] is the sole shape parameter of the balanced
visibility model V = (1 + O) / (3 - O + 4 n), so the weighted least-squares
problem reduces to bounded scalar minimization (golden section with
parabolic refinement).  The unbalanced model sees the arm-transmission ratio r
only through the imbalance s = (r + 1/r) / 2, so r and 1/r fit equally well; a
free ratio is one more bounded scalar minimization, of the profile over s.
Mean photon numbers are treated as exact abscissae; the reported standard
error is statistical, from the chi-square curvature in O at the minimum.  With
a free ratio that curve is the profile min_s chi2(O, s), so sigma includes the
uncertainty of the ratio.
"""
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import FitConvergenceError, IllPosedError
from .twinstats import VisibilityPoint, visibility_approx, visibility_full

BOUNDARY_MARGIN = 1e-6
RATIO_BOUNDS = (0.1, 10.0)


def model_visibility(overlap, mean_n, model="approx", eta_ratio=1.0):
    """Visibility model evaluated at one or more mean photon numbers."""
    mean_n = np.asarray(mean_n, dtype=float)
    if model == "approx":
        return visibility_approx(overlap, mean_n)
    if model == "full":
        return visibility_full(overlap, mean_n, eta_ratio, 1.0)
    raise ValueError(f"unknown visibility model {model!r}")


@dataclass(frozen=True)
class FitResult:
    """Weighted fit outcome for the spectral overlap."""

    overlap: float
    sigma: float
    residuals: np.ndarray
    chi_square: float
    n_points: int
    model: str
    eta_ratio: float
    at_boundary: bool

    @property
    def reduced_chi_square(self):
        dof = max(self.n_points - 1, 1)
        return self.chi_square / dof


def _validate(points):
    if len(points) < 3:
        raise IllPosedError(f"need at least 3 points, got {len(points)}")
    n = np.array([p.mean_n for p in points])
    v = np.array([p.visibility for p in points])
    s = np.array([p.sigma for p in points])
    if np.any(s <= 0):
        raise IllPosedError("all points need sigma_V > 0 for weighting")
    if n.max() - n.min() <= 0:
        raise IllPosedError("points must span a nonzero mean-photon-number range")
    return n, v, s


def fit_overlap(points, model="approx", eta_ratio=None) -> FitResult:
    """Fit the overlap to visibility points by weighted least squares.

    A free ratio minimizes the profile chi2(s) = min_O chi2(O, s) over
    s in [1, (r_max + 1/r_max) / 2]; of the roots r and 1/r, r >= 1 is reported.
    Its sigma is the curvature of the other profile, P(O) = min_s chi2(O, s),
    which is never narrower than the curve in O at the fitted s.

    Args:
        points: VisibilityPoint sequence (>= 3, spanning a mean_n range).
        model: 'approx' for the balanced formula, 'full' for the unbalanced one.
        eta_ratio: fixed transmission ratio for the full model; None fits it
            through the imbalance s (ignored for 'approx').

    Returns:
        FitResult with the estimate, curvature standard error, per-point
        residuals (V_i - V_model) and the boundary flag.

    Raises:
        IllPosedError: on degenerate input.
        FitConvergenceError: if a bounded minimization does not converge.
    """
    n, v, sd = _validate(points)

    def chi2(overlap, r):
        return float(np.sum(((v - model_visibility(overlap, n, model, r)) / sd) ** 2))

    def best_overlap(r):
        return _bounded_minimum(lambda o: chi2(o, r), 0.0, 1.0)

    r_max = RATIO_BOUNDS[1]
    max_imbalance = 0.5 * (r_max + 1.0 / r_max)

    def profile(imbalance):
        r = _root_ratio(imbalance)
        return chi2(best_overlap(r), r)

    def best_imbalance(overlap):
        return _bounded_minimum(lambda s: chi2(overlap, _root_ratio(s)), 1.0, max_imbalance)

    free = model == "full" and eta_ratio is None
    if free:
        eta_ratio = _root_ratio(_bounded_minimum(profile, 1.0, max_imbalance))
    ratio = 1.0 if eta_ratio is None else float(eta_ratio)
    best = best_overlap(ratio)
    at_boundary = best <= BOUNDARY_MARGIN or best >= 1.0 - BOUNDARY_MARGIN
    curve = ((lambda o: chi2(o, _root_ratio(best_imbalance(o)))) if free
             else (lambda o: chi2(o, ratio)))
    sigma = _curvature_sigma(curve, best)
    residuals = v - model_visibility(best, n, model, ratio)
    return FitResult(overlap=best, sigma=sigma, residuals=residuals,
                     chi_square=chi2(best, ratio), n_points=len(points),
                     model=model, eta_ratio=ratio, at_boundary=at_boundary)


def _root_ratio(imbalance):
    """The r >= 1 root of (r + 1/r) / 2 = imbalance."""
    return imbalance + math.sqrt((imbalance - 1.0) * (imbalance + 1.0))


def _bounded_minimum(f, lo, hi):
    """Bounded Brent minimum of f on [lo, hi], snapped to a bound where f is no higher."""
    res = minimize_scalar(f, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12, "maxiter": 500})
    if not res.success:
        raise FitConvergenceError(f"bounded fit failed: {res.message}", trace=[res])
    # the minimizer never lands exactly on a bound; ties go to the bound
    return min((hi, lo, float(res.x)), key=f)


def _curvature_sigma(chi2, best, step=1e-5):
    """Standard error from the chi-square curvature, sigma^2 = 2 / chi2''.

    Uses a central difference, one-sided at the parameter bounds.
    """
    lo, hi = max(best - step, 0.0), min(best + step, 1.0)
    c0, cl, ch = chi2(best), chi2(lo), chi2(hi)
    if hi - best < step / 2:  # upper boundary: curve from two interior points
        c2 = chi2(best - 2 * step)
        second = (c0 - 2 * cl + c2) / step**2
    elif best - lo < step / 2:
        c2 = chi2(best + 2 * step)
        second = (c0 - 2 * ch + c2) / step**2
    else:
        second = (cl - 2 * c0 + ch) / step**2
    if second <= 0:
        return math.inf
    return math.sqrt(2.0 / second)


def points_from_arrays(mean_n, visibility, sigma):
    return [VisibilityPoint(float(a), float(b), float(c))
            for a, b, c in zip(mean_n, visibility, sigma)]
