"""Bounded scalar minimization: Brent's golden section with parabolic steps.

A line-for-line port of scipy.optimize's bounded method
(scipy/optimize/_optimize.py, _minimize_scalar_bounded; BSD 3-clause,
Copyright (c) 2001-2002 Enthought, Inc. and 2003- SciPy Developers), itself
R. P. Brent, Algorithms for Minimization without Derivatives (1973), ch. 5.
It gives the same x, f(x) and success as minimize_scalar(method="bounded")
bit for bit, NaN handling included, on plain Python floats, so that the
package's two bounded searches need no scipy.optimize.
"""
import math

_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))


def _sign(v):
    """np.sign: -1, 0 or 1, and NaN for NaN."""
    return 1.0 if v > 0 else -1.0 if v < 0 else 0.0 if v == 0 else math.nan


def _maximum(a, b):
    """np.maximum: the larger of a and b, NaN if either is NaN."""
    return a if a != a or a >= b else b


def bounded_brent(f, lo, hi, xatol, maxiter=500):
    """Minimize f on [lo, hi] to an absolute tolerance xatol in x.

    Returns:
        (x, f(x), converged): converged is False if maxiter evaluations of f
        ran out or x or a value of f is NaN.

    Raises:
        ValueError: if a bound is not finite or lo > hi.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("Optimization bounds must be finite scalars.")
    if lo > hi:
        raise ValueError("The lower bound exceeds the upper bound.")
    a, b = lo, hi
    fulc = a + _GOLDEN_MEAN * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = f(x)
    num = 1
    fu = math.inf

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    converged = True

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        # check for a parabolic fit
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat

            # check the parabola is acceptable
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (_sign(xm - xf) + (xm - xf == 0))
            else:
                golden = True

        if golden:  # a golden-section step
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN_MEAN * e

        x = xf + (_sign(rat) + (rat == 0)) * _maximum(abs(rat), tol1)
        fu = f(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= maxiter:
            converged = False
            break

    if math.isnan(xf) or math.isnan(fx) or math.isnan(fu):
        converged = False
    return xf, fx, converged
