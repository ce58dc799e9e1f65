"""The bounded Brent search against scipy's minimize_scalar(method="bounded"), bit for bit."""
import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from twinpdc.brent import bounded_brent


def bits(value):
    """The exact double, NaN and the sign of zero included."""
    return float(value).hex()


def assert_same_as_scipy(f, lo, hi, xatol, maxiter=500):
    x, fx, converged = bounded_brent(f, lo, hi, xatol, maxiter)
    ref = minimize_scalar(f, bounds=(lo, hi), method="bounded",
                          options={"xatol": xatol, "maxiter": maxiter})
    assert (bits(x), bits(fx), converged) == (bits(ref.x), bits(ref.fun), bool(ref.success))
    return converged


def seeded_family(seed):
    """A random quadratic, bumpy or cusped function with random bounds around its minimum."""
    rng = np.random.default_rng(seed)
    lo = float(rng.uniform(-5.0, 5.0))
    hi = lo + float(rng.uniform(1e-3, 10.0))
    c = float(rng.uniform(lo - 2.0, hi + 2.0))
    w, k = float(rng.uniform(0.5, 8.0)), float(rng.uniform(0.1, 3.0))
    kind = seed % 3
    if kind == 0:
        return (lambda x: k * (x - c) ** 2 + w), lo, hi
    if kind == 1:
        return (lambda x: math.sin(w * x) + k * (x - c) ** 2), lo, hi
    return (lambda x: math.sqrt(abs(x - c)) * k + np.float64(w) * 1e-3 * x), lo, hi


@pytest.mark.parametrize("xatol", [1e-12, 1e-9, 1e-5])
def test_seeded_family_matches_scipy(xatol):
    for seed in range(150):
        assert_same_as_scipy(*seeded_family(seed), xatol)


@pytest.mark.parametrize("xatol", [1e-12, 1e-9, 1e-5])
@pytest.mark.parametrize("f, lo, hi", [
    (lambda x: x, 0.0, 1.0),  # minimum at the lower bound
    (lambda x: -(x**3), -2.0, 3.0),  # at the upper bound
    (lambda x: 0.25, -1.0, 1.0),  # flat
    (lambda x: (x - 0.3) ** 2, 0.3, 0.3),  # empty interval
], ids=["at-lower", "at-upper", "flat", "point"])
def test_edge_cases_match_scipy(f, lo, hi, xatol):
    assert assert_same_as_scipy(f, lo, hi, xatol)


def test_maxiter_reached_matches_scipy():
    """Every cap below the evaluations the search needs stops it unconverged where scipy stops."""
    f = seeded_family(1)[0]
    needed = minimize_scalar(f, bounds=(0.0, 4.0), method="bounded",
                             options={"xatol": 1e-12}).nfev
    for maxiter in range(1, needed):
        assert not assert_same_as_scipy(f, 0.0, 4.0, 1e-12, maxiter=maxiter)
    assert assert_same_as_scipy(f, 0.0, 4.0, 1e-12, maxiter=needed + 1)


def test_nan_everywhere_matches_scipy():
    assert not assert_same_as_scipy(lambda x: math.nan, 0.0, 1.0, 1e-9)


@pytest.mark.parametrize("f", [lambda x: math.nan if x > 0.7 else (x - 0.9) ** 2,
                               lambda x: np.float64((x - 0.6) ** 2) * (x > 0.5) / (x > 0.5)],
                         ids=["above-0.7", "numpy-0/0-up-to-0.5"])
@pytest.mark.parametrize("xatol", [1e-12, 1e-5])
def test_partly_nan_matches_scipy(f, xatol):
    with np.errstate(invalid="ignore"):
        assert_same_as_scipy(f, 0.0, 1.0, xatol)


def test_rejects_bad_bounds():
    for lo, hi in ((1.0, 0.0), (0.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(ValueError):
            bounded_brent(lambda x: x, lo, hi, 1e-9)
