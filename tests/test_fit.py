"""Overlap extraction: round trips, coverage, ill-posed and boundary handling."""
import numpy as np
import pytest

from twinpdc import fit_overlap, model_visibility, visibility_approx
from twinpdc.errors import IllPosedError
from twinpdc.fit import RATIO_BOUNDS, points_from_arrays
from twinpdc.twinstats import VisibilityPoint

N_GRID = np.linspace(0.05, 0.5, 12)


def synthetic_points(overlap, sigma=0.01, rng=None, n_grid=N_GRID, model="approx",
                     eta_ratio=1.0):
    exact = model_visibility(overlap, n_grid, model, eta_ratio)
    noise = 0.0 if rng is None else rng.normal(0.0, sigma, len(n_grid))
    return points_from_arrays(n_grid, exact + noise, np.full(len(n_grid), sigma))


def test_noiseless_round_trip():
    res = fit_overlap(synthetic_points(0.95))
    assert res.overlap == pytest.approx(0.95, abs=1e-6)
    assert not res.at_boundary
    assert np.max(np.abs(res.residuals)) < 1e-9


@pytest.mark.parametrize("target", [0.3, 0.816, 0.95])
def test_noiseless_round_trip_various(target):
    res = fit_overlap(synthetic_points(target))
    assert res.overlap == pytest.approx(target, abs=1e-6)


def test_noisy_recovery_and_coverage():
    """RMS error <= 0.01 and 68 percent coverage over 100 seeded fits."""
    rng = np.random.default_rng(2024)
    for target in (0.95, 0.816):
        errors, covered = [], 0
        for _ in range(100):
            res = fit_overlap(synthetic_points(target, rng=rng))
            errors.append(res.overlap - target)
            if abs(res.overlap - target) <= res.sigma:
                covered += 1
        rms = float(np.sqrt(np.mean(np.square(errors))))
        assert rms <= 0.01
        assert 60 <= covered <= 76


def test_full_model_fixed_ratio_round_trip():
    pts = synthetic_points(0.9, model="full", eta_ratio=2.0)
    res = fit_overlap(pts, model="full", eta_ratio=2.0)
    assert res.overlap == pytest.approx(0.9, abs=1e-6)
    assert res.eta_ratio == 2.0


def test_full_model_fitted_ratio_round_trip():
    """r and 1/r give the same data; the r >= 1 root is reported."""
    for true_ratio in (2.0, 0.5):
        res = fit_overlap(synthetic_points(0.9, model="full", eta_ratio=true_ratio),
                          model="full")
        assert res.overlap == pytest.approx(0.9, abs=1e-6)
        assert res.eta_ratio == pytest.approx(2.0, abs=1e-6)
        assert res.chi_square < 1e-12


def test_free_ratio_fit_is_global_on_pinned_set():
    """500 noisy sets, r ~ U[0.5, 2]: no failure, no chi2 above the fit at the true r,
    a profile sigma never below the sigma at the fitted r held fixed, and 68% coverage
    within 3 binomial sigma (the conditional sigma covered 49.2% of this set)."""
    rng = np.random.default_rng(20260809)  # the bundled config's [sim] seed
    covered = 0
    for i in range(500):
        ratio = rng.uniform(0.5, 2.0)
        target = (0.95, 0.816)[i % 2]
        pts = synthetic_points(target, rng=rng, model="full", eta_ratio=ratio)
        res = fit_overlap(pts, model="full")
        assert res.eta_ratio >= 1.0
        assert res.chi_square <= fit_overlap(pts, "full", ratio).chi_square + 1e-9
        assert res.sigma >= fit_overlap(pts, "full", res.eta_ratio).sigma
        covered += abs(res.overlap - target) <= res.sigma
    assert 0.621 <= covered / 500 <= 0.745


def test_ratio_profile_unimodal_on_random_datasets():
    """The profile chi2(s) = min_O chi2(O, s) has a single minimum in the imbalance s."""
    rng = np.random.default_rng(5)
    r_max = RATIO_BOUNDS[1]
    imbalance = np.linspace(1.0, 0.5 * (r_max + 1.0 / r_max), 201)
    ratios = imbalance + np.sqrt(imbalance**2 - 1.0)
    for _ in range(25):
        n = np.sort(rng.uniform(0.02, 0.8, 8))
        s = rng.uniform(0.005, 0.05, 8)
        v = model_visibility(rng.uniform(0.0, 1.0), n, "full", rng.uniform(0.2, 5.0))
        pts = points_from_arrays(n, v + rng.normal(0.0, s), s)
        chi = np.array([fit_overlap(pts, "full", r).chi_square for r in ratios])
        minima = np.flatnonzero((np.diff(np.sign(np.diff(chi))) > 0))
        assert len(minima) <= 1
        assert fit_overlap(pts, "full").chi_square <= chi.min() + 1e-9


def test_balanced_full_model_matches_approx_fit():
    pts = synthetic_points(0.8)
    res_a = fit_overlap(pts, model="approx")
    res_f = fit_overlap(pts, model="full", eta_ratio=1.0)
    assert res_f.overlap == pytest.approx(res_a.overlap, abs=1e-9)


def test_boundary_solution_flagged():
    # noiseless data generated at the maximal overlap
    res = fit_overlap(synthetic_points(1.0))
    assert res.overlap == 1.0
    assert res.at_boundary
    assert visibility_approx(1.0, 0.0) == 1.0


def test_zero_overlap_boundary_flagged():
    res = fit_overlap(synthetic_points(0.0))
    assert res.overlap == 0.0
    assert res.at_boundary


def test_too_few_points_rejected():
    with pytest.raises(IllPosedError):
        fit_overlap(synthetic_points(0.9)[:2])


def test_degenerate_abscissa_rejected():
    pts = [VisibilityPoint(0.2, 0.7, 0.01) for _ in range(5)]
    with pytest.raises(IllPosedError):
        fit_overlap(pts)


def test_zero_sigma_rejected():
    pts = synthetic_points(0.9)
    pts[3] = VisibilityPoint(pts[3].mean_n, pts[3].visibility, 0.0)
    with pytest.raises(IllPosedError):
        fit_overlap(pts)


def test_objective_unimodal_on_random_datasets():
    """The weighted objective in O has a single interior minimum."""
    rng = np.random.default_rng(5)
    grid = np.linspace(0.0, 1.0, 801)
    for _ in range(25):
        n = np.sort(rng.uniform(0.02, 0.8, 8))
        v = np.clip(rng.uniform(0.3, 1.0, 8), 0.0, 1.0)
        s = rng.uniform(0.005, 0.05, 8)
        chi = [np.sum(((v - visibility_approx(o, n)) / s) ** 2) for o in grid]
        chi = np.asarray(chi)
        minima = np.flatnonzero((np.diff(np.sign(np.diff(chi))) > 0))
        assert len(minima) <= 1


def test_sigma_scales_with_noise_level():
    rng = np.random.default_rng(9)
    res_tight = fit_overlap(synthetic_points(0.9, sigma=0.005, rng=rng))
    res_loose = fit_overlap(synthetic_points(0.9, sigma=0.02, rng=rng))
    assert res_loose.sigma > 2.0 * res_tight.sigma
