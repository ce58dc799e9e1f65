"""Gated click-detection simulator: reproducibility, limits, oracle checks."""
import math

import numpy as np
import pytest

from twinpdc import (DetectionSpec, SimConfig, efficiency_sweep, equal_mode_spectrum,
                     exact_click_probabilities, extrapolate_zero_power,
                     gain_for_mean_n, klyshko, mean_n_from_cross, simulate)
from twinpdc.errors import ConfigError
from twinpdc.montecarlo import zero_power_efficiencies

GATE_RATE = 76.2e6 / 64


def det(eta1=0.06, eta2=0.056, dark1=0.0, dark2=0.0):
    return DetectionSpec(eta1=eta1, eta2=eta2, gate_rate=GATE_RATE,
                         dark_prob1=dark1, dark_prob2=dark2)


def cfg(source, gain, detection, gates=1_000_000, seed=11):
    return SimConfig(source=source, gain=gain, det=detection, n_gates=gates,
                     seed=seed)


def test_bit_exact_reproducibility():
    c = cfg(equal_mode_spectrum(10), 0.4, det(), gates=2_500_000, seed=42)
    assert simulate(c) == simulate(c)


def test_different_seeds_differ():
    base = cfg(equal_mode_spectrum(10), 0.4, det(), seed=1)
    other = cfg(equal_mode_spectrum(10), 0.4, det(), seed=2)
    assert simulate(base) != simulate(other)


def test_lossless_pairs_always_coincide():
    lam = equal_mode_spectrum(3)
    c = cfg(lam, 0.05, det(eta1=1.0, eta2=1.0), gates=200_000)
    rec = simulate(c)
    assert rec.coincidences == rec.singles_signal == rec.singles_idler
    assert rec.coincidences > 0


def test_blocked_arms_leave_dark_counts():
    c = cfg(equal_mode_spectrum(3), 0.5, det(eta1=0.0, eta2=0.0,
                                              dark1=2e-3, dark2=1e-3),
            gates=1_000_000, seed=5)
    rec = simulate(c)
    for counts, prob in ((rec.singles_signal, 2e-3), (rec.singles_idler, 1e-3),
                         (rec.coincidences, 2e-6)):
        expected = prob * c.n_gates
        assert abs(counts - expected) < 5 * math.sqrt(expected) + 5


def test_saturation_warning():
    lam = equal_mode_spectrum(1)
    gain = gain_for_mean_n(1.0, lam)  # single-mode mean 1.0 > 0.9
    with pytest.warns(UserWarning, match="saturate"):
        simulate(cfg(lam, gain, det(), gates=1000))


def test_mean_n_estimator_recovers_multimode_value():
    """C/A inversion lands within 5 percent of the true mean at 1e7 gates."""
    lam = equal_mode_spectrum(100)
    gain = gain_for_mean_n(0.5, lam)
    rec = simulate(cfg(lam, gain, det(eta1=0.04, eta2=0.04), gates=10_000_000,
                       seed=3))
    est = mean_n_from_cross(rec)
    assert est.mean_n == pytest.approx(0.5, rel=0.05)


def test_counts_match_exact_click_probabilities():
    lam = equal_mode_spectrum(5)
    gain = gain_for_mean_n(0.3, lam)
    d = det(eta1=0.3, eta2=0.25, dark1=1e-4, dark2=2e-4)
    gates = 2_000_000
    rec = simulate(cfg(lam, gain, d, gates=gates, seed=8))
    p_s, p_i, p_c = exact_click_probabilities(lam, gain, d)
    for counts, p in ((rec.singles_signal, p_s), (rec.singles_idler, p_i),
                      (rec.coincidences, p_c)):
        sigma = math.sqrt(gates * p * (1 - p))
        assert abs(counts - gates * p) < 4 * sigma


def per_gate_reference(means, detection, gates, seed):
    """Gate-by-gate sampler: per-mode geometric pair numbers, independent thinning."""
    rng = np.random.default_rng(seed)
    totals = np.zeros(gates, dtype=np.int64)
    for m in means:
        # geometric on {1, 2, ...} shifted down gives the thermal distribution
        totals += rng.geometric(1.0 / (1.0 + m), size=gates) - 1
    click_s = (rng.binomial(totals, detection.eta1) > 0) | (
        rng.random(gates) < detection.dark_prob1)
    click_i = (rng.binomial(totals, detection.eta2) > 0) | (
        rng.random(gates) < detection.dark_prob2)
    return (int(click_s.sum()), int(click_i.sum()), int((click_s & click_i).sum()))


def test_counts_sampler_matches_per_gate_reference():
    """The counts-level draws have the distribution of the gate-by-gate process."""
    lam = np.array([0.7, 0.5, 0.35, 0.25, 0.2, 0.15])
    lam = lam / np.linalg.norm(lam)
    gain = gain_for_mean_n(0.4, lam)
    d = det(eta1=0.2, eta2=0.15, dark1=1e-3, dark2=2e-3)
    gates = 2_000_000
    rec = simulate(cfg(lam, gain, d, gates=gates, seed=13))
    reference = per_gate_reference(np.sinh(gain * lam) ** 2, d, gates, seed=14)
    for a, b in zip((rec.singles_signal, rec.singles_idler, rec.coincidences), reference):
        assert abs(a - b) < 5 * math.sqrt(a + b)


def test_cost_is_independent_of_gates_and_no_mode_is_dropped():
    """10^11 gates on 300 unequal modes land on the closed form over the full spectrum.

    Dropping the weakest modes that carry 1e-4 of the weight shifts every
    count here by more than 7 sigma.
    """
    lam = np.exp(-np.arange(300) / 60.0)
    lam = lam / np.linalg.norm(lam)
    gain = gain_for_mean_n(0.5, lam)
    d = det(eta1=0.3, eta2=0.25, dark1=1e-5, dark2=2e-5)
    gates = 10**11
    rec = simulate(cfg(lam, gain, d, gates=gates, seed=29))
    assert rec.gates == gates
    p_s, p_i, p_c = exact_click_probabilities(lam, gain, d)
    for counts, p in ((rec.singles_signal, p_s), (rec.singles_idler, p_i),
                      (rec.coincidences, p_c)):
        assert abs(counts - gates * p) < 5 * math.sqrt(gates * p * (1 - p))


def test_arm_symmetry_under_eta_swap():
    lam = equal_mode_spectrum(8)
    gain = gain_for_mean_n(0.3, lam)
    straight = simulate(cfg(lam, gain, det(eta1=0.10, eta2=0.04),
                            gates=2_000_000, seed=21))
    swapped = simulate(cfg(lam, gain, det(eta1=0.04, eta2=0.10),
                           gates=2_000_000, seed=22))
    assert abs(straight.singles_signal - swapped.singles_idler) < 5 * math.sqrt(
        straight.singles_signal)
    assert abs(straight.singles_idler - swapped.singles_signal) < 5 * math.sqrt(
        swapped.singles_signal)


def test_exact_click_probabilities_saturate_without_overflow():
    """At mode means near 1e193 every arm clicks; the correlation term must not overflow."""
    assert exact_click_probabilities(equal_mode_spectrum(20), 1000.0, det()) == (1.0, 1.0, 1.0)


def test_exact_click_probabilities_keep_precision_at_tiny_means():
    """At a total mean of 5e-12 the probabilities are first order in the means."""
    lam = equal_mode_spectrum(5)
    total = 5e-12
    gain = math.asinh(math.sqrt(total / 5)) * math.sqrt(5)
    p_s, p_i, p_c = exact_click_probabilities(lam, gain, det(eta1=0.05, eta2=0.04))
    assert p_s == pytest.approx(total * 0.05, rel=1e-6, abs=0)
    assert p_i == pytest.approx(total * 0.04, rel=1e-6, abs=0)
    assert p_c == pytest.approx(total * 0.05 * 0.04, rel=1e-6, abs=0)


def test_doubling_transmissions_doubles_singles_scales_coincidences():
    lam = equal_mode_spectrum(10)
    gain = gain_for_mean_n(0.1, lam)
    base_det, double_det = det(eta1=0.03, eta2=0.03), det(eta1=0.06, eta2=0.06)
    s1, i1, c1 = exact_click_probabilities(lam, gain, base_det)
    s2, i2, c2 = exact_click_probabilities(lam, gain, double_det)
    assert s2 / s1 == pytest.approx(2.0, rel=0.02)
    assert 2.0 < c2 / c1 < 4.0
    # the sampled run reproduces the doubled closed form
    rec = simulate(cfg(lam, gain, double_det, gates=2_000_000, seed=17))
    assert abs(rec.coincidences - 2_000_000 * c2) < 4 * math.sqrt(2_000_000 * c2)


def test_efficiency_sweep_shapes_and_extrapolation():
    lam = equal_mode_spectrum(20)
    d = det()
    targets = (0.1, 0.25, 0.5)
    powers = [gain_for_mean_n(n, lam) ** 2 for n in targets]
    base = cfg(lam, 1.0, d, gates=4_000_000, seed=31)
    pts = efficiency_sweep(base, powers)
    # estimated mean photon number tracks the configured targets
    for point, target in zip(pts, targets):
        bound = target / (1.0 + target / 20.0)  # finite-K lower bound
        assert point.mean_n_est == pytest.approx(bound, rel=0.08)
    # raw ratios rise with power, accidental-corrected ratios decline
    _, _, slope_raw = extrapolate_zero_power(
        powers, [p.eta_signal_est for p in pts], [p.sigma_signal for p in pts])
    _, _, slope_cor = extrapolate_zero_power(
        powers, [p.corrected_signal for p in pts], [p.sigma_signal for p in pts])
    assert slope_raw > 0
    assert slope_cor < slope_raw
    intercepts = zero_power_efficiencies(pts)
    assert intercepts["signal"][0] == pytest.approx(0.060, abs=0.005)
    assert intercepts["idler"][0] == pytest.approx(0.056, abs=0.005)


def test_sweep_rejects_nonpositive_power():
    base = cfg(equal_mode_spectrum(5), 1.0, det())
    for bad in (-0.5, 0.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="pump powers"):
            efficiency_sweep(base, [0.1, bad])


def test_sweep_checks_every_power_before_simulating(monkeypatch):
    def never(_):
        raise AssertionError("simulate called before the last power was checked")

    monkeypatch.setattr("twinpdc.montecarlo.simulate", never)
    with pytest.raises(ConfigError, match="pump powers"):
        efficiency_sweep(cfg(equal_mode_spectrum(5), 1.0, det()), [0.1, 0.2, math.nan])


def test_sweep_reproducible():
    lam = equal_mode_spectrum(5)
    base = cfg(lam, 1.0, det(), gates=200_000, seed=77)
    a = efficiency_sweep(base, [0.05, 0.1])
    b = efficiency_sweep(base, [0.05, 0.1])
    assert [p.record for p in a] == [p.record for p in b]
