"""Closed-form statistics: Glauber correlations, rates, visibility, estimators."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinpdc import (CountRecord, DetectionSpec, VisibilityPoint, fringe_curve, glauber,
                     klyshko, mean_n_from_cross, rate_extrema, visibility_approx,
                     visibility_from_rates, visibility_full)
from twinpdc.errors import ConfigError, ContractError, NonPhysicalCorrelationError
from twinpdc.twinstats import (read_count_records, read_visibility_points,
                               write_count_records, write_visibility_points)


# --- Glauber correlations ----------------------------------------------------

def test_glauber_first_order_is_mean_n():
    assert glauber(0.37, 4, (1, 0)) == 0.37
    assert glauber(0.37, 4, (0, 1)) == 0.37


def test_glauber_many_mode_limit():
    assert glauber(0.5, 10**6, (2, 0)) == pytest.approx(0.25, rel=1e-5)
    assert glauber(0.5, math.inf, (2, 0)) == 0.25


def test_glauber_single_mode_thermal_doubling():
    assert glauber(0.5, 1, (2, 0)) == pytest.approx(0.5)


@pytest.mark.parametrize("k", [1, 3, 20])
@pytest.mark.parametrize("n", [0.01, 0.5, 2.0])
def test_glauber_cross_minus_auto_is_mean_n(k, n):
    assert glauber(n, k, (1, 1)) - glauber(n, k, (2, 0)) == pytest.approx(n)


def test_glauber_unsupported_order():
    with pytest.raises(ValueError):
        glauber(0.1, 2, (2, 1))


# --- coincidence rates ---------------------------------------------------------

def test_rates_perfect_bunching_limit():
    # O = 1, A = 1/K -> 0, K large, n -> 0, balanced arms
    r_min, r_max = rate_extrema(1e-9, 1e9, 1.0, 0.0, 0.3, 0.3)
    assert r_min / r_max == pytest.approx(0.0, abs=1e-8)


def test_rates_distinguishable_limit_gives_third():
    r_min, r_max = rate_extrema(1e-9, 1e9, 0.0, 0.0, 0.3, 0.3)
    assert r_min / r_max == pytest.approx(0.5, abs=1e-8)
    v = visibility_from_rates(r_min, r_max)
    assert v == pytest.approx(1.0 / 3.0, abs=1e-8)


def test_rates_unbalanced_arms_degrade_visibility():
    v = visibility_full(1.0, 1e-12, 0.1, 0.05)
    assert v < 1.0
    # matches the rate route in the many-mode limit
    r_min, r_max = rate_extrema(1e-12, math.inf, 1.0, 0.0, 0.1, 0.05)
    assert visibility_from_rates(r_min, r_max) == pytest.approx(v, abs=1e-12)


def test_rates_zero_detection_error():
    with pytest.raises(ContractError):
        rate_extrema(0.1, 10, 0.5, 0.0, 0.0, 0.0)


def test_rates_no_interference_term_reduces_to_independent_arms():
    n, k, e1, e2 = 0.4, 7.0, 0.23, 0.11
    auto = n**2 * (1 + 1 / k)
    r_min, r_max = rate_extrema(n, k, 0.0, 0.0, e1, e2)
    assert r_min == pytest.approx(0.25 * auto * (e1**2 + e2**2)
                                  + 0.5 * (n + auto) * e1 * e2)
    assert r_max == pytest.approx((n + auto) * e1 * e2)


# --- visibility models ----------------------------------------------------------

def test_visibility_endpoints_exact():
    assert visibility_approx(1.0, 0.0) == 1.0
    assert visibility_approx(0.0, 0.0) == 1.0 / 3.0


def test_visibility_point_examples():
    assert visibility_approx(0.95, 0.0) == pytest.approx(0.951219512, abs=1e-9)
    # inverting V = 0.83 at O = 0.95 gives n = ((1+O)/V - (3-O)) / 4
    n = ((1 + 0.95) / 0.83 - (3 - 0.95)) / 4.0
    assert n == pytest.approx(0.0748494, abs=1e-6)
    assert visibility_approx(0.95, n) == pytest.approx(0.83, abs=1e-12)


def test_balanced_identity_on_grid():
    ov, nn = np.meshgrid(np.linspace(0, 1, 100), np.linspace(0, 2, 100))
    full = visibility_full(ov, nn, 0.17, 0.17)
    approx = visibility_approx(ov, nn)
    assert np.max(np.abs(full - approx)) < 1e-12


@given(overlap=st.floats(0, 1), mean_n=st.floats(0, 10),
       eta=st.floats(1e-6, 1.0))
@settings(max_examples=300, deadline=None)
def test_balanced_identity_property(overlap, mean_n, eta):
    assert visibility_full(overlap, mean_n, eta, eta) == pytest.approx(
        visibility_approx(overlap, mean_n), abs=1e-12)


def test_visibility_monotonicity_sign_checks():
    ns = np.linspace(0.0, 2.0, 80)
    ov = np.linspace(0.0, 1.0, 80)
    for o in (0.0, 0.5, 1.0):
        v = visibility_approx(o, ns)
        assert np.all(np.diff(v) < 0)  # strictly decreasing in n
    for n in (0.0, 0.3, 1.5):
        v = visibility_approx(ov, n)
        assert np.all(np.diff(v) > 0)  # strictly increasing in O


def test_visibility_zero_efficiency_error():
    with pytest.raises(ContractError):
        visibility_full(0.5, 0.1, 0.0, 0.5)


# --- fringe curve ----------------------------------------------------------------

def test_fringe_endpoints_match_rates():
    kwargs = dict(overlap=0.9, mean_n=0.2, eta1=0.06, eta2=0.05, mode_number=50.0,
                  density_overlap=0.01)
    r_min, r_max = rate_extrema(kwargs["mean_n"], kwargs["mode_number"],
                                kwargs["overlap"], kwargs["density_overlap"],
                                kwargs["eta1"], kwargs["eta2"])
    curve = fringe_curve(hwp_angles_deg=[0.0, 22.5, 45.0, 67.5, 90.0], **kwargs)
    assert curve[0] == pytest.approx(r_max)
    assert curve[2] == pytest.approx(r_max)   # splitting recurs at 45 deg
    assert curve[4] == pytest.approx(r_max)   # 90 deg periodicity
    assert curve[1] == pytest.approx(r_min)
    assert curve[3] == pytest.approx(r_min)


def test_fringe_extrema_visibility_matches_model():
    angles = np.linspace(0, 90, 361)
    curve = fringe_curve(0.87, 0.31, 0.06, 0.05, hwp_angles_deg=angles)
    v_curve = (curve.max() - curve.min()) / (curve.max() + curve.min())
    assert v_curve == pytest.approx(visibility_full(0.87, 0.31, 0.06, 0.05),
                                    abs=1e-12)


# --- estimators -------------------------------------------------------------------

def record(gates, ss, si, c):
    return CountRecord(gates=gates, singles_signal=ss, singles_idler=si,
                       coincidences=c, gate_rate=1.19e6)


def test_klyshko_lossless():
    rec = record(1000, 400, 400, 400)
    est = klyshko(rec)
    assert est.eta_signal == 1.0 and est.eta_idler == 1.0
    assert est.sigma_signal == 0.0


def test_klyshko_basic_ratio_and_error():
    rec = record(10**6, 20_000, 10_000, 600)
    est = klyshko(rec)
    assert est.eta_signal == pytest.approx(0.06)
    assert est.eta_idler == pytest.approx(0.03)
    assert est.sigma_signal == pytest.approx(math.sqrt(0.06 * 0.94 / 10_000))


def test_klyshko_scale_invariance():
    a = klyshko(record(10**6, 20_000, 10_000, 600))
    b = klyshko(record(3 * 10**6, 60_000, 30_000, 1800))
    assert a.eta_signal == b.eta_signal
    assert a.eta_idler == b.eta_idler


def test_mean_n_inversion_example():
    # C/A = 3 inverts to n = 0.5
    rec = record(9 * 10**6, 3000, 3000, 3)
    assert rec.cross_correlation == pytest.approx(3.0)
    assert mean_n_from_cross(rec).mean_n == pytest.approx(0.5)


def test_mean_n_scale_invariance():
    n1 = mean_n_from_cross(record(10**6, 5000, 4000, 100)).mean_n
    n2 = mean_n_from_cross(record(7 * 10**6, 35_000, 28_000, 700)).mean_n
    assert n1 == pytest.approx(n2)


def test_mean_n_background_dominated_error():
    rec = record(10**6, 40_000, 50_000, 1500)  # C/A = 0.75
    with pytest.raises(NonPhysicalCorrelationError):
        mean_n_from_cross(rec)


def test_record_invariant_enforced():
    with pytest.raises(ContractError):
        record(100, 50, 40, 45)  # C > min(S)
    with pytest.raises(ContractError):
        record(30, 50, 40, 20)  # S > gates


def test_detection_spec_validation():
    with pytest.raises(ContractError):
        DetectionSpec(eta1=1.2, eta2=0.5, gate_rate=1e6)
    with pytest.raises(ContractError):
        DetectionSpec(eta1=0.5, eta2=0.5, gate_rate=0.0)
    with pytest.raises(ContractError):
        DetectionSpec(eta1=0.5, eta2=0.5, gate_rate=1e6, dark_prob1=1.0)


def test_visibility_point_validation():
    with pytest.raises(ContractError):
        VisibilityPoint(mean_n=0.1, visibility=1.2, sigma=0.01)
    with pytest.raises(ContractError):
        VisibilityPoint(mean_n=0.1, visibility=0.5, sigma=-0.01)


# --- CSV round trips ----------------------------------------------------------------

def test_count_record_csv_roundtrip(tmp_path):
    recs = [record(10**6, 5000, 4000, 100), record(2 * 10**6, 9000, 8000, 250)]
    path = tmp_path / "counts.csv"
    write_count_records(path, recs, header_comments=["unit test"])
    assert read_count_records(path) == recs
    assert b"\r" not in path.read_bytes()


def test_visibility_points_csv_roundtrip(tmp_path):
    pts = [VisibilityPoint(0.1, 0.8, 0.01), VisibilityPoint(0.4, 0.6, 0.02)]
    path = tmp_path / "points.csv"
    write_visibility_points(path, pts)
    assert read_visibility_points(path) == pts


@pytest.mark.parametrize("bad_row", ["100,50,40", "100,50,40,x,1.0"])
def test_count_csv_malformed_row_rejected(tmp_path, bad_row):
    path = tmp_path / "counts.csv"
    write_count_records(path, [record(10**6, 5000, 4000, 100)], header_comments=["unit test"])
    with open(path, "a") as fh:
        fh.write(bad_row + "\n")
    with pytest.raises(ConfigError, match=r"counts\.csv line 4: bad row"):
        read_count_records(path)


@pytest.mark.parametrize("bad_row", ["0.1,0.8", "0.1,high,0.01", "0.1,1.5,0.01"])
def test_visibility_csv_malformed_row_rejected(tmp_path, bad_row):
    path = tmp_path / "points.csv"
    write_visibility_points(path, [VisibilityPoint(0.1, 0.8, 0.01)])
    with open(path, "a") as fh:
        fh.write(bad_row + "\n")
    with pytest.raises(ConfigError, match=r"points\.csv line 3: bad row"):
        read_visibility_points(path)


def test_empty_csv_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# comment only\n")
    for reader in (read_count_records, read_visibility_points):
        with pytest.raises(ConfigError, match=r"empty\.csv holds no column-name row"):
            reader(path)
