"""Phase-mismatch expansion and device-spec validation."""
import math

import numpy as np
import pytest

from twinpdc import delta_k, device_spec, pm_tilt_deviation
from twinpdc.errors import ConfigError, DegenerateDispersionError
from twinpdc.units import thz_to_angular

# rounded reference coefficients, for tests that pin the quoted values
QUOTED = dict(kappa_s=-2.40e-3, kappa_i=-2.44e-3,
             lambda_p=5.74e-6, lambda_s=-2.16e-6, lambda_i=-2.17e-6)


def quoted_spec():
    return device_spec(length_um=2000.0, gamma=0.193,
                       pump_center=thz_to_angular(386.6), **QUOTED)


def velocity_spec():
    return device_spec(length_um=2000.0, gamma=0.193,
                       pump_center=thz_to_angular(386.6),
                       vg_p=74.0, vg_s=90.1, vg_i=90.4,
                       lambda_p=5.74e-6, lambda_s=-2.16e-6, lambda_i=-2.17e-6)


def test_delta_k_zero_at_expansion_point():
    assert delta_k(quoted_spec(), 0.0, 0.0) == 0.0


def test_delta_k_hand_evaluated_point():
    # independent hand evaluation with the quoted coefficients:
    # nu = 2*pi*0.1 = 0.6283185307179586 rad/ps
    # kappa_s*nu   = -2.40e-3 * 0.6283185307179586 = -1.5079644737231007e-3
    # lambda_s*nu^2 = -2.16e-6 * 0.3947841760435743 = -8.527338202541205e-7
    nu = 2.0 * math.pi * 0.1
    expected = -1.5088172075433548e-3
    value = delta_k(quoted_spec(), nu, 0.0)
    assert value == pytest.approx(expected, rel=1e-12)
    # the same number quoted to five significant figures
    assert value == pytest.approx(-1.5089e-3, abs=1.2e-7)


def test_delta_k_symmetric_for_equal_arguments():
    # swapping the labels of equal arguments cannot matter
    spec = quoted_spec()
    nu = 0.37
    assert delta_k(spec, nu_s=nu, nu_i=nu) == delta_k(spec, nu_i=nu, nu_s=nu)


def test_delta_k_broadcasts():
    spec = quoted_spec()
    ns = np.linspace(-1, 1, 5)[:, None]
    ni = np.linspace(-1, 1, 7)[None, :]
    out = delta_k(spec, ns, ni)
    assert out.shape == (5, 7)
    assert out[2, 3] == pytest.approx(delta_k(spec, ns[2, 0], ni[0, 3]))


def test_delta_k_exactly_quadratic():
    """Finite differences recover 2*lambda_s, 2*lambda_i, -lambda_p."""
    spec = quoted_spec()
    h = 0.5
    for point in ((0.0, 0.0), (3.2, -1.7)):
        ns, ni = point
        dss = (delta_k(spec, ns + h, ni) - 2 * delta_k(spec, ns, ni)
               + delta_k(spec, ns - h, ni)) / h**2
        dii = (delta_k(spec, ns, ni + h) - 2 * delta_k(spec, ns, ni)
               + delta_k(spec, ns, ni - h)) / h**2
        dsi = (delta_k(spec, ns + h, ni + h) - delta_k(spec, ns + h, ni - h)
               - delta_k(spec, ns - h, ni + h) + delta_k(spec, ns - h, ni - h)) / (4 * h**2)
        assert dss == pytest.approx(2 * QUOTED["lambda_s"], abs=1e-17)
        assert dii == pytest.approx(2 * QUOTED["lambda_i"], abs=1e-17)
        assert dsi == pytest.approx(-QUOTED["lambda_p"], abs=1e-17)


def test_delta_k_all_zero_coefficients():
    spec = device_spec(length_um=100.0, gamma=0.5, pump_center=10.0,
                       kappa_s=0.0, kappa_i=0.0)
    ns, ni = np.meshgrid(np.linspace(-9, 9, 11), np.linspace(-9, 9, 11))
    assert np.all(delta_k(spec, ns, ni) == 0.0)


def test_tilt_symmetric_velocities():
    spec = device_spec(length_um=100.0, gamma=0.5, pump_center=10.0,
                       kappa_s=-2.0e-3, kappa_i=-2.0e-3)
    assert pm_tilt_deviation(spec) == 0.0


def test_tilt_quoted_values():
    # |45 deg - atan(2.40/2.44)| = 0.47351 deg, the stated half-degree ballpark
    assert pm_tilt_deviation(quoted_spec()) == pytest.approx(0.47351, abs=1e-4)
    assert abs(pm_tilt_deviation(quoted_spec()) - 0.5) < 0.1


def test_tilt_fully_asymmetric():
    spec = device_spec(length_um=100.0, gamma=0.5, pump_center=10.0,
                       kappa_s=0.0, kappa_i=-1.0)
    assert pm_tilt_deviation(spec) == pytest.approx(45.0)


def test_tilt_degenerate_dispersion():
    spec = device_spec(length_um=100.0, gamma=0.5, pump_center=10.0,
                       kappa_s=-1.0e-3, kappa_i=0.0)
    with pytest.raises(DegenerateDispersionError):
        pm_tilt_deviation(spec)


def test_kappa_derived_from_velocities():
    spec = velocity_spec()
    assert spec.kappa_s == pytest.approx(1 / 90.1 - 1 / 74.0, abs=1e-15)
    assert spec.kappa_i == pytest.approx(1 / 90.4 - 1 / 74.0, abs=1e-15)


def test_kappa_consistency_enforced_when_both_given():
    # exactly consistent double representation passes
    ks = 1 / 90.1 - 1 / 74.0
    device_spec(length_um=2000.0, gamma=0.193, pump_center=thz_to_angular(386.6),
                vg_p=74.0, vg_s=90.1, vg_i=90.4,
                kappa_s=ks, kappa_i=1 / 90.4 - 1 / 74.0)
    # a rounded datasheet value disagrees beyond 1e-9 ps/um and is rejected
    with pytest.raises(ConfigError, match="inconsistent"):
        device_spec(length_um=2000.0, gamma=0.193, pump_center=thz_to_angular(386.6),
                    vg_p=74.0, vg_s=90.1, vg_i=90.4,
                    kappa_s=-2.40e-3, kappa_i=-2.44e-3)


@pytest.mark.parametrize("field,value", [
    ("length_um", -1.0), ("gamma", 0.0), ("gamma", 1.0), ("pump_center", 0.0),
    *((field, value) for field in ("length_um", "gamma", "pump_center", "kappa_s", "lambda_p")
      for value in (math.nan, math.inf)),
])
def test_invalid_scalars_rejected(field, value):
    kwargs = dict(length_um=100.0, gamma=0.5, pump_center=10.0,
                  kappa_s=-1e-3, kappa_i=-1e-3)
    kwargs[field] = value
    with pytest.raises(ConfigError):
        device_spec(**kwargs)
