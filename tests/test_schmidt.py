"""Schmidt decomposition, overlap functionals and their cross-checks."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twinpdc import (FrequencyGrid, GainSpec, JointAmplitude, SchmidtData, apply_filter,
                     decompose, delay_compensated_overlap, density_overlap,
                     gain_for_mean_n, schmidt_density_overlap,
                     schmidt_spectral_overlap, spectral_overlap)
from twinpdc.errors import ContractError, GridShapeError, RangeError

from conftest import gaussian_mode, separable_jsa


def two_mode_jsa(weights=(math.sqrt(0.8), math.sqrt(0.2)), n=256, span=6.0):
    """Orthogonal two-term amplitude with prescribed Schmidt weights."""
    grid = FrequencyGrid.square(n, span)
    nu = grid.axis_signal
    step = grid.step_signal
    # Hermite-Gaussian pair: a Gaussian and its odd first excited mode
    g0 = gaussian_mode(nu, 0.0, 1.0)
    g1 = nu * np.exp(-((nu / 1.0) ** 2) / 1.0)
    g1 = g1 / math.sqrt(np.sum(np.abs(g1) ** 2) * step)
    values = (weights[0] * np.outer(g0, g0) + weights[1] * np.outer(g1, g1))
    values = values.astype(complex)
    norm = math.sqrt(np.sum(np.abs(values) ** 2) * step * grid.step_idler)
    return JointAmplitude(grid=grid, values=values / norm, normalized=True)


def swapped_overlap_reference(jsa):
    """Direct dense evaluation of the overlap integral (independent of the lag sums)."""
    f = jsa.values
    return np.sum(f * np.conj(f.T)) * jsa.cell_area


def delayed_overlap_reference(jsa, tau):
    """Dense |O(tau)|: the n^2 integrand with the signal phase exp(i nu_s tau)."""
    phase = np.exp(1j * jsa.grid.axis_signal * tau)
    base = jsa.values * np.conj(jsa.values).T
    return abs(np.sum(base * phase[:, None] * np.conj(phase)[None, :])) * jsa.cell_area


# --- decompose ---------------------------------------------------------------

def test_rank_one_separable():
    sd = decompose(separable_jsa())
    assert sd.coefficients[0] == pytest.approx(1.0, abs=1e-9)
    assert sd.mode_number == pytest.approx(1.0, abs=1e-6)


def test_two_term_weights_and_mode_number():
    sd = decompose(two_mode_jsa())
    assert sd.coefficients[0] == pytest.approx(math.sqrt(0.8), abs=1e-9)
    assert sd.coefficients[1] == pytest.approx(math.sqrt(0.2), abs=1e-9)
    # K = 1 / (0.8^2 + 0.2^2) = 1 / 0.68
    assert sd.mode_number == pytest.approx(1.4705882352941178, abs=1e-4)


def test_weights_sum_and_orthonormal_modes():
    sd = decompose(two_mode_jsa())
    assert np.sum(sd.coefficients**2) + sd.truncation_residual == pytest.approx(
        1.0, abs=1e-6)
    ds, di = sd.gram_defects()
    assert ds < 1e-6 and di < 1e-6


def test_reconstruction_error_bounded_by_cutoff():
    jsa = two_mode_jsa()
    for cutoff in (1e-6, 0.21):
        sd = decompose(jsa, rank_cutoff=cutoff)
        err = np.sum(np.abs(jsa.values - sd.reconstruct()) ** 2) * jsa.cell_area
        assert err <= cutoff + 1e-12


def test_decompose_rejects_unnormalized():
    jsa = separable_jsa()
    bad = JointAmplitude(grid=jsa.grid, values=2.0 * jsa.values, normalized=False)
    with pytest.raises(ContractError):
        decompose(bad)


def test_bundled_device_highly_multimodal(unfiltered_schmidt):
    assert unfiltered_schmidt.mode_number > 10.0
    ds, di = unfiltered_schmidt.gram_defects()
    assert ds < 1e-6 and di < 1e-6


# --- spectral overlap ---------------------------------------------------------

def test_swap_symmetric_overlap_is_one():
    jsa = two_mode_jsa()  # real and symmetric by construction
    val = spectral_overlap(jsa)
    assert abs(val) == pytest.approx(1.0, abs=1e-9)


def test_overlap_lag_sums_equal_dense(unfiltered_jsa):
    dense = swapped_overlap_reference(unfiltered_jsa)
    assert spectral_overlap(unfiltered_jsa) == pytest.approx(dense, abs=1e-12)


def test_overlap_global_phase_invariant():
    jsa = two_mode_jsa()
    rotated = JointAmplitude(grid=jsa.grid, values=jsa.values * np.exp(0.7j),
                             normalized=True)
    assert abs(spectral_overlap(rotated)) == pytest.approx(
        abs(spectral_overlap(jsa)), abs=1e-12)


def test_overlap_needs_square_grid():
    grid = FrequencyGrid(64, 96, 4.0, 4.0)
    values = np.ones((64, 96), dtype=complex)
    values /= math.sqrt(np.sum(np.abs(values) ** 2) * grid.step_signal * grid.step_idler)
    jsa = JointAmplitude(grid=grid, values=values, normalized=True)
    with pytest.raises(GridShapeError):
        spectral_overlap(jsa)


def test_bundled_device_overlap_value(unfiltered_jsa):
    assert abs(spectral_overlap(unfiltered_jsa)) == pytest.approx(0.26, abs=0.02)


def test_filtered_overlaps(bundled_config, device, filter_base_jsa):
    from twinpdc.config import filter_preset

    g12, _ = apply_filter(filter_base_jsa, filter_preset("g12", device, bundled_config))
    assert abs(spectral_overlap(g12)) == pytest.approx(0.98, abs=0.02)
    sg40, _ = apply_filter(filter_base_jsa, filter_preset("sg40", device, bundled_config))
    assert abs(spectral_overlap(sg40)) == pytest.approx(0.83, abs=0.02)


# --- delay compensation --------------------------------------------------------

def test_delay_compensation_already_symmetric():
    jsa = two_mode_jsa()
    tau, best = delay_compensated_overlap(jsa, (-0.5, 0.5))
    assert best == pytest.approx(1.0, abs=1e-6)
    assert tau == pytest.approx(0.0, abs=1e-3)


def test_delay_compensation_inverts_linear_phase():
    tau0 = 0.21
    jsa = two_mode_jsa()
    phased = JointAmplitude(
        grid=jsa.grid,
        values=jsa.values * np.exp(1j * jsa.grid.axis_signal * tau0)[:, None],
        normalized=True)
    tau, best = delay_compensated_overlap(phased, (-0.5, 0.5))
    assert tau == pytest.approx(-tau0, abs=1e-3)
    assert best == pytest.approx(1.0, abs=1e-6)


def test_bundled_device_delay_compensated_overlap(device, unfiltered_jsa):
    span = 3.0 * abs(device.group_delay_ps())
    tau, best = delay_compensated_overlap(unfiltered_jsa, (-span, span))
    assert best == pytest.approx(0.76, abs=0.02)
    # compensates half the accumulated group delay (phase carries L dk / 2)
    assert tau == pytest.approx(-device.group_delay_ps() / 2, abs=2e-3)


def test_delay_invalid_range():
    for tau_range in ((0.5, 0.4), (math.nan, 0.5), (-math.inf, 0.5), (0.0, math.inf)):
        with pytest.raises(RangeError):
            delay_compensated_overlap(two_mode_jsa(), tau_range)


def test_delay_search_is_global_over_two_delays():
    """Two delayed signal components: local peak 0.36 at tau = -1, global 0.64 at tau = 3."""
    grid = FrequencyGrid.square(256, 6.0)
    nu = grid.axis_signal
    g = np.exp(-((nu / 2.0) ** 2))
    values = np.outer(g * (0.6 * np.exp(1j * nu * 1.0) + 0.8 * np.exp(-1j * nu * 3.0)), g)
    values /= math.sqrt(np.sum(np.abs(values) ** 2) * grid.step_signal * grid.step_idler)
    jsa = JointAmplitude(grid=grid, values=values, normalized=True)
    tau, best = delay_compensated_overlap(jsa, (-5.0, 5.0))
    assert tau == pytest.approx(3.0, abs=0.01)
    assert best >= 0.639
    assert best == pytest.approx(delayed_overlap_reference(jsa, tau), abs=1e-12)
    dense = [delayed_overlap_reference(jsa, t) for t in np.linspace(-5.0, 5.0, 1001)]
    assert max(dense) <= best + 1e-12


# --- density overlap -----------------------------------------------------------

def test_density_overlap_identical_densities_gives_purity():
    jsa = two_mode_jsa()
    sd = decompose(jsa)
    assert density_overlap(jsa) == pytest.approx(1.0 / sd.mode_number, abs=1e-4)


def test_density_overlap_rank_one():
    assert density_overlap(separable_jsa()) == pytest.approx(1.0, abs=1e-9)


def test_density_overlap_two_paths_and_purity_bound(
        bundled_config, device, filter_base_jsa):
    from twinpdc.config import filter_preset

    g12, _ = apply_filter(filter_base_jsa, filter_preset("g12", device, bundled_config))
    sd = decompose(g12)
    direct = density_overlap(g12)
    basis = schmidt_density_overlap(sd)
    assert direct == pytest.approx(basis, abs=1e-3)
    assert direct <= 1.0 / sd.mode_number + 1e-9


# --- Schmidt-basis cross-checks -------------------------------------------------

def test_spectral_overlap_two_paths_bundled(unfiltered_jsa, unfiltered_schmidt):
    direct = abs(spectral_overlap(unfiltered_jsa))
    value = schmidt_spectral_overlap(unfiltered_schmidt)
    assert type(value) is float  # O is real in the Schmidt basis too
    assert abs(direct - abs(value)) < 1e-3


def test_spectral_overlap_two_paths_filtered(bundled_config, device, filter_base_jsa):
    from twinpdc.config import filter_preset

    for preset in ("g12", "sg40"):
        filtered, _ = apply_filter(filter_base_jsa,
                                   filter_preset(preset, device, bundled_config))
        direct = abs(spectral_overlap(filtered))
        basis = abs(schmidt_spectral_overlap(decompose(filtered)))
        assert abs(direct - basis) < 1e-3


def test_overlap_truncation_bound(unfiltered_jsa):
    """Dropping Schmidt weight rho moves O by at most 2 rho."""
    full = abs(spectral_overlap(unfiltered_jsa))
    for cutoff in (1e-4, 1e-2):
        sd = decompose(unfiltered_jsa, rank_cutoff=cutoff)
        truncated = abs(schmidt_spectral_overlap(sd))
        rho = sd.truncation_residual
        assert rho <= cutoff
        assert abs(full - truncated) <= 2.0 * max(rho, 1e-12)


def test_mode_number_invariant_under_axis_swap(unfiltered_jsa, unfiltered_schmidt):
    swapped = JointAmplitude(grid=unfiltered_jsa.grid,
                             values=unfiltered_jsa.values.T.copy(),
                             normalized=True)
    k1 = unfiltered_schmidt.mode_number
    k2 = decompose(swapped).mode_number
    assert k1 == pytest.approx(k2, rel=1e-9)


# --- properties on small random grids --------------------------------------------

@st.composite
def small_square_jsa(draw):
    """Normalized complex amplitude on a random square grid of 2..6 points per axis."""
    n = draw(st.integers(2, 6))
    parts = st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=n * n,
                     max_size=n * n)
    values = (np.array(draw(parts)) + 1j * np.array(draw(parts))).reshape(n, n)
    weight = np.sum(np.abs(values) ** 2)
    assume(weight > 1e-6)
    grid = FrequencyGrid.square(n, draw(st.floats(1e-3, 1e3)))
    values = values / math.sqrt(weight * grid.step_signal * grid.step_idler)
    return JointAmplitude(grid=grid, values=values, normalized=True)


@settings(max_examples=100, deadline=None)
@given(jsa=small_square_jsa(), phase=st.floats(-math.pi, math.pi),
       lo=st.floats(-10.0, 0.0), hi=st.floats(0.0, 10.0))
def test_overlap_functional_bounds_and_mode_number_invariance(jsa, phase, lo, hi):
    """|O| <= 1, delay compensation over a range holding 0 reaches |O(0)|, A <= 1/K,
    and K is unchanged by the axis swap and a global phase."""
    k = decompose(jsa).mode_number
    assert abs(spectral_overlap(jsa)) <= 1.0 + 1e-12
    assert delay_compensated_overlap(jsa, (lo, hi))[1] >= abs(spectral_overlap(jsa)) - 1e-12
    assert density_overlap(jsa) <= 1.0 / k + 1e-9
    for values in (jsa.values.T.copy(), jsa.values * np.exp(1j * phase)):
        other = JointAmplitude(grid=jsa.grid, values=values, normalized=True)
        assert decompose(other).mode_number == pytest.approx(k, rel=1e-9)


# --- gain bookkeeping -----------------------------------------------------------

def test_gain_spec_mean_photon_number():
    lam = np.array([math.sqrt(0.8), math.sqrt(0.2)])
    gain = GainSpec.for_spectrum(0.5, lam)
    expected = sum(math.sinh(0.5 * v) ** 2 for v in lam)
    assert gain.mean_n == pytest.approx(expected, rel=1e-12)
    assert gain.squeezing == pytest.approx(0.5 * lam)


def test_gain_for_mean_n_inverts():
    lam = np.full(20, 1.0 / math.sqrt(20))
    for target in (0.05, 0.5, 2.0):
        b = gain_for_mean_n(target, lam)
        assert GainSpec.for_spectrum(b, lam).mean_n == pytest.approx(target, rel=1e-9)


def test_gain_rejects_negative():
    with pytest.raises(ContractError):
        GainSpec(gain=-0.1, squeezing=np.array([]), mean_n=0.0)


@pytest.mark.parametrize("operation", [
    SchmidtData.gram_defects, SchmidtData.reconstruct,
    schmidt_spectral_overlap, schmidt_density_overlap])
def test_synthetic_spectrum_has_no_mode_functions(operation):
    sd = SchmidtData.from_spectrum([0.8, 0.5, 0.3])
    with pytest.raises(ContractError, match="mode functions"):
        operation(sd)
