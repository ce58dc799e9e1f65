"""Schmidt decomposition, overlap functionals and their cross-checks."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twinpdc import (DetectionSpec, FrequencyGrid, JointAmplitude, SchmidtData, SimConfig,
                     apply_filter, decompose, delay_compensated_overlap, density_overlap,
                     gain_for_mean_n, mode_means, schmidt, schmidt_spectral_overlap,
                     spectral_overlap)
from twinpdc.errors import ConfigError, ContractError, GridShapeError, RangeError
from twinpdc.jsa import BLOCK_ROWS
from twinpdc.report import delay_search_range

from conftest import chirped_jsa, gaussian_mode, separable_jsa


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


def decaying_jsa(n=400, ratio=0.8, norm_squared=1.0):
    """Random orthonormal modes with Schmidt weights proportional to ratio^k."""
    rng = np.random.default_rng(20140523)
    grid = FrequencyGrid.square(n, 4.0)
    u, v = (np.linalg.qr(rng.standard_normal((n, 2 * n)).view(complex))[0] for _ in range(2))
    values = (u * ratio ** (np.arange(n) / 2.0)) @ v.T
    values *= math.sqrt(norm_squared / (np.sum(np.abs(values) ** 2) * grid.step_signal
                                        * grid.step_idler))
    return JointAmplitude(grid=grid, values=values, normalized=True)


def swapped_overlap_reference(jsa):
    """Direct dense evaluation of the overlap integral (independent of the lag sums)."""
    f = jsa.values
    return np.sum(f * np.conj(f.T)) * jsa.cell_area


def dense_coefficients(jsa):
    """Oracle: every Schmidt coefficient from the dense SVD of the whole grid."""
    return np.linalg.svd(jsa.values, compute_uv=False) * math.sqrt(jsa.cell_area)


def gram_defects(sd):
    """Max |G - I| entries of the signal and idler mode Gram matrices."""
    out = []
    for modes, step in ((sd.signal_modes, sd.step_signal), (sd.idler_modes, sd.step_idler)):
        gram = modes.conj().T @ modes * step
        out.append(float(np.max(np.abs(gram - np.eye(gram.shape[0])))))
    return tuple(out)


def reconstruct(sd):
    """Amplitude values rebuilt from the kept modes."""
    return (sd.signal_modes * sd.coefficients[None, :]) @ sd.idler_modes.T


def oracle_keep(lam, cutoff):
    """Modes the oracle keeps: the first prefix whose weight reaches the total less cutoff."""
    weights = lam**2
    return int(np.searchsorted(np.cumsum(weights), np.sum(weights) - cutoff) + 1)


@pytest.fixture(scope="module")
def bundled_dense_coefficients(unfiltered_jsa):
    return dense_coefficients(unfiltered_jsa)


@pytest.fixture(scope="module")
def fine_schmidt(unfiltered_jsa):
    """The bundled amplitude decomposed once at the smallest cutoff the tests truncate to."""
    return decompose(unfiltered_jsa, rank_cutoff=1e-8)


@pytest.fixture
def sketch_widths(monkeypatch):
    """Widths of the sketches decompose draws, in order."""
    widths = []
    draw = schmidt._sketch_basis

    def spy(f, width):
        widths.append(width)
        return draw(f, width)
    monkeypatch.setattr(schmidt, "_sketch_basis", spy)
    return widths


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
    ds, di = gram_defects(sd)
    assert ds < 1e-6 and di < 1e-6


def test_reconstruction_error_bounded_by_cutoff():
    jsa = two_mode_jsa()
    for cutoff in (1e-6, 0.21):
        sd = decompose(jsa, rank_cutoff=cutoff)
        err = np.sum(np.abs(jsa.values - reconstruct(sd)) ** 2) * jsa.cell_area
        assert err <= cutoff + 1e-12


@pytest.mark.parametrize("cutoff", [math.nan, -1.0, -math.inf, -1e-300])
def test_decompose_rejects_a_nan_or_negative_cutoff(cutoff):
    """On a chirped 64^2 amplitude a NaN cutoff kept one mode and left out 0.12 of the
    weight, and -1 forced the full-width sketch; both are rejected before any product."""
    jsa = chirped_jsa(64, 64)
    with pytest.raises(ContractError, match="rank_cutoff"):
        decompose(jsa, rank_cutoff=cutoff)


def test_decompose_rejects_unnormalized():
    jsa = separable_jsa()
    bad = JointAmplitude(grid=jsa.grid, values=2.0 * jsa.values, normalized=False)
    with pytest.raises(ContractError):
        decompose(bad)


def test_bundled_device_highly_multimodal(unfiltered_schmidt):
    """Its modes are orthonormal; the band on K is a CRITERIA row (test_acceptance)."""
    ds, di = gram_defects(unfiltered_schmidt)
    assert ds < 1e-6 and di < 1e-6


def test_truncated_keeps_fewest_modes_within_cutoff():
    sd = SchmidtData(coefficients=np.sqrt([0.5, 0.3, 0.15, 0.05]), signal_modes=np.eye(4),
                     idler_modes=np.eye(4), step_signal=1.0, step_idler=1.0)
    for cutoff, keep, residual in ((0.0, 4, 0.0), (0.1, 3, 0.05), (0.25, 2, 0.2),
                                   (0.6, 1, 0.5), (1.0, 1, 0.5)):
        cut = sd.truncated(cutoff)
        assert len(cut.coefficients) == keep
        assert cut.signal_modes.shape == cut.idler_modes.shape == (4, keep)
        assert cut.truncation_residual == pytest.approx(residual, abs=1e-15)
    again = sd.truncated(0.1).truncated(0.25)
    assert len(again.coefficients) == 2
    assert again.truncation_residual == pytest.approx(0.2, abs=1e-15)


def test_sketch_matches_dense_oracle_on_bundled_grid(
        unfiltered_schmidt, fine_schmidt, bundled_dense_coefficients):
    lam = bundled_dense_coefficients
    for sd, cutoff in ((unfiltered_schmidt, 1e-6), (fine_schmidt, 1e-8)):
        keep = oracle_keep(lam, cutoff)
        assert len(sd.coefficients) == keep
        assert sd.coefficients == pytest.approx(lam[:keep], rel=1e-12, abs=0.0)
        assert sd.mode_number == pytest.approx(1.0 / np.sum(lam[:keep] ** 4), rel=1e-12)
        assert sd.truncation_residual == pytest.approx(np.sum(lam[keep:] ** 2), abs=1e-14)


@pytest.mark.parametrize("cutoff", [1e-6, 1e-8, 1e-10, 1e-12, 1e-15])
@pytest.mark.parametrize("ratio", [0.8, 0.9])
def test_kept_coefficients_carry_dense_svd_rounding(ratio, cutoff):
    """One QR per f f^dag step loses none of the small kept modes: each kept lam_k lies
    within 64 eps lam_1 of the dense SVD, the accuracy a dense SVD itself has."""
    jsa = decaying_jsa(ratio=ratio)
    sd = decompose(jsa, rank_cutoff=cutoff)
    lam = dense_coefficients(jsa)
    err = np.abs(sd.coefficients - lam[:len(sd.coefficients)])
    assert np.max(err) <= 64 * np.finfo(float).eps * lam[0]


def test_reported_residual_is_reconstruction_error(sketch_widths):
    """On an amplitude whose norm is off 1 by 8e-7, which decompose accepts."""
    jsa = decaying_jsa(norm_squared=1.0 + 8e-7)
    sd = decompose(jsa)
    assert sketch_widths[-1] < min(jsa.values.shape)  # a partial sketch
    err = np.sum(np.abs(jsa.values - reconstruct(sd)) ** 2) * jsa.cell_area
    assert 0.0 < sd.truncation_residual <= schmidt.DEFAULT_RANK_CUTOFF
    assert sd.truncation_residual == pytest.approx(err, abs=1e-15)


def test_decompose_is_bit_reproducible(sketch_widths):
    jsa = decaying_jsa()
    first, second = decompose(jsa), decompose(jsa)
    assert sketch_widths[-1] < min(jsa.values.shape)
    for a, b in ((first.coefficients, second.coefficients),
                 (first.signal_modes, second.signal_modes),
                 (first.idler_modes, second.idler_modes)):
        assert np.array_equal(np.ascontiguousarray(a).view(np.uint64),
                              np.ascontiguousarray(b).view(np.uint64))


@pytest.mark.parametrize("shape", [(700, 600), (600, 700)])
def test_flat_spectrum_widens_to_exact_full_sketch(shape, sketch_widths):
    """A random amplitude has no spectral gap: at a tiny cutoff every mode is kept, which
    only the full-width sketch can certify."""
    rng = np.random.default_rng(20140523)
    grid = FrequencyGrid(shape[0], shape[1], 4.0, 4.0)
    values = rng.standard_normal((shape[0], 2 * shape[1])).view(complex)
    values /= math.sqrt(np.sum(np.abs(values) ** 2) * grid.step_signal * grid.step_idler)
    jsa = JointAmplitude(grid=grid, values=values, normalized=True)
    sd = decompose(jsa, rank_cutoff=1e-14)
    assert sketch_widths == [150, 300, 600]  # a quarter of the short axis, doubled
    lam = dense_coefficients(jsa)
    assert len(sd.coefficients) == min(shape)
    assert sd.coefficients == pytest.approx(lam, rel=1e-12, abs=0.0)
    err = np.sum(np.abs(values - reconstruct(sd)) ** 2) * jsa.cell_area
    assert err <= 1e-14 and sd.truncation_residual <= 1e-14


# --- spectral overlap ---------------------------------------------------------

def test_swap_symmetric_overlap_is_one():
    jsa = two_mode_jsa()  # real and symmetric by construction
    val = spectral_overlap(jsa)
    assert abs(val) == pytest.approx(1.0, abs=1e-9)


def test_overlap_lag_sums_equal_dense(unfiltered_jsa):
    dense = swapped_overlap_reference(unfiltered_jsa)
    assert spectral_overlap(unfiltered_jsa) == pytest.approx(dense, abs=1e-12)


@pytest.mark.parametrize("case", ["bundled", "dense", "zero-rows", "chirped"])
def test_lag_sums_equal_full_diagonal_sums(unfiltered_jsa, case):
    """The lag sums read only the in-band stretch of each diagonal pair."""
    jsa = {**product_cases(unfiltered_jsa),
           "dense": on_grid(np.random.default_rng(5).standard_normal((150, 300)).view(complex)),
           "chirped": chirped_jsa(40, 40, 3.0, 3.0)}[case]
    f = jsa.values
    full = np.array([np.vdot(np.diagonal(f, d), np.diagonal(f, -d)) for d in range(len(f))])
    full[0] /= 2.0
    full *= jsa.cell_area
    c = schmidt._lag_sums(jsa)
    assert np.max(np.abs(c - full)) <= 1e-15 * np.max(np.abs(full))


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
    """The best delay; the band on the overlap there is a CRITERIA row (test_acceptance)."""
    tau, _ = delay_compensated_overlap(unfiltered_jsa, delay_search_range(device))
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


def schmidt_density_overlap(sd):
    """Density overlap through the Schmidt basis: sum lam_n^2 lam_k^2 |<phi_n, psi_k>|^2."""
    lam2 = sd.coefficients**2
    cross = sd.signal_modes.conj().T @ sd.idler_modes * sd.step_signal
    return float(np.real(np.sum(np.outer(lam2, lam2) * np.abs(cross) ** 2)))


def test_density_overlap_two_paths_and_purity_bound(
        bundled_config, device, filter_base_jsa):
    from twinpdc.config import filter_preset

    g12, _ = apply_filter(filter_base_jsa, filter_preset("g12", device, bundled_config))
    sd = decompose(g12)
    direct = density_overlap(g12)
    basis = schmidt_density_overlap(sd)
    assert direct == pytest.approx(basis, abs=1e-3)
    assert direct <= 1.0 / sd.mode_number + 1e-9


def banded_grid(n_s, n_i, half_width, zero_rows=(), seed=7):
    """Random complex grid, nonzero only within half_width columns of the anti-diagonal."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n_s, 2 * n_i)).view(complex)
    rows, cols = np.indices((n_s, n_i))
    values[np.abs(rows * (n_i - 1) / max(n_s - 1, 1) + cols - (n_i - 1)) > half_width] = 0
    values[list(zero_rows)] = 0
    return values


def on_grid(values):
    """values on a grid of their shape with equal spans (not normalized)."""
    return JointAmplitude(grid=FrequencyGrid(*values.shape, 3.0, 3.0), values=values)


def product_cases(unfiltered_jsa):
    rows = BLOCK_ROWS
    rng = np.random.default_rng(3)
    return {
        "bundled": unfiltered_jsa,
        "dense": on_grid(rng.standard_normal((300, 600)).view(complex)),
        "zero-rows": on_grid(banded_grid(4 * rows, 4 * rows, 20,
                                            zero_rows=[0, 5, *range(rows, 2 * rows)])),
        "non-square": on_grid(banded_grid(3 * rows + 17, 150, 12)),
    }


@pytest.mark.parametrize("case", ["bundled", "dense", "zero-rows", "non-square"])
def test_banded_products_match_dense(unfiltered_jsa, case):
    jsa = product_cases(unfiltered_jsa)[case]
    f, band = jsa.values, jsa.band
    rng = np.random.default_rng(11)
    x = rng.standard_normal((f.shape[1], 16)).view(complex)
    y = rng.standard_normal((f.shape[0], 16)).view(complex)
    for banded, dense in ((schmidt._dot(jsa, x), f @ x), (schmidt._tdot(jsa, y), f.T @ y)):
        assert np.max(np.abs(banded - dense)) <= 1e-13 * np.max(np.abs(dense))
    blocks = -(-f.shape[0] // BLOCK_ROWS)
    multiplied = sum(f[rows, cols].size for rows, cols in band.blocks)
    if case == "dense":
        assert multiplied == f.size
    else:
        assert multiplied < 0.5 * f.size
    if case == "zero-rows":
        assert len(band.blocks) == blocks - 1  # the all-zero block is skipped
    assert jsa.band is band  # found once


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 200), width=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
       zero_rows=st.lists(st.integers(0, 199), max_size=80))
def test_density_overlap_matches_dense_product(n, width, seed, zero_rows):
    """The blocked density overlap equals ||f conj(f)||^2 dnu^2 on random square grids."""
    values = banded_grid(n, n, width * n, [r for r in zero_rows if r < n], seed)
    jsa = JointAmplitude(grid=FrequencyGrid.square(n, 3.0), values=values)
    product = values @ values.conj()
    dense = float(np.vdot(product, product).real) * jsa.cell_area**2
    assert density_overlap(jsa) == pytest.approx(dense, rel=1e-12, abs=1e-300)


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


def test_overlap_truncation_bound(unfiltered_jsa, fine_schmidt):
    """Keeping the modes g of f = g + h, ||h||^2 = rho, moves O exactly by
    O(f) - O(g) = 2 Re<g, S h> + <h, S h>, S the swap (unitary, self-adjoint).
    h is orthogonal to g, so Cauchy-Schwarz bounds |O(f) - O(g)| by
    2 sqrt(rho (1 - rho)) + rho.  No bound linear in rho holds: on the bundled
    grid |O(f) - O(g)| is 4.3 rho at a cutoff of 1e-6."""
    f, cell = unfiltered_jsa.values, unfiltered_jsa.cell_area
    full = spectral_overlap(unfiltered_jsa)
    for cutoff in (1e-2, 1e-4, 1e-6, 1e-8):
        sd = fine_schmidt.truncated(cutoff)
        rho = sd.truncation_residual
        assert rho <= cutoff
        g = reconstruct(sd)
        h = f - g
        assert np.vdot(h, h).real * cell == pytest.approx(rho, abs=1e-15)
        assert abs(np.vdot(g, h) * cell) < 1e-12
        shift = (2.0 * np.vdot(g, h.T).real + np.vdot(h, h.T).real) * cell
        truncated = schmidt_spectral_overlap(sd)
        assert full - truncated == pytest.approx(shift, abs=1e-12)
        assert abs(full - truncated) <= 2.0 * math.sqrt(rho * (1.0 - rho)) + rho


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
    expected = [math.sinh(0.5 * v) ** 2 for v in lam]
    assert mode_means(lam, 0.5) == pytest.approx(expected, rel=1e-12)
    assert mode_means(lam, 0.5).sum() == pytest.approx(sum(expected), rel=1e-12)


def test_gain_for_mean_n_inverts():
    lam = np.full(20, 1.0 / math.sqrt(20))
    for target in (0.05, 0.5, 2.0):
        b = gain_for_mean_n(target, lam)
        assert mode_means(lam, b).sum() == pytest.approx(target, rel=1e-9)


def gain_by_200_bisections(mean_n, coefficients):
    """Oracle: the bisection that always runs 200 steps."""
    if mean_n <= 0:
        return 0.0
    lam = np.asarray(coefficients, dtype=float)
    lo, hi = 0.0, 2.0 * math.asinh(math.sqrt(mean_n)) / float(np.max(lam))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mode_means(lam, mid).sum() < mean_n:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def gain_spectra():
    """Equal, unequal, device-like (K ~ 88 over 360 modes) and random Schmidt spectra."""
    spectra = [np.full(k, 1.0 / math.sqrt(k)) for k in (1, 4, 20, 1000)]
    spectra.append(np.array([math.sqrt(0.8), math.sqrt(0.2)]))
    decay = np.exp(-np.arange(20) / 8.0)
    spectra.append(decay / np.linalg.norm(decay))
    thermal = (87.0 / 89.0) ** (np.arange(360) / 2.0)
    spectra.append(thermal / np.linalg.norm(thermal))
    rng = np.random.default_rng(22)
    for size in rng.integers(1, 400, 12):
        lam = rng.exponential(1.0, size) * (rng.uniform(size=size) < 0.9)
        lam[0] += 1e-3  # never all zero
        spectra.append(lam / np.linalg.norm(lam))
    return spectra


GAIN_MEAN_N = np.geomspace(1e-12, 100.0, 43)


def test_gain_for_mean_n_bit_identical_to_200_bisections():
    for lam in gain_spectra():
        for target in GAIN_MEAN_N:
            got, want = gain_for_mean_n(target, lam), gain_by_200_bisections(target, lam)
            assert got.hex() == want.hex(), (len(lam), target)


def test_gain_inversion_stops_at_its_fixed_point(monkeypatch):
    """At most 70 evaluations of the mode sum per inversion, where the full bisection took 200."""
    calls = []

    def spy(coefficients, gain):
        calls.append(gain)
        return mode_means(coefficients, gain)
    monkeypatch.setattr(schmidt, "mode_means", spy)
    for lam in gain_spectra():
        for target in GAIN_MEAN_N:
            calls.clear()
            gain_for_mean_n(target, lam)
            assert 0 < len(calls) <= 70, (len(lam), target)


@pytest.mark.parametrize("mean_n, coefficients", [
    (math.nan, [1.0]), (math.inf, [1.0]), (-math.inf, [1.0]),
    (0.1, []), (0.1, [0.6, math.nan]), (0.1, [math.inf]), (0.1, [0.8, -0.6]),
    (0.1, [0.0, 0.0]), (0.0, [0.0])])
def test_gain_rejects_bad_mean_n_and_coefficients(mean_n, coefficients):
    with pytest.raises(ContractError, match="gain_for_mean_n"):
        gain_for_mean_n(mean_n, coefficients)


def test_gain_rejects_negative():
    """SimConfig holds the gain, so it rejects a negative, NaN or infinite one."""
    det = DetectionSpec(eta1=0.1, eta2=0.1, gate_rate=76.2e6 / 64)
    for gain in (-0.1, math.nan, math.inf):
        with pytest.raises(ConfigError, match="gain"):
            SimConfig(source=np.ones(1), gain=gain, det=det, n_gates=1, seed=0)
