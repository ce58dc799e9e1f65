"""Joint-amplitude assembly, filters, marginals and linewidths."""
import io
import math
import mmap
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twinpdc
from twinpdc import (FilterSpec, FrequencyGrid, PumpSpec, apply_filter, build_jsa,
                     device_spec, fwhm, jsi_linewidth, marginals, pm_function,
                     pump_envelope)
from twinpdc import config as cfgmod
from twinpdc.dispersion import delta_k
from twinpdc.errors import ConfigError, ContractError, RangeError, ResolutionError
from twinpdc.jsa import (BLOCK_ROWS, DUMP_LAYOUT, PUMP_CUT, SPAN_TOL, JointAmplitude,
                         _find_band, _zero_grid, dump_grid, load_grid)
from twinpdc.units import bandwidth_nm_to_angular, thz_to_angular

from conftest import chirped_jsa, separable_jsa, traced_peak


def symmetric_spec(length=500.0, kappa=-2.0e-3):
    return device_spec(length_um=length, gamma=0.193, pump_center=10.0,
                       kappa_s=kappa, kappa_i=kappa)


# --- pump envelope ---------------------------------------------------------

def test_pump_envelope_peak():
    pump = PumpSpec(sigma=0.7)
    assert pump_envelope(pump, 0.3, -0.3) == pytest.approx(1.0)


def test_pump_envelope_width_point():
    pump = PumpSpec(sigma=0.7)
    assert pump_envelope(pump, 0.7, 0.0) == pytest.approx(math.exp(-1.0))


def test_pump_envelope_energy_conserving_line():
    pump = PumpSpec(sigma=0.5)
    nus = np.linspace(-30, 30, 17)
    assert np.allclose(pump_envelope(pump, nus, -nus), 1.0)


def test_pump_fwhm_conversion_measured_on_grid():
    """The nm -> sigma conversion must put the stated intensity FWHM on a grid."""
    pump = PumpSpec.from_fwhm_nm(0.25, 772.0)
    nu = np.linspace(-3, 3, 4001)
    intensity = pump_envelope(pump, nu, 0.0) ** 2
    width, _ = fwhm(nu, intensity)
    assert width == pytest.approx(bandwidth_nm_to_angular(0.25, 772.0), rel=1e-5)


# --- phasematching function ------------------------------------------------

def test_pm_function_unity_at_phasematching():
    spec = symmetric_spec()
    for approx in ("sinc", "gaussian"):
        assert pm_function(spec, 0.0, 0.0, approx) == pytest.approx(1.0 + 0.0j)


def test_pm_function_first_sinc_zero():
    spec = symmetric_spec()
    # along nu_s with nu_i = 0: L/2 * kappa_s * nu = pi at nu = ...
    nu = 2 * math.pi / (spec.length_um * spec.kappa_s)
    assert abs(pm_function(spec, nu, 0.0, "sinc")) == pytest.approx(0.0, abs=1e-12)


def test_pm_gaussian_matches_sinc_amplitude_at_half_intensity():
    """1-D scan: where sinc^2 = 1/2 the two amplitude envelopes agree to 2e-2.

    Scanning x = L dk / 2 with the quoted width factor, the half-intensity
    point of the sinc sits at x = 1.39156 where |sinc| = 0.70711 and the
    Gaussian envelope is exp(-0.193 x^2) = 0.68816, a gap of 0.0189.
    """
    spec = symmetric_spec()
    nu = np.linspace(0.0, 3.0, 200001)
    x = 0.5 * spec.length_um * delta_k(spec, nu, 0.0)
    sinc_amp = np.abs(pm_function(spec, nu, 0.0, "sinc"))
    idx = np.argmin(np.abs(sinc_amp**2 - 0.5))
    assert abs(x[idx]) == pytest.approx(1.39156, abs=1e-3)
    gauss_amp = np.abs(pm_function(spec, nu[idx], 0.0, "gaussian"))
    assert abs(gauss_amp - sinc_amp[idx]) == pytest.approx(0.0189, abs=1e-3)
    assert abs(gauss_amp - sinc_amp[idx]) < 2e-2


def test_pm_phase_equals_half_length_mismatch():
    spec = symmetric_spec()
    nus = np.linspace(-2, 2, 41)
    x = 0.5 * spec.length_um * delta_k(spec, nus, 0.5)
    for approx in ("sinc", "gaussian"):
        vals = pm_function(spec, nus, 0.5, approx)
        # the complex factor is a real envelope times exp(i x): rotating the
        # phase away must leave a real number (negative in sinc side lobes)
        assert np.max(np.abs(np.imag(vals * np.exp(-1j * x)))) < 1e-14


# --- build_jsa --------------------------------------------------------------

def test_build_symmetric_construction():
    spec = symmetric_spec()
    pump = PumpSpec(sigma=0.8)
    grid = FrequencyGrid.square(256, 4.0)
    jsa = build_jsa(spec, pump, grid)
    intensity = np.abs(jsa.values) ** 2
    assert np.allclose(intensity, intensity.T, rtol=0, atol=1e-15)


def test_build_normalization():
    spec = symmetric_spec()
    jsa = build_jsa(spec, PumpSpec(sigma=0.8), FrequencyGrid.square(200, 4.0))
    assert jsa.norm_squared() == pytest.approx(1.0, abs=1e-9)
    jsa.check_normalized()


def test_build_underresolved_grid_rejected():
    spec = symmetric_spec()
    with pytest.raises(ResolutionError):
        build_jsa(spec, PumpSpec(sigma=0.8), FrequencyGrid.square(16, 40.0))


def test_span_check_reads_the_border_shares():
    """check_span returns the norm shares of the two border rows and of the two border
    columns, and raises where either is above SPAN_TOL."""
    def dense_shares(jsa):
        intensity = np.abs(jsa.values) ** 2
        rows, cols = intensity.sum(axis=1), intensity.sum(axis=0)
        return (rows[0] + rows[-1]) / rows.sum(), (cols[0] + cols[-1]) / cols.sum()
    held = separable_jsa(n=128, span=5.0, width_s=1.0, width_i=1.6)
    shares = held.check_span()
    assert 0.0 < shares[0] < shares[1] < SPAN_TOL
    assert shares == pytest.approx(dense_shares(held), rel=1e-12)
    # three times wider in the idler: only the columns are cut
    cut = separable_jsa(n=128, span=5.0, width_s=1.0, width_i=3.0)
    rows, cols = dense_shares(cut)
    assert rows < SPAN_TOL < cols
    with pytest.raises(ResolutionError, match=f"border columns {cols:.1e}"):
        cut.check_span()


def test_build_phase_matches_mismatch_pointwise(device, pump):
    grid = FrequencyGrid.square(128, 1.0)
    for approx in ("gaussian", "sinc"):
        jsa = build_jsa(device, pump, grid, approx)
        ns, ni = np.meshgrid(grid.axis_signal, grid.axis_idler, indexing="ij")
        x = 0.5 * device.length_um * delta_k(device, ns, ni)
        rotated = jsa.values * np.exp(-1j * x)
        assert np.max(np.abs(np.imag(rotated))) < 1e-12


def flushed(values):
    """The stored form of an amplitude: every part with |x| < tiny (±0, subnormal) set to +0."""
    parts = values.view(float).copy()
    parts[np.abs(parts) < np.finfo(float).tiny] = 0.0
    return parts.view(complex)


def uncut_formula(spec, pump, grid, approximation):
    """(pm * pump on the full mesh, complex first, the mesh's nu_s, nu_i)."""
    nu_s, nu_i = np.meshgrid(grid.axis_signal, grid.axis_idler, indexing="ij")
    return (pm_function(spec, nu_s, nu_i, approximation) * pump_envelope(pump, nu_s, nu_i),
            nu_s, nu_i)


def reference_build_jsa(spec, pump, grid, approximation):
    """Dense full-mesh formula, cut per cell at the pump band, normalized and flushed;
    build_jsa must match its bits.

    The cut sets +0 wherever (nu_s + nu_i)^2 / sigma^2 > PUMP_CUT.  The norm is the
    sum of whole-row sums of |f|^2 over the cut grid, the definition of norm_squared.
    """
    values, nu_s, nu_i = uncut_formula(spec, pump, grid, approximation)
    values[((nu_s + nu_i) / pump.sigma) ** 2 > PUMP_CUT] = 0.0
    norm = math.sqrt(row_sum_norm(values) * grid.step_signal * grid.step_idler)
    return flushed(values / norm)


def row_sum_norm(values):
    """sum |f|^2 over the grid as the sum of whole-row sums, in full."""
    return np.sum(np.sum(np.abs(values) ** 2, axis=1))


@pytest.mark.parametrize("approx", ["sinc", "gaussian"])
@pytest.mark.parametrize("shape", [(700, 700, 30.0, 30.0), (641, 448, 30.0, 20.0)],
                         ids=["square", "non-square"])
@pytest.mark.parametrize("rows", [BLOCK_ROWS, 3], ids=["default", "3-row"])
def test_tiled_build_matches_dense_reference_bits(monkeypatch, device, pump, approx,
                                                  shape, rows):
    grid = FrequencyGrid(*shape)
    assert 2 * rows < grid.n_s and grid.n_s % rows  # several blocks, a ragged last one
    monkeypatch.setattr("twinpdc.jsa.BLOCK_ROWS", rows)
    assert same_bits(build_jsa(device, pump, grid, approx).values,
                     reference_build_jsa(device, pump, grid, approx))


def test_build_evaluates_only_the_pump_band(monkeypatch, bundled_config, device, pump):
    """On the bundled 2048^2 grid the phasematching factor is evaluated on under 10%
    of the cells, and the result still has the bits of the cut, flushed dense formula."""
    grid = cfgmod.grid_from_config(bundled_config)
    approx = cfgmod.approximation_from_config(bundled_config)
    evaluated = []

    def counting(spec, nu_s, nu_i, approximation="sinc"):
        evaluated.append(np.size(nu_s))
        return pm_function(spec, nu_s, nu_i, approximation)
    monkeypatch.setattr("twinpdc.jsa.pm_function", counting)
    values = build_jsa(device, pump, grid, approx).values
    assert sum(evaluated) < 0.1 * grid.n_s * grid.n_i
    assert same_bits(values, reference_build_jsa(device, pump, grid, approx))


def test_pump_cut_drops_under_its_analytic_bound(device, pump):
    """The cut drops the weight of the cells where the pump envelope is below e^-40:
    at most e^-80 cells max|pm|^2 dnu_s dnu_i / N^2, N^2 the uncut grid's weight."""
    grid = FrequencyGrid.square(400, 8.0 * pump.sigma)
    values, nu_s, nu_i = uncut_formula(device, pump, grid, "sinc")
    cut = ((nu_s + nu_i) / pump.sigma) ** 2 > PUMP_CUT
    intensity = np.abs(values) ** 2
    norm_squared = row_sum_norm(values) * grid.step_signal * grid.step_idler
    dropped = np.sum(intensity[cut]) * grid.step_signal * grid.step_idler / norm_squared
    pm_peak = np.max(np.abs(pm_function(device, nu_s, nu_i, "sinc")) ** 2)
    bound = (math.exp(-2.0 * PUMP_CUT) * values.size * pm_peak
             * grid.step_signal * grid.step_idler / norm_squared)
    assert 0.0 < dropped <= bound
    assert dropped < 1e-30


def stray_tiny_parts(values):
    """Real or imaginary parts with |x| < tiny that are not +0: subnormals and -0."""
    parts = values.view(float)
    return int(np.count_nonzero((np.abs(parts) < np.finfo(float).tiny)
                                & ((parts != 0) | np.signbit(parts))))


@pytest.mark.parametrize("preset", ["none", "g12", "sg40"])
def test_built_and_filtered_amplitudes_hold_no_subnormal(bundled_config, device,
                                                         unfiltered_jsa, filter_base_jsa,
                                                         preset):
    """The bundled amplitude held 37,571 subnormal parts before they were flushed."""
    if preset == "none":
        jsa = unfiltered_jsa
    else:
        jsa, _ = apply_filter(filter_base_jsa,
                              cfgmod.filter_preset(preset, device, bundled_config))
    assert stray_tiny_parts(jsa.values) == 0


def test_filter_zeros_are_stored_as_positive_zero():
    """A rectangular filter times a negative part gives -0, which is stored as +0."""
    jsa = chirped_jsa()
    assert np.any(jsa.values.view(float) < 0)
    out, _ = apply_filter(jsa, FilterSpec(shape="rectangular", bandwidth=2.0))
    assert np.any(out.values == 0)
    assert stray_tiny_parts(out.values) == 0


def test_build_peak_memory_near_the_result(bundled_config, device, pump):
    """The bundled 2048^2 build allocates only row blocks besides its result: under 4 MiB.

    The result lies in demand-zero pages that tracemalloc does not see, so the
    peak is the temporaries alone (a dense build with full meshes allocates
    4.5x the 64 MiB result, one with an n^2 |f|^2 array 1.5x).
    """
    grid = cfgmod.grid_from_config(bundled_config)
    _, peak = traced_peak(build_jsa, device, pump, grid,
                          cfgmod.approximation_from_config(bundled_config))
    assert peak < 4 * 2**20


def test_filter_peak_memory_near_the_result(bundled_config, device, filter_base_jsa):
    """Filtering allocates only row blocks and band blocks besides its result: under 4 MiB.

    The result lies in demand-zero pages that tracemalloc does not see (an n^2
    |f|^2 array for the transmission alone would be 8 MiB here).
    """
    filt = cfgmod.filter_preset("sg40", device, bundled_config)
    _, peak = traced_peak(apply_filter, filter_base_jsa, filt)
    assert peak < 4 * 2**20


RESIDENCY_SCRIPT = """
import sys

import numpy as np

from twinpdc import build_jsa
from twinpdc import config as cfgmod
from twinpdc.jsa import dump_grid, load_grid


def rss_mib():
    with open("/proc/self/status") as fh:
        kib = next(int(line.split()[1]) for line in fh if line.startswith("VmRSS:"))
    return kib / 1024


cfg = cfgmod.load_config(cfgmod.default_config_path())
args = (cfgmod.device_from_config(cfg), cfgmod.pump_from_config(cfg),
        cfgmod.grid_from_config(cfg), cfgmod.approximation_from_config(cfg))
before = rss_mib()
jsa = build_jsa(*args)
built = rss_mib()
jsa.norm_squared()
np.abs(jsa.values).max()
read = rss_mib()
dump_grid(jsa, sys.argv[1])
dumped = rss_mib()
back = load_grid(sys.argv[1])
loaded = rss_mib()
print(built - before, read - built, loaded - dumped)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs VmRSS in /proc")
def test_only_the_band_becomes_resident(tmp_path):
    """The bundled 2048^2 amplitude (64 MiB dense) is 5.5% nonzero.

    In a fresh interpreter, its build and the load of its dump each grow the
    resident set by under 0.35x the dense size, and reading every cell grows
    it by under 2 MiB: no code writes outside the band.
    """
    src = str(Path(twinpdc.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", RESIDENCY_SCRIPT, str(tmp_path / "grid.txt")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    built, read, loaded = map(float, proc.stdout.split())
    assert built < 0.35 * 64
    assert read < 2
    assert loaded < 0.35 * 64


@pytest.mark.skipif(not (Path("/proc/self/smaps").exists() and hasattr(mmap, "MADV_NOHUGEPAGE")),
                    reason="needs /proc/self/smaps and mmap.MADV_NOHUGEPAGE")
def test_grids_are_advised_against_huge_pages():
    """A grid's map carries the no-huge-page flag (nh), so a written cell makes one 4 KiB
    page resident, not 2 MiB, whatever the host's transparent huge page mode."""
    values = _zero_grid(64, 64)
    address, flags = values.ctypes.data, None
    with open("/proc/self/smaps") as fh:
        for line in fh:
            head = line.split(None, 1)[0]
            if "-" in head and not head.endswith(":"):  # "start-end perms ..." opens a map
                start, end = (int(x, 16) for x in head.split("-"))
                inside = start <= address < end
            elif head == "VmFlags:" and inside:
                flags = line.split()[1:]
    assert flags is not None and "nh" in flags


FAULTS_SCRIPT = """
import resource

from twinpdc import build_jsa, spectral_overlap
from twinpdc import config as cfgmod
from twinpdc.jsa import FrequencyGrid, marginals

cfg = cfgmod.load_config(cfgmod.default_config_path())
grid = cfgmod.grid_from_config(cfg)
doubled = FrequencyGrid.square(2 * grid.n_s - 1, grid.span_s)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
jsa = build_jsa(cfgmod.device_from_config(cfg), cfgmod.pump_from_config(cfg), doubled,
                cfgmod.approximation_from_config(cfg))
jsa.norm_squared()
jsa.check_normalized()
marginals(jsa)
spectral_overlap(jsa)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, jsa.values.nbytes)
"""


def test_no_reader_maps_a_zero_page():
    """The 4095^2 doubling grid (65,504 pages of 4 KiB) is 5.6% nonzero.

    In a fresh interpreter, its build, norm_squared, check_normalized,
    marginals and spectral_overlap take under half as many minor page faults
    as the grid has pages: no pass reads outside the band, so the pages never
    written are not even mapped to the kernel's zero page (a dense read of
    the grid took 80k faults, the banded passes take 21k).  Where transparent
    huge pages are set to "always", a dense read may map huge zero pages and
    take fewer faults too, so the bound is an upper bound only.
    """
    src = str(Path(twinpdc.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", FAULTS_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    faults, nbytes = map(int, proc.stdout.split())
    assert faults < 0.5 * nbytes / 4096


def test_norm_of_bundled_grid_allocates_under_2_mib(unfiltered_jsa):
    """norm_squared reads |f|^2 one row block at a time; an n^2 |f|^2 array would be 32 MiB."""
    _, peak = traced_peak(unfiltered_jsa.norm_squared)
    assert peak < 2 * 2**20


def test_row_reductions_keep_their_bits_across_tile_sizes(monkeypatch, bundled_config,
                                                         device, filter_base_jsa):
    """The norm, the filter transmission and both marginals do not depend on BLOCK_ROWS,
    and the marginals have the bits of the dense row and column sums of |f|^2."""
    filt = cfgmod.filter_preset("sg40", device, bundled_config)
    grid = filter_base_jsa.grid

    def reductions():
        # built by hand, so its band is found in blocks of the current BLOCK_ROWS
        jsa = JointAmplitude(grid=grid, values=filter_base_jsa.values, normalized=True)
        sig, idl = marginals(jsa)
        return np.array([jsa.norm_squared(), apply_filter(jsa, filt)[1]]), sig, idl
    default = reductions()
    monkeypatch.setattr("twinpdc.jsa.BLOCK_ROWS", 3)
    assert all(map(same_bits, reductions(), default))
    intensity = np.abs(filter_base_jsa.values) ** 2
    assert same_bits(default[1], intensity.sum(axis=1) * grid.step_idler)
    assert same_bits(default[2], intensity.sum(axis=0) * grid.step_signal)


def same_band(a, b):
    return (np.array_equal(a.first, b.first) and np.array_equal(a.end, b.end)
            and a.blocks == b.blocks)


def doubling_grid(bundled_config):
    """The 4095^2 grid of the doubling check: odd width, and its first window stops at n_i."""
    grid = cfgmod.grid_from_config(bundled_config)
    return FrequencyGrid.square(2 * grid.n_s - 1, grid.span_s)


@pytest.mark.parametrize("case", ["bundled", "filtered-span", "doubled"])
def test_built_band_equals_the_dense_scan(bundled_config, device, pump, case):
    """build_jsa seeds its band from its evaluation windows, with the dense scan's bits."""
    grid = {"bundled": cfgmod.grid_from_config(bundled_config),
            "filtered-span": FrequencyGrid.square(2048, thz_to_angular(6.0)),
            "doubled": doubling_grid(bundled_config)}[case]
    jsa = build_jsa(device, pump, grid, cfgmod.approximation_from_config(bundled_config))
    assert "band" in vars(jsa)  # seeded, not found on first use
    assert same_band(jsa.band, _find_band(jsa.values))
    if case == "doubled":
        assert jsa.band.blocks[0][1].stop == grid.n_i


@pytest.mark.parametrize("case", ["g12", "sg40", "idler-only", "flushed-tails"])
def test_filtered_band_equals_the_dense_scan(bundled_config, device, filter_base_jsa, case):
    """apply_filter seeds its band from its input's band blocks; where the filter's tails
    flush to +0, the band shrinks."""
    if case in ("g12", "sg40"):
        filt = cfgmod.filter_preset(case, device, bundled_config)
    elif case == "idler-only":
        filt = FilterSpec("gaussian", bandwidth=10.0, center=2.0, applies_to="idler")
    else:
        filt = FilterSpec("supergaussian", bandwidth=10.0, order=8)
    out, _ = apply_filter(filter_base_jsa, filt)
    assert "band" in vars(out)
    assert same_band(out.band, _find_band(out.values))
    if case == "flushed-tails":
        def cells(band):
            return sum((rows.stop - rows.start) * (cols.stop - cols.start)
                       for rows, cols in band.blocks)
        assert cells(out.band) < 0.5 * cells(filter_base_jsa.band)


def test_loaded_band_equals_the_dense_scan(tmp_path, device, pump):
    """load_grid seeds its band from each block's hull of the file's first:end: a +0 cell
    at a row's band edge stays out of the band, and a row's band widened in the file to
    a -0 cell in the last column, with +0 cells before it, reaches that column."""
    jsa = build_jsa(device, pump, FrequencyGrid(128, 160, 6.0, 6.0))
    n_i, first, end = jsa.grid.n_i, jsa.band.first, jsa.band.end
    edge, outside = 40, 100  # rows whose bands start past the first and end before the last column
    assert first[edge] > 0 and jsa.values[edge, first[edge] + 1] != 0 and end[outside] < n_i
    path = tmp_path / "grid.npy"
    dump_grid(jsa, path)
    arrays = dumped_arrays(path.read_bytes())
    starts = np.concatenate(([0], np.cumsum(np.maximum(end - first, 0))))
    arrays[5][starts[edge]] = 0.0
    widened = np.zeros(n_i - end[outside], dtype=complex)
    widened[-1] = complex(-0.0, 0.0)
    arrays[5] = np.insert(arrays[5], starts[outside + 1], widened)
    arrays[4][outside] = n_i
    path.write_bytes(dump_bytes(arrays))
    back = load_grid(path)
    assert "band" in vars(back)
    assert same_band(back.band, _find_band(back.values))
    assert back.band.first[edge] == first[edge] + 1 and back.band.end[outside] == n_i
    expected = jsa.values.copy()
    expected[edge, first[edge]], expected[outside, -1] = 0.0, complex(-0.0, 0.0)
    assert same_bits(back.values, expected)


@pytest.fixture(scope="module")
def doubled_jsa(bundled_config, device, pump):
    return build_jsa(device, pump, doubling_grid(bundled_config),
                     cfgmod.approximation_from_config(bundled_config))


@pytest.mark.parametrize("case", ["zero-blocks", "doubled"])
def test_band_reductions_keep_the_dense_bits(doubled_jsa, case):
    """norm_squared, marginals and the filter transmission read only the band's blocks
    and keep the bits of the row and column sums of the dense np.abs(values) ** 2: on an
    odd-width amplitude built by hand, with whole blocks of +0, and on the 4095^2 grid."""
    jsa = ragged_band_jsa(n_i=221) if case == "zero-blocks" else doubled_jsa
    g = jsa.grid
    if case == "zero-blocks":
        assert len(jsa.band.blocks) < -(-g.n_s // BLOCK_ROWS)
    intensity = np.abs(jsa.values) ** 2
    rows, cols = intensity.sum(axis=1), intensity.sum(axis=0)
    del intensity
    assert jsa.norm_squared() == float(np.sum(rows) * jsa.cell_area)
    np.full(g.n_s, np.nan)  # freed at once, so a signal marginal left unwritten reads NaN
    sig, idl = marginals(jsa)
    assert same_bits(sig, rows * g.step_idler)
    assert same_bits(idl, cols * g.step_signal)
    filt = FilterSpec("gaussian", bandwidth=0.5 * g.span_s, center=0.1 * g.span_s)
    amp_s, amp_i = filt.amplitude(g.axis_signal), filt.amplitude(g.axis_idler)
    slabs = [slice(k, k + 1024) for k in range(0, g.n_s, 1024)]  # rows summed whole
    weights = np.concatenate([np.sum(np.abs(jsa.values[r] * amp_s[r, None] * amp_i) ** 2,
                                     axis=1) for r in slabs])
    assert apply_filter(jsa, filt)[1] == float(np.sum(weights) * jsa.cell_area)


def test_bundled_device_linewidth_and_marginals(unfiltered_jsa):
    """The marginals integrate to 1; the bands on the linewidth, the width ratio and
    the marginal widths and centres are CRITERIA rows (test_acceptance)."""
    sig, idl = marginals(unfiltered_jsa)
    assert np.sum(sig) * unfiltered_jsa.grid.step_signal == pytest.approx(1.0, abs=1e-9)
    assert np.sum(idl) * unfiltered_jsa.grid.step_idler == pytest.approx(1.0, abs=1e-9)


# --- filters ----------------------------------------------------------------

def test_identity_rectangular_filter():
    jsa = separable_jsa()
    filt = FilterSpec(shape="rectangular", bandwidth=1e6)
    out, transmitted = apply_filter(jsa, filt)
    assert transmitted == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(out.values - jsa.values)) < 1e-12


def test_zero_transmission_filter_raises():
    """A filter that transmits none of the intensity raises before it renormalizes."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ResolutionError, match="transmits none"):
            apply_filter(separable_jsa(n=64, span=40.0),
                         FilterSpec("rectangular", 3.0, center=35.0))


def test_far_detuned_filter_flagged():
    jsa = separable_jsa(width_s=0.5, width_i=0.5)
    filt = FilterSpec(shape="gaussian", bandwidth=0.4, center=4.5)
    with pytest.warns(UserWarning, match="transmits only"):
        out, transmitted = apply_filter(jsa, filt)
    assert transmitted < 1e-6
    assert out.norm_squared() == pytest.approx(1.0, abs=1e-9)


def test_filter_renormalizes():
    jsa = separable_jsa()
    out, transmitted = apply_filter(jsa, FilterSpec(shape="gaussian", bandwidth=1.0))
    assert 0.0 < transmitted < 1.0
    assert out.norm_squared() == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("preset", ["g12", "sg40"])
def test_filter_matches_dense_reference_bits(bundled_config, device, filter_base_jsa, preset):
    """In-place filtering gives the bits of the product written out in full, flushed."""
    filt = cfgmod.filter_preset(preset, device, bundled_config)
    grid = filter_base_jsa.grid
    values = (filter_base_jsa.values * filt.amplitude(grid.axis_signal)[:, None]
              * filt.amplitude(grid.axis_idler)[None, :])
    transmitted = float(row_sum_norm(values) * filter_base_jsa.cell_area)
    out, fraction = apply_filter(filter_base_jsa, filt)
    assert fraction == transmitted
    assert same_bits(out.values, flushed(values / math.sqrt(transmitted)))


def ragged_band_jsa(n_s=300, n_i=220, seed=11):
    """A normalized random amplitude with an irregular band: a ridge whose reach changes row
    by row, a run of rows of +0 longer than a block, one stray cell far off the ridge,
    and -0 and subnormal parts inside the band."""
    rng = np.random.default_rng(seed)
    grid = FrequencyGrid(n_s, n_i, 3.0, 2.5)
    values = np.zeros((n_s, n_i), dtype=complex)
    for row in range(n_s):
        if 90 <= row < 170:
            continue
        center = round((n_s - 1 - row) * (n_i - 1) / (n_s - 1))
        lo, hi = max(center - rng.integers(0, 40), 0), min(center + rng.integers(1, 40), n_i)
        values[row, lo:hi] = rng.standard_normal((hi - lo, 2)).view(complex)[:, 0]
    values[250, 3] = 0.5 - 0.25j
    values[20, 190:193] = [complex(-0.0, 1.0), complex(1e-310, -0.0), complex(-1e-312, 2.0)]
    values /= math.sqrt(row_sum_norm(values) * grid.step_signal * grid.step_idler)
    return JointAmplitude(grid=grid, values=values, normalized=True)


@pytest.mark.parametrize("applies_to", ["signal", "idler", "both"])
@pytest.mark.parametrize("shape", ["gaussian", "rectangular"])
def test_banded_filter_matches_dense_formula_bits(applies_to, shape):
    """Filtering only the band's blocks gives the bits of the dense formula on the whole grid."""
    jsa = ragged_band_jsa()
    filt = FilterSpec(shape=shape, bandwidth=2.0, center=0.3, applies_to=applies_to)
    values = jsa.values
    if applies_to in ("signal", "both"):
        values = values * filt.amplitude(jsa.grid.axis_signal)[:, None]
    if applies_to in ("idler", "both"):
        values = values * filt.amplitude(jsa.grid.axis_idler)[None, :]
    transmitted = float(row_sum_norm(values) * jsa.cell_area)
    out, fraction = apply_filter(jsa, filt)
    assert fraction == transmitted
    assert same_bits(out.values, flushed(values / math.sqrt(transmitted)))


def test_filter_single_axis_only_touches_that_axis():
    jsa = separable_jsa(width_s=1.0, width_i=1.0)
    out, _ = apply_filter(jsa, FilterSpec(shape="gaussian", bandwidth=1.0,
                                          applies_to="signal"))
    sig0, idl0 = marginals(jsa)
    sig1, idl1 = marginals(out)
    w0, _ = fwhm(jsa.grid.axis_signal, sig0)
    w1, _ = fwhm(out.grid.axis_signal, sig1)
    assert w1 < 0.8 * w0
    wi0, _ = fwhm(jsa.grid.axis_idler, idl0)
    wi1, _ = fwhm(out.grid.axis_idler, idl1)
    assert wi1 == pytest.approx(wi0, rel=1e-9)  # untouched axis


def test_supergaussian_amplitude_fwhm_convention():
    for order in (1, 2, 4):
        filt = FilterSpec(shape="supergaussian" if order > 1 else "gaussian",
                          bandwidth=2.0, order=order)
        # intensity = amplitude^2 falls to 1/2 exactly at +- bandwidth/2
        assert filt.amplitude(1.0) ** 2 == pytest.approx(0.5, rel=1e-12)
        assert filt.amplitude(-1.0) ** 2 == pytest.approx(0.5, rel=1e-12)


def test_filter_rejects_amplitude_marked_normalized_but_not():
    jsa = separable_jsa()
    bad = JointAmplitude(grid=jsa.grid, values=2.0 * jsa.values, normalized=True)
    with pytest.raises(ContractError, match="normalization off"):
        apply_filter(bad, FilterSpec(shape="gaussian", bandwidth=1.0))


def test_too_narrow_filter_rejected():
    jsa = separable_jsa(n=64)
    step = jsa.grid.step_signal
    with pytest.raises(ResolutionError):
        apply_filter(jsa, FilterSpec(shape="gaussian", bandwidth=1.5 * step))


# --- marginals / linewidth helpers ------------------------------------------

def test_separable_marginal_width_matches_construction():
    width = 1.3
    jsa = separable_jsa(n=256, span=6.0, width_s=width, width_i=width)
    sig, _ = marginals(jsa)
    w, _ = fwhm(jsa.grid.axis_signal, sig)
    # intensity of exp(-(nu/w)^2) has FWHM w*sqrt(2 ln 2)
    assert w == pytest.approx(width * math.sqrt(2 * math.log(2)),
                              abs=jsa.grid.step_signal)


def test_fwhm_raises_without_crossing():
    x = np.linspace(0, 1, 64)
    with pytest.raises(RangeError):
        fwhm(x, np.ones_like(x))


def test_linewidth_arc_length_definition():
    # an isotropic Gaussian has the same cut width in any direction, and the
    # radial parameterization makes it the 1-D intensity FWHM
    width = 0.9
    jsa = separable_jsa(n=512, span=5.0, width_s=width, width_i=width)
    expected = width * math.sqrt(2 * math.log(2))
    for axis in ("antidiagonal", "diagonal"):
        assert jsi_linewidth(jsa, axis) == pytest.approx(expected, abs=0.02)


# --- grid dump roundtrip -----------------------------------------------------

def dumped_arrays(data):
    """The six arrays of a grid dump's bytes, in file order."""
    fh = io.BytesIO(data)
    return [np.load(fh, allow_pickle=False) for _ in range(6)]


def dump_bytes(arrays):
    """The bytes of a grid dump of the given arrays; object arrays are pickled into it."""
    fh = io.BytesIO()
    for array in arrays:
        np.save(fh, array, allow_pickle=True)
    return fh.getvalue()


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def assert_round_trips(jsa, path, header_lines=()):
    """Two dumps have the same bytes, and the load has the grid, the flag and the bits of
    the amplitude, with its band seeded and equal to the dense scan of the loaded values."""
    dump_grid(jsa, path, header_lines)
    written = path.read_bytes()
    dump_grid(jsa, path, header_lines)
    assert path.read_bytes() == written
    back = load_grid(path)
    assert back.grid == jsa.grid and back.normalized == jsa.normalized
    assert same_bits(back.values, jsa.values)
    assert "band" in vars(back)
    assert same_band(back.band, _find_band(back.values))
    return back


def test_hand_made_band_round_trips_bit_for_bit(tmp_path):
    """Rows of +0, -0 and subnormal parts, +0 inside a band and cells on both band edges:
    the file holds the band's bounds and only its cells, and loads back bit for bit."""
    values = np.zeros((7, 9), dtype=complex)
    values[0, 0] = complex(-0.0, 0.0)  # -0 alone holds a band of one cell
    values[2, 3], values[2, 6] = complex(5e-324, -5e-324), complex(0.0, -0.0)
    values[2, 5] = 0.25  # +0 at column 4 inside the band 3:7
    values[5, 8], values[6, 0], values[6, 8] = 1.5 - 2.0j, -1e-300, 3.0
    jsa = JointAmplitude(grid=FrequencyGrid(7, 9, 1.0, 2.0), values=values)
    assert jsa.band.first.tolist() == [0, 9, 3, 9, 9, 8, 0]
    assert jsa.band.end.tolist() == [1, 0, 7, 0, 0, 9, 9]
    path = tmp_path / "grid.npy"
    back = assert_round_trips(jsa, path, header_lines=["edges"])
    header, spans, sizes, first, end, cells = dumped_arrays(path.read_bytes())
    assert header.tolist() == ["edges", DUMP_LAYOUT]
    assert spans.tolist() == [1.0, 2.0] and sizes.tolist() == [7, 9, 0]
    assert first.tolist() == jsa.band.first.tolist() and end.tolist() == jsa.band.end.tolist()
    assert same_bits(cells, np.concatenate([values[0, :1], values[2, 3:7], values[5, 8:],
                                            values[6]]))
    assert same_band(back.band, jsa.band)


def test_dump_and_load_roundtrip(tmp_path, bundled_config, device, pump, filter_base_jsa):
    """A separable and a chirped amplitude, a sinc build, a build whose rows are cut at the
    pump band on both sides, and an sg40 filter output."""
    sinc = build_jsa(device, pump, FrequencyGrid(48, 64, 2.0, 3.0))
    cut = build_jsa(device, pump, FrequencyGrid(128, 160, 6.0, 6.0))
    assert np.any(cut.band.first > 0) and np.any(cut.band.end < cut.grid.n_i)
    sg40, _ = apply_filter(filter_base_jsa, cfgmod.filter_preset("sg40", device, bundled_config))
    for jsa in (separable_jsa(n=32, span=3.0), chirped_jsa(), sinc, cut, sg40):
        back = assert_round_trips(jsa, tmp_path / "grid.npy", header_lines=["a", "b c"])
        assert back.normalized
        assert same_band(back.band, jsa.band)


def reference_dump(jsa, path, header_lines=()):
    """dump_grid's file written from a dense per-row scan of the values: a row's band runs
    from its first to past its last cell that is not +0 in either part, and is n_i:0 for a
    row of +0."""
    g, values = jsa.grid, jsa.values
    first, end, cells = [], [], []
    for row in values:
        kept = np.flatnonzero(np.any(row.view(np.uint64).reshape(-1, 2) != 0, axis=1))
        lo, hi = (int(kept[0]), int(kept[-1]) + 1) if kept.size else (g.n_i, 0)
        first.append(lo)
        end.append(hi)
        cells.extend(row[lo:hi].tolist())
    arrays = [np.array([*header_lines, DUMP_LAYOUT]), np.array([g.span_s, g.span_i]),
              np.array([g.n_s, g.n_i, int(jsa.normalized)], dtype=np.int64),
              np.array(first, dtype=np.int64), np.array(end, dtype=np.int64),
              np.array(cells, dtype=complex)]
    with open(path, "wb") as fh:
        for array in arrays:
            np.save(fh, array, allow_pickle=False)


def test_dump_matches_reference_writer_bytes(tmp_path, device, pump):
    sinc = build_jsa(device, pump, FrequencyGrid(48, 64, 2.0, 3.0))
    cut = build_jsa(device, pump, FrequencyGrid(128, 160, 6.0, 6.0))
    assert np.any(cut.band.first > 0) and np.any(cut.band.end < cut.grid.n_i)
    for jsa in (separable_jsa(n=32, span=3.0), chirped_jsa(), sinc, cut):
        dump_grid(jsa, tmp_path / "fast.npy", header_lines=["a", "b c"])
        reference_dump(jsa, tmp_path / "ref.npy", header_lines=["a", "b c"])
        assert (tmp_path / "fast.npy").read_bytes() == (tmp_path / "ref.npy").read_bytes()


EDGE_DOUBLES = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7976931348623157e308]
FINITE_DOUBLES = st.one_of(st.sampled_from(EDGE_DOUBLES),
                           st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=60, deadline=None)
@given(n_s=st.integers(2, 6), n_i=st.integers(2, 6), data=st.data())
def test_dump_load_bit_exact_property(tmp_path_factory, n_s, n_i, data):
    """Any finite grid, the extreme and signed-zero doubles included, round-trips."""
    n = 2 * n_s * n_i
    flat = EDGE_DOUBLES + data.draw(st.lists(FINITE_DOUBLES, min_size=n - len(EDGE_DOUBLES),
                                             max_size=n - len(EDGE_DOUBLES)))
    pairs = np.array(data.draw(st.permutations(flat)), dtype=float).reshape(n_s, 2 * n_i)
    spans = st.floats(min_value=1e-6, max_value=1e6)
    grid = FrequencyGrid(n_s, n_i, data.draw(spans), data.draw(spans))
    jsa = JointAmplitude(grid=grid, values=pairs.view(complex))
    back = assert_round_trips(jsa, tmp_path_factory.mktemp("grid") / "grid.npy")
    assert not back.normalized


def _edit(k, change):
    """An edit of a dump's bytes that replaces its array k by change(array k)."""
    def edit(data):
        arrays = dumped_arrays(data)
        arrays[k] = change(arrays[k])
        return dump_bytes(arrays)
    return edit


def _set(k, at, value):
    def change(array):
        array[at] = value
        return array
    return _edit(k, change)


def _band(row, lo, hi):
    """An edit of a dump's bytes that sets one row's band to lo:hi and keeps its cells."""
    def edit(data):
        arrays = dumped_arrays(data)
        arrays[3][row], arrays[4][row] = lo, hi
        return dump_bytes(arrays)
    return edit


def _huge_cells(data):
    """A dump whose last array header claims 2^50 cells: too many to allocate."""
    arrays = dumped_arrays(data)
    fh = io.BytesIO()
    fh.write(dump_bytes(arrays[:5]))
    np.lib.format.write_array_header_1_0(
        fh, {"descr": "<c16", "fortran_order": False, "shape": (2**50,)})
    return fh.getvalue() + arrays[5].tobytes()


TEXT_DUMP = (b"# n_s=2 n_i=3 span_s=3.0 span_i=2.5\n# normalized=True\n"
             b"# units: detuning rad/ps, amplitude (rad/ps)^-1; row-major over (signal, idler); "
             b"one 're im' pair per line\n" + b"0.5 0.25\n" * 6)


@pytest.mark.parametrize("edit", [
    lambda data: data[:-5],
    lambda data: b"",
    lambda data: TEXT_DUMP,
    lambda data: data + b"\0",
    _band(1, 2, 1),
    _band(1, 0, 4),
    _edit(5, lambda cells: np.append(cells, 0.5)),
    _edit(5, lambda cells: cells[:-1]),
    _edit(5, lambda cells: cells.astype(object)),
    _edit(5, lambda cells: cells.astype(str)),
    _edit(5, lambda cells: cells.real.copy()),
    _huge_cells,
    _edit(5, lambda cells: 5.0 * cells),
], ids=["truncated", "blank", "text-dump", "trailing-byte", "first-past-end", "end-past-n_i",
        "extra-value", "missing-value", "object-array", "non-numeric", "real-cells",
        "huge-shape", "mis-normalized"])
def test_load_grid_rejects_malformed_body(tmp_path, edit):
    """Each malformed file exits through ConfigError, which names it.  Row 1 of the
    chirped 2 x 3 amplitude has the band 0:3: first-past-end makes it 2:1 and keeps its
    three cells in the file, end-past-n_i makes it 0:4 with one cell too few."""
    path = tmp_path / "grid.npy"
    jsa = chirped_jsa(2, 3)
    assert jsa.band.first.tolist() == [0, 0] and jsa.band.end.tolist() == [3, 3]
    dump_grid(jsa, path)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(ConfigError) as exc:
        load_grid(path)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("edit", [
    _edit(2, lambda sizes: sizes.astype(float)),
    _edit(2, lambda sizes: sizes[:2]),
    _set(1, 0, math.nan),
    _set(2, 2, 2),
], ids=["non-integer", "missing-field", "nan-span", "flag-2"])
def test_load_grid_rejects_malformed_header(tmp_path, edit):
    path = tmp_path / "grid.npy"
    dump_grid(chirped_jsa(2, 3), path)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(ConfigError) as exc:
        load_grid(path)
    assert str(path) in str(exc.value)


def test_grid_convergence_of_overlap(doubling_overlap_pair):
    """Doubling the resolution moves the unfiltered overlap by < 1e-3."""
    o1, o2 = doubling_overlap_pair
    assert abs(o1 - o2) < 1e-3
