"""Shared fixtures: the bundled device and cached heavy artifacts."""
import tracemalloc

import numpy as np
import pytest

from twinpdc import build_jsa
from twinpdc import config as cfgmod
from twinpdc.jsa import FrequencyGrid
from twinpdc.report import ReportInputs
from twinpdc.units import thz_to_angular


@pytest.fixture(scope="session")
def bundled_config():
    return cfgmod.load_config(cfgmod.default_config_path())


@pytest.fixture(scope="session")
def device(bundled_config):
    return cfgmod.device_from_config(bundled_config)


@pytest.fixture(scope="session")
def pump(bundled_config):
    return cfgmod.pump_from_config(bundled_config)


@pytest.fixture(scope="session")
def report_inputs(bundled_config):
    """The report's lazily built artifacts, shared by every test that needs them."""
    return ReportInputs(bundled_config)


@pytest.fixture(scope="session")
def unfiltered_jsa(report_inputs):
    """Full-resolution unfiltered joint amplitude from the bundled config."""
    return report_inputs.unfiltered


@pytest.fixture(scope="session")
def unfiltered_schmidt(report_inputs):
    return report_inputs.schmidt


@pytest.fixture(scope="session")
def doubling_overlap_pair(report_inputs):
    """Unfiltered |O| at the configured resolution and with the step halved."""
    return report_inputs.unfiltered_overlap, report_inputs.doubled_overlap


@pytest.fixture(scope="session")
def filter_base_jsa(bundled_config, device, pump):
    """Mid-resolution amplitude on a +-6 THz span (cheap SVDs), a grid distinct from
    the config's: at +-12 THz, 1024 points fail the resolution check."""
    grid = FrequencyGrid.square(1024, thz_to_angular(6.0))
    return build_jsa(device, pump, grid,
                     cfgmod.approximation_from_config(bundled_config))


def gaussian_mode(nu, center, width):
    """Normalized Gaussian mode function on a discrete axis."""
    g = np.exp(-((nu - center) / width) ** 2)
    return g / np.sqrt(np.sum(np.abs(g) ** 2) * (nu[1] - nu[0]))


def separable_jsa(n=128, span=5.0, width_s=1.0, width_i=1.0, center_s=0.0,
                  center_i=0.0):
    """Rank-1 product Gaussian amplitude, normalized on its grid."""
    from twinpdc import JointAmplitude

    grid = FrequencyGrid.square(n, span)
    gs = gaussian_mode(grid.axis_signal, center_s, width_s)
    gi = gaussian_mode(grid.axis_idler, center_i, width_i)
    values = np.outer(gs, gi).astype(complex)
    norm = np.sqrt(np.sum(np.abs(values) ** 2) * grid.step_signal * grid.step_idler)
    return JointAmplitude(grid=grid, values=values / norm, normalized=True)


def chirped_jsa(n_s=24, n_i=40, span_s=3.0, span_i=2.5):
    """Normalized non-separable complex amplitude, by default on a non-square grid."""
    from twinpdc import JointAmplitude

    grid = FrequencyGrid(n_s, n_i, span_s, span_i)
    nu_s, nu_i = np.meshgrid(grid.axis_signal, grid.axis_idler, indexing="ij")
    values = np.exp(-(nu_s + nu_i) ** 2 - 0.3 * (nu_s - nu_i) ** 2 + 1j * nu_s * nu_i)
    values /= np.sqrt(np.sum(np.abs(values) ** 2) * grid.step_signal * grid.step_idler)
    return JointAmplitude(grid=grid, values=values, normalized=True)


def traced_peak(func, *args):
    """(result, peak bytes that tracemalloc saw allocated while func ran)."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        result = func(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak
