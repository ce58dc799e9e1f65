"""End-to-end verification report on the bundled (or a user) configuration.

CRITERIA is the one table of acceptance criteria: each row names a headline
number, its allowed band and the evaluator that computes it from a lazily
built ReportInputs.  The rows chain the joint-amplitude build, the overlap
evaluations, the Schmidt decomposition, the visibility identities, the fit
round trips and the estimator Monte Carlo.  The `report` CLI command walks
the table and the acceptance tests parametrize over it.
"""
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import config as cfgmod
from .dispersion import pm_tilt_deviation
from .jsa import FrequencyGrid, apply_filter, build_jsa, fwhm, jsi_linewidth, marginals
from .montecarlo import (SimConfig, efficiency_sweep, equal_mode_spectrum, simulate,
                         zero_power_efficiencies)
from .schmidt import (decompose, delay_compensated_overlap, gain_for_mean_n,
                      schmidt_spectral_overlap, spectral_overlap)
from .twinstats import (DetectionSpec, glauber, mean_n_from_cross, visibility_approx,
                        visibility_full)
from .fit import fit_overlap, points_from_arrays
from .units import angular_bandwidth_to_nm, angular_to_thz, thz_to_wavelength_nm

ESTIMATOR_MEAN_N = (0.1, 0.25, 0.5)
ESTIMATOR_ETA = (0.02, 0.03, 0.04)
ESTIMATOR_MODES = (1, 4, 20)
SWEEP_MEAN_N = (0.05, 0.1, 0.15, 0.2, 0.3, 0.4)
SWEEP_ETA = {"signal": 0.060, "idler": 0.056}
FIT_MEAN_N = np.linspace(0.05, 0.5, 12)
FIT_SIGMA_V = 0.01
FIT_TARGETS = (0.95, 0.816)
NOISY_FITS = 100


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    low: float
    high: float

    @property
    def passed(self) -> bool:
        return self.low <= self.value <= self.high

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.name}: {self.value:.6g} "
                f"(allowed {self.low:g} .. {self.high:g})")


@dataclass(frozen=True)
class JsiGeometry:
    """Anti-diagonal JSI linewidth and each marginal density with its (width, center)."""

    linewidth: float        # rad/ps
    linewidth_nm: float
    signal: tuple           # (FWHM nm, center nm)
    idler: tuple
    marginals: tuple = field(repr=False, compare=False)  # (signal, idler) densities


def jsi_geometry(device, jsa_obj) -> JsiGeometry:
    """Linewidth and marginal bands of an amplitude, in wavelength units."""
    lw = jsi_linewidth(jsa_obj, "antidiagonal")
    f_deg = angular_to_thz(device.pump_center) / 2.0
    sig, idl = marginals(jsa_obj)
    bands = []
    for axis, dens in ((jsa_obj.grid.axis_signal, sig), (jsa_obj.grid.axis_idler, idl)):
        width, center = fwhm(axis, dens)
        f_lo = f_deg + angular_to_thz(center - width / 2.0)
        f_hi = f_deg + angular_to_thz(center + width / 2.0)
        bands.append((thz_to_wavelength_nm(f_lo) - thz_to_wavelength_nm(f_hi),
                      thz_to_wavelength_nm(f_deg + angular_to_thz(center))))
    return JsiGeometry(lw, angular_bandwidth_to_nm(lw, device.degeneracy_wavelength_nm),
                       *bands, (sig, idl))


class ReportInputs:
    """The artifacts the criteria share, each built on first use."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.device = cfgmod.device_from_config(cfg)
        self.pump = cfgmod.pump_from_config(cfg)
        self.approx = cfgmod.approximation_from_config(cfg)
        self.seed = cfgmod.sim_from_config(cfg).seed
        self.gate_rate = cfgmod.gate_rate_from_config(cfg)

    @cached_property
    def unfiltered(self):
        jsa_obj = build_jsa(self.device, self.pump, cfgmod.grid_from_config(self.cfg),
                            self.approx)
        jsa_obj.check_span()
        return jsa_obj

    @cached_property
    def unfiltered_overlap(self) -> float:
        return abs(spectral_overlap(self.unfiltered))

    @cached_property
    def doubled_overlap(self) -> float:
        """|O| with the grid step halved; the 4095^2 grid itself is not kept."""
        grid = self.unfiltered.grid
        doubled = build_jsa(self.device, self.pump,
                            FrequencyGrid.square(2 * grid.n_s - 1, grid.span_s),
                            self.approx)
        return abs(spectral_overlap(doubled))

    def filtered_overlap(self, preset) -> float:
        jsa_obj, _ = apply_filter(self.unfiltered,
                                  cfgmod.filter_preset(preset, self.device, self.cfg))
        return abs(spectral_overlap(jsa_obj))

    @cached_property
    def schmidt(self):
        return decompose(self.unfiltered)

    @cached_property
    def geometry(self) -> JsiGeometry:
        return jsi_geometry(self.device, self.unfiltered)

    @cached_property
    def fit_statistics(self) -> dict:
        """Per target O: (RMS error, fits whose 1-sigma interval covers O)."""
        rng = np.random.default_rng(self.seed)
        sigma = np.full(FIT_MEAN_N.size, FIT_SIGMA_V)
        stats = {}
        for target in FIT_TARGETS:
            exact = visibility_approx(target, FIT_MEAN_N)
            errors, covered = [], 0
            for _ in range(NOISY_FITS):
                noisy = exact + rng.normal(0.0, FIT_SIGMA_V, FIT_MEAN_N.size)
                r = fit_overlap(points_from_arrays(FIT_MEAN_N, noisy, sigma))
                errors.append(r.overlap - target)
                if abs(r.overlap - target) <= r.sigma:
                    covered += 1
            stats[target] = (float(np.sqrt(np.mean(np.square(errors)))), covered)
        return stats

    @cached_property
    def sweep_intercepts(self) -> dict:
        """{arm: (intercept, se)}: zero-power Klyshko efficiency from a 20-mode power sweep."""
        lam = equal_mode_spectrum(20)
        det = DetectionSpec(eta1=SWEEP_ETA["signal"], eta2=SWEEP_ETA["idler"],
                            gate_rate=self.gate_rate)
        base = SimConfig(source=lam, gain=1.0, det=det, n_gates=20_000_000,
                         seed=self.seed + 1000)
        powers = [gain_for_mean_n(n, lam) ** 2 for n in SWEEP_MEAN_N]
        return zero_power_efficiencies(efficiency_sweep(base, powers))


def delay_search_range(device):
    """The signal delays (ps) the delay-compensated overlap searches: +-3 |tau_g|."""
    span = 3.0 * abs(device.group_delay_ps())
    return -span, span


def _delay_compensated(inputs):
    return delay_compensated_overlap(inputs.unfiltered, delay_search_range(inputs.device))[1]


def _balanced_identity(inputs):
    ov, nn = np.meshgrid(np.linspace(0, 1, 100), np.linspace(0, 2, 100))
    return max(float(np.max(np.abs(visibility_full(ov, nn, eta, eta)
                                   - visibility_approx(ov, nn))))
               for eta in (0.31, 0.42))


def _noiseless_fit(inputs):
    exact = visibility_approx(0.95, FIT_MEAN_N)
    res = fit_overlap(points_from_arrays(FIT_MEAN_N, exact,
                                         np.full(FIT_MEAN_N.size, FIT_SIGMA_V)))
    return abs(res.overlap - 0.95)


def _estimator_matrix(inputs):
    """Worst |C/A - G(1,1) / n^2| in sigma units over 27 cells at 1e6 gates.

    G(1,1) / n^2 = 1 + 1/K + 1/n is the cross-correlation of the twin beams.
    """
    worst = 0.0
    cell = 0
    for k_modes in ESTIMATOR_MODES:
        lam = equal_mode_spectrum(k_modes)
        for mean_n in ESTIMATOR_MEAN_N:
            gain = gain_for_mean_n(mean_n, lam)
            for eta in ESTIMATOR_ETA:
                cell += 1
                det = DetectionSpec(eta1=eta, eta2=eta, gate_rate=inputs.gate_rate)
                rec = simulate(SimConfig(source=lam, gain=gain, det=det,
                                         n_gates=1_000_000, seed=inputs.seed + cell))
                est = mean_n_from_cross(rec)
                expected = glauber(mean_n, k_modes, (1, 1)) / mean_n**2
                sigma = est.cross_correlation * math.sqrt(
                    1.0 / rec.coincidences + 1.0 / rec.singles_signal
                    + 1.0 / rec.singles_idler)
                worst = max(worst, abs(est.cross_correlation - expected) / sigma)
    return worst


@dataclass(frozen=True)
class Criterion:
    """One acceptance row: value = evaluate(inputs) must lie in [low, high]."""

    name: str
    low: float
    high: float
    evaluate: Callable[[ReportInputs], float]
    montecarlo: bool = False

    def check(self, inputs) -> CheckResult:
        return CheckResult(self.name, float(self.evaluate(inputs)), self.low, self.high)


# Row order is evaluation order: the grid-doubling row runs before the
# Schmidt modes are cached, so they do not add to the 4095^2 build's peak
# memory; each filtered amplitude is dropped once its overlap is taken.
CRITERIA = (
    Criterion("phasematching tilt deviation (deg)", 0.4, 0.6,
              lambda x: pm_tilt_deviation(x.device)),
    Criterion("unfiltered spectral overlap |O|", 0.24, 0.28,
              lambda x: x.unfiltered_overlap),
    Criterion("overlap change under grid doubling", 0.0, 0.003,
              lambda x: abs(x.doubled_overlap - x.unfiltered_overlap)),
    Criterion("delay-compensated overlap", 0.74, 0.78, _delay_compensated),
    Criterion("anti-diagonal linewidth (nm)", 0.5, 0.7,
              lambda x: x.geometry.linewidth_nm),
    Criterion("diagonal/anti-diagonal width ratio", 100.0, math.inf,
              lambda x: jsi_linewidth(x.unfiltered, "diagonal") / x.geometry.linewidth),
    Criterion("signal marginal width (nm)", 80.0, 100.0, lambda x: x.geometry.signal[0]),
    Criterion("idler marginal width (nm)", 80.0, 100.0, lambda x: x.geometry.idler[0]),
    Criterion("signal marginal center (nm)", 1564.0, 1570.0,
              lambda x: x.geometry.signal[1]),
    Criterion("idler marginal center (nm)", 1532.0, 1538.0,
              lambda x: x.geometry.idler[1]),
    Criterion("12 nm Gaussian overlap", 0.96, 1.0, lambda x: x.filtered_overlap("g12")),
    Criterion("40 nm flat-top overlap", 0.81, 0.85, lambda x: x.filtered_overlap("sg40")),
    Criterion("effective mode number K", 10.0, math.inf, lambda x: x.schmidt.mode_number),
    Criterion("grid vs Schmidt-basis overlap difference", 0.0, 1e-3,
              lambda x: abs(abs(schmidt_spectral_overlap(x.schmidt))
                            - x.unfiltered_overlap)),
    Criterion("balanced full model vs approx (max diff)", 0.0, 1e-12, _balanced_identity),
    Criterion("visibility at O=0, n=0 (offset from 1/3)", 0.0, 0.0,
              lambda x: abs(visibility_approx(0.0, 0.0) - 1.0 / 3.0)),
    Criterion("visibility at O=1, n=0 (offset from 1)", 0.0, 0.0,
              lambda x: abs(visibility_approx(1.0, 0.0) - 1.0)),
    Criterion("noiseless fit round-trip error", 0.0, 1e-6, _noiseless_fit),
    *(row for target in FIT_TARGETS for row in (
        Criterion(f"noisy fit RMS error at O={target}", 0.0, 0.01,
                  lambda x, t=target: x.fit_statistics[t][0]),
        Criterion(f"68% coverage at O={target} (fits of {NOISY_FITS})", 60, 76,
                  lambda x, t=target: x.fit_statistics[t][1]))),
    Criterion("worst |C/A - (1 + 1/K + 1/n)| in sigma units", 0.0, 3.0,
              _estimator_matrix, montecarlo=True),
    *(Criterion(f"extrapolated Klyshko efficiency error, {arm} (pp)", 0.0, 0.2,
                lambda x, a=arm: abs(x.sweep_intercepts[a][0] - SWEEP_ETA[a]) * 100.0,
                montecarlo=True)
      for arm in SWEEP_ETA),
)


def run_report(cfg, include_montecarlo=True, progress=None):
    """Evaluate the CRITERIA rows in order; returns a list of CheckResult."""
    inputs = ReportInputs(cfg)
    results = []
    for criterion in CRITERIA:
        if criterion.montecarlo and not include_montecarlo:
            continue
        if progress is not None:
            progress(criterion.name)
        results.append(criterion.check(inputs))
    return results
