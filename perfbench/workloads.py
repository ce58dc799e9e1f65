"""The benchmark's three workloads: inputs made from a seed, and bodies that check every call.

A body issues its calls one after another, each after the previous one has
returned (a closed loop with one client), through the tracer held by its
`Calls` ledger.  Every call counts as one operation and gets one check.
`prepare(..., small=True)` gives the reduced inputs of the warm-up pass and
of the traced run's probes: the same calls on 256-point grids and fewer gates.
"""
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from twinpdc import (DetectionSpec, FrequencyGrid, SimConfig, apply_filter, build_jsa,
                     decompose, delay_compensated_overlap, density_overlap,
                     efficiency_sweep, equal_mode_spectrum, exact_click_probabilities,
                     extrapolate_zero_power, fit_overlap, fwhm, gain_for_mean_n,
                     jsi_linewidth, klyshko, marginals, mean_n_from_cross,
                     schmidt_spectral_overlap, simulate, spectral_overlap)
from twinpdc import config as cfgmod
from twinpdc.fit import model_visibility, points_from_arrays
from twinpdc.jsa import dump_grid, load_grid
from twinpdc.twinstats import (CountRecord, VisibilityPoint, read_count_records,
                               read_visibility_points, write_count_records,
                               write_visibility_points)
from twinpdc.units import angular_to_thz, thz_to_wavelength_nm

DEVICE_SPECTRUM = Path(__file__).resolve().parent / "device_spectrum.json"

NORM_TOL = 1e-9     # normalization identities
BOUND_TOL = 1e-9    # slack on |O| <= 1, A <= 1/K and O_comp >= |O(0)|
Z = 5.0             # statistical checks, in standard deviations
SMALL_POINTS = 256  # grid points per axis in the reduced pass

MEAN_N = (0.1, 0.25, 0.5)
ETA = (0.02, 0.03, 0.04)
EQUAL_MODES = (1, 4, 20)
UNEQUAL_MODES = 20
DEVICE_MEAN_N = 0.1
SWEEP_MEAN_N = (0.05, 0.1, 0.15, 0.2, 0.3, 0.4)
FIT_TARGETS = (0.95, 0.816)
FIT_MEAN_N = np.linspace(0.05, 0.5, 12)
FIT_SIGMA_V = 0.01


def rng(seed, stream):
    return np.random.default_rng([seed % 2**64, stream])


class Calls:
    """Ledger of one run: issues calls through `tracer` and records failed checks."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failures = []

    def call(self, name, fn, *args, attrs=None, **kwargs):
        self.attempted += 1
        return self.tracer.call(name, fn, *args, attrs=attrs, **kwargs)

    def expect(self, what, ok, value):
        if not ok:
            self.failures.append(f"{what}: {value!r}")


@dataclass(frozen=True)
class Base:
    """What every workload reads from the bundled config."""

    cfg: dict
    device: object
    pump: object
    approx: str
    grid: FrequencyGrid
    fgrid: FrequencyGrid
    det: DetectionSpec


def configure(seed):
    """Load the bundled config; a nonzero seed scales the pump FWHM by up to +-1%."""
    cfg = cfgmod.load_config(cfgmod.default_config_path())
    if seed != 0:
        scale = 1.0 + rng(seed, 0).uniform(-0.01, 0.01)
        cfg["pump"]["fwhm_nm"] = repr(float(cfg["pump"]["fwhm_nm"]) * scale)
    return Base(cfg=cfg, device=cfgmod.device_from_config(cfg),
                pump=cfgmod.pump_from_config(cfg),
                approx=cfgmod.approximation_from_config(cfg),
                grid=cfgmod.grid_from_config(cfg),
                fgrid=cfgmod.grid_from_config(cfg, filtered=True),
                det=cfgmod.detection_from_config(cfg))


def small_grid(base):
    """SMALL_POINTS per axis at the unfiltered grid's step."""
    return FrequencyGrid.square(SMALL_POINTS,
                                base.grid.step_signal * (SMALL_POINTS - 1) / 2.0)


def _norm_err(jsa):
    return abs(jsa.norm_squared() - 1.0)


def _build(calls, base, grid):
    jsa = calls.call("jsa.build_jsa", build_jsa, base.device, base.pump, grid, base.approx,
                     attrs={"cells": grid.n_s * grid.n_i})
    calls.expect(f"build_jsa {grid.n_s}x{grid.n_i} normalization",
                 jsa.normalized and _norm_err(jsa) <= NORM_TOL, _norm_err(jsa))
    return jsa


# ---------------------------------------------------------------------------
# spectral: the n^2 / n^3 work in jsa and schmidt

@dataclass(frozen=True)
class SpectralInputs:
    base: Base
    grid: FrequencyGrid
    doubled: FrequencyGrid
    fgrid: FrequencyGrid
    tau_range: tuple
    g12: object
    sg40: object
    headline: bool         # seed 0 at full size: the headline bands apply
    geometry_on_g12: bool  # the reduced span cuts the unfiltered ridge off


def prepare_spectral(base, seed, small, workdir):
    grid, fgrid = (small_grid(base),) * 2 if small else (base.grid, base.fgrid)
    span = 3.0 * abs(base.device.group_delay_ps())
    return SpectralInputs(
        base=base, grid=grid, doubled=FrequencyGrid.square(2 * grid.n_s - 1, grid.span_s),
        fgrid=fgrid, tau_range=(-span, span),
        g12=cfgmod.filter_preset("g12", base.device, base.cfg),
        sg40=cfgmod.filter_preset("sg40", base.device, base.cfg),
        headline=seed == 0 and not small, geometry_on_g12=small)


def _band(inp, value, lo, hi):
    return not inp.headline or lo <= value <= hi


def _overlap(calls, inp, jsa, what, lo, hi):
    o = abs(calls.call("schmidt.spectral_overlap", spectral_overlap, jsa))
    calls.expect(what, o <= 1.0 + BOUND_TOL and _band(inp, o, lo, hi), o)
    return o


def _geometry(calls, inp, jsa):
    """Marginal FWHMs and JSI linewidths, with the headline bands in nm."""
    device, g = inp.base.device, jsa.grid
    sig, idl = calls.call("jsa.marginals", marginals, jsa)
    calls.expect("marginals integrate to 1",
                 abs(sig.sum() * g.step_signal - 1.0) <= NORM_TOL
                 and abs(idl.sum() * g.step_idler - 1.0) <= NORM_TOL,
                 (sig.sum() * g.step_signal, idl.sum() * g.step_idler))
    f_deg = angular_to_thz(device.pump_center) / 2.0

    def nm(nu):
        return thz_to_wavelength_nm(f_deg + angular_to_thz(nu))

    for arm, axis, dens, centers in (("signal", g.axis_signal, sig, (1564.0, 1570.0)),
                                     ("idler", g.axis_idler, idl, (1532.0, 1538.0))):
        width, center = calls.call("jsa.fwhm", fwhm, axis, dens)
        width_nm, center_nm = nm(center - width / 2) - nm(center + width / 2), nm(center)
        calls.expect(f"{arm} marginal FWHM and center (nm)",
                     0.0 < width < axis[-1] - axis[0] and axis[0] < center < axis[-1]
                     and _band(inp, width_nm, 80.0, 100.0)
                     and _band(inp, center_nm, *centers), (width_nm, center_nm))
    anti = calls.call("jsa.jsi_linewidth", jsi_linewidth, jsa, "antidiagonal")
    anti_nm = angular_to_thz(anti) * device.degeneracy_wavelength_nm**2 / 299792.458
    calls.expect("anti-diagonal linewidth (nm)", anti > 0.0 and _band(inp, anti_nm, 0.5, 0.7),
                 anti_nm)
    diag = calls.call("jsa.jsi_linewidth", jsi_linewidth, jsa, "diagonal")
    calls.expect("diagonal/anti-diagonal width ratio",
                 diag > 0.0 and _band(inp, diag / anti, 100.0, math.inf), diag / anti)


def spectral_body(inp, calls):
    base = inp.base
    unf = _build(calls, base, inp.grid)
    o0 = _overlap(calls, inp, unf, "unfiltered |O|", 0.24, 0.28)

    _, o_comp = calls.call("schmidt.delay_compensated_overlap", delay_compensated_overlap,
                           unf, inp.tau_range)
    calls.expect("delay-compensated overlap",
                 o0 - BOUND_TOL <= o_comp <= 1.0 + BOUND_TOL and _band(inp, o_comp, 0.74, 0.78),
                 (o_comp, o0))

    a = calls.call("schmidt.density_overlap", density_overlap, unf)
    sd = calls.call("schmidt.decompose", decompose, unf)
    calls.tracer.annotate(modes_kept=len(sd.coefficients))
    weight = float(np.sum(sd.coefficients**2)) + sd.truncation_residual
    calls.expect("Schmidt weight and K", abs(weight - 1.0) <= NORM_TOL
                 and _band(inp, sd.mode_number, 10.0, math.inf), (weight, sd.mode_number))
    calls.expect("density overlap 0 <= A <= 1/K", 0.0 <= a <= sd.purity + BOUND_TOL,
                 (a, sd.purity))
    o_basis = abs(calls.call("schmidt.schmidt_spectral_overlap", schmidt_spectral_overlap, sd))
    calls.expect("grid vs Schmidt-basis overlap", abs(o_basis - o0) <= 1e-3, (o_basis, o0))
    del sd

    fjsa = _build(calls, base, inp.fgrid)
    filtered = {}
    for name, filt, lo, hi in (("g12", inp.g12, 0.96, 1.0), ("sg40", inp.sg40, 0.81, 0.85)):
        out, transmitted = calls.call("jsa.apply_filter", apply_filter, fjsa, filt)
        calls.expect(f"{name} filter output", out.normalized and _norm_err(out) <= NORM_TOL
                     and 0.0 < transmitted <= 1.0 + BOUND_TOL, (transmitted, _norm_err(out)))
        _overlap(calls, inp, out, f"{name} |O|", lo, hi)
        filtered[name] = out
    del fjsa
    _geometry(calls, inp, filtered["g12"] if inp.geometry_on_g12 else unf)
    del filtered, unf

    # the doubled grid comes last: its arrays set the peak, so the steps of
    # the calls above still show in their rss_step_mb
    doubled = _build(calls, base, inp.doubled)
    o_d = abs(calls.call("schmidt.spectral_overlap", spectral_overlap, doubled))
    calls.expect("overlap change under grid doubling",
                 o_d <= 1.0 + BOUND_TOL and abs(o_d - o0) <= 0.003, o_d - o0)


# ---------------------------------------------------------------------------
# estimators: Monte Carlo, estimators and fits against closed forms

@dataclass(frozen=True)
class Cell:
    path: str  # equal | unequal | device: the Schmidt spectrum, hence the sampler path
    lam: np.ndarray
    mean_n: float
    det: DetectionSpec
    gates: int
    seed: int


@dataclass(frozen=True)
class FitCase:
    model: str
    target: float
    eta_ratio: float | None
    points: list
    sigma: float  # Fisher standard error of the overlap at the target


@dataclass(frozen=True)
class Sweep:
    lam: np.ndarray
    det: DetectionSpec
    gates: int  # per power
    seed: int


@dataclass(frozen=True)
class EstimatorInputs:
    cells: list
    sweep: Sweep
    fits: list


def device_spectrum():
    return np.array(json.loads(DEVICE_SPECTRUM.read_text())["coefficients"])


def _fisher_sigma(model, target, eta_ratio):
    h = 1e-6
    dv = (model_visibility(target + h, FIT_MEAN_N, model, eta_ratio)
          - model_visibility(target - h, FIT_MEAN_N, model, eta_ratio)) / (2 * h)
    return 1.0 / math.sqrt(float(np.sum((dv / FIT_SIGMA_V) ** 2)))


def prepare_estimators(base, seed, small, workdir):
    seeds = iter(rng(seed, 1).integers(0, 2**63, size=64).tolist())
    gates = 100_000 if small else 1_000_000
    unequal = np.exp(-np.arange(UNEQUAL_MODES) / 8.0)
    spectra = [("equal", equal_mode_spectrum(k)) for k in EQUAL_MODES]
    spectra.append(("unequal", unequal / np.linalg.norm(unequal)))
    cells = []
    for path, lam in spectra:
        for mean_n in MEAN_N[-1:] if small else MEAN_N:
            for eta in ETA[-1:] if small else ETA:
                det = DetectionSpec(eta1=eta, eta2=eta, gate_rate=base.det.gate_rate)
                cells.append(Cell(path, lam, mean_n, det, gates, next(seeds)))
    cells.append(Cell("device", device_spectrum(), DEVICE_MEAN_N, base.det, 2 * gates,
                      next(seeds)))
    sweep = Sweep(equal_mode_spectrum(20), base.det, 2 * gates, next(seeds))

    noise = rng(seed, 2)
    ratio = base.det.eta1 / base.det.eta2
    fits = []
    for model, count, eta_ratio in (("approx", 4 if small else 100, None),
                                    ("full", 2 if small else 20, ratio)):
        for i in range(count):
            target = FIT_TARGETS[i % len(FIT_TARGETS)]
            exact = model_visibility(target, FIT_MEAN_N, model, eta_ratio)
            noisy = exact + noise.normal(0.0, FIT_SIGMA_V, FIT_MEAN_N.size)
            points = points_from_arrays(FIT_MEAN_N, noisy, np.full(FIT_MEAN_N.size, FIT_SIGMA_V))
            fits.append(FitCase(model, target, eta_ratio, points,
                                _fisher_sigma(model, target, eta_ratio)))
    return EstimatorInputs(cells=cells, sweep=sweep, fits=fits)


def _within(count, gates, p):
    return abs(count - gates * p) <= Z * math.sqrt(gates * p * (1.0 - p))


def _counts_ok(rec, probs):
    p_s, p_i, p_c = probs
    return all(_within(x, rec.gates, p) for x, p in ((rec.singles_signal, p_s),
                                                     (rec.singles_idler, p_i),
                                                     (rec.coincidences, p_c)))


def _gain(calls, mean_n, lam):
    gain = calls.call("schmidt.gain_for_mean_n", gain_for_mean_n, mean_n, lam)
    achieved = float(np.sum(np.sinh(gain * lam) ** 2))
    calls.expect("gain_for_mean_n", abs(achieved / mean_n - 1.0) <= 1e-9, achieved)
    return gain


def _estimates(calls, rec, probs):
    """klyshko and mean_n_from_cross on one record, against the exact click probabilities."""
    p_s, p_i, p_c = probs
    kly = calls.call("twinstats.klyshko", klyshko, rec)
    # given the heralds, the coincidences are binomial with p = p_c / p_herald
    calls.expect("klyshko", all(
        abs(est - r) <= Z * math.sqrt(r * (1.0 - r) / heralds)
        for est, r, heralds in ((kly.eta_signal, p_c / p_i, rec.singles_idler),
                                (kly.eta_idler, p_c / p_s, rec.singles_signal))), kly)
    est = calls.call("twinstats.mean_n_from_cross", mean_n_from_cross, rec)
    g = p_c / (p_s * p_i)
    n = rec.gates
    # independent-Poisson propagation overstates the spread: C and S are correlated
    sigma = g * math.sqrt(1.0 / (n * p_c) + 1.0 / (n * p_s) + 1.0 / (n * p_i))
    calls.expect("mean_n_from_cross", abs(est.cross_correlation - g) <= Z * sigma
                 and abs(est.mean_n * (est.cross_correlation - 1.0) - 1.0) <= 1e-9,
                 (est, g))


def estimators_body(inp, calls):
    for cell in inp.cells:
        gain = _gain(calls, cell.mean_n, cell.lam)
        rec = calls.call("montecarlo.simulate", simulate,
                         SimConfig(source=cell.lam, gain=gain, det=cell.det,
                                   n_gates=cell.gates, seed=cell.seed),
                         attrs={"path": cell.path, "gates": cell.gates})
        probs = exact_click_probabilities(cell.lam, gain, cell.det)
        calls.expect(f"{cell.path} counts within {Z:g} sigma", _counts_ok(rec, probs), rec)
        _estimates(calls, rec, probs)

    sw = inp.sweep
    powers = [_gain(calls, n, sw.lam) ** 2 for n in SWEEP_MEAN_N]
    points = calls.call("montecarlo.efficiency_sweep", efficiency_sweep,
                        SimConfig(source=sw.lam, gain=1.0, det=sw.det, n_gates=sw.gates,
                                  seed=sw.seed),
                        powers, attrs={"gates": sw.gates * len(powers)})
    probs = [exact_click_probabilities(sw.lam, p.gain, sw.det) for p in points]
    calls.expect(f"sweep counts within {Z:g} sigma",
                 all(_counts_ok(p.record, pr) for p, pr in zip(points, probs)),
                 [p.record for p in points])
    for p, pr in zip(points, probs):
        _estimates(calls, p.record, pr)
    for arm, values, sigmas, exact in (
            ("signal", [p.corrected_signal for p in points], [p.sigma_signal for p in points],
             [(pc - ps * pi) / pi for ps, pi, pc in probs]),
            ("idler", [p.corrected_idler for p in points], [p.sigma_idler for p in points],
             [(pc - ps * pi) / ps for ps, pi, pc in probs])):
        intercept, _, _ = calls.call("montecarlo.extrapolate_zero_power",
                                     extrapolate_zero_power, powers, values, sigmas)
        weights = 1.0 / np.asarray(sigmas)
        coef, cov = np.polyfit(powers, values, 1, w=weights, cov="unscaled")
        expected = np.polyfit(powers, exact, 1, w=weights)[1]
        calls.expect(f"zero-power {arm} efficiency",
                     abs(intercept - coef[1]) <= 1e-9 * abs(coef[1])
                     and abs(intercept - expected) <= Z * math.sqrt(cov[1, 1]),
                     (intercept, expected))

    for case in inp.fits:
        res = calls.call("fit.fit_overlap", fit_overlap, case.points, case.model,
                         case.eta_ratio, attrs={"model": case.model})
        calls.expect(f"{case.model} fit at O={case.target}",
                     abs(res.overlap - case.target) <= Z * case.sigma,
                     (res.overlap, case.sigma))


# ---------------------------------------------------------------------------
# grid-io: text dumps of the amplitude and the CSV record files

RECORDS = 20_000
GRID_HEADER = ("twinpdc benchmark grid",)


@dataclass(frozen=True)
class GridIoInputs:
    jsa: object
    records: list
    points: list
    workdir: Path


def prepare_grid_io(base, seed, small, workdir):
    jsa = build_jsa(base.device, base.pump, small_grid(base) if small else base.grid,
                    base.approx)
    r = rng(seed, 3)
    n = RECORDS // 40 if small else RECORDS
    gates = r.integers(10**5, 10**9, n)
    singles_s = (gates * r.uniform(1e-4, 0.1, n)).astype(np.int64)
    singles_i = (gates * r.uniform(1e-4, 0.1, n)).astype(np.int64)
    coinc = (np.minimum(singles_s, singles_i) * r.uniform(0.0, 0.2, n)).astype(np.int64)
    records = [CountRecord(int(g), int(s), int(i), int(c), float(rate))
               for g, s, i, c, rate in zip(gates, singles_s, singles_i, coinc,
                                           r.uniform(1e5, 1e7, n))]
    points = [VisibilityPoint(float(m), float(v), float(s))
              for m, v, s in zip(r.uniform(0.0, 2.0, n), r.uniform(-1.0, 1.0, n),
                                 r.uniform(0.0, 0.05, n))]
    return GridIoInputs(jsa=jsa, records=records, points=points, workdir=workdir)


def _wrote(path):
    return path.is_file() and path.stat().st_size > 0


def grid_io_body(inp, calls):
    path = inp.workdir / "grid.txt"
    calls.call("jsa.dump_grid", dump_grid, inp.jsa, path, GRID_HEADER)
    calls.expect("dump_grid wrote a file", _wrote(path), path)
    size = path.stat().st_size
    calls.tracer.annotate(bytes=size)
    loaded = calls.call("jsa.load_grid", load_grid, path, attrs={"bytes": size})
    calls.expect("load_grid returns the dumped amplitude bit for bit",
                 loaded.grid == inp.jsa.grid and loaded.normalized == inp.jsa.normalized
                 and np.array_equal(loaded.values.view(np.uint64),
                                    inp.jsa.values.view(np.uint64)), loaded.grid)
    del loaded

    for kind, write, read, items in (
            ("count_records", write_count_records, read_count_records, inp.records),
            ("visibility_points", write_visibility_points, read_visibility_points,
             inp.points)):
        path = inp.workdir / f"{kind}.csv"
        calls.call(f"twinstats.write_{kind}", write, path, items)
        calls.expect(f"write_{kind} wrote a file", _wrote(path), path)
        back = calls.call(f"twinstats.read_{kind}", read, path)
        calls.expect(f"read_{kind} returns what was written", back == items, len(back))


WORKLOADS = {
    "spectral": (prepare_spectral, spectral_body),
    "estimators": (prepare_estimators, estimators_body),
    "grid-io": (prepare_grid_io, grid_io_body),
}
