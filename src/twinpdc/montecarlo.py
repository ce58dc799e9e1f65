"""Counts-level simulator of gated click detection on the multimode twin-beam source.

Per gate, every Schmidt mode k contributes a photon-pair number drawn from
the thermal (geometric) distribution with mean sinh^2(B lam_k); the two arms
share the pair number exactly.  Each arm is thinned binomially by its
end-to-end transmission and hits a threshold (click/no-click) detector, with
an independent per-gate dark firing probability.

The gates are independent and a record keeps only click counts, so the four
per-gate outcomes (both click, signal only, idler only, neither) are exactly
multinomially distributed over the gates.  Their probabilities are closed-form
products over every mode (Quesada, Arrazola & Killoran, PRA 98, 062322
(2018)), so one multinomial draw replaces the gate-by-gate history: the cost
does not depend on the number of gates, and one counter-based RNG stream
keyed by the seed makes every run bit-reproducible.
"""
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .schmidt import mode_means
from .twinstats import (CountRecord, DetectionSpec, klyshko, mean_n_from_cross)

SATURATION_MEAN = 0.9
MAX_MODE_ARGUMENT = math.asinh(math.sqrt(np.finfo(float).max))  # sinh^2 is finite up to it


def equal_mode_spectrum(n_modes: int) -> np.ndarray:
    """Flat Schmidt spectrum of n_modes equal weights (effective K = n_modes)."""
    if n_modes < 1:
        raise ConfigError("need at least one mode")
    return np.full(n_modes, 1.0 / math.sqrt(n_modes))


@dataclass(frozen=True)
class SimConfig:
    """Simulation input: source spectrum, gain, detection and gating.

    source is the array of Schmidt coefficients lam_k, and the gain B must be
    finite and nonnegative, with every mode mean sinh^2(B lam_k) finite.  The
    gate rate is det.gate_rate.
    """

    source: np.ndarray
    gain: float
    det: DetectionSpec
    n_gates: int
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.gain < math.inf:
            raise ConfigError(f"gain must be finite and nonnegative, got {self.gain}")
        strongest = self.gain * float(np.max(self.source, initial=0.0))
        if not strongest <= MAX_MODE_ARGUMENT:  # also False for NaN
            raise ConfigError(f"gain {self.gain} overflows the strongest mode mean sinh^2(B lam): "
                              f"B lam = {strongest:.6g} > {MAX_MODE_ARGUMENT:.2f}")
        if not 0 < self.n_gates < 2**63:  # numpy's multinomial takes at most 2**63 - 1
            raise ConfigError(f"n_gates must be in 1 .. 2**63 - 1, got {self.n_gates}")


def _outcome_probabilities(means, det: DetectionSpec) -> np.ndarray:
    """Per-gate probabilities of (both click, signal only, idler only, neither).

    A thermal pair number of mean m shared by the arms has E[x^n] = 1 / (1 + m (1 - x)),
    so an arm of transmission eta and dark probability d stays quiet with
    probability (1 - d) prod_k 1 / (1 + m_k eta), and, given a quiet partner arm of
    transmission eta', with (1 - d) prod_k 1 / (1 + m_k eta (1 - eta') / (1 + m_k eta')).
    Every outcome is a product of nonnegative factors formed in log space with
    log1p/expm1, so tiny probabilities keep their relative precision and none is
    negative in floating point.
    """
    def log_quiet(eta, dark, partner_eta=0.0):
        thinned = means * eta * (1.0 - partner_eta) / (1.0 + means * partner_eta)
        return math.log1p(-dark) - float(np.sum(np.log1p(thinned)))

    log_s, log_i = log_quiet(det.eta1, det.dark_prob1), log_quiet(det.eta2, det.dark_prob2)
    log_s_given_i = log_quiet(det.eta1, det.dark_prob1, det.eta2)
    log_i_given_s = log_quiet(det.eta2, det.dark_prob2, det.eta1)
    quiet_s, quiet_i = math.exp(log_s), math.exp(log_i)
    quiet_both = quiet_i * math.exp(log_s_given_i)
    # P(both) = p_s p_i + (q_both - q_s q_i), and q_both - q_s q_i = -q_both expm1(log_s -
    # log_s_given_i), whose exponent is <= 0, so no factor overflows
    both = (math.expm1(log_s) * math.expm1(log_i)
            - quiet_both * math.expm1(log_s - log_s_given_i))
    return np.array([both, -quiet_i * math.expm1(log_s_given_i),
                     -quiet_s * math.expm1(log_i_given_s), quiet_both])


def simulate(cfg: SimConfig) -> CountRecord:
    """Run the gated simulation and accumulate a CountRecord.

    Warns when the strongest mode exceeds a per-gate mean of 0.9 pairs, where
    click saturation invalidates the low-gain estimator checks.
    """
    means = mode_means(cfg.source, cfg.gain)
    if means.max(initial=0.0) > SATURATION_MEAN:
        warnings.warn(
            f"strongest mode mean {means.max():.3g} > {SATURATION_MEAN}: "
            "click detectors saturate, low-gain estimators will be biased",
            stacklevel=2,
        )
    rng = np.random.Generator(np.random.Philox(
        key=np.array([cfg.seed % 2**64, 0], dtype=np.uint64)))
    both, signal_only, idler_only, _ = rng.multinomial(
        cfg.n_gates, _outcome_probabilities(means, cfg.det))
    return CountRecord(gates=cfg.n_gates, singles_signal=int(both + signal_only),
                       singles_idler=int(both + idler_only), coincidences=int(both),
                       gate_rate=cfg.det.gate_rate)


def exact_click_probabilities(lambdas, gain, det: DetectionSpec):
    """Closed-form per-gate click probabilities (p_signal, p_idler, p_coincidence).

    The same outcome probabilities the sampler draws from, products over every
    mode with no truncation.
    """
    means = mode_means(lambdas, gain)
    both, signal_only, idler_only, _ = _outcome_probabilities(means, det)
    return (float(both + signal_only), float(both + idler_only), float(both))


@dataclass(frozen=True)
class SweepPoint:
    """One pump power in an efficiency sweep.

    eta_signal_est = C / S_i and eta_idler_est = C / S_s are the raw Klyshko
    ratios; the corrected variants subtract the expected accidentals from C
    before dividing, which makes them decrease with power while the raw
    ratios creep up with the multi-photon contribution.  Both extrapolate to
    the configured transmissions at zero power.
    """

    power: float
    gain: float
    record: CountRecord
    eta_signal_est: float
    eta_idler_est: float
    sigma_signal: float
    sigma_idler: float
    corrected_signal: float
    corrected_idler: float
    mean_n_est: float
    mean_n_sigma: float


def efficiency_sweep(cfg: SimConfig, pump_powers):
    """Simulate a pump-power sweep; the gain is sqrt(power).

    Each point runs cfg.n_gates gates on a decorrelated stream derived from
    cfg.seed and the point index.  Every power, and the gain it sets, is
    checked before the first point is simulated, and the sweep needs two
    distinct powers: its points are extrapolated to zero power along a line.
    """
    for power in pump_powers:
        if not 0.0 < power < math.inf:
            raise ConfigError(f"pump powers must be positive and finite, got {power}")
    if len(set(pump_powers)) < 2:
        raise ConfigError(f"a sweep needs at least two distinct pump powers, got {pump_powers}")
    point_cfgs = [replace(cfg, gain=math.sqrt(power),
                          seed=(cfg.seed + (idx + 1) * 0x9E3779B97F4A7C15) % 2**64)
                  for idx, power in enumerate(pump_powers)]
    points = []
    for power, point_cfg in zip(pump_powers, point_cfgs):
        rec = simulate(point_cfg)
        kly = klyshko(rec)
        n_est = mean_n_from_cross(rec)
        acc = rec.accidentals
        points.append(SweepPoint(
            power=power, gain=point_cfg.gain, record=rec,
            eta_signal_est=kly.eta_signal, eta_idler_est=kly.eta_idler,
            sigma_signal=kly.sigma_signal, sigma_idler=kly.sigma_idler,
            corrected_signal=(rec.coincidences - acc) / rec.singles_idler,
            corrected_idler=(rec.coincidences - acc) / rec.singles_signal,
            mean_n_est=n_est.mean_n, mean_n_sigma=n_est.sigma,
        ))
    return points


def extrapolate_zero_power(powers, values, sigmas):
    """Weighted linear fit of values against power, evaluated at zero.

    Returns:
        (intercept, intercept standard error, slope)
    """
    x = np.asarray(powers, dtype=float)
    y = np.asarray(values, dtype=float)
    w = 1.0 / np.asarray(sigmas, dtype=float) ** 2
    sw, swx, swy = w.sum(), (w * x).sum(), (w * y).sum()
    swxx, swxy = (w * x * x).sum(), (w * x * y).sum()
    delta = sw * swxx - swx**2
    intercept = (swxx * swy - swx * swxy) / delta
    slope = (sw * swxy - swx * swy) / delta
    return intercept, math.sqrt(swxx / delta), slope


def zero_power_efficiencies(points):
    """{arm: (intercept, its standard error)}: each arm's accidental-corrected
    Klyshko ratio over a sweep's points, extrapolated to zero power."""
    powers = [p.power for p in points]
    return {arm: extrapolate_zero_power(powers, [getattr(p, f"corrected_{arm}") for p in points],
                                        [getattr(p, f"sigma_{arm}") for p in points])[:2]
            for arm in ("signal", "idler")}
