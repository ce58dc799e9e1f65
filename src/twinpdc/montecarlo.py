"""Counts-level simulator of gated click detection on the multimode twin-beam source.

Per gate, every Schmidt mode k contributes a photon-pair number drawn from
the thermal (geometric) distribution with mean sinh^2(B lam_k); the two arms
share the pair number exactly.  Each arm is thinned binomially by its
end-to-end transmission and hits a threshold (click/no-click) detector, with
an independent per-gate dark firing probability.

Because the detectors resolve no photon numbers and a record keeps only click
counts, two exact draws replace the gate-by-gate history: a multinomial of the
gates over the distribution of the per-gate pair total (the convolution of
the per-mode geometric distributions), then, for each total, a multinomial
over the four click outcomes.  The cost does not depend on the number of
gates, and one counter-based RNG stream keyed by the seed makes every run
bit-reproducible.
"""
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .schmidt import SchmidtData
from .twinstats import (CountRecord, DetectionSpec, klyshko, mean_n_from_cross)

SATURATION_MEAN = 0.9
PMF_TAIL_WEIGHT = 1e-17


def equal_mode_spectrum(n_modes: int) -> np.ndarray:
    """Flat Schmidt spectrum of n_modes equal weights (effective K = n_modes)."""
    if n_modes < 1:
        raise ConfigError("need at least one mode")
    return np.full(n_modes, 1.0 / math.sqrt(n_modes))


@dataclass(frozen=True)
class SimConfig:
    """Simulation input: source spectrum, gain, detection and gating.

    source may be a SchmidtData or a bare array of Schmidt coefficients.
    The gate rate is laser_rep_hz / gate_divisor and must match det.gate_rate.
    """

    source: object
    gain: float
    det: DetectionSpec
    n_gates: int
    seed: int
    laser_rep_hz: float = 76.2e6
    gate_divisor: int = 64

    def __post_init__(self):
        if self.n_gates <= 0:
            raise ConfigError("n_gates must be positive")
        if self.gate_divisor < 1:
            raise ConfigError("gate divisor must be >= 1")
        if abs(self.det.gate_rate - self.gate_rate) > 1e-6 * self.gate_rate:
            raise ConfigError(
                f"det.gate_rate {self.det.gate_rate:g} Hz inconsistent with "
                f"laser_rep_hz/gate_divisor = {self.gate_rate:g} Hz"
            )

    @property
    def gate_rate(self) -> float:
        return self.laser_rep_hz / self.gate_divisor

    @property
    def coefficients(self) -> np.ndarray:
        if isinstance(self.source, SchmidtData):
            return self.source.coefficients
        return np.asarray(self.source, dtype=float)


def mode_means(cfg: SimConfig) -> np.ndarray:
    """Per-mode thermal pair means sinh^2(B lam_k) over all modes."""
    return np.sinh(cfg.gain * cfg.coefficients) ** 2


def _total_pmf(means) -> np.ndarray:
    """Distribution of the per-gate pair total, a sum of geometric variables.

    The per-mode pmfs (1 - q_k) q_k^n with q_k = m_k / (1 + m_k) are convolved
    on a support whose Chernoff tail bound is below 1e-20; the result is cut
    where the remaining tail weight falls below PMF_TAIL_WEIGHT and
    renormalized.
    """
    q = means / (1.0 + means)
    q_max = q.max(initial=0.0)
    length = 1
    if q_max > 0.0:
        # P(total >= n) <= E[z^total] / z^n, evaluated at z = q_max^(-1/2)
        log_z = -0.5 * math.log(q_max)
        log_mgf = float(np.sum(np.log1p(-q) - np.log1p(-q * math.exp(log_z))))
        length = math.ceil((log_mgf - math.log(1e-20)) / log_z)
    pmf = np.zeros(length)
    pmf[0] = 1.0
    n = np.arange(length)
    for qk in q:
        pmf = np.convolve(pmf, (1.0 - qk) * qk**n)[:length]
    tail = np.cumsum(pmf[::-1])[::-1]
    pmf = pmf[:np.count_nonzero(tail >= PMF_TAIL_WEIGHT)]
    return pmf / pmf.sum()


def simulate(cfg: SimConfig) -> CountRecord:
    """Run the gated simulation and accumulate a CountRecord.

    Warns when the strongest mode exceeds a per-gate mean of 0.9 pairs, where
    click saturation invalidates the low-gain estimator checks.
    """
    means = mode_means(cfg)
    if means.max(initial=0.0) > SATURATION_MEAN:
        warnings.warn(
            f"strongest mode mean {means.max():.2f} > {SATURATION_MEAN}: "
            "click detectors saturate, low-gain estimators will be biased",
            stacklevel=2,
        )
    rng = np.random.Generator(np.random.Philox(
        key=np.array([cfg.seed % 2**64, 0], dtype=np.uint64)))
    pmf = _total_pmf(means)
    gates_per_total = rng.multinomial(cfg.n_gates, pmf)
    totals = np.arange(pmf.size)
    det = cfg.det
    quiet_s = (1.0 - det.eta1) ** totals * (1.0 - det.dark_prob1)
    quiet_i = (1.0 - det.eta2) ** totals * (1.0 - det.dark_prob2)
    # outcomes per total: both click, signal only, idler only, neither
    outcomes = np.stack([(1.0 - quiet_s) * (1.0 - quiet_i), (1.0 - quiet_s) * quiet_i,
                         quiet_s * (1.0 - quiet_i), quiet_s * quiet_i], axis=1)
    both, signal_only, idler_only, _ = rng.multinomial(gates_per_total, outcomes).sum(axis=0)
    return CountRecord(gates=cfg.n_gates, singles_signal=int(both + signal_only),
                       singles_idler=int(both + idler_only), coincidences=int(both),
                       gate_rate=cfg.gate_rate)


def exact_click_probabilities(lambdas, gain, det: DetectionSpec):
    """Closed-form per-gate click probabilities (p_signal, p_idler, p_coincidence).

    For thermal pair number n_k of mean m_k shared by the arms, the no-click
    generating function gives E[x^n_k] = 1 / (1 + m_k (1 - x)) per mode, so
    the exact threshold-detector probabilities follow from products over
    modes.  Serves as an independent check on the sampler.
    """
    m = np.sinh(gain * np.asarray(lambdas, dtype=float)) ** 2
    quiet_s = np.prod(1.0 / (1.0 + m * det.eta1)) * (1.0 - det.dark_prob1)
    quiet_i = np.prod(1.0 / (1.0 + m * det.eta2)) * (1.0 - det.dark_prob2)
    both = det.eta1 + det.eta2 - det.eta1 * det.eta2
    quiet_both = np.prod(1.0 / (1.0 + m * both)) * (1.0 - det.dark_prob1) * (1.0 - det.dark_prob2)
    return (1.0 - quiet_s, 1.0 - quiet_i, 1.0 - quiet_s - quiet_i + quiet_both)


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


def efficiency_sweep(cfg: SimConfig, pump_powers, power_coefficient=1.0):
    """Simulate a pump-power sweep; gain scales as sqrt(coefficient * power).

    Each point runs cfg.n_gates gates on a decorrelated stream derived from
    cfg.seed and the point index.
    """
    points = []
    for idx, power in enumerate(pump_powers):
        if power <= 0:
            raise ConfigError("pump powers must be positive")
        gain = math.sqrt(power_coefficient * power)
        seed = (cfg.seed + (idx + 1) * 0x9E3779B97F4A7C15) % 2**64
        point_cfg = replace(cfg, gain=gain, seed=seed)
        rec = simulate(point_cfg)
        kly = klyshko(rec)
        n_est = mean_n_from_cross(rec)
        acc = rec.accidentals
        points.append(SweepPoint(
            power=power, gain=gain, record=rec,
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
