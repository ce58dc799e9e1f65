"""Schmidt decomposition of the joint amplitude and overlap functionals.

The discretized amplitude matrix, scaled by sqrt(dnu_s dnu_i) so its
Frobenius norm is 1, is factorized by SVD into

    f(nu_s, nu_i) = sum_k lam_k phi_k(nu_s) psi_k(nu_i)

with orthonormal mode functions under the discrete inner product
<a, b> = sum conj(a) b dnu.  The effective mode number K = 1 / sum lam_k^4
counts the excited pair modes; 1/K is the heralded single-photon purity.

Two indistinguishability functionals are provided, each computable directly
on the grid and through the Schmidt basis:

    spectral overlap   O = int f(w, w') conj(f(w', w)) dw dw'
    density overlap    A = int g_s(w, w') g_i(w', w) dw dw'

with g_s, g_i the single-beam spectral density kernels.  Delaying the signal
by tau gives O(tau) = c_0 + 2 Re sum_{d>0} c_d exp(i tau d dnu) on the grid, with
lag sums c_d = sum_m f[m + d, m] conj(f[m, m + d]) dnu^2: real, of period 2 pi / dnu,
O = O(0); delay_compensated_overlap maximizes |O(tau)| globally over a range.
"""
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import ContractError, GridShapeError, RangeError
from .jsa import JointAmplitude

DEFAULT_RANK_CUTOFF = 1e-6
POLISH_XATOL = 1e-9  # ps, the delay search's final bounded polish


@dataclass(frozen=True)
class SchmidtData:
    """Schmidt spectrum and discretized mode functions.

    Attributes:
        coefficients: descending nonnegative lam_k with sum lam_k^2 + residual = 1.
        signal_modes: (n_s, r) array, phi_k in column k, or None for synthetic spectra.
        idler_modes: (n_i, r) array, psi_k in column k, or None.
        step_signal, step_idler: grid steps defining the inner product.
        truncation_residual: weight discarded by the rank cutoff.
    """

    coefficients: np.ndarray
    signal_modes: np.ndarray | None
    idler_modes: np.ndarray | None
    step_signal: float
    step_idler: float
    truncation_residual: float = 0.0

    @classmethod
    def from_spectrum(cls, coefficients):
        """Synthetic spectrum without mode functions (normalizes the weights)."""
        lam = np.sort(np.asarray(coefficients, dtype=float))[::-1]
        lam = lam / math.sqrt(np.sum(lam**2))
        return cls(coefficients=lam, signal_modes=None, idler_modes=None,
                   step_signal=1.0, step_idler=1.0)

    @property
    def mode_number(self) -> float:
        """Effective number of excited modes, K = 1 / sum lam_k^4."""
        return float(1.0 / np.sum(self.coefficients**4))

    @property
    def purity(self) -> float:
        return 1.0 / self.mode_number

    def _require_modes(self):
        """Raise ContractError on a synthetic spectrum, which has no mode functions."""
        if self.signal_modes is None or self.idler_modes is None:
            raise ContractError("operation needs mode functions; a synthetic spectrum has none")

    def gram_defects(self):
        """Max |G - I| entries of the signal and idler mode Gram matrices."""
        self._require_modes()
        out = []
        for modes, step in ((self.signal_modes, self.step_signal),
                            (self.idler_modes, self.step_idler)):
            gram = modes.conj().T @ modes * step
            out.append(float(np.max(np.abs(gram - np.eye(gram.shape[0])))))
        return tuple(out)

    def reconstruct(self):
        """Amplitude values rebuilt from the kept modes."""
        self._require_modes()
        lam = self.coefficients
        return (self.signal_modes * lam[None, :]) @ self.idler_modes.T


def decompose(jsa: JointAmplitude, rank_cutoff=DEFAULT_RANK_CUTOFF) -> SchmidtData:
    """Schmidt-decompose a normalized joint amplitude.

    Modes are kept until the discarded weight sum lam_k^2 drops below
    rank_cutoff, so the squared reconstruction error is at most rank_cutoff.

    Raises:
        ContractError: if the input is not normalized.
    """
    if not jsa.normalized:
        raise ContractError("decompose requires a normalized JointAmplitude")
    jsa.check_normalized(tol=1e-6)
    ds, di = jsa.grid.step_signal, jsa.grid.step_idler
    scaled = jsa.values * math.sqrt(ds * di)
    u, lam, vh = np.linalg.svd(scaled, full_matrices=False)
    weights = lam**2
    keep = int(np.searchsorted(np.cumsum(weights), 1.0 - rank_cutoff) + 1)
    keep = min(keep, len(lam))
    residual = float(np.sum(weights[keep:]))
    return SchmidtData(
        coefficients=lam[:keep],
        signal_modes=u[:, :keep] / math.sqrt(ds),
        idler_modes=vh[:keep, :].T / math.sqrt(di),
        step_signal=ds,
        step_idler=di,
        truncation_residual=residual,
    )


@dataclass(frozen=True)
class GainSpec:
    """Optical gain and per-mode squeezing of the twin-beam state.

    The squeezing of Schmidt mode k is r_k = gain * lam_k and the total mean
    photon number per beam is sum sinh^2(r_k), approximately gain^2 at low gain.
    """

    gain: float
    squeezing: np.ndarray
    mean_n: float

    def __post_init__(self):
        if self.gain < 0:
            raise ContractError("gain must be nonnegative")

    @classmethod
    def for_spectrum(cls, gain, coefficients):
        r = gain * np.asarray(coefficients, dtype=float)
        return cls(gain=gain, squeezing=r, mean_n=float(np.sum(np.sinh(r) ** 2)))


def gain_for_mean_n(mean_n, coefficients):
    """Invert sum sinh^2(B lam_k) = mean_n for the gain B."""
    if mean_n <= 0:
        return 0.0
    lam = np.asarray(coefficients, dtype=float)
    lo, hi = 0.0, 2.0 * math.asinh(math.sqrt(mean_n)) / float(np.max(lam))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.sum(np.sinh(mid * lam) ** 2) < mean_n:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _require_square(jsa: JointAmplitude):
    if not jsa.grid.is_square:
        raise GridShapeError("overlap functionals require a square grid "
                             "(equal point counts and spans)")


def _lag_sums(jsa: JointAmplitude):
    """Lag sums c_d, d = 0 .. n - 1, c_0 halved: O(tau) = 2 Re sum_d c_d exp(i tau d dnu)."""
    _require_square(jsa)
    f = jsa.values
    c = np.array([np.vdot(np.diagonal(f, d), np.diagonal(f, -d)) for d in range(len(f))])
    c[0] /= 2.0
    return c * jsa.cell_area


def spectral_overlap(jsa: JointAmplitude) -> float:
    """Swap-symmetry overlap O = O(0) on the grid: real, |O| <= 1, 1 iff f is swap-symmetric."""
    return 2.0 * float(np.sum(_lag_sums(jsa)).real)


def delay_compensated_overlap(jsa: JointAmplitude, tau_range):
    """Maximize |O(tau)| globally over tau_range, tau the signal delay in ps.

    O(tau) is real with period 2 pi / dnu; one zero-padded FFT of the lag sums
    scans a period, and the best sample or range end is polished between its
    neighbours, so a range holding 0 gives at least |O(0)|.

    Returns:
        (tau_star, max |O|); lo == hi gives tau_star = lo.

    Raises:
        RangeError: if hi < lo or either end is NaN or infinite.
    """
    lo, hi = map(float, tau_range)
    if not -math.inf < lo <= hi < math.inf:
        raise RangeError(f"invalid tau range ({lo}, {hi})")
    c = _lag_sums(jsa)
    rate = jsa.grid.step_signal * np.arange(c.size)

    def magnitude(tau):
        return abs(2.0 * float(np.dot(c, np.exp(1j * tau * rate)).real))
    scan = np.abs(2.0 * np.fft.ifft(c, 8 * c.size, norm="forward").real)  # |O(k step)|
    step = 2.0 * math.pi / jsa.grid.step_signal / scan.size
    # a period holds every value of O, so at most one period of the range is scanned
    ks = np.arange(math.ceil(lo / step), math.floor(min(hi, lo + scan.size * step) / step) + 1)
    taus = np.concatenate(([lo, hi], ks * step))
    scores = np.concatenate(([magnitude(lo), magnitude(hi)], scan[ks % scan.size]))
    best, tau = float(np.max(scores)), float(taus[np.argmax(scores)])
    res = minimize_scalar(lambda t: -magnitude(t), method="bounded",
                          bounds=(max(lo, tau - step), min(hi, tau + step)),
                          options={"xatol": POLISH_XATOL})
    return (float(res.x), float(-res.fun)) if -res.fun > best else (tau, best)


def density_overlap(jsa: JointAmplitude) -> float:
    """Overlap of the signal and idler spectral densities.

    With F = f sqrt(dnu_s dnu_i), the kernels are g_s = conj(F) F^T and
    g_i = F^dag F, and trace(g_s g_i) = ||F conj(F)||_F^2, one matrix product;
    real in [0, 1], bounded by the purity 1/K.
    """
    _require_square(jsa)
    scaled = jsa.values * math.sqrt(jsa.cell_area)
    product = scaled @ scaled.conj()
    return float(np.vdot(product, product).real)


def schmidt_spectral_overlap(sd: SchmidtData) -> complex:
    """Spectral overlap through the Schmidt basis.

    O = sum_{k, n} lam_k lam_n <psi_n, phi_k> <phi_n, psi_k>, the same
    functional as spectral_overlap up to the truncation residual.
    """
    sd._require_modes()
    lam = sd.coefficients
    cross_ip = sd.idler_modes.conj().T @ sd.signal_modes * sd.step_signal
    cross_pi = sd.signal_modes.conj().T @ sd.idler_modes * sd.step_idler
    return complex(np.sum(np.outer(lam, lam) * cross_ip * cross_pi))


def schmidt_density_overlap(sd: SchmidtData) -> float:
    """Density overlap through the Schmidt basis: sum lam_n^2 lam_k^2 |<phi_n, psi_k>|^2."""
    sd._require_modes()
    lam2 = sd.coefficients**2
    cross = sd.signal_modes.conj().T @ sd.idler_modes * sd.step_signal
    return float(np.real(np.sum(np.outer(lam2, lam2) * np.abs(cross) ** 2)))
