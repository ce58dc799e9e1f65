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

with g_s, g_i the single-beam spectral density kernels.
"""
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import ContractError, GridShapeError, RangeError
from .jsa import JointAmplitude

DEFAULT_RANK_CUTOFF = 1e-6


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

    @property
    def mode_mean_photons(self):
        """Per-mode thermal means sinh^2(r_k)."""
        return np.sinh(self.squeezing) ** 2


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


def spectral_overlap(jsa: JointAmplitude, block=256) -> complex:
    """Swap-symmetry overlap O = sum f[i, j] conj(f[j, i]) dnu^2 on the grid.

    Complex valued with |O| <= 1; equals 1 exactly when f is symmetric under
    exchange of the signal and idler arguments.  Evaluated in row blocks to
    bound memory on large grids.
    """
    _require_square(jsa)
    f = jsa.values
    acc = 0.0 + 0.0j
    for i0 in range(0, f.shape[0], block):
        i1 = min(i0 + block, f.shape[0])
        acc += np.sum(f[i0:i1, :] * np.conj(f[:, i0:i1]).T)
    return acc * jsa.cell_area


def delay_compensated_overlap(jsa: JointAmplitude, tau_range, xatol=1e-4):
    """Maximize |O| over a relative signal delay.

    The signal axis acquires a phase exp(i nu_s tau); the scalar maximization
    over tau in tau_range (golden section with parabolic refinement) undoes a
    group-delay mismatch between the twin wavepackets.  A range with lo == hi
    (zero group-delay mismatch) evaluates the single point tau = lo.

    Returns:
        (tau_star, max |O|) with tau in ps.

    Raises:
        RangeError: if hi < lo (or either end is NaN).
    """
    _require_square(jsa)
    lo, hi = tau_range
    if not hi >= lo:
        raise RangeError(f"invalid tau range ({lo}, {hi})")
    nu = jsa.grid.axis_signal
    base = jsa.values * np.conj(jsa.values).T  # integrand of O before the tau phase

    def neg_mag(tau):
        phase = np.exp(1j * nu * tau)
        # exp(i tau (nu_s - nu_i)) factorizes into a row and a column phase
        return -abs(np.sum((base * phase[:, None]) * np.conj(phase)[None, :]))

    res = minimize_scalar(neg_mag, bounds=(lo, hi), method="bounded",
                          options={"xatol": xatol})
    return float(res.x), float(-res.fun * jsa.cell_area)


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
