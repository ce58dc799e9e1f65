"""Schmidt decomposition of the joint amplitude and overlap functionals.

The discretized amplitude matrix, scaled by sqrt(dnu_s dnu_i) so its
Frobenius norm is 1, is factorized by a certified randomized SVD into

    f(nu_s, nu_i) = sum_k lam_k phi_k(nu_s) psi_k(nu_i)

with orthonormal mode functions under the discrete inner product
<a, b> = sum conj(a) b dnu.  The effective mode number K = 1 / sum lam_k^4
counts the excited pair modes; 1/K is the heralded single-photon purity.
At gain B, mode k holds a thermal pair number of mean sinh^2(B lam_k)
(mode_means), the one input of every multi-photon quantity.

Two indistinguishability functionals are computed on the grid:

    spectral overlap   O = int f(w, w') conj(f(w', w)) dw dw'
    density overlap    A = int g_s(w, w') g_i(w', w) dw dw'

with g_s, g_i the single-beam spectral density kernels; O also through the
Schmidt basis (schmidt_spectral_overlap).  Delaying the signal by tau gives
O(tau) = c_0 + 2 Re sum_{d>0} c_d exp(i tau d dnu) on the grid, with lag sums
c_d = sum_m f[m + d, m] conj(f[m, m + d]) dnu^2: real, of period 2 pi / dnu,
O = O(0); delay_compensated_overlap maximizes |O(tau)| globally over a range.

Every grid computation here reads only the amplitude's band, which each
JointAmplitude finds once (JointAmplitude.band) on the one row partition of
every pass over a grid, blocks of jsa.BLOCK_ROWS rows: the products of
decompose and density_overlap multiply only the column span of each block,
and the lag sums read only the stretch of each diagonal that crosses the
band's blocks.  Every cell outside the band is +0, so each result is that of the
dense grid.  decompose needs numpy alone: its products, QRs and SVD all run
in numpy's one BLAS thread pool.
"""
import math
from dataclasses import dataclass, replace

import numpy as np

from .brent import bounded_brent
from .errors import ContractError, GridShapeError, RangeError
from .jsa import JointAmplitude

DEFAULT_RANK_CUTOFF = 1e-6
SKETCH_KEY = 0  # Philox key of decompose's Gaussian sketch
POWER_ITERATIONS = 2  # decompose's first count; more are added as the spectral gap needs
POLISH_XATOL = 1e-9  # ps, the delay search's final bounded polish


@dataclass(frozen=True)
class SchmidtData:
    """Schmidt spectrum and discretized mode functions.

    Attributes:
        coefficients: descending nonnegative lam_k; sum lam_k^2 + residual is the
            squared norm, 1 to within the normalization check.
        signal_modes: (n_s, r) array, phi_k in column k.
        idler_modes: (n_i, r) array, psi_k in column k.
        step_signal, step_idler: grid steps defining the inner product.
        truncation_residual: weight the kept modes leave out, the squared norm
            less sum lam_k^2.
    """

    coefficients: np.ndarray
    signal_modes: np.ndarray
    idler_modes: np.ndarray
    step_signal: float
    step_idler: float
    truncation_residual: float = 0.0

    @property
    def mode_number(self) -> float:
        """Effective number of excited modes, K = 1 / sum lam_k^4."""
        return float(1.0 / np.sum(self.coefficients**4))

    @property
    def purity(self) -> float:
        return 1.0 / self.mode_number

    def truncated(self, cutoff):
        """The fewest leading modes (at least one) whose discarded weight is at most cutoff.

        The discarded weight is truncation_residual plus the dropped lam_k^2, summed
        from the smallest up; it becomes the result's truncation_residual.
        """
        weights = self.coefficients**2
        tails = np.concatenate((np.cumsum(weights[::-1])[::-1], [0.0]))
        dropped = self.truncation_residual + tails  # dropped[k]: weight left out by k modes
        keep = min(max(int(np.count_nonzero(dropped > cutoff)), 1), len(weights))
        return replace(
            self,
            coefficients=self.coefficients[:keep],
            signal_modes=self.signal_modes[:, :keep],
            idler_modes=self.idler_modes[:, :keep],
            truncation_residual=float(dropped[keep]),
        )


def _dot(f: JointAmplitude, x):
    """f @ x, multiplying only the blocks of f's band."""
    out = np.zeros((f.values.shape[0], x.shape[1]), dtype=np.result_type(f.values, x))
    for rows, cols in f.band.blocks:
        np.matmul(f.values[rows, cols], x[cols], out=out[rows])
    return out


def _tdot(f: JointAmplitude, y):
    """f.T @ y, multiplying only the blocks of f's band."""
    out = np.zeros((f.values.shape[1], y.shape[1]), dtype=np.result_type(f.values, y))
    for rows, cols in f.band.blocks:
        out[cols] += f.values[rows, cols].T @ y[rows]
    return out


def _sketch_basis(f, width):
    """An orthonormal basis of f Omega, Omega an n_i x width complex Gaussian from SKETCH_KEY."""
    rng = np.random.Generator(np.random.Philox(key=SKETCH_KEY))
    omega = rng.standard_normal((f.values.shape[1], 2 * width)).view(complex)
    return np.linalg.qr(_dot(f, omega))[0]


def _power_iterate(f, q, iterations):
    """Subspace iteration q <- f f^dag q, orthonormalized by one Householder QR per step.

    f^dag q = conj(f^T conj(q)), so each step is two banded products and one QR.
    """
    for _ in range(iterations):
        q = np.linalg.qr(_dot(f, _tdot(f, q.conj()).conj()))[0]
    return q


def _projected_schmidt(f, q, ds, di, norm_squared):
    """Every Schmidt triplet of Q Q^dag F; its residual is the exact weight outside range(Q).

    The SVD is of (Q^dag f)^T = f^T conj(Q), the form BLAS multiplies fastest.
    """
    u, s, vh = np.linalg.svd(_tdot(f, q.conj()), full_matrices=False)
    lam = s * math.sqrt(ds * di)
    return SchmidtData(
        coefficients=lam,
        signal_modes=q @ vh.T / math.sqrt(ds),
        idler_modes=u / math.sqrt(di),
        step_signal=ds,
        step_idler=di,
        truncation_residual=max(norm_squared - float(np.sum(lam**2)), 0.0),
    )


def _iterations_needed(lam, keep):
    """Power iterations q that bring the gap factor x^(2q+1) down to dense-SVD rounding.

    x = (lam_l / lam_k)^2 compares the last sketched and the last kept mode, and
    the rounding of a dense SVD on lam_k is eps lam_1 / lam_k, relative.
    """
    gap = (lam[-1] / lam[keep - 1]) ** 2
    if gap >= 1.0:
        return math.inf
    if gap == 0.0:
        return 0
    target = np.finfo(float).eps * lam[0] / lam[keep - 1]
    return max(math.ceil((math.log(target) / math.log(gap) - 1.0) / 2.0), 0)


def decompose(jsa: JointAmplitude, rank_cutoff=DEFAULT_RANK_CUTOFF) -> SchmidtData:
    """Schmidt-decompose a normalized joint amplitude by a certified randomized SVD.

    A Gaussian sketch of width l (Halko, Martinsson & Tropp, SIAM Rev. 53, 217
    (2011), Alg. 4.4) and q power iterations give a basis of f (f^dag f)^q
    Omega.  The sketch f Omega and each product f (f^dag q) get one Householder
    QR, so the last QR is already the orthonormal Q, n_s x l: the bundled grid
    takes three QRs.  The iterate f^dag q between them is not normalized, so
    the singular values of f (f^dag q) spread over (lam_1 / lam_l)^2; the kept
    lam_j still come out within the eps lam_1 rounding of a dense SVD.  Every
    product and factorization is numpy's, in its one BLAS thread pool.  The
    SVD of the small Q^dag f gives lam_j and the modes.  The kept part of
    Q Q^dag F, F = f sqrt(dnu_s dnu_i), is an orthogonal projection of F, so
    for any Q the weight it leaves out is exactly ||F||^2 - sum_{j<=k}
    lam_j^2 (ibid. Sec. 4.3), with ||F||^2 the
    pairwise sum the normalization check takes, not the assumed 1, which that
    check lets be off by 1e-6.  truncated(rank_cutoff) keeps the fewest modes
    whose left-out weight is at most rank_cutoff, so the squared
    reconstruction error is the reported residual, certified whatever the
    sketch.  The sketch sets only how accurate the kept lam_j and modes are,
    and three rules read off the same spectrum decide when it is accurate
    enough:

    - oversampling margin: the k kept modes leave at least l/8 of the l
      columns spare, which keeps the Gaussian sketch's constant bounded (ibid.
      Sec. 10); otherwise the width doubles.
    - iteration count: after q iterations lam_k carries a relative error of
      about x^(2q+1), x = (lam_l / lam_k)^2 the weight of the last sketched
      mode over that of the last kept one (Gu, SIAM J. Sci. Comput. 37, A1139
      (2015)).  The pass starts at q = POWER_ITERATIONS and takes the fewest
      further iterations that bring x^(2q+1) down to eps lam_1 / lam_k, the
      relative rounding a dense SVD leaves on lam_k.
    - width: when that would more than double the pass's products with f
      (more than 2q + 1 iterations), or x = 1, the width doubles instead.

    The width starts at min(n_s, n_i) / 4: a pass makes 2q + 2 products with f
    of n_s n_i l multiply-adds each, so a wider first pass would cost more than
    a dense SVD of the grid.  It ends at min(n_s, n_i), where Q spans the whole
    range of f: that pass is exact, needs no iterations and ends the loop.

    All three kinds of product with f (the sketch f Omega, the power
    iterations and f^T conj(Q)) multiply only the column span of each block
    of the amplitude's band and skip the blocks of +0 (JointAmplitude.band).
    The bundled 2048^2 amplitude is nonzero in about 6% of its cells, around
    the anti-diagonal, and the block spans cover about 9%, so each product
    costs about a tenth of the dense one; on a dense grid it is the plain
    product.

    Raises:
        ContractError: if the input is not normalized, or rank_cutoff is NaN
            or negative.
    """
    if not jsa.normalized:
        raise ContractError("decompose requires a normalized JointAmplitude")
    if not rank_cutoff >= 0.0:  # False for NaN
        raise ContractError(f"rank_cutoff must be a weight >= 0, got {rank_cutoff!r}")
    norm_squared = jsa.check_normalized(tol=1e-6)
    ds, di = jsa.grid.step_signal, jsa.grid.step_idler
    full = min(jsa.values.shape)
    width = max(full // 4, 1)
    while True:
        iterations = 0 if width == full else POWER_ITERATIONS
        q = _power_iterate(jsa, _sketch_basis(jsa, width), iterations)
        while True:
            sketch = _projected_schmidt(jsa, q, ds, di, norm_squared)
            kept = sketch.truncated(rank_cutoff)
            if width == full:
                return kept
            keep = len(kept.coefficients)
            needed = _iterations_needed(sketch.coefficients, keep)
            if keep > width - width // 8 or needed > 2 * iterations + 1:
                break
            if needed <= iterations:
                return kept
            q = _power_iterate(jsa, q, needed - iterations)
            iterations = needed
        width = min(2 * width, full)


def mode_means(coefficients, gain) -> np.ndarray:
    """Per-mode thermal pair means m_k = sinh^2(B lam_k) at gain B."""
    return np.sinh(gain * np.asarray(coefficients, dtype=float)) ** 2


def gain_for_mean_n(mean_n, coefficients):
    """Invert sum_k mode_means(coefficients, B) = mean_n for the gain B.

    Bisects [0, 2 asinh(sqrt(mean_n)) / max lam] for at most 200 steps and
    stops once the midpoint equals an end of the bracket, about 55 steps in.
    That returns the double the full 200 steps give: lo only ever holds a
    point where the sum is below mean_n (the sum is 0 at 0), so a midpoint
    equal to lo leaves the bracket as it is, and one equal to hi leaves it or
    collapses it onto hi; either way every later step repeats and the result
    0.5 (lo + hi) is that midpoint.

    Raises:
        ContractError: if mean_n is NaN or infinite, or the coefficients are
            empty, hold a non-finite or negative entry, or are all zero.
    """
    if not math.isfinite(mean_n):
        raise ContractError(f"gain_for_mean_n needs a finite mean photon number, got {mean_n!r}")
    lam = np.asarray(coefficients, dtype=float).ravel()
    if not (lam.size and np.all(np.isfinite(lam)) and np.all(lam >= 0) and np.any(lam)):
        raise ContractError("gain_for_mean_n needs Schmidt coefficients that are finite, "
                            "nonnegative and not all zero")
    if mean_n <= 0:
        return 0.0
    lo, hi = 0.0, 2.0 * math.asinh(math.sqrt(mean_n)) / float(np.max(lam))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if np.add.reduce(mode_means(lam, mid)) < mean_n:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _require_square(jsa: JointAmplitude):
    if not jsa.grid.is_square:
        raise GridShapeError("overlap functionals require a square grid "
                             "(equal point counts and spans)")


def _lag_sums(jsa: JointAmplitude):
    """Lag sums c_d, d = 0 .. n - 1, c_0 halved: O(tau) = 2 Re sum_d c_d exp(i tau d dnu).

    c_d = sum_m conj(f[m, m + d]) f[m + d, m] reads each diagonal d only on
    lo[d] <= m < hi[d], the hull of the m whose cell (m, m + d) lies in a
    block of the band; every other pair holds a +0.
    """
    _require_square(jsa)
    f = jsa.values
    n = len(f)
    d = np.arange(n)
    lo, hi = np.full(n, n), np.zeros(n, dtype=int)
    for rows, cols in jsa.band.blocks:
        start = np.maximum(rows.start, cols.start - d)
        stop = np.minimum(rows.stop, cols.stop - d)
        held = start < stop
        np.minimum(lo, np.where(held, start, n), out=lo)
        np.maximum(hi, np.where(held, stop, 0), out=hi)
    c = np.zeros(n, dtype=complex)
    for k in np.flatnonzero(lo < hi):
        m = slice(lo[k], hi[k])
        c[k] = np.vdot(np.diagonal(f, k)[m], np.diagonal(f, -k)[m])
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
    x, fx, _ = bounded_brent(lambda t: -magnitude(t), max(lo, tau - step),
                             min(hi, tau + step), xatol=POLISH_XATOL)
    return (float(x), float(-fx)) if -fx > best else (tau, best)


def density_overlap(jsa: JointAmplitude) -> float:
    """Overlap of the signal and idler spectral densities.

    With F = f sqrt(dnu_s dnu_i), the kernels are g_s = conj(F) F^T and
    g_i = F^dag F, and trace(g_s g_i) = ||F conj(F)||_F^2 = ||f conj(f)||_F^2
    (dnu_s dnu_i)^2, on the amplitude as stored; real in [0, 1], bounded by
    the purity 1/K.  The product is accumulated over the blocks of rows r
    of the amplitude's band: the block f[r] conj(f) is f[r, c] conj(f[c, b]),
    with c the block's column span and b the span of the rows c, so blocks
    of +0 are never multiplied.
    """
    _require_square(jsa)
    f, band = jsa.values, jsa.band
    total = 0.0
    for rows, cols in band.blocks:
        product = f[rows, cols] @ f[cols, band.span(cols)].conj()
        total += np.vdot(product, product).real
    return float(total) * jsa.cell_area**2


def schmidt_spectral_overlap(sd: SchmidtData) -> float:
    """Spectral overlap through the Schmidt basis.

    O = sum_{k, n} lam_k lam_n <psi_n, phi_k> <phi_n, psi_k>, the same
    functional as spectral_overlap up to the truncation residual.  Swapping
    k and n conjugates each term, so O is real.
    """
    lam = sd.coefficients
    cross_ip = sd.idler_modes.conj().T @ sd.signal_modes * sd.step_signal
    cross_pi = sd.signal_modes.conj().T @ sd.idler_modes * sd.step_idler
    return float(np.sum(np.outer(lam, lam) * cross_ip * cross_pi).real)

