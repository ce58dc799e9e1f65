"""Joint spectral amplitude on a detuning grid.

The normalized complex amplitude of a photon pair is assembled as

    f(nu_s, nu_i) = pump(nu_s + nu_i) * pm(nu_s, nu_i) / N

with a Gaussian pump envelope exp(-(nu_s + nu_i)^2 / sigma^2), a
phasematching factor sinc(L dk / 2) exp(i L dk / 2) (or its Gaussian
approximation exp(-gamma L^2 dk^2 / 4) with the same phase), and N fixed by
the discrete normalization sum |f|^2 dnu_s dnu_i = 1.  That sum is defined
row first: each signal row's sum_i |f|^2 is one whole-row sum, and the norm
is the sum of those row weights.  Every pass over a grid walks one row
partition, blocks of BLOCK_ROWS rows (_blocks): the build, every |f|^2
reduction (the norm, the filter transmission, the marginals), the band scan,
the filter and every grid product of the schmidt module.  So no pass
allocates an array the size of the grid, and the bits of the build and of
the reductions do not depend on BLOCK_ROWS.  The stored amplitude is the
formula cut at the pump band: every cell where (nu_s + nu_i)^2 / sigma^2 >
PUMP_CUT, i.e. where the pump envelope is below e^-40 of its peak, holds
+0, and only the band is evaluated.  No stored real or imaginary part is
subnormal or -0: parts with |x| < TINY are stored as +0.

Every grid that build_jsa, apply_filter and load_grid return lives in
demand-zero pages (_zero_grid): a page of the grid takes memory only once a
cell on it is written, and reading a page never written maps the kernel's
shared zero page.  Each of the three writes only the pump band, so a
broadband amplitude on a 2048^2 grid holds about a fifth of its 64 MiB in
memory, and no reader of the grid, dense or banded, makes more of it
resident.

No pass here or in the schmidt module reads a grid outside its band
(JointAmplitude.band): the columns of each row whose bits are not +0, and
the column span of each block.  build_jsa, apply_filter and load_grid hand
the band over with the grid, found only in the (rows, cols) windows they
wrote (_find_band), so the pages they never wrote are not even mapped; an
amplitude built by hand scans every cell for it, once.  The dump, the
filter, every grid product of the schmidt module and every |f|^2 reduction
read only the band's blocks.  A reduction takes |f|^2 on a block's span into
a zeroed scratch of whole rows (_intensity_blocks), so its sums have the
bits of the dense ones.

Everything operates on detunings from the mode carriers; absolute axes are
reconstructed only for display.  All transforms are pure and return new
values.
"""
import math
import mmap
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dispersion import DeviceSpec, delta_k
from .errors import (ConfigError, ContractError, GridShapeError, RangeError,
                     ResolutionError)
from .units import bandwidth_nm_to_angular

NORMALIZATION_TOL = 1e-9

# largest share of the norm the two border rows, or the two border columns, may hold
# (check_span): at the bundled 2048^2 grid they hold 5.0e-9 and 1.1e-6, at a +-9 THz span
# 2.2e-5 and 1.6e-4, which moves |O| by 0.0039
SPAN_TOL = 1e-5

# minimum number of grid steps across the narrowest intensity feature
MIN_POINTS_PER_WIDTH = 8

# half-max factor for sinc^2: sinc(x)^2 = 1/2 at x = X_HALF_SINC_SQ
X_HALF_SINC_SQ = 1.3915573

# build_jsa stores +0 where the pump envelope exp(-(s / sigma)^2) has (s / sigma)^2 > PUMP_CUT:
# below e^-40, about 4e-18 of its peak, so each cut cell's weight is below e^-80 of the peak's
PUMP_CUT = 40.0

# grid rows per block of every pass over a grid: a pass's temporaries are BLOCK_ROWS * n_i
# cells (1 MiB of |f|^2 at 4096 columns), a block's column span exceeds one row's band by
# about BLOCK_ROWS columns on an anti-diagonal ridge, and BLAS multiplies a block at full rate
BLOCK_ROWS = 32

# the smallest normal double: amplitude parts below it in magnitude are stored as +0
TINY = np.finfo(float).tiny

# the last header line of every grid dump: the arrays that follow it (see dump_grid)
DUMP_LAYOUT = ("band-only grid dump: spans [span_s, span_i] rad/ps; [n_s, n_i, normalized]; "
               "band first and end of each signal row; the band's cells row by row, "
               "amplitude (rad/ps)^-1")


@dataclass(frozen=True)
class PumpSpec:
    """Pump envelope exp(-(nu/sigma)^2) with sigma the 1/e field half-width in rad/ps."""

    sigma: float

    def __post_init__(self):
        if not 0.0 < self.sigma < math.inf:
            raise ConfigError(f"pump sigma must be positive and finite, got {self.sigma}")

    @classmethod
    def from_fwhm_nm(cls, fwhm_nm, center_nm):
        """Build from the intensity FWHM of the pump spectrum in wavelength.

        The intensity |exp(-(nu/sigma)^2)|^2 has angular-frequency FWHM
        sigma * sqrt(2 ln 2); invert that after converting nm to rad/ps.
        """
        dw = bandwidth_nm_to_angular(fwhm_nm, center_nm)
        return cls(sigma=dw / math.sqrt(2.0 * math.log(2.0)))

    @property
    def intensity_fwhm(self) -> float:
        """Angular-frequency intensity FWHM in rad/ps."""
        return self.sigma * math.sqrt(2.0 * math.log(2.0))


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform detuning grid centered on (0, 0), spans are half-widths in rad/ps."""

    n_s: int
    n_i: int
    span_s: float
    span_i: float

    def __post_init__(self):
        if self.n_s < 2 or self.n_i < 2:
            raise ConfigError("grid needs at least 2 points per axis")
        if not (0.0 < self.span_s < math.inf and 0.0 < self.span_i < math.inf):
            raise ConfigError(f"grid spans must be positive and finite, "
                              f"got {self.span_s}, {self.span_i}")

    @classmethod
    def square(cls, n, span):
        return cls(n, n, span, span)

    @property
    def axis_signal(self):
        return np.linspace(-self.span_s, self.span_s, self.n_s)

    @property
    def axis_idler(self):
        return np.linspace(-self.span_i, self.span_i, self.n_i)

    @property
    def step_signal(self):
        return 2.0 * self.span_s / (self.n_s - 1)

    @property
    def step_idler(self):
        return 2.0 * self.span_i / (self.n_i - 1)

    @property
    def is_square(self):
        return self.n_s == self.n_i and self.span_s == self.span_i


@dataclass(frozen=True)
class FilterSpec:
    """Band-pass filter acting on one or both detuning axes.

    bandwidth is the intensity FWHM in rad/ps; the amplitude transmission is
    the square root of the intensity profile.  Shapes: 'gaussian',
    'supergaussian' (flat-top of the given order), 'rectangular'.
    """

    shape: str
    bandwidth: float
    center: float = 0.0
    order: int = 4
    applies_to: str = "both"

    def __post_init__(self):
        if self.shape not in ("gaussian", "supergaussian", "rectangular"):
            raise ConfigError(f"unknown filter shape {self.shape!r}")
        if not 0.0 < self.bandwidth < math.inf:
            raise ConfigError(f"filter bandwidth must be positive and finite, "
                              f"got {self.bandwidth}")
        if not math.isfinite(self.center):
            raise ConfigError(f"filter center must be finite, got {self.center}")
        if self.order < 1:
            raise ConfigError("supergaussian order must be >= 1")
        if self.applies_to not in ("signal", "idler", "both"):
            raise ConfigError(f"invalid applies_to {self.applies_to!r}")

    def amplitude(self, nu):
        """Amplitude transmission at detuning nu (sqrt of the intensity profile)."""
        u = 2.0 * (np.asarray(nu, dtype=float) - self.center) / self.bandwidth
        if self.shape == "rectangular":
            return np.where(np.abs(u) <= 1.0, 1.0, 0.0)
        m = 1 if self.shape == "gaussian" else self.order
        return np.exp(-0.5 * math.log(2.0) * np.abs(u) ** (2 * m))


@dataclass(frozen=True)
class Band:
    """Where a grid's bits are not +0.

    Row r holds a cell that is not +0 only in the columns first[r]:end[r]
    (first = n_i, end = 0 for a row of +0).  blocks lists, for each block of
    _blocks that holds such a cell, its row slice and the span of its rows'
    ranges; every other cell of the grid is +0.
    """

    first: np.ndarray
    end: np.ndarray
    blocks: tuple

    def span(self, rows):
        """The columns holding every cell of the rows that is not +0."""
        return slice(int(self.first[rows].min()), int(self.end[rows].max()))


def _blocks(n_rows):
    """The row partition of every pass over a grid: slices of BLOCK_ROWS rows, the last ragged."""
    return [slice(start, min(start + BLOCK_ROWS, n_rows))
            for start in range(0, n_rows, BLOCK_ROWS)]


def _find_band(values, windows=None) -> Band:
    """The Band of a grid, read only in the given (rows, cols) windows.

    Each window is a block of _blocks, in order, and a column range within
    the grid; every cell outside the windows must be +0.  Without windows,
    every block is read whole.
    """
    n_s, n_i = values.shape
    if windows is None:
        windows = [(rows, slice(0, n_i)) for rows in _blocks(n_s)]
    first, end = np.full(n_s, n_i), np.zeros(n_s, dtype=int)
    blocks = []
    for rows, cols in windows:
        bits = np.ascontiguousarray(values[rows, cols], dtype=complex).view(np.uint64)
        held = (bits[:, 0::2] | bits[:, 1::2]) != 0
        some = held.any(axis=1)
        if some.any():
            first[rows] = np.where(some, cols.start + held.argmax(axis=1), n_i)
            end[rows] = np.where(some, cols.stop - held[:, ::-1].argmax(axis=1), 0)
            blocks.append((rows, slice(int(first[rows].min()), int(end[rows].max()))))
    return Band(first=first, end=end, blocks=tuple(blocks))


@dataclass(frozen=True)
class JointAmplitude:
    """Complex joint amplitude sampled on a FrequencyGrid (rows = signal axis)."""

    grid: FrequencyGrid
    values: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        if self.values.shape != (self.grid.n_s, self.grid.n_i):
            raise GridShapeError(
                f"values shape {self.values.shape} does not match grid "
                f"({self.grid.n_s}, {self.grid.n_i})"
            )

    @property
    def cell_area(self):
        return self.grid.step_signal * self.grid.step_idler

    @classmethod
    def _from_windows(cls, grid, values, windows, normalized=True):
        """An amplitude whose cells outside the (rows, cols) windows of _find_band are +0.

        Its band is found in the windows alone, so build_jsa, apply_filter and
        load_grid never scan a grid densely.
        """
        jsa = cls(grid=grid, values=values, normalized=normalized)
        jsa.__dict__["band"] = _find_band(values, windows)  # seeds the cached property
        return jsa

    @cached_property
    def band(self) -> Band:
        """The Band of values, found on first use; values must not change after it.

        build_jsa, apply_filter and load_grid hand it over (_from_windows); an
        amplitude built by hand scans every cell for it, once.
        """
        return _find_band(self.values)

    def norm_squared(self) -> float:
        """Discrete norm sum |f|^2 dnu_s dnu_i, the sum of the row weights.

        Only the band's blocks are read (_intensity_blocks); rows outside
        them weigh +0.  The temporaries are one block's scratch and the n_s
        row weights.
        """
        return float(np.sum(_row_weights(self.values, self.band.blocks)) * self.cell_area)

    def check_normalized(self, tol=NORMALIZATION_TOL) -> float:
        """Return the discrete norm; raise ContractError if it is off 1 by more than tol."""
        norm_squared = self.norm_squared()
        err = abs(norm_squared - 1.0)
        if err > tol:
            raise ContractError(f"normalization off by {err:.2e}")
        return norm_squared

    def check_span(self):
        """Return the shares of the norm held by the two border rows and by the two
        border columns, taken from the marginals; raise ResolutionError if either
        is above SPAN_TOL, since the grid then cuts the amplitude off.

        build_jsa does not call it, so a grid narrower than the amplitude still
        builds (the benchmark's reduced pass uses one);
        config.amplitude_from_config runs it on every build it makes.
        """
        sig, idl = marginals(self)
        rows = float((sig[0] + sig[-1]) / np.sum(sig))
        cols = float((idl[0] + idl[-1]) / np.sum(idl))
        if max(rows, cols) > SPAN_TOL:
            raise ResolutionError(
                f"the grid's border rows hold {rows:.1e} and its border columns {cols:.1e} "
                f"of the norm, more than {SPAN_TOL:g}: the span cuts the amplitude off; "
                "widen the span")
        return rows, cols


def pump_envelope(pump: PumpSpec, nu_s, nu_i):
    """Pump amplitude exp(-(nu_s + nu_i)^2 / sigma^2); real, positive, <= 1."""
    s = np.asarray(nu_s) + np.asarray(nu_i)
    return np.exp(-((s / pump.sigma) ** 2))


def pm_function(spec: DeviceSpec, nu_s, nu_i, approximation="sinc"):
    """Complex phasematching factor.

    'sinc' returns sinc(L dk / 2) exp(i L dk / 2); 'gaussian' replaces the
    real envelope with exp(-gamma (L dk / 2)^2) of matched amplitude FWHM,
    keeping the identical phase factor.  Equals 1 at dk = 0.
    """
    x = 0.5 * spec.length_um * delta_k(spec, nu_s, nu_i)
    if approximation == "sinc":
        env = np.sinc(x / np.pi)  # np.sinc(z) = sin(pi z)/(pi z)
    elif approximation == "gaussian":
        env = np.exp(-spec.gamma * x**2)
    else:
        raise ConfigError(f"unknown phasematching approximation {approximation!r}")
    return env * np.exp(1j * x)


def _principal_widths(spec: DeviceSpec, pump: PumpSpec):
    """Per-axis intensity FWHMs of the two principal features (pump, PM)."""
    pump_width = pump.intensity_fwhm
    # sinc^2 half-width in dk maps to a per-axis detuning width via kappa
    dk_fwhm = 4.0 * X_HALF_SINC_SQ / spec.length_um
    pm_widths = [dk_fwhm / abs(k) for k in (spec.kappa_s, spec.kappa_i) if k != 0]
    return pump_width, min(pm_widths) if pm_widths else math.inf


def _intensity_blocks(values, windows):
    """Yield (rows, cols, |f|^2 of the rows) for each (rows, cols) window of _find_band.

    |f|^2 is taken only on the window and written into one zeroed BLOCK_ROWS
    x n_i scratch, whose other cells hold +0.  So, as long as every cell
    outside the windows is +0, the yielded rows hold the values of the dense
    np.abs(values[rows]) ** 2 in its layout, and whole-row and column sums
    over them have its bits.  The consumer may write only in the window's
    columns, which are zeroed again before the next window.
    """
    scratch = np.zeros((BLOCK_ROWS, values.shape[1]))
    for rows, cols in windows:
        w = scratch[:rows.stop - rows.start]
        cells = w[:, cols]
        np.abs(values[rows, cols], out=cells)
        np.square(cells, out=cells)
        yield rows, cols, w
        cells[...] = 0.0


def _row_weights(values, windows):
    """Per-row sums sum_i |f[s, i]|^2 of a grid that is +0 outside the windows.

    Each row is summed whole, so the bits do not depend on BLOCK_ROWS; a row
    outside every window weighs +0.
    """
    weights = np.zeros(len(values))
    for rows, _, w in _intensity_blocks(values, windows):
        weights[rows] = np.sum(w, axis=1)
    return weights


def _zero_grid(n_s, n_i):
    """An n_s x n_i complex array of +0 in demand-zero pages.

    The anonymous map is advised against huge pages (MADV_NOHUGEPAGE, where
    mmap has it), so each 4 KiB page takes memory only when a cell on it is
    first written, whatever the host's transparent huge page mode.  It is
    private because a page of a shared one is allocated when it is read; a
    page of a private one that is only read maps the kernel's shared zero page.
    """
    pages = mmap.mmap(-1, 16 * n_s * n_i, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        pages.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(pages, dtype=complex).reshape(n_s, n_i)


def _rescale(values, windows, scale):
    """Divide each (rows, cols) window of values by scale, in place, and store every
    real or imaginary part with |x| < TINY (±0 and subnormals) there as +0."""
    for rows, cols in windows:
        cells = values[rows, cols]
        cells /= scale
        parts = cells.view(float)
        parts[np.abs(parts) < TINY] = 0.0


def build_jsa(spec: DeviceSpec, pump: PumpSpec, grid: FrequencyGrid,
              approximation="sinc") -> JointAmplitude:
    """Assemble the normalized joint spectral amplitude on the grid.

    The amplitude carries the full complex phase exp(i L dk / 2).  It is cut
    at the pump band: every cell where (nu_s + nu_i)^2 / sigma^2 > PUMP_CUT,
    i.e. where the pump envelope is below e^-40 of its peak, is +0.  The cut
    is decided per cell, so the bits do not depend on BLOCK_ROWS.  Each block
    of _blocks evaluates pm_function and pump_envelope only on the columns within
    sigma sqrt(PUMP_CUT) of its rows' anti-diagonal, and every other cell
    stays +0 (about 93% of the bundled 2048^2 grid).  A cut cell's weight is
    below e^-80 |pm|^2 / N^2, so the cut drops at most e^-80 cells max|pm|^2
    dnu_s dnu_i / N^2 of the norm, under 1e-30 on the bundled grids.  N is
    the row-sum norm of the cut grid (see norm_squared), so the only
    n_s x n_i array is the result, a _zero_grid whose cells outside the
    blocks' column ranges are never written and take no memory.  After the
    normalization every real or imaginary part with |x| < TINY (±0 and
    subnormals) is set to +0: a matrix product that reads subnormal operands
    runs 2-3.5x slower, and their squares are already 0, so the norm does not
    change.  The result has the bits of the dense formula f = pm * pump / N
    on the full grid, cut and flushed in the same way.

    Raises:
        ResolutionError: if the grid resolves the narrower of the pump and
            phasematching intensity widths with fewer than 8 steps.
    """
    pump_width, pm_width = _principal_widths(spec, pump)
    narrow = min(pump_width, pm_width)
    step = max(grid.step_signal, grid.step_idler)
    if narrow / step < MIN_POINTS_PER_WIDTH:
        raise ResolutionError(
            f"grid step {step:.4g} rad/ps resolves the narrowest feature "
            f"({narrow:.4g} rad/ps) with {narrow / step:.1f} < "
            f"{MIN_POINTS_PER_WIDTH} points; refine the grid or shrink the span"
        )
    axis_s, axis_i = grid.axis_signal, grid.axis_idler
    values = _zero_grid(grid.n_s, grid.n_i)
    reach = pump.sigma * math.sqrt(PUMP_CUT)
    windows = []
    for rows in _blocks(grid.n_s):
        nu_s = axis_s[rows]
        # every cell of the block with |nu_s + nu_i| <= reach, with one column to spare for rounding
        cols = slice(max(np.searchsorted(axis_i, -nu_s[-1] - reach, "left") - 1, 0),
                     min(np.searchsorted(axis_i, reach - nu_s[0], "right") + 1, grid.n_i))
        windows.append((rows, cols))
        nu_s, nu_i = np.meshgrid(nu_s, axis_i[cols], indexing="ij")
        cells = values[rows, cols]
        np.multiply(pm_function(spec, nu_s, nu_i, approximation),
                    pump_envelope(pump, nu_s, nu_i), out=cells)
        cells[((nu_s + nu_i) / pump.sigma) ** 2 > PUMP_CUT] = 0.0
    norm = math.sqrt(np.sum(_row_weights(values, windows)) * grid.step_signal * grid.step_idler)
    _rescale(values, windows, norm)
    return JointAmplitude._from_windows(grid, values, windows)


def apply_filter(jsa: JointAmplitude, filt: FilterSpec):
    """Apply a band-pass filter and renormalize.

    Only the blocks of the input's band are copied, filtered, rescaled and
    flushed, into a _zero_grid result: every other cell is +0, which a
    filter transmission (finite, >= 0) and the rescaling keep +0, and is
    never written, so it takes no memory.  The transmitted fraction is the
    row-sum norm of the filtered grid (see norm_squared), so the result is
    the only n_s x n_i array, and it has the bits of the dense formula.  As
    in build_jsa, every real or imaginary part of the result with |x| < TINY
    is stored as +0, so no filtered amplitude holds a subnormal.

    Returns:
        (filtered JointAmplitude, transmitted fraction), the fraction being
        the pre-renormalization intensity transmission (heralding-relevant).

    Raises:
        ContractError: if the input is not normalized.
        ResolutionError: if the filter bandwidth spans fewer than 2 grid steps,
            or if it transmits none of the intensity.
    """
    jsa.check_normalized()
    if filt.bandwidth < 2.0 * max(jsa.grid.step_signal, jsa.grid.step_idler):
        raise ResolutionError(
            f"filter bandwidth {filt.bandwidth:.4g} rad/ps narrower than two "
            "grid steps; refine the grid"
        )
    signal = filt.amplitude(jsa.grid.axis_signal)
    idler = filt.amplitude(jsa.grid.axis_idler)
    values = _zero_grid(jsa.grid.n_s, jsa.grid.n_i)
    blocks = jsa.band.blocks
    for rows, cols in blocks:
        cells = values[rows, cols]
        cells[...] = jsa.values[rows, cols]
        if filt.applies_to in ("signal", "both"):
            cells *= signal[rows, None]
        if filt.applies_to in ("idler", "both"):
            cells *= idler[None, cols]
    transmitted = float(np.sum(_row_weights(values, blocks)) * jsa.cell_area)
    if transmitted == 0.0:
        raise ResolutionError(
            f"filter ({filt.shape}, {filt.bandwidth:.4g} rad/ps at {filt.center:.4g} rad/ps) "
            "transmits none of the intensity; nothing is left to renormalize"
        )
    if transmitted < 1e-6:
        warnings.warn(
            f"filter transmits only {transmitted:.2e} of the intensity; "
            "renormalized output is dominated by numerical tails",
            stacklevel=2,
        )
    _rescale(values, blocks, math.sqrt(transmitted))
    return JointAmplitude._from_windows(jsa.grid, values, blocks), transmitted


def marginals(jsa: JointAmplitude):
    """Signal and idler marginal intensity densities, each integrating to 1.

    One pass over |f|^2 block by block, O(block + n_s + n_i) memory.  The
    signal marginal is the row weights of norm_squared times the idler step.
    The idler marginal adds the rows in order, block after block, which gives the
    bits of one column sum over the whole grid.
    """
    sig = np.zeros(jsa.grid.n_s)
    idl = np.zeros(jsa.grid.n_i)
    for rows, cols, w in _intensity_blocks(jsa.values, jsa.band.blocks):
        sig[rows] = np.sum(w, axis=1)
        w[0, cols] += idl[cols]  # the running column sums enter as the block's first row
        idl[cols] = np.sum(w[:, cols], axis=0)
    return sig * jsa.grid.step_idler, idl * jsa.grid.step_signal


def fwhm(x, y):
    """Full width at half maximum of a sampled profile, linearly interpolated.

    Returns:
        (width, center) where center is the midpoint of the half-max crossings.

    Raises:
        RangeError: if the profile does not cross half maximum inside the range.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    half = y.max() / 2.0
    above = np.flatnonzero(y >= half)
    if above.size == 0:
        raise RangeError("profile has no points above half maximum")
    lo, hi = above[0], above[-1]
    if lo == 0 or hi == len(y) - 1:
        raise RangeError("half-maximum crossing falls outside the sampled range")
    left = x[lo - 1] + (half - y[lo - 1]) * (x[lo] - x[lo - 1]) / (y[lo] - y[lo - 1])
    right = x[hi] + (half - y[hi]) * (x[hi + 1] - x[hi]) / (y[hi + 1] - y[hi])
    return right - left, 0.5 * (left + right)


def jsi_linewidth(jsa: JointAmplitude, axis="antidiagonal") -> float:
    """Intensity FWHM of the JSI along a cut through the grid center.

    The 'antidiagonal' cut runs along nu_s = nu_i (across the spectrally
    anti-correlated ridge), the 'diagonal' cut along nu_s = -nu_i (along the
    ridge).  The profile is parameterized by the signed Euclidean distance
    from the center in the detuning plane, so the returned width is a length
    in rad/ps measured in the 2-D frequency plane.
    """
    if not jsa.grid.is_square:
        raise GridShapeError("linewidth cuts require a square grid")
    n = jsa.grid.n_s
    if axis == "antidiagonal":
        cut = np.diagonal(jsa.values)
    elif axis == "diagonal":
        cut = jsa.values[np.arange(n), n - 1 - np.arange(n)]
    else:
        raise ConfigError(f"unknown cut axis {axis!r}")
    t = jsa.grid.axis_signal * math.sqrt(2.0)
    width, _ = fwhm(t, np.abs(cut) ** 2)
    return width


def dump_grid(jsa: JointAmplitude, path, header_lines=()):
    """Write the amplitude's band as a run of .npy arrays in one binary file.

    The arrays, in order: the header lines and DUMP_LAYOUT (str); the spans
    [span_s, span_i] (float64); [n_s, n_i, normalized] (int64); the band's
    first and end of each row (int64, see Band); and the band's cells, row
    after row (complex128).  Every other cell is +0, so the file holds the
    grid bit for bit: the bundled 2048^2 amplitude takes 3.75 MB, where every
    cell would take 64 MiB.  The arrays go through one open handle, since
    np.save given a path appends '.npy' to it.  The cells array's header is
    written once and then the cells of each block of BLOCK_ROWS rows, so the
    band is never gathered into one array.
    """
    g, band = jsa.grid, jsa.band
    first, end = band.first.astype(np.int64), band.end.astype(np.int64)
    arrays = (np.array([*header_lines, DUMP_LAYOUT], dtype=str),
              np.array([g.span_s, g.span_i], dtype=float),
              np.array([g.n_s, g.n_i, int(jsa.normalized)], dtype=np.int64), first, end)
    # a row of +0 has first = n_i > end = 0, so it holds no cell
    count = int(np.sum(np.maximum(end - first, 0)))
    cells = {"descr": np.lib.format.dtype_to_descr(np.dtype(complex)),
             "fortran_order": False, "shape": (count,)}
    with open(path, "wb") as fh:
        for array in arrays:
            np.save(fh, array, allow_pickle=False)
        np.lib.format.write_array_header_1_0(fh, cells)
        lo, hi = first.tolist(), end.tolist()
        for block in _blocks(g.n_s):
            fh.write(np.concatenate([jsa.values[r, lo[r]:hi[r]]
                                     for r in range(block.start, block.stop)], dtype=complex))


def load_grid(path) -> JointAmplitude:
    """Read an amplitude written by dump_grid, bit for bit.

    The arrays are read in dump_grid's order with allow_pickle=False, so a
    file can hold no object, and each is checked before the next is read.
    Only the band's cells are written into the _zero_grid result, so only
    the band becomes resident.  The result's band is found in each block's
    hull of first:end, so neither it nor the norm check reads a cell never
    written.

    Raises:
        ConfigError: naming the file, if it does not hold these arrays in
            order and nothing else (a truncated file, a text dump, an object
            array, an array of another dtype or length), a row's band is
            neither within 0:n_i nor the empty n_i:0, the cells do not number
            sum(end - first), or a file marked normalized is not normalized
            to NORMALIZATION_TOL.
    """
    with open(path, "rb") as fh:
        if not fh.peek(6).startswith(np.lib.format.MAGIC_PREFIX):
            raise ConfigError(f"grid dump {path} is not a .npy file: a grid dump is a run of "
                              ".npy arrays, and text dumps are no longer read")

        def read(what, dtype, size=None):
            try:
                array = np.load(fh, allow_pickle=False)
            except (ValueError, EOFError, MemoryError) as exc:  # MemoryError: a huge shape
                raise ConfigError(f"grid dump {path}: cannot read its {what}: {exc}") from exc
            if not (isinstance(array, np.ndarray) and np.issubdtype(array.dtype, dtype)
                    and array.ndim == 1 and (size is None or array.size == size)):
                got = (f"{array.dtype} of shape {array.shape}" if isinstance(array, np.ndarray)
                       else type(array).__name__)
                length = "" if size is None else f" of length {size}"
                raise ConfigError(f"grid dump {path}: its {what} are not a 1-D "
                                  f"{np.dtype(dtype).name} array{length}, got {got}")
            return array
        read("header lines", np.str_)
        spans = read("spans", np.float64, 2)
        n_s, n_i, normalized = read("sizes", np.int64, 3).tolist()
        try:
            grid = FrequencyGrid(n_s, n_i, *spans.tolist())
        except ConfigError as exc:
            raise ConfigError(f"grid dump {path}: {exc}") from exc
        if normalized not in (0, 1):
            raise ConfigError(f"grid dump {path}: its normalized flag is {normalized}, not 0 or 1")
        first, end = (read("band first columns", np.int64, n_s),
                      read("band end columns", np.int64, n_s))
        held = first < end
        bad = ~((held & (first >= 0) & (end <= n_i)) | ((first == n_i) & (end == 0)))
        if bad.any():
            r = int(np.argmax(bad))
            raise ConfigError(f"grid dump {path}: row {r} has the band {first[r]}:{end[r]}, "
                              f"neither within 0:{n_i} nor the empty {n_i}:0")
        rows = np.flatnonzero(held)
        cells = read("band cells", np.complex128, int(np.sum(end[rows] - first[rows])))
        if fh.read(1):
            raise ConfigError(f"grid dump {path} holds bytes after its band cells")
    values = _zero_grid(n_s, n_i)
    at = 0
    for r, lo, hi in zip(rows.tolist(), first[rows].tolist(), end[rows].tolist()):
        values[r, lo:hi] = cells[at:at + hi - lo]
        at += hi - lo
    windows = [(block, slice(int(first[block].min()), int(end[block].max())))
               for block in _blocks(n_s) if held[block].any()]
    jsa = JointAmplitude._from_windows(grid, values, windows, normalized=bool(normalized))
    if jsa.normalized:
        try:
            jsa.check_normalized()
        except ContractError as exc:
            raise ConfigError(f"grid dump {path} says normalized=True: {exc}") from exc
    return jsa
