"""Joint spectral amplitude on a detuning grid.

The normalized complex amplitude of a photon pair is assembled as

    f(nu_s, nu_i) = pump(nu_s + nu_i) * pm(nu_s, nu_i) / N

with a Gaussian pump envelope exp(-(nu_s + nu_i)^2 / sigma^2), a
phasematching factor sinc(L dk / 2) exp(i L dk / 2) (or its Gaussian
approximation exp(-gamma L^2 dk^2 / 4) with the same phase), and N fixed by
the discrete normalization sum |f|^2 dnu_s dnu_i = 1.  That sum is defined
row first: each signal row's sum_i |f|^2 is one whole-row sum, and the norm
is the sum of those row weights.  Every |f|^2 reduction (the norm, the
filter transmission, the marginals) reads |f|^2 in row tiles of about
TILE_CELLS cells, so none allocates an array the size of the grid, and the
bits do not depend on the tile size.  The stored amplitude is the formula
cut at the pump band: every cell where (nu_s + nu_i)^2 / sigma^2 >
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

Each JointAmplitude finds its band once (JointAmplitude.band): the columns
of each row whose bits are not +0, and the span of each block of BLOCK_ROWS
rows.  The dump and every grid product of the schmidt module read only the
band.

Everything operates on detunings from the mode carriers; absolute axes are
reconstructed only for display.  All transforms are pure and return new
values.
"""
import io
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

# minimum number of grid steps across the narrowest intensity feature
MIN_POINTS_PER_WIDTH = 8

# half-max factor for sinc^2: sinc(x)^2 = 1/2 at x = X_HALF_SINC_SQ
X_HALF_SINC_SQ = 1.3915573

# grid cells per row tile of every pass over a grid: the tile temporaries stay about 1 MiB
TILE_CELLS = 1 << 16

# build_jsa stores +0 where the pump envelope exp(-(s / sigma)^2) has (s / sigma)^2 > PUMP_CUT:
# below e^-40, about 4e-18 of its peak, so each cut cell's weight is below e^-80 of the peak's
PUMP_CUT = 40.0

# grid rows per block of a band: a block's column span exceeds one row's band by about
# BLOCK_ROWS columns on an anti-diagonal ridge, and the block stays tall enough for BLAS
# to multiply at its full rate
BLOCK_ROWS = 64

# the smallest normal double: amplitude parts below it in magnitude are stored as +0
TINY = np.finfo(float).tiny

# bytes of a grid dump's body that load_grid reads at a time, cut back to the last line end
LOAD_CHUNK_BYTES = 1 << 20


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
    BLOCK_ROWS rows that holds such a cell, its row slice and the span of its
    rows' ranges; every other cell of the grid is +0.
    """

    first: np.ndarray
    end: np.ndarray
    blocks: tuple

    def span(self, rows):
        """The columns holding every cell of the rows that is not +0."""
        return slice(int(self.first[rows].min()), int(self.end[rows].max()))


def _find_band(values) -> Band:
    """The Band of a grid, read in row tiles."""
    n_s, n_i = values.shape
    first, end = np.full(n_s, n_i), np.zeros(n_s, dtype=int)
    for rows in _row_tiles(n_s, n_i):
        bits = np.ascontiguousarray(values[rows], dtype=complex).view(np.uint64)
        held = (bits[:, 0::2] | bits[:, 1::2]) != 0
        some = held.any(axis=1)
        first[rows] = np.where(some, held.argmax(axis=1), n_i)
        end[rows] = np.where(some, n_i - held[:, ::-1].argmax(axis=1), 0)
    blocks = []
    for start in range(0, n_s, BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        if np.any(end[rows] > first[rows]):
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

    @cached_property
    def band(self) -> Band:
        """The Band of values, found on first use; values must not change after it."""
        return _find_band(self.values)

    def norm_squared(self) -> float:
        """Discrete norm sum |f|^2 dnu_s dnu_i, the sum of the row weights.

        Its temporaries are one row tile and the n_s row weights.
        """
        return float(np.sum(_row_weights(self.values)) * self.cell_area)

    def check_normalized(self, tol=NORMALIZATION_TOL) -> float:
        """Return the discrete norm; raise ContractError if it is off 1 by more than tol."""
        norm_squared = self.norm_squared()
        err = abs(norm_squared - 1.0)
        if err > tol:
            raise ContractError(f"normalization off by {err:.2e}")
        return norm_squared


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


def _row_tiles(n_rows, n_cols):
    """Row slices of about TILE_CELLS cells each (at least one row) covering n_rows rows."""
    rows = max(1, TILE_CELLS // max(n_cols, 1))
    return [slice(start, start + rows) for start in range(0, n_rows, rows)]


def _intensity_tiles(values):
    """Yield (row slice, |f|^2 of those rows) over the grid, one row tile at a time."""
    for rows in _row_tiles(*values.shape):
        intensity = np.abs(values[rows])
        yield rows, np.square(intensity, out=intensity)


def _row_weights(values):
    """Per-row sums sum_i |f[s, i]|^2, with O(tile + n_s) memory.

    Each row is summed whole, so the bits do not depend on TILE_CELLS.
    """
    return np.concatenate([np.sum(w, axis=1) for _, w in _intensity_tiles(values)])


def _zero_grid(n_s, n_i):
    """An n_s x n_i complex array of +0 in demand-zero pages.

    The anonymous map is not advised to use huge pages, so each page takes
    memory only when a cell on it is first written.  It is private because a
    page of a shared one is allocated when it is read; a page of a private one
    that is only read maps the kernel's shared zero page.
    """
    pages = mmap.mmap(-1, 16 * n_s * n_i, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    return np.frombuffer(pages, dtype=complex).reshape(n_s, n_i)


def _flush_tiny(values):
    """Set every real or imaginary part with |x| < TINY (±0 and subnormals) to +0, in place."""
    for rows in _row_tiles(*values.shape):
        parts = values[rows].view(float)
        parts[np.abs(parts) < TINY] = 0.0


def build_jsa(spec: DeviceSpec, pump: PumpSpec, grid: FrequencyGrid,
              approximation="sinc") -> JointAmplitude:
    """Assemble the normalized joint spectral amplitude on the grid.

    The amplitude carries the full complex phase exp(i L dk / 2).  It is cut
    at the pump band: every cell where (nu_s + nu_i)^2 / sigma^2 > PUMP_CUT,
    i.e. where the pump envelope is below e^-40 of its peak, is +0.  The cut
    is decided per cell, so the bits do not depend on TILE_CELLS.  Each row
    tile evaluates pm_function and pump_envelope only on the columns within
    sigma sqrt(PUMP_CUT) of its rows' anti-diagonal, and every other cell
    stays +0 (about 93% of the bundled 2048^2 grid).  A cut cell's weight is
    below e^-80 |pm|^2 / N^2, so the cut drops at most e^-80 cells max|pm|^2
    dnu_s dnu_i / N^2 of the norm, under 1e-30 on the bundled grids.  N is
    the row-sum norm of the cut grid (see norm_squared), so the only
    n_s x n_i array is the result, a _zero_grid whose cells outside the
    tiles' column ranges are never written and take no memory.  After the
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
    bands = []
    for tile in _row_tiles(grid.n_s, grid.n_i):
        nu_s = axis_s[tile]
        # every cell of the tile with |nu_s + nu_i| <= reach, with one column to spare for rounding
        cols = slice(max(np.searchsorted(axis_i, -nu_s[-1] - reach, "left") - 1, 0),
                     np.searchsorted(axis_i, reach - nu_s[0], "right") + 1)
        bands.append((tile, cols))
        nu_s, nu_i = np.meshgrid(nu_s, axis_i[cols], indexing="ij")
        cells = values[tile, cols]
        np.multiply(pm_function(spec, nu_s, nu_i, approximation),
                    pump_envelope(pump, nu_s, nu_i), out=cells)
        cells[((nu_s + nu_i) / pump.sigma) ** 2 > PUMP_CUT] = 0.0
    norm = math.sqrt(np.sum(_row_weights(values)) * grid.step_signal * grid.step_idler)
    for tile, cols in bands:
        values[tile, cols] /= norm
        _flush_tiny(values[tile, cols])
    return JointAmplitude(grid=grid, values=values, normalized=True)


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
    transmitted = float(np.sum(_row_weights(values)) * jsa.cell_area)
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
    scale = math.sqrt(transmitted)
    for rows, cols in blocks:
        values[rows, cols] /= scale
        _flush_tiny(values[rows, cols])
    return JointAmplitude(grid=jsa.grid, values=values, normalized=True), transmitted


def marginals(jsa: JointAmplitude):
    """Signal and idler marginal intensity densities, each integrating to 1.

    One pass over |f|^2 in row tiles, O(tile + n_s + n_i) memory.  The signal
    marginal is the row weights of norm_squared times the idler step.  The
    idler marginal adds the rows in order, tile after tile, which gives the
    bits of one column sum over the whole grid.
    """
    sig = np.empty(jsa.grid.n_s)
    idl = np.zeros(jsa.grid.n_i)
    for rows, w in _intensity_tiles(jsa.values):
        sig[rows] = np.sum(w, axis=1)
        w[0] += idl  # the running column sums enter as the tile's first row
        idl = np.sum(w, axis=0)
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
    """Write the amplitude as a text header plus row-major 're im' pairs.

    Each double is printed with '%.17g', the shortest fixed-precision form
    that reads back to the same bits, one 're im' pair per line.  Each row's
    band is one C-level %-format call, and the +0 cells on either side of it
    are one slice of a preformatted row of '0 0' lines.
    """
    g = jsa.grid
    parts = np.ascontiguousarray(jsa.values, dtype=complex).view(float)
    parts = parts.reshape(g.n_s, 2 * g.n_i)
    band = jsa.band
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(f"# n_s={g.n_s} n_i={g.n_i} span_s={g.span_s!r} span_i={g.span_i!r}\n")
        fh.write(f"# normalized={jsa.normalized}\n")
        fh.write("# units: detuning rad/ps, amplitude (rad/ps)^-1; "
                 "row-major over (signal, idler); one 're im' pair per line\n")
        zero_row = "0 0\n" * g.n_i
        for row, lo, hi in zip(parts, band.first.tolist(), band.end.tolist()):
            if lo >= hi:
                fh.write(zero_row)
                continue
            fh.write(zero_row[:4 * lo])
            fh.write("%.17g %.17g\n" * (hi - lo) % tuple(row[2 * lo:2 * hi].tolist()))
            fh.write(zero_row[4 * hi:])


def load_grid(path) -> JointAmplitude:
    """Read an amplitude written by dump_grid, bit for bit.

    The header is every leading '#' line.  Each line after it is one 're im'
    pair, the cells in row-major order; LF and CRLF line ends are read alike,
    and the last line may lack its line end.  The body is streamed in chunks
    of about LOAD_CHUNK_BYTES cut at line ends.  A line that is exactly '0 0'
    is +0, which the _zero_grid result already holds, so it is skipped
    unwritten; the other lines of a chunk are parsed by one np.loadtxt call
    and written into their cells.  So only the band of a dump becomes
    resident, and the zero lines cost a byte comparison each.

    Raises:
        ConfigError: naming the file, if a header field is missing or
            malformed, the body does not hold n_s * n_i lines, a body line
            (blank and '#' lines included) is not one pair of numbers, also
            naming its line number, or a file marked normalized=True is not
            normalized to NORMALIZATION_TOL.
    """
    meta = {}
    with open(path, "rb") as fh:
        line, header_lines = fh.readline(), 0
        while line.startswith(b"#"):
            for tok in line[1:].decode(errors="replace").split():
                if "=" in tok:
                    k, _, v = tok.partition("=")
                    meta[k] = v
            line, header_lines = fh.readline(), header_lines + 1
        try:
            grid = FrequencyGrid(int(meta["n_s"]), int(meta["n_i"]),
                                 float(meta["span_s"]), float(meta["span_i"]))
        except KeyError as exc:
            raise ConfigError(f"grid dump {path} missing header field {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"grid dump {path} has a malformed header: {exc}") from exc
        values = _zero_grid(grid.n_s, grid.n_i)
        cells = values.reshape(-1)
        done, pending = 0, line
        for data in iter(lambda: fh.read(LOAD_CHUNK_BYTES), b""):
            chunk = pending + data
            cut = chunk.rfind(b"\n") + 1
            if cut:
                done += _load_lines(chunk[:cut], cells[done:], path, header_lines + done + 1)
            pending = chunk[cut:]
        if pending:  # the last line, without its line end
            done += _load_lines(pending + b"\n", cells[done:], path, header_lines + done + 1)
    if done != cells.size:
        raise ConfigError(f"grid dump {path} holds {done} body lines; "
                          f"expected {cells.size} 're im' pairs")
    jsa = JointAmplitude(grid=grid, values=values, normalized=meta.get("normalized") == "True")
    if jsa.normalized:
        try:
            jsa.check_normalized()
        except ContractError as exc:
            raise ConfigError(f"grid dump {path} says normalized=True: {exc}") from exc
    return jsa


def _load_lines(chunk, cells, path, first_line):
    """Parse the whole lines of chunk into cells[0], cells[1], ... and return their count.

    Lines that are exactly '0 0' are left unwritten; first_line is the file's
    line number of the chunk's first line, for the errors.
    """
    buf = np.frombuffer(chunk, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    if ends.size > cells.size:
        raise ConfigError(f"grid dump {path} line {first_line + cells.size}: "
                          "the body holds more lines than the grid has cells")
    starts = np.concatenate(([0], ends[:-1] + 1))
    # a CRLF line ends before its '\r'; at ends[0] == 0, buf[-1] is the chunk's last '\n'
    stops = ends - (buf[ends - 1] == ord("\r"))
    zero = stops - starts == 3
    at = starts[zero]
    zero[zero] = (buf[at] == ord("0")) & (buf[at + 1] == ord(" ")) & (buf[at + 2] == ord("0"))
    held = np.flatnonzero(~zero)
    if held.size == 0:
        return ends.size
    text = buf[np.repeat(~zero, ends - starts + 1)].tobytes()
    try:
        with warnings.catch_warnings():
            # loadtxt warns of a chunk whose lines are all blank; the shape check reports it
            warnings.simplefilter("ignore", UserWarning)
            pairs = np.loadtxt(io.BytesIO(text), dtype=float, comments=None, ndmin=2)
    except ValueError:
        pairs = None
    if pairs is None or pairs.shape != (held.size, 2):
        bad = next((k for k in held if not _is_pair(chunk[starts[k]:stops[k]])), None)
        where = "" if bad is None else f" line {first_line + bad}"
        got = "" if bad is None else f", got {chunk[starts[bad]:stops[bad]]!r}"
        raise ConfigError(f"grid dump {path}{where}: expected one 're im' pair of numbers "
                          f"per body line{got}")
    cells[held] = pairs.view(complex).ravel()
    return ends.size


def _is_pair(line):
    """Whether one body line, without its line end, holds exactly two numbers."""
    try:
        return bool(line.strip()) and np.loadtxt(
            [line.decode("latin-1")], dtype=float, comments=None, ndmin=2).shape == (1, 2)
    except ValueError:
        return False
