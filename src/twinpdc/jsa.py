"""Joint spectral amplitude on a detuning grid.

The normalized complex amplitude of a photon pair is assembled as

    f(nu_s, nu_i) = pump(nu_s + nu_i) * pm(nu_s, nu_i) / N

with a Gaussian pump envelope exp(-(nu_s + nu_i)^2 / sigma^2), a
phasematching factor sinc(L dk / 2) exp(i L dk / 2) (or its Gaussian
approximation exp(-gamma L^2 dk^2 / 4) with the same phase), and N fixed by
the discrete normalization sum |f|^2 dnu_s dnu_i = 1.  build_jsa fills one
zero-initialized array in row tiles of about TILE_CELLS cells, so its peak
memory stays near the size of the result, and evaluates each tile only in the
pump band, where the pump envelope has not underflowed to 0.  No stored real or
imaginary part is subnormal or -0: parts with |x| < TINY are stored as +0.

Everything operates on detunings from the mode carriers; absolute axes are
reconstructed only for display.  All transforms are pure and return new
values.
"""
import math
import warnings
from dataclasses import dataclass, replace

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

# grid cells per row tile of build_jsa and apply_filter: the tile temporaries stay a few MiB
TILE_CELLS = 1 << 16

# exp(-x) underflows to exactly 0 for x above about 745.13, so the pump envelope
# exp(-(s / sigma)^2) is exactly 0 once |s| > sigma sqrt(PUMP_UNDERFLOW)
PUMP_UNDERFLOW = 746.0

# the smallest normal double: amplitude parts below it in magnitude are stored as +0
TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class PumpSpec:
    """Pump envelope exp(-(nu/sigma)^2) with sigma the 1/e field half-width in rad/ps."""

    sigma: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ConfigError("pump sigma must be positive")

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
        if self.span_s <= 0 or self.span_i <= 0:
            raise ConfigError("grid spans must be positive")

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
        if self.bandwidth <= 0:
            raise ConfigError("filter bandwidth must be positive")
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

    def intensity(self):
        return np.abs(self.values) ** 2

    @property
    def cell_area(self):
        return self.grid.step_signal * self.grid.step_idler

    def norm_squared(self) -> float:
        """Discrete norm sum |f|^2 dnu_s dnu_i."""
        return float(np.sum(self.intensity()) * self.cell_area)

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


def _flush_tiny(values):
    """Set every real or imaginary part with |x| < TINY (±0 and subnormals) to +0, in place.

    Works in row tiles of about TILE_CELLS cells, so its temporaries stay a few MiB.
    """
    rows = max(1, TILE_CELLS // max(values.shape[1], 1))
    for start in range(0, values.shape[0], rows):
        parts = values[start:start + rows].view(float)
        parts[np.abs(parts) < TINY] = 0.0


def build_jsa(spec: DeviceSpec, pump: PumpSpec, grid: FrequencyGrid,
              approximation="sinc") -> JointAmplitude:
    """Assemble the normalized joint spectral amplitude on the grid.

    The amplitude carries the full complex phase exp(i L dk / 2).  The pump
    envelope is exactly 0 in double precision once |nu_s + nu_i| exceeds
    sigma sqrt(PUMP_UNDERFLOW), so each row tile evaluates pm_function and
    pump_envelope only on the columns within that reach of its rows; every
    other cell stays +0 (about 80% of the bundled 2048^2 grid).  After the
    normalization every real or imaginary part with |x| < TINY, the ±0 and
    subnormal products of the underflowing envelope, is set to +0: a matrix
    product that reads subnormal operands runs 2-3.5x slower, and their squares
    are already 0, so the norm does not change.  The result has the bits of the
    dense formula f = pm * pump / N on the full grid under that mapping.

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
    values = np.zeros((grid.n_s, grid.n_i), dtype=complex)
    intensity = np.zeros(values.shape)  # |f|^2 per cell: the norm is one np.sum over the grid
    reach = pump.sigma * math.sqrt(PUMP_UNDERFLOW)
    bands = []
    rows = max(1, TILE_CELLS // grid.n_i)
    for start in range(0, grid.n_s, rows):
        tile = slice(start, start + rows)
        nu_s = axis_s[tile]
        # the pump envelope is exactly 0 where |nu_s + nu_i| > reach for every nu_s of the tile
        cols = slice(np.searchsorted(axis_i, -nu_s[-1] - reach, "left"),
                     np.searchsorted(axis_i, reach - nu_s[0], "right"))
        bands.append((tile, cols))
        nu_s, nu_i = np.meshgrid(nu_s, axis_i[cols], indexing="ij")
        np.multiply(pm_function(spec, nu_s, nu_i, approximation),
                    pump_envelope(pump, nu_s, nu_i), out=values[tile, cols])
        np.square(np.abs(values[tile, cols], out=intensity[tile, cols]),
                  out=intensity[tile, cols])
    norm = math.sqrt(np.sum(intensity) * grid.step_signal * grid.step_idler)
    for tile, cols in bands:
        values[tile, cols] /= norm
        _flush_tiny(values[tile, cols])
    return JointAmplitude(grid=grid, values=values, normalized=True)


def apply_filter(jsa: JointAmplitude, filt: FilterSpec):
    """Apply a band-pass filter and renormalize.

    As in build_jsa, every real or imaginary part of the result with
    |x| < TINY is stored as +0, so no filtered amplitude holds a subnormal.

    Returns:
        (filtered JointAmplitude, transmitted fraction), the fraction being
        the pre-renormalization intensity transmission (heralding-relevant).

    Raises:
        ContractError: if the input is not normalized.
        ResolutionError: if the filter bandwidth spans fewer than 2 grid steps.
    """
    jsa.check_normalized()
    if filt.bandwidth < 2.0 * max(jsa.grid.step_signal, jsa.grid.step_idler):
        raise ResolutionError(
            f"filter bandwidth {filt.bandwidth:.4g} rad/ps narrower than two "
            "grid steps; refine the grid"
        )
    values = jsa.values.copy()
    if filt.applies_to in ("signal", "both"):
        values *= filt.amplitude(jsa.grid.axis_signal)[:, None]
    if filt.applies_to in ("idler", "both"):
        values *= filt.amplitude(jsa.grid.axis_idler)[None, :]
    transmitted = float(np.sum(np.abs(values) ** 2) * jsa.cell_area)
    if transmitted < 1e-6:
        warnings.warn(
            f"filter transmits only {transmitted:.2e} of the intensity; "
            "renormalized output is dominated by numerical tails",
            stacklevel=2,
        )
    values /= math.sqrt(transmitted)
    _flush_tiny(values)
    return JointAmplitude(grid=jsa.grid, values=values, normalized=True), transmitted


def marginals(jsa: JointAmplitude):
    """Signal and idler marginal intensity densities, each integrating to 1."""
    inten = jsa.intensity()
    sig = inten.sum(axis=1) * jsa.grid.step_idler
    idl = inten.sum(axis=0) * jsa.grid.step_signal
    return sig, idl


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
    that reads back to the same bits, one 're im' pair per line.
    """
    g = jsa.grid
    # one signal row of n_i pairs per write: a single C-level %-format call
    rows = np.ascontiguousarray(jsa.values, dtype=complex).view(float)
    rows = rows.reshape(g.n_s, 2 * g.n_i)
    row_format = "%.17g %.17g\n" * g.n_i
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(f"# n_s={g.n_s} n_i={g.n_i} span_s={g.span_s!r} span_i={g.span_i!r}\n")
        fh.write(f"# normalized={jsa.normalized}\n")
        fh.write("# units: detuning rad/ps, amplitude (rad/ps)^-1; "
                 "row-major over (signal, idler); one 're im' pair per line\n")
        for row in rows:
            fh.write(row_format % tuple(row.tolist()))


def load_grid(path) -> JointAmplitude:
    """Read an amplitude written by dump_grid, bit for bit.

    Raises:
        ConfigError: naming the file, if a header field is missing or
            malformed, the body is not n_s * n_i 're im' pairs of numbers, or
            a file marked normalized=True is not normalized to
            NORMALIZATION_TOL.
    """
    meta = {}
    with open(path) as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            for tok in line[1:].split():
                if "=" in tok:
                    k, _, v = tok.partition("=")
                    meta[k] = v
        try:
            grid = FrequencyGrid(int(meta["n_s"]), int(meta["n_i"]),
                                 float(meta["span_s"]), float(meta["span_i"]))
        except KeyError as exc:
            raise ConfigError(f"grid dump {path} missing header field {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"grid dump {path} has a malformed header: {exc}") from exc
        fh.seek(0)  # loadtxt skips the '#' header itself
        try:
            pairs = np.loadtxt(fh, dtype=float, ndmin=2)
        except ValueError as exc:
            raise ConfigError(f"grid dump {path}: {exc}") from exc
    n = grid.n_s * grid.n_i
    if pairs.shape != (n, 2):
        raise ConfigError(f"grid dump {path} holds {pairs.shape[0]} lines of "
                          f"{pairs.shape[1]} values; expected {n} 're im' pairs")
    jsa = JointAmplitude(grid=grid, values=pairs.view(complex).reshape(grid.n_s, grid.n_i),
                         normalized=meta.get("normalized") == "True")
    if jsa.normalized:
        try:
            jsa.check_normalized()
        except ContractError as exc:
            raise ConfigError(f"grid dump {path} says normalized=True: {exc}") from exc
    return jsa
