"""Closed-form photon statistics of the multimode twin-beam state.

Covers the normally ordered Glauber correlations, the bunching/splitting
coincidence-rate pair behind half-wave-plate fringes, the interference
visibility models used to extract the spectral overlap, and the
count-record estimators (heralding efficiency, mean photon number).

Rates dropped to proportionality in the derivation are reported per gate, so
only ratios are physically meaningful; visibilities and estimators are
unaffected by the convention.
"""
import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, NonPhysicalCorrelationError

SUPPORTED_GLAUBER_ORDERS = {(1, 0), (0, 1), (2, 0), (0, 2), (1, 1)}


@dataclass(frozen=True)
class DetectionSpec:
    """End-to-end arm transmissions, gate rate and per-gate dark probabilities."""

    eta1: float
    eta2: float
    gate_rate: float
    dark_prob1: float = 0.0
    dark_prob2: float = 0.0

    def __post_init__(self):
        for name in ("eta1", "eta2"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ContractError(f"{name} = {getattr(self, name)} outside [0, 1]")
        if self.gate_rate <= 0:
            raise ContractError(f"gate_rate = {self.gate_rate} must be positive")
        for name in ("dark_prob1", "dark_prob2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ContractError(f"{name} = {getattr(self, name)} outside [0, 1)")


@dataclass(frozen=True)
class CountRecord:
    """Gated counting outcome: singles per arm, coincidences, gate rate in Hz."""

    gates: int
    singles_signal: int
    singles_idler: int
    coincidences: int
    gate_rate: float

    def __post_init__(self):
        if not (self.coincidences <= min(self.singles_signal, self.singles_idler)
                <= self.gates):
            raise ContractError(
                "count record violates C <= min(S_s, S_i) <= gates: "
                f"C={self.coincidences}, S_s={self.singles_signal}, "
                f"S_i={self.singles_idler}, gates={self.gates}"
            )

    @property
    def accidentals(self) -> float:
        """Expected accidental coincidences over the record, S_s S_i / gates.

        Equal to the rate form S_s S_i / R divided by the duration, expressed
        in counts; ratios built on it are invariant under uniform scaling of
        (gates, S, C).
        """
        return self.singles_signal * self.singles_idler / self.gates

    @property
    def cross_correlation(self) -> float:
        """C / A, the normalized signal-idler cross-correlation."""
        return self.coincidences / self.accidentals


@dataclass(frozen=True)
class VisibilityPoint:
    """One fringe-visibility measurement at a known mean photon number."""

    mean_n: float
    visibility: float
    sigma: float

    def __post_init__(self):
        if self.sigma < 0:
            raise ContractError("sigma must be nonnegative")
        if not -1.0 <= self.visibility <= 1.0:
            raise ContractError("visibility outside [-1, 1]")


def glauber(mean_n, mode_number, order) -> float:
    """Normally ordered Glauber correlation G(w, v) of the twin beams.

    With n = mean_n the mean photon number per beam and K = mode_number the
    effective mode number (math.inf for the many-mode limit):

        G(1,0) = G(0,1) = n
        G(2,0) = G(0,2) = n^2 (1 + 1/K)
        G(1,1) = n^2 (1 + 1/K) + n

    Raises:
        ValueError: for orders outside the supported set.
    """
    order = tuple(order)
    if order not in SUPPORTED_GLAUBER_ORDERS:
        raise ValueError(f"unsupported Glauber order {order}")
    if order in ((1, 0), (0, 1)):
        return mean_n
    auto = mean_n**2 * (1.0 + 1.0 / mode_number)
    if order == (1, 1):
        return auto + mean_n
    return auto


def rate_extrema(mean_n, mode_number, overlap, density_overlap, eta1, eta2):
    """Bunching and splitting coincidence rates per gate (common prefactor fixed to 1).

    R_min is the rate at the 50:50 bunching setting,

        R_min = 1/4 n^2 (1 + 1/K)(eta1^2 + eta2^2)
                + 1/2 (n + n^2 (1 + 1/K)) eta1 eta2
                - 1/2 (n O + n^2 A) eta1 eta2,

    R_max the deterministic-splitting rate (n + n^2 (1 + 1/K)) eta1 eta2.
    mode_number may be math.inf for the many-mode limit.

    Raises:
        ContractError: if both transmissions vanish.
    """
    if eta1 == 0 and eta2 == 0:
        raise ContractError("degenerate detection: eta1 = eta2 = 0")
    n = mean_n
    inv_k = 0.0 if math.isinf(mode_number) else 1.0 / mode_number
    auto = n**2 * (1.0 + inv_k)
    r_min = (0.25 * auto * (eta1**2 + eta2**2)
             + 0.5 * (n + auto) * eta1 * eta2
             - 0.5 * (n * overlap + n**2 * density_overlap) * eta1 * eta2)
    r_max = (n + auto) * eta1 * eta2
    return r_min, r_max


def visibility_from_rates(r_min, r_max) -> float:
    return (r_max - r_min) / (r_max + r_min)


def visibility_full(overlap, mean_n, eta1, eta2):
    """Fringe visibility with unbalanced arm transmissions, many-mode regime.

        V = ([1 + O] + n (1 - (eta1/eta2 + eta2/eta1) / 2))
            / ([3 - O] + 3 n + n (eta1/eta2 + eta2/eta1) / 2)

    Reduces exactly to visibility_approx for eta1 = eta2.  The finite-K
    rates are available through rate_extrema + visibility_from_rates.
    """
    if eta1 <= 0 or eta2 <= 0:
        raise ContractError("transmission ratio undefined for zero efficiency")
    imbalance = 0.5 * (eta1 / eta2 + eta2 / eta1)
    num = (1.0 + overlap) + mean_n * (1.0 - imbalance)
    den = (3.0 - overlap) + 3.0 * mean_n + mean_n * imbalance
    return num / den


def visibility_approx(overlap, mean_n):
    """Balanced-detection visibility V = (1 + O) / (3 - O + 4 n)."""
    return (1.0 + overlap) / (3.0 - overlap + 4.0 * mean_n)


def fringe_curve(overlap, mean_n, eta1, eta2, mode_number=math.inf,
                 hwp_angles_deg=(), density_overlap=0.0):
    """Coincidence rate versus half-wave-plate angle (per-gate units).

    The wave plate rotates the twin-beam polarizations by twice its angle, so
    deterministic splitting recurs every 45 degrees with full bunching at the
    22.5 degree offsets; the curve interpolates the splitting/bunching rate
    pair as R(theta) = R_min + (R_max - R_min) cos^2(4 theta).

    With the defaults (many modes, zero density overlap) the visibility of
    the curve extrema equals visibility_full exactly.
    """
    r_min, r_max = rate_extrema(mean_n, mode_number, overlap, density_overlap,
                                eta1, eta2)
    theta = np.radians(np.asarray(hwp_angles_deg, dtype=float))
    return r_min + (r_max - r_min) * np.cos(4.0 * theta) ** 2


@dataclass(frozen=True)
class KlyshkoEstimate:
    """Heralding efficiencies eta_s = C/S_i, eta_i = C/S_s with binomial errors."""

    eta_signal: float
    eta_idler: float
    sigma_signal: float
    sigma_idler: float


def klyshko(rec: CountRecord) -> KlyshkoEstimate:
    """Klyshko heralding efficiencies from a count record.

    eta_s = C / S_i and eta_i = C / S_s; the standard errors treat C as a
    binomial draw out of the heralding singles.
    """
    if rec.coincidences <= 0 or rec.singles_signal <= 0 or rec.singles_idler <= 0:
        raise ContractError("klyshko needs positive singles and coincidences")
    eta_s = rec.coincidences / rec.singles_idler
    eta_i = rec.coincidences / rec.singles_signal
    sig_s = math.sqrt(eta_s * (1.0 - eta_s) / rec.singles_idler)
    sig_i = math.sqrt(eta_i * (1.0 - eta_i) / rec.singles_signal)
    return KlyshkoEstimate(eta_s, eta_i, sig_s, sig_i)


@dataclass(frozen=True)
class MeanPhotonEstimate:
    """Loss-independent mean photon number with its first-order standard error."""

    mean_n: float
    sigma: float
    cross_correlation: float


def mean_n_from_cross(rec: CountRecord) -> MeanPhotonEstimate:
    """Mean photon number from the cross-correlation, n = 1 / (C/A - 1).

    For a finite number of modes the exact relation is
    C/A = 1 + 1/K + 1/n, so this estimate is a lower bound on n, tight in
    the many-mode limit.  Counting errors on C, S_s, S_i are propagated to
    first order assuming independent Poisson statistics.

    Raises:
        NonPhysicalCorrelationError: if C/A <= 1 (background-dominated data).
    """
    if rec.coincidences <= 0 or rec.singles_signal <= 0 or rec.singles_idler <= 0:
        raise ContractError("estimator needs positive singles and coincidences")
    g = rec.cross_correlation
    if g <= 1.0:
        raise NonPhysicalCorrelationError(
            f"C/A = {g:.4f} <= 1: no photon-number correlation above accidentals"
        )
    rel = math.sqrt(1.0 / rec.coincidences + 1.0 / rec.singles_signal
                    + 1.0 / rec.singles_idler)
    mean_n = 1.0 / (g - 1.0)
    return MeanPhotonEstimate(mean_n=mean_n, sigma=g * rel / (g - 1.0) ** 2,
                              cross_correlation=g)


# ---------------------------------------------------------------------------
# CSV tables

COUNT_FIELDS = ("gates", "singles_signal", "singles_idler", "coincidences",
                "gate_rate_hz")
POINT_FIELDS = ("mean_n", "visibility", "sigma_visibility")


def write_table(path, columns, rows, comments=()):
    """Write '# ' comment lines, the column-name row, then the rows, each ending in LF."""
    with open(path, "w", newline="") as fh:
        fh.writelines(f"# {line}\n" for line in comments)
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


def read_table(path, columns, make):
    """make(*fields) for each row of a table written by write_table.

    '#' lines are skipped.  No field holds a comma, so a row is its line
    split at the commas.

    Raises:
        ConfigError: naming the file and the line, if the column names
            differ from columns, a row has the wrong number of fields, or
            make rejects its fields (ValueError or ContractError).
    """
    out = []
    with open(path) as fh:
        rows = ((lineno, line.rstrip("\n").split(","))
                for lineno, line in enumerate(fh, 1) if not line.startswith("#"))
        lineno, header = next(rows, (None, None))
        if header is None:
            raise ConfigError(f"{path} holds no column-name row")
        if header != list(columns):
            raise ConfigError(f"{path} line {lineno}: columns {header}, "
                              f"expected {list(columns)}")
        for lineno, fields in rows:
            try:
                if len(fields) != len(columns):
                    raise ValueError(f"{len(fields)} fields, expected {len(columns)}")
                out.append(make(*fields))
            except (ValueError, ContractError) as exc:
                raise ConfigError(f"{path} line {lineno}: bad row {fields}: {exc}") from exc
    return out


def write_count_records(path, records, header_comments=()):
    write_table(path, COUNT_FIELDS,
                ((r.gates, r.singles_signal, r.singles_idler, r.coincidences,
                  repr(r.gate_rate)) for r in records), header_comments)


def read_count_records(path):
    return read_table(path, COUNT_FIELDS,
                      lambda g, s, i, c, rate: CountRecord(int(g), int(s), int(i), int(c),
                                                           float(rate)))


def write_visibility_points(path, points, header_comments=()):
    write_table(path, POINT_FIELDS,
                ((repr(p.mean_n), repr(p.visibility), repr(p.sigma)) for p in points),
                header_comments)


def read_visibility_points(path):
    return read_table(path, POINT_FIELDS,
                      lambda n, v, s: VisibilityPoint(float(n), float(v), float(s)))
