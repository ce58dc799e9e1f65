"""Device dispersion data and phase-mismatch evaluation.

A waveguide source is described by its length, the width factor of the
Gaussian phasematching approximation, the pump carrier frequency and the
expansion coefficients of the phase mismatch.  The twin-mode detunings
nu = omega - omega_p / 2 are taken from the degenerate point pump_center/2,
and the phase mismatch is evaluated from its second-order expansion in them:

    dk(nu_s, nu_i) = kappa_s nu_s + kappa_i nu_i
                     + lambda_s nu_s^2 + lambda_i nu_i^2 - lambda_p nu_s nu_i

with kappa the group-velocity mismatch against the pump (1/v_g - 1/v_g,p, in
ps/um) and the lambda coefficients carrying the group-velocity dispersion
(ps^2/um).  A non-finite field, a nonpositive length or pump frequency and a
gamma outside (0, 1) are ConfigErrors.  All functions here are pure and safe
to call concurrently.
"""
import math
from dataclasses import dataclass

from .errors import ConfigError, DegenerateDispersionError
from .units import thz_to_wavelength_nm, angular_to_thz

# tolerance for cross-checking an explicitly supplied kappa against the
# group-velocity representation, ps/um
KAPPA_CONSISTENCY_TOL = 1e-9


@dataclass(frozen=True)
class DeviceSpec:
    """Waveguide device description in internal units (um, ps, rad/ps).

    Attributes:
        length_um: interaction length L.
        gamma: width factor of the Gaussian phasematching approximation.
        pump_center: pump expansion frequency omega0_p in rad/ps.
        kappa_s, kappa_i: group-velocity mismatches to the pump in ps/um.
        lambda_p, lambda_s, lambda_i: quadratic expansion coefficients in ps^2/um.
    """

    length_um: float
    gamma: float
    pump_center: float
    kappa_s: float
    kappa_i: float
    lambda_p: float
    lambda_s: float
    lambda_i: float

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.length_um <= 0:
            raise ConfigError("length_um must be positive")
        if self.pump_center <= 0:
            raise ConfigError("pump_center must be positive")
        if not 0.0 < self.gamma < 1.0:
            raise ConfigError("gamma must lie in (0, 1)")

    @property
    def degeneracy_wavelength_nm(self) -> float:
        """Vacuum wavelength of half the pump carrier, used for nm conversions."""
        return thz_to_wavelength_nm(angular_to_thz(self.pump_center) / 2.0)

    def group_delay_ps(self) -> float:
        """Signal-idler group delay accumulated over the full length, L*(kappa_s - kappa_i)."""
        return self.length_um * (self.kappa_s - self.kappa_i)


def _kappa(vg, vg_p, kappa, label) -> float:
    """Return kappa for a twin mode, deriving it from group velocities if needed.

    When both representations are supplied they must agree to
    KAPPA_CONSISTENCY_TOL; a rounded datasheet value mixed with exact velocities will be
    rejected rather than silently preferring one.
    """
    derived = None
    if vg is not None and vg_p is not None:
        if not (vg > 0 and vg_p > 0):
            raise ConfigError(f"group velocities must be positive ({label})")
        derived = 1.0 / vg - 1.0 / vg_p
    if kappa is not None:
        if derived is not None and abs(kappa - derived) > KAPPA_CONSISTENCY_TOL:
            raise ConfigError(
                f"kappa_{label} = {kappa:g} inconsistent with group "
                f"velocities (1/v_g - 1/v_g,p = {derived:.9g}); supply one "
                "representation only or make them agree"
            )
        return kappa
    if derived is None:
        raise ConfigError(f"mode {label}: neither kappa nor group velocities supplied")
    return derived


def device_spec(length_um, gamma, pump_center, *, vg_p=None, vg_s=None, vg_i=None,
                kappa_s=None, kappa_i=None,
                lambda_p=0.0, lambda_s=0.0, lambda_i=0.0) -> DeviceSpec:
    """Convenience factory mirroring the config-file keys.

    Frequencies are angular (rad/ps).  Each kappa is either given or derived
    from the group velocities as 1/v_g - 1/v_g,p.
    """
    return DeviceSpec(length_um=length_um, gamma=gamma, pump_center=pump_center,
                      kappa_s=_kappa(vg_s, vg_p, kappa_s, "s"),
                      kappa_i=_kappa(vg_i, vg_p, kappa_i, "i"),
                      lambda_p=lambda_p, lambda_s=lambda_s, lambda_i=lambda_i)


def delta_k(spec: DeviceSpec, nu_s, nu_i):
    """Phase mismatch dk(nu_s, nu_i) in rad/um from the second-order expansion.

    Accepts scalars or broadcastable arrays of detunings in rad/ps.
    """
    return (spec.kappa_s * nu_s + spec.kappa_i * nu_i
            + spec.lambda_s * nu_s**2
            + spec.lambda_i * nu_i**2
            - spec.lambda_p * nu_s * nu_i)


def pm_tilt_deviation(spec: DeviceSpec) -> float:
    """Deviation of the phasematching ridge from perfect anti-correlation.

    Returns |45 deg - arctan(kappa_s / kappa_i)| in degrees.

    Raises:
        DegenerateDispersionError: if kappa_i vanishes.
    """
    if spec.kappa_i == 0:
        raise DegenerateDispersionError("kappa_i = 0: tilt angle undefined")
    return abs(45.0 - math.degrees(math.atan(spec.kappa_s / spec.kappa_i)))
