"""Unit conventions and conversions.

Internal units are fixed throughout the package: lengths in um, times in ps,
angular frequencies in rad/ps, wavevectors in rad/um.  Wavelengths (nm) and
ordinary frequencies (THz) appear only at I/O boundaries.
"""
import math

C_NM_THZ = 299792.458  # speed of light, nm * THz

TWO_PI = 2.0 * math.pi


def thz_to_angular(f_thz):
    """Ordinary frequency in THz to angular frequency in rad/ps."""
    return TWO_PI * f_thz


def angular_to_thz(omega):
    return omega / TWO_PI


def thz_to_wavelength_nm(f_thz):
    return C_NM_THZ / f_thz


def bandwidth_nm_to_thz(fwhm_nm, center_nm):
    """Wavelength bandwidth to frequency bandwidth at a given center wavelength."""
    return C_NM_THZ * fwhm_nm / center_nm**2


def bandwidth_thz_to_nm(fwhm_thz, center_nm):
    return fwhm_thz * center_nm**2 / C_NM_THZ


def bandwidth_nm_to_angular(fwhm_nm, center_nm):
    """Wavelength intensity FWHM to angular-frequency FWHM in rad/ps."""
    return TWO_PI * bandwidth_nm_to_thz(fwhm_nm, center_nm)


def angular_bandwidth_to_nm(fwhm_angular, center_nm):
    return bandwidth_thz_to_nm(fwhm_angular / TWO_PI, center_nm)
