"""Sectioned key-value configuration files.

One INI-style file feeds every command; sections: [device], [pump], [grid],
[filter], [detection], [sim].  Command-line flags override file
values, and the effective configuration is echoed into output headers.  A
bundled file carries the reference 2 mm AlGaAs Bragg-reflection waveguide
device data.
"""
import configparser
from importlib import resources

from .dispersion import DeviceSpec, device_spec
from .errors import ConfigError, ContractError
from .jsa import FilterSpec, FrequencyGrid, PumpSpec
from .montecarlo import equal_mode_spectrum
from .twinstats import DetectionSpec
from .units import bandwidth_nm_to_angular, thz_to_angular

DEFAULT_SUPERGAUSS_ORDER = 4
DETECTION_KEYS = {"eta1": "eta1", "eta2": "eta2",  # DetectionSpec field -> [detection] key
                  "dark_prob1": "dark_rate_1_hz", "dark_prob2": "dark_rate_2_hz"}


def default_config_path():
    """Path of the bundled reference device configuration."""
    return resources.files("twinpdc.data") / "default.cfg"


def load_config(path) -> dict:
    """Parse a sectioned config file into {section: {key: value}} of strings.

    Raises:
        ConfigError: on parse problems, with file line numbers.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            parser.read_file(fh, source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    return {section: dict(parser[section]) for section in parser.sections()}


def _get(cfg, section, key, conv, default=None, required=False):
    try:
        raw = cfg[section][key]
    except KeyError:
        if required:
            raise ConfigError(f"missing [{section}] {key}") from None
        return default
    try:
        return conv(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc


def device_from_config(cfg) -> DeviceSpec:
    """Build the DeviceSpec from the [device] section.

    kappa_s/kappa_i are optional; when omitted they are derived from the
    group velocities, which keeps the representation exactly consistent.
    """
    sec = "device"
    return device_spec(
        pump_center=thz_to_angular(_get(cfg, sec, "pump_center_thz", float, required=True)),
        length_um=_get(cfg, sec, "length_um", float, required=True),
        gamma=_get(cfg, sec, "gamma", float, required=True),
        vg_p=_get(cfg, sec, "vg_p", float),
        vg_s=_get(cfg, sec, "vg_s", float),
        vg_i=_get(cfg, sec, "vg_i", float),
        kappa_s=_get(cfg, sec, "kappa_s", float),
        kappa_i=_get(cfg, sec, "kappa_i", float),
        lambda_p=_get(cfg, sec, "lambda_p", float, default=0.0),
        lambda_s=_get(cfg, sec, "lambda_s", float, default=0.0),
        lambda_i=_get(cfg, sec, "lambda_i", float, default=0.0),
    )


def pump_from_config(cfg) -> PumpSpec:
    sigma = _get(cfg, "pump", "sigma_radps", float)
    if sigma is not None:
        return PumpSpec(sigma=sigma)
    fwhm = _get(cfg, "pump", "fwhm_nm", float, required=True)
    center = _get(cfg, "pump", "center_nm", float, required=True)
    return PumpSpec.from_fwhm_nm(fwhm, center)


def grid_from_config(cfg, filtered=False, points=None, span_thz=None) -> FrequencyGrid:
    """Square grid from [grid]; the filtered studies default to a tighter span."""
    if points is None:
        points = _get(cfg, "grid", "points", int, default=2048)
    if span_thz is None:
        key = "filtered_span_thz" if filtered else "span_thz"
        span_thz = _get(cfg, "grid", key, float,
                        default=6.0 if filtered else 12.0)
    return FrequencyGrid.square(points, thz_to_angular(span_thz))


def approximation_from_config(cfg) -> str:
    return _get(cfg, "grid", "approximation", str, default="gaussian")


def filter_preset(name, device: DeviceSpec, cfg=None) -> FilterSpec | None:
    """Named filter presets: none | g12 | sg40 | custom.

    g12 is a 12 nm Gaussian and sg40 a 40 nm flat-top, both centered on the
    degeneracy point with bandwidths converted at the degeneracy wavelength;
    custom reads the [filter] section.
    """
    lam = device.degeneracy_wavelength_nm
    order = DEFAULT_SUPERGAUSS_ORDER
    if cfg is not None:
        order = _get(cfg, "filter", "supergauss_order", int,
                     default=DEFAULT_SUPERGAUSS_ORDER)
    if name == "none":
        return None
    if name == "g12":
        return FilterSpec(shape="gaussian",
                          bandwidth=bandwidth_nm_to_angular(12.0, lam))
    if name == "sg40":
        return FilterSpec(shape="supergaussian", order=order,
                          bandwidth=bandwidth_nm_to_angular(40.0, lam))
    if name == "custom":
        if cfg is None or "filter" not in cfg:
            raise ConfigError("custom filter requested but no [filter] section")
        return filter_from_config(cfg, device)
    raise ConfigError(f"unknown filter preset {name!r}")


def filter_from_config(cfg, device: DeviceSpec) -> FilterSpec | None:
    shape = _get(cfg, "filter", "shape", str, default="none")
    if shape == "none":
        return None
    bw = _get(cfg, "filter", "bandwidth_radps", float)
    if bw is None:
        bw_nm = _get(cfg, "filter", "bandwidth_nm", float, required=True)
        bw = bandwidth_nm_to_angular(bw_nm, device.degeneracy_wavelength_nm)
    return FilterSpec(
        shape=shape,
        bandwidth=bw,
        center=_get(cfg, "filter", "center_radps", float, default=0.0),
        order=_get(cfg, "filter", "supergauss_order", int,
                   default=DEFAULT_SUPERGAUSS_ORDER),
        applies_to=_get(cfg, "filter", "applies_to", str, default="both"),
    )


def detection_from_config(cfg) -> DetectionSpec:
    """DetectionSpec from [detection]; dark rates in Hz become per-gate probabilities."""
    gate_rate = gate_rate_from_config(cfg)
    try:
        return DetectionSpec(
            eta1=_get(cfg, "detection", "eta1", float, default=1.0),
            eta2=_get(cfg, "detection", "eta2", float, default=1.0),
            gate_rate=gate_rate,
            dark_prob1=_get(cfg, "detection", "dark_rate_1_hz", float, default=0.0) / gate_rate,
            dark_prob2=_get(cfg, "detection", "dark_rate_2_hz", float, default=0.0) / gate_rate,
        )
    except ContractError as exc:  # the message starts with the rejected field
        key = DETECTION_KEYS[str(exc).split()[0]]
        raise ConfigError(f"bad value for [detection] {key}: {exc}") from exc


def gate_rate_from_config(cfg) -> float:
    rep_mhz = _get(cfg, "sim", "rep_rate_mhz", float, default=76.2)
    divisor = _get(cfg, "sim", "gate_divisor", int, default=64)
    if not rep_mhz > 0:
        raise ConfigError(f"bad value for [sim] rep_rate_mhz: {rep_mhz} (must be > 0)")
    if divisor < 1:
        raise ConfigError(f"bad value for [sim] gate_divisor: {divisor} (must be >= 1)")
    return rep_mhz * 1e6 / divisor


def sim_from_config(cfg, seed=None, gates=None):
    """SimConfig from [sim] with a synthetic equal-mode source."""
    from .montecarlo import SimConfig

    modes = _get(cfg, "sim", "modes", int, default=20)
    return SimConfig(
        source=equal_mode_spectrum(modes),
        gain=_get(cfg, "sim", "gain", float, default=0.3),
        det=detection_from_config(cfg),
        n_gates=gates if gates is not None else _get(cfg, "sim", "gates", int,
                                                     default=1_000_000),
        seed=seed if seed is not None else _get(cfg, "sim", "seed", int,
                                                default=20260809),
    )


def effective_config_lines(cfg) -> list:
    """Flattened 'section.key = value' lines for output provenance headers."""
    lines = []
    for section in sorted(cfg):
        for key in sorted(cfg[section]):
            lines.append(f"{section}.{key} = {cfg[section][key]}")
    return lines
