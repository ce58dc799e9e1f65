"""Sectioned key-value configuration files.

One INI-style file feeds every command; sections: [device], [pump], [grid],
[filter], [detection], [sim].  The command line writes each flag that sets a
config value into the loaded {section: {key: value}} dict before anything is
built, so the builders below read only the dict, and that effective config
is the '#' header of every CSV a command writes.  A bundled file carries the
reference 2 mm AlGaAs Bragg-reflection waveguide device data.
"""
import configparser
from importlib import resources

from .dispersion import DeviceSpec, device_spec
from .errors import ConfigError, ContractError
from .jsa import FilterSpec, FrequencyGrid, PumpSpec
from .montecarlo import SimConfig, equal_mode_spectrum
from .twinstats import DetectionSpec
from .units import bandwidth_nm_to_angular, thz_to_angular

DEFAULT_SUPERGAUSS_ORDER = 4
# --filter preset -> the [filter] values it stands for; bandwidths are converted
# at the degeneracy wavelength and the filters sit on the degeneracy point
FILTER_PRESETS = {
    "none": {"shape": "none"},
    "g12": {"shape": "gaussian", "bandwidth_nm": "12.0"},
    "sg40": {"shape": "supergaussian", "bandwidth_nm": "40.0"},
}
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
    fwhm = _get(cfg, "pump", "fwhm_nm", float, required=True)
    center = _get(cfg, "pump", "center_nm", float, required=True)
    return PumpSpec.from_fwhm_nm(fwhm, center)


def grid_from_config(cfg, filtered=False) -> FrequencyGrid:
    """The one square grid of [grid] points and span_thz, filtered studies included.

    filtered selects nothing; it is accepted for callers that still pass it.
    """
    points = _get(cfg, "grid", "points", int, default=2048)
    span_thz = _get(cfg, "grid", "span_thz", float, default=12.0)
    return FrequencyGrid.square(points, thz_to_angular(span_thz))


def approximation_from_config(cfg) -> str:
    return _get(cfg, "grid", "approximation", str, default="gaussian")


def with_filter_preset(cfg, name) -> dict:
    """cfg with its [filter] section set by a preset: none | g12 | sg40 | custom.

    A FILTER_PRESETS entry replaces the section and keeps only the file's
    supergauss_order; custom keeps the file's section as it is.  cfg itself
    is not changed.
    """
    if name == "custom":
        if "filter" not in cfg:
            raise ConfigError("custom filter requested but no [filter] section")
        return cfg
    if name not in FILTER_PRESETS:
        raise ConfigError(f"unknown filter preset {name!r}")
    kept = {k: v for k, v in cfg.get("filter", {}).items() if k == "supergauss_order"}
    return {**cfg, "filter": {**kept, **FILTER_PRESETS[name]}}


def filter_preset(name, device: DeviceSpec, cfg) -> FilterSpec | None:
    """The FilterSpec of a preset (see with_filter_preset), or None for none."""
    return filter_from_config(with_filter_preset(cfg, name), device)


def filter_from_config(cfg, device: DeviceSpec) -> FilterSpec | None:
    shape = _get(cfg, "filter", "shape", str, default="none")
    if shape == "none":
        return None
    bw_nm = _get(cfg, "filter", "bandwidth_nm", float, required=True)
    return FilterSpec(
        shape=shape,
        bandwidth=bandwidth_nm_to_angular(bw_nm, device.degeneracy_wavelength_nm),
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


def sim_from_config(cfg) -> SimConfig:
    """SimConfig from [sim] with a synthetic equal-mode source."""
    modes = _get(cfg, "sim", "modes", int, default=20)
    return SimConfig(
        source=equal_mode_spectrum(modes),
        gain=_get(cfg, "sim", "gain", float, default=0.3),
        det=detection_from_config(cfg),
        n_gates=_get(cfg, "sim", "gates", int, default=1_000_000),
        seed=_get(cfg, "sim", "seed", int, default=20260809),
    )


def effective_config_lines(cfg) -> list:
    """Flattened 'section.key = value' lines for output provenance headers."""
    lines = []
    for section in sorted(cfg):
        for key in sorted(cfg[section]):
            lines.append(f"{section}.{key} = {cfg[section][key]}")
    return lines
