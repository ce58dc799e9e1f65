"""Config parsing and command-line behavior (exit codes, outputs, determinism)."""
import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from twinpdc import config as cfgmod
from twinpdc.cli import main
from twinpdc.errors import ConfigError
from twinpdc.jsa import FilterSpec
from twinpdc.units import bandwidth_nm_to_angular


def write_cfg(tmp_path, text, name="test.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


MINIMAL = """
[device]
length_um = 2000.0
gamma = 0.193
pump_center_thz = 386.6
vg_p = 74.0
vg_s = 90.1
vg_i = 90.4
lambda_p = 5.74e-6
lambda_s = -2.16e-6
lambda_i = -2.17e-6

[pump]
fwhm_nm = 0.25
center_nm = 772.0
"""


# --- config loading -----------------------------------------------------------

def test_bundled_config_loads(bundled_config, device):
    assert device.length_um == 2000.0
    assert device.gamma == 0.193
    assert device.kappa_s == pytest.approx(1 / 90.1 - 1 / 74.0)


def test_minimal_config(tmp_path):
    cfg = cfgmod.load_config(write_cfg(tmp_path, MINIMAL))
    device = cfgmod.device_from_config(cfg)
    pump = cfgmod.pump_from_config(cfg)
    assert device.degeneracy_wavelength_nm == pytest.approx(1550.918, abs=1e-3)
    assert pump.sigma == pytest.approx(0.671086, abs=1e-5)


def test_explicit_kappa_config(tmp_path):
    text = """
[device]
length_um = 1000.0
gamma = 0.193
pump_center_thz = 380.0
kappa_s = -2.40e-3
kappa_i = -2.44e-3
"""
    device = cfgmod.device_from_config(cfgmod.load_config(write_cfg(tmp_path, text)))
    assert device.kappa_s == -2.40e-3


def test_missing_key_reported(tmp_path):
    text = "[device]\nlength_um = 10.0\n"
    with pytest.raises(ConfigError, match="pump_center_thz"):
        cfgmod.device_from_config(cfgmod.load_config(write_cfg(tmp_path, text)))


def test_bad_value_reported(tmp_path):
    text = MINIMAL.replace("74.0", "seventy-four")
    with pytest.raises(ConfigError, match="vg_p"):
        cfgmod.device_from_config(cfgmod.load_config(write_cfg(tmp_path, text)))


def test_malformed_file_reports_line(tmp_path):
    path = write_cfg(tmp_path, "length_um = 10.0\n")  # key before any section
    with pytest.raises(ConfigError, match="line"):
        cfgmod.load_config(path)


def test_filter_presets(bundled_config, device):
    lam = device.degeneracy_wavelength_nm
    g12 = cfgmod.filter_preset("g12", device, bundled_config)
    assert g12 == FilterSpec(shape="gaussian", bandwidth=bandwidth_nm_to_angular(12.0, lam))
    sg40 = cfgmod.filter_preset("sg40", device, bundled_config)
    assert sg40 == FilterSpec(shape="supergaussian", order=4,
                              bandwidth=bandwidth_nm_to_angular(40.0, lam))
    assert cfgmod.filter_preset("none", device, bundled_config) is None
    with pytest.raises(ConfigError):
        cfgmod.filter_preset("g99", device, bundled_config)
    assert bundled_config["filter"] == {"shape": "none", "supergauss_order": "4"}


def test_detection_dark_rates_become_probabilities(bundled_config):
    det = cfgmod.detection_from_config(bundled_config)
    gate_rate = 76.2e6 / 64
    assert det.gate_rate == pytest.approx(gate_rate)
    assert det.dark_prob1 == pytest.approx(70.0 / gate_rate)
    assert det.dark_prob2 == pytest.approx(200.0 / gate_rate)


def test_effective_config_lines(bundled_config):
    lines = cfgmod.effective_config_lines(bundled_config)
    assert any(line.startswith("device.length_um") for line in lines)


# --- CLI ------------------------------------------------------------------------

def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["jsa", "--no-such-flag"])
    assert exc.value.code == 1


def test_cli_malformed_config_exit_code(tmp_path, capsys):
    bad = write_cfg(tmp_path, "[device]\nlength_um = banana\n")
    code = main(["overlap", "--config", bad])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_cli_resolution_error_exit_code(tmp_path):
    code = main(["jsa", "--grid", "64,12.0", "--out", str(tmp_path)])
    assert code == 3


def test_cli_jsa_writes_marginals(tmp_path, capsys):
    code = main(["jsa", "--grid", "1536,12.0", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "anti-diagonal linewidth" in out
    path = os.path.join(str(tmp_path), "marginals.csv")
    with open(path) as fh:
        comments = [line for line in fh if line.startswith("#")]
    assert any("device.length_um" in line for line in comments)
    with open(path) as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    assert rows[0] == ["detuning_signal", "marginal_signal", "detuning_idler",
                       "marginal_idler"]
    assert len(rows) == 1537  # header + one row per grid point


def test_cli_jsa_dump_roundtrip(tmp_path):
    from twinpdc.jsa import load_grid

    dump = str(tmp_path / "grid.npy")
    code = main(["jsa", "--grid", "1536,12.0", "--out", str(tmp_path),
                 "--dump", dump])
    assert code == 0
    jsa = load_grid(dump)
    assert jsa.grid.n_s == 1536
    assert jsa.norm_squared() == pytest.approx(1.0, abs=1e-9)


def test_cli_jsa_dump_missing_dir_exit_code(tmp_path, capsys):
    code = main(["jsa", "--grid", "1536,12.0", "--out", str(tmp_path),
                 "--dump", str(tmp_path / "missing" / "grid.npy")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_cli_overlap_takes_the_bundled_grid_flag(capsys):
    """--grid set to the bundled grid prints what the bundled config prints, byte for byte."""
    assert main(["overlap"]) == 0
    bundled = capsys.readouterr().out
    assert main(["overlap", "--grid", "2048,12.0"]) == 0
    assert capsys.readouterr().out == bundled


@pytest.mark.parametrize("flag", ["2048,x", "2048", "2048,12.0,1"])
def test_cli_schmidt_bad_grid_flag_exit_code(tmp_path, capsys, flag):
    assert main(["schmidt", "--grid", flag, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: bad --grid {flag!r}\n"
    assert not (tmp_path / "schmidt_spectrum.csv").exists()


def test_cli_jsa_narrow_span_writes_nothing(tmp_path, capsys):
    """A span narrower than the marginals exits 3 before any output is written."""
    out = tmp_path / "out"
    dump = tmp_path / "grid.npy"
    code = main(["jsa", "--grid", "512,4.0", "--out", str(out), "--dump", str(dump)])
    assert code == 3
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists() and not dump.exists()


def test_cli_span_that_cuts_the_amplitude_writes_nothing(tmp_path, capsys):
    """At +-9 THz the border columns hold 1.6e-4 of the norm, which moves |O| by 0.0039:
    the span check exits 3, names the shares and writes nothing."""
    out = tmp_path / "out"
    dump = tmp_path / "grid.npy"
    code = main(["jsa", "--grid", "2048,9.0", "--out", str(out), "--dump", str(dump)])
    assert code == 3
    err = capsys.readouterr().err
    assert "border rows hold 2.2e-05 and its border columns 1.6e-04" in err
    assert "Traceback" not in err
    assert not out.exists() and not dump.exists()


def test_cli_filter_transmission_is_taken_on_a_span_that_holds_the_amplitude(
        bundled_config, device, pump):
    """The g12 transmitted fraction of the CLI equals the one on a grid of the same step
    and twice the span (4095 points, +-24 THz), to 1e-3 relative: 0.0965.  A span that
    cuts the unfiltered marginals near half maximum read 0.1166."""
    from twinpdc import apply_filter, build_jsa
    from twinpdc.cli import _built_jsa
    from twinpdc.jsa import FrequencyGrid

    cfg = cfgmod.with_filter_preset(bundled_config, "g12")
    _, transmitted = _built_jsa(cfg, device)
    grid = cfgmod.grid_from_config(cfg)
    wide = FrequencyGrid.square(2 * grid.n_s - 1, 2 * grid.span_s)
    assert wide.step_signal == pytest.approx(grid.step_signal, rel=1e-12)
    _, converged = apply_filter(
        build_jsa(device, pump, wide, cfgmod.approximation_from_config(cfg)),
        cfgmod.filter_from_config(cfg, device))
    assert transmitted == pytest.approx(converged, rel=1e-3)


def test_cli_fit_missing_input_exit_code(tmp_path, capsys):
    code = main(["fit", str(tmp_path / "missing.csv"), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_cli_overlap_report(capsys):
    code = main(["overlap"])
    assert code == 0
    out = capsys.readouterr().out
    assert "spectral overlap |O| = 0.2" in out
    magnitude, signed = re.search(r"\|O\| = (\S+) \(O = ([+-]\S+)\)", out).groups()
    assert abs(float(signed)) == float(magnitude)


def test_cli_delay_compensation_with_zero_group_delay(tmp_path, capsys):
    """Equal signal and idler group velocities: the delay search has no range.  Their
    marginals are wide, so the span is +-10 THz (at +-3 THz the border rows held 9.8e-4
    of the norm, which the span check rejects)."""
    text = MINIMAL.replace("vg_i = 90.4", "vg_i = 90.1") + (
        "\n[grid]\npoints = 1536\nspan_thz = 10.0\n")
    code = main(["overlap", "--compensate-delay", "--config", write_cfg(tmp_path, text)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    plain = lines[0].split("= ")[1].split()[0]
    assert lines[-1].startswith(f"delay-compensated overlap = {plain} at tau = ")


def test_cli_visibility_curve(tmp_path, capsys):
    code = main(["visibility", "--overlap", "0", "--mean-n", "0:0:1",
                 "--out", str(tmp_path)])
    assert code == 0
    assert "0.333333" in capsys.readouterr().out


def test_cli_visibility_bad_range(tmp_path, capsys):
    for mean_n in ("oops", "0:0.5:0"):  # malformed, empty
        assert main(["visibility", "--overlap", "0.5", "--mean-n", mean_n,
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: bad --mean-n") and err.count("\n") == 1


@pytest.mark.parametrize("flags, named", [
    (["--overlap", "nan"], "--overlap"),
    (["--overlap", "5"], "--overlap"),
    (["--overlap", "0.5", "--eta1", "nan"], "--eta1"),
    (["--overlap", "0.5", "--eta1", "1.5"], "--eta1"),
    (["--overlap", "0.5", "--mean-n", "nan:1:3"], "--mean-n"),
], ids=["overlap-nan", "overlap-5", "eta1-nan", "eta1-1.5", "mean-n-nan"])
def test_cli_visibility_bad_number_writes_nothing(tmp_path, capsys, flags, named):
    assert main(["visibility", *flags, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: bad {named} ") and err.count("\n") == 1
    assert not (tmp_path / "visibility.csv").exists()


@pytest.mark.parametrize("old, new, args", [
    ("fwhm_nm = 0.25", "fwhm_nm = nan", ["overlap"]),
    ("fwhm_nm = 0.25", "fwhm_nm = inf", ["overlap"]),
    ("length_um = 2000.0", "length_um = nan", ["overlap"]),
    ("lambda_p = 5.74e-6", "lambda_p = inf", ["overlap"]),
    ("[pump]", "[filter]\nshape = gaussian\nbandwidth_nm = nan\n[pump]",
     ["overlap", "--filter", "custom"]),
    ("[pump]", "[filter]\nshape = gaussian\nbandwidth_nm = 12\ncenter_radps = nan\n[pump]",
     ["overlap", "--filter", "custom"]),
    ("[pump]", "[grid]\nspan_thz = nan\n[pump]", ["jsa"]),
    ("", "", ["jsa", "--grid", "64,nan"]),
], ids=["pump-nan", "pump-inf", "length-nan", "lambda-inf", "filter-nan",
        "filter-center-nan", "grid-nan", "grid-flag-nan"])
def test_cli_nonfinite_spec_value_exit_code(tmp_path, capsys, old, new, args):
    path = write_cfg(tmp_path, MINIMAL.replace(old, new))
    assert main([*args, "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


@pytest.mark.parametrize("old, new, args, key", [
    ("fwhm_nm = 0.25\ncenter_nm = 772.0", "sigma_radps = 0.67", ["overlap"], "[pump] fwhm_nm"),
    ("[pump]", "[filter]\nshape = gaussian\nbandwidth_radps = 9.4\n[pump]",
     ["overlap", "--filter", "custom"], "[filter] bandwidth_nm"),
], ids=["pump-sigma-radps", "filter-bandwidth-radps"])
def test_cli_unread_key_spelling_exit_code(tmp_path, capsys, old, new, args, key):
    """[pump] sigma_radps and [filter] bandwidth_radps are not config keys: a file
    that sets one in place of the required key exits 2 and names that key."""
    path = write_cfg(tmp_path, MINIMAL.replace(old, new))
    assert main([*args, "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"missing {key}" in err


def test_cli_degenerate_dispersion_exit_code(tmp_path, capsys):
    """vg_i = vg_p gives kappa_i = 0, so the tilt angle is undefined: a numeric error."""
    path = write_cfg(tmp_path, MINIMAL.replace("vg_i = 90.4", "vg_i = 74.0"))
    assert main(["jsa", "--config", path, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: kappa_i = 0") and err.count("\n") == 1


@pytest.mark.parametrize("sim, extra", [("gain = nan", []), ("gain = inf", []),
                                        ("", ["--sweep", "0.1,nan"])],
                         ids=["gain-nan", "gain-inf", "sweep-nan"])
def test_cli_montecarlo_nonfinite_input_exit_code(tmp_path, capsys, sim, extra):
    path = write_cfg(tmp_path, MINIMAL + f"\n[sim]\ngates = 1000\n{sim}\n")
    assert main(["montecarlo", "--config", path, "--out", str(tmp_path), *extra]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("section, line, key", [
    ("detection", "eta1 = 1.5", "[detection] eta1"),
    ("detection", "dark_rate_1_hz = 5e6", "[detection] dark_rate_1_hz"),
    ("sim", "rep_rate_mhz = -5", "[sim] rep_rate_mhz"),
    ("sim", "gate_divisor = 0", "[sim] gate_divisor"),
], ids=["eta1", "dark-rate", "rep-rate", "gate-divisor"])
def test_cli_bad_detection_or_gate_value_exit_code(tmp_path, capsys, section, line, key):
    path = write_cfg(tmp_path, MINIMAL + f"\n[{section}]\n{line}\n")
    assert main(["montecarlo", "--config", path, "--gates", "1000",
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert err.count("\n") == 1


def test_cli_montecarlo_saturated_sweep_exit_code(tmp_path, capsys):
    """At power 1e6 every gate clicks in both arms, so C/A = 1 has no mean photon number."""
    args = ["montecarlo", "--gates", "1000", "--sweep", "0.1,1e6", "--out", str(tmp_path)]
    with pytest.warns(UserWarning, match="saturate"):
        assert main(args) == 3
    assert "C/A" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("powers", ["0.1", "0.1,0.1"])
def test_cli_montecarlo_sweep_without_two_powers_exit_code(tmp_path, capsys, powers):
    """A sweep is extrapolated to zero power along a line, so it needs two distinct
    powers; with fewer it exits 2 before simulating and writes nothing."""
    assert main(["montecarlo", "--sweep", powers, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error: a sweep needs at least two distinct pump powers" in err
    assert not (tmp_path / "sweep.csv").exists()


def test_cli_montecarlo_deterministic(tmp_path, capsys):
    args = ["montecarlo", "--gates", "200000", "--seed", "9",
            "--out", str(tmp_path)]
    assert main(args) == 0
    first = (tmp_path / "counts.csv").read_text()
    assert main(args) == 0
    assert (tmp_path / "counts.csv").read_text() == first


def test_cli_fit_round_trip(tmp_path, capsys):
    from twinpdc import visibility_approx
    from twinpdc.fit import points_from_arrays
    from twinpdc.twinstats import write_visibility_points

    grid = np.linspace(0.05, 0.5, 10)
    pts = points_from_arrays(grid, visibility_approx(0.95, grid),
                             np.full(10, 0.01))
    path = str(tmp_path / "points.csv")
    write_visibility_points(path, pts)
    code = main(["fit", path, "--out", str(tmp_path)])
    assert code == 0
    assert "0.9500" in capsys.readouterr().out
    report = (tmp_path / "fit_report.csv").read_text()
    assert "overlap,0.95" in report


def test_cli_fit_full_model_header(tmp_path, capsys):
    from twinpdc import visibility_full
    from twinpdc.fit import points_from_arrays
    from twinpdc.twinstats import write_visibility_points

    grid = np.linspace(0.05, 0.5, 10)
    pts = points_from_arrays(grid, visibility_full(0.9, grid, 1.25, 1.0),
                             np.full(10, 0.01))
    path = str(tmp_path / "points.csv")
    write_visibility_points(path, pts)
    code = main(["fit", path, "--model", "full", "--eta-ratio", "1.25",
                 "--out", str(tmp_path)])
    assert code == 0
    assert "0.9000" in capsys.readouterr().out
    header = [line for line in (tmp_path / "fit_report.csv").read_text().splitlines()
              if line.startswith("#")]
    assert header[0] == ("# twinpdc fit: V = ([1+O] + n(1 - (e1/e2 + e2/e1)/2)) / "
                         "([3-O] + 3n + n(e1/e2 + e2/e1)/2) weighted least squares")
    assert "# eta_ratio,1.25" in header
    assert "# overlap,0.9" in header


@pytest.mark.parametrize("ratio", ["nan", "inf", "0", "-1"])
def test_cli_fit_bad_eta_ratio_writes_nothing(tmp_path, capsys, ratio):
    from twinpdc.twinstats import VisibilityPoint, write_visibility_points

    path = str(tmp_path / "pts.csv")
    write_visibility_points(path, [VisibilityPoint(n, 0.8 - n, 0.01) for n in (0.1, 0.2, 0.3)])
    assert main(["fit", path, "--model", "full", "--eta-ratio", ratio,
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: bad --eta-ratio ") and err.count("\n") == 1
    assert not (tmp_path / "fit_report.csv").exists()


def test_cli_fit_malformed_points_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n0.1,0.8\n")
    assert main(["fit", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "bad.csv line 1" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "fit_report.csv").exists()


def test_cli_fit_illposed_exit_code(tmp_path):
    from twinpdc.twinstats import VisibilityPoint, write_visibility_points

    path = str(tmp_path / "pts.csv")
    write_visibility_points(path, [VisibilityPoint(0.1, 0.8, 0.01)] * 4)
    assert main(["fit", path, "--out", str(tmp_path)]) == 3


def test_cli_schmidt_spectrum(tmp_path, capsys):
    code = main(["schmidt", "--filter", "g12", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "effective mode number" in out
    with open(tmp_path / "schmidt_spectrum.csv") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    assert rows[0] == ["k", "coefficient"]
    lam0 = float(rows[1][1])
    assert 0.0 < lam0 <= 1.0


@pytest.mark.parametrize("argv, name, columns, folded", [
    # the sinc tails need +-16 THz: at +-12 THz the border columns hold 2.8e-5 of the norm
    (["jsa", "--grid", "2048,16.0", "--approx", "sinc"], "marginals.csv",
     "detuning_signal,marginal_signal,detuning_idler,marginal_idler",
     ["grid.points = 2048", "grid.span_thz = 16.0", "grid.approximation = sinc"]),
    (["schmidt", "--filter", "g12"], "schmidt_spectrum.csv", "k,coefficient",
     ["filter.shape = gaussian", "filter.bandwidth_nm = 12.0"]),
    (["visibility", "--overlap", "0.9", "--eta1", "0.5"], "visibility.csv",
     "mean_n,visibility", ["--overlap = 0.9", "--eta1 = 0.5", "--eta2 = 1.0"]),
    (["montecarlo", "--seed", "7", "--gates", "100000"], "counts.csv",
     "gates,singles_signal,singles_idler,coincidences,gate_rate_hz",
     ["sim.seed = 7", "sim.gates = 100000"]),
    (["montecarlo", "--gates", "100000", "--sweep", "0.01,0.02"], "sweep.csv",
     "power,eta_signal_est,eta_idler_est,corrected_signal,corrected_idler,mean_n_est",
     ["sim.gates = 100000"]),
    (["fit", "POINTS"], "fit_report.csv", "mean_n,visibility,sigma,residual",
     ["overlap,0.9"]),
], ids=["jsa", "schmidt", "visibility", "montecarlo", "sweep", "fit"])
def test_cli_table_header_is_the_effective_config(tmp_path, capsys, argv, name, columns,
                                                  folded):
    """Each table is '# twinpdc <command>', the folded config or flags, then its columns."""
    from twinpdc import visibility_approx
    from twinpdc.fit import points_from_arrays
    from twinpdc.twinstats import write_visibility_points

    grid = np.linspace(0.05, 0.5, 10)
    points = str(tmp_path / "points.csv")
    write_visibility_points(points, points_from_arrays(grid, visibility_approx(0.9, grid),
                                                       np.full(10, 0.01)))
    argv = [points if arg == "POINTS" else arg for arg in argv]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 0
    text = (tmp_path / "out" / name).read_bytes().decode()
    assert "\r" not in text
    comments = [line[2:] for line in text.splitlines() if line.startswith("#")]
    assert comments[0].startswith(f"twinpdc {argv[0]}")
    assert set(folded) <= set(comments)
    assert text.splitlines()[len(comments)] == columns


@pytest.fixture
def two_row_table(monkeypatch):
    """Replace the acceptance table with one passing and one failing row."""
    from twinpdc import report
    from twinpdc.report import Criterion

    monkeypatch.setattr(report, "CRITERIA", (
        Criterion("always one", 0.0, 2.0, lambda inputs: 1.0),
        Criterion("always five, tagged", 0.0, 2.0, lambda inputs: 5.0,
                  montecarlo=True),
    ))


def test_cli_report_prints_each_row_and_fails_on_any(two_row_table, capsys):
    from twinpdc.cli import EXIT_NUMERIC

    assert main(["report"]) == EXIT_NUMERIC
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["[PASS] always one: 1 (allowed 0 .. 2)",
                     "[FAIL] always five, tagged: 5 (allowed 0 .. 2)",
                     "1/2 checks passed"]


def test_cli_report_skip_montecarlo_drops_tagged_rows(two_row_table, capsys):
    assert main(["report", "--skip-montecarlo"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["[PASS] always one: 1 (allowed 0 .. 2)", "1/1 checks passed"]


def test_cli_report_without_sim_section_uses_default_seed(monkeypatch, tmp_path, capsys):
    """A config holding only [device], [pump] and [grid] runs the report on the [sim] defaults."""
    from twinpdc import report
    from twinpdc.report import Criterion

    default_seed = cfgmod.sim_from_config({}).seed
    monkeypatch.setattr(report, "CRITERIA", (
        Criterion("seed", default_seed, default_seed, lambda inputs: inputs.seed,
                  montecarlo=True),))
    path = write_cfg(tmp_path, MINIMAL + "\n[grid]\npoints = 256\nspan_thz = 12.0\n")
    assert main(["report", "--config", path]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "1/1 checks passed"


NUMPY_ONLY_SCRIPT = """
import sys

from twinpdc.cli import main

points, out = sys.argv[1:]
for argv in (["montecarlo", "--gates", "20000", "--out", out], ["fit", points, "--out", out],
             ["visibility", "--overlap", "0.9", "--out", out]):
    assert main(argv) == 0, argv
loaded = sorted(name for name in sys.modules if name.startswith("scipy"))
assert not loaded, f"loaded {loaded}"

import numpy as np
from twinpdc import FrequencyGrid, JointAmplitude, decompose

grid = FrequencyGrid.square(64, 4.0)
g = np.exp(-grid.axis_signal ** 2)
values = np.outer(g, g).astype(complex)
values /= np.sqrt(np.sum(np.abs(values) ** 2) * grid.step_signal * grid.step_idler)
decompose(JointAmplitude(grid=grid, values=values, normalized=True))
loaded = sorted(name for name in sys.modules if name.startswith("scipy"))
assert not loaded, f"decompose loaded {loaded}"
"""


def test_cli_commands_and_decompose_load_no_scipy(tmp_path):
    """montecarlo, fit, visibility and decompose run on numpy alone.

    A fresh interpreter, since this one has imported scipy already.
    """
    import twinpdc
    from twinpdc.fit import points_from_arrays
    from twinpdc.twinstats import visibility_approx, write_visibility_points

    grid = np.linspace(0.05, 0.5, 10)
    points = str(tmp_path / "points.csv")
    write_visibility_points(points, points_from_arrays(grid, visibility_approx(0.9, grid),
                                                       np.full(10, 0.01)))
    src = str(Path(twinpdc.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", NUMPY_ONLY_SCRIPT, points, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
