"""Command-line front end.

Subcommands: jsa | overlap | schmidt | visibility | montecarlo | fit | report.
All numeric output is CSV with a comment header naming the units, the formula
implemented and the effective configuration.  Exit codes: 0 ok, 1 usage,
2 config or an unreadable/unwritable file, 3 numeric/resolution,
4 non-convergence.
"""
import argparse
import csv
import math
import os
import sys

import numpy as np

from . import config as cfgmod
from .dispersion import pm_tilt_deviation
from .errors import ConfigError, FitConvergenceError, TwinPdcError
from .fit import fit_overlap
from .jsa import apply_filter, build_jsa, dump_grid
from .montecarlo import (efficiency_sweep, extrapolate_zero_power, simulate)
from .report import jsi_geometry, run_report
from .schmidt import (decompose, delay_compensated_overlap, spectral_overlap)
from .twinstats import (klyshko, mean_n_from_cross, read_visibility_points,
                        visibility_full, write_count_records)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_NOCONVERGENCE = 4

MODEL_FORMULAS = {
    "approx": "V = (1 + O) / (3 - O + 4 n)",
    "full": "V = ([1+O] + n(1 - (e1/e2 + e2/e1)/2)) / "
            "([3-O] + 3n + n(e1/e2 + e2/e1)/2)",
}


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors reported on exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def build_parser():
    parser = _Parser(prog="twinpdc",
                     description="Twin-beam downconversion simulation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", default=None,
                       help="sectioned config file (default: bundled device)")
        p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("jsa", help="build the joint amplitude, export marginals")
    add_common(p)
    p.add_argument("--filter", default="none",
                   choices=["none", "g12", "sg40", "custom"])
    p.add_argument("--grid", default=None, metavar="N,SPAN_THZ",
                   help="override grid, e.g. 1024,8.0")
    p.add_argument("--approx", default=None, choices=["sinc", "gaussian"])
    p.add_argument("--dump", default=None, help="write the complex grid to this file")

    p = sub.add_parser("overlap", help="spectral overlap of the twin beams")
    add_common(p)
    p.add_argument("--filter", default="none",
                   choices=["none", "g12", "sg40", "custom"])
    p.add_argument("--approx", default=None, choices=["sinc", "gaussian"])
    p.add_argument("--compensate-delay", action="store_true")

    p = sub.add_parser("schmidt", help="Schmidt spectrum and mode number")
    add_common(p)
    p.add_argument("--filter", default="none",
                   choices=["none", "g12", "sg40", "custom"])
    p.add_argument("--approx", default=None, choices=["sinc", "gaussian"])

    p = sub.add_parser("visibility", help="visibility model curve")
    add_common(p)
    p.add_argument("--overlap", type=float, required=True)
    p.add_argument("--mean-n", default="0:0.5:26", metavar="START:STOP:NUM")
    p.add_argument("--eta1", type=float, default=1.0)
    p.add_argument("--eta2", type=float, default=1.0)

    p = sub.add_parser("montecarlo", help="gated click simulation and estimators")
    add_common(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--gates", type=int, default=None)
    p.add_argument("--sweep", default=None, metavar="P1,P2,...",
                   help="pump powers for an efficiency sweep")

    p = sub.add_parser("fit", help="fit the spectral overlap to visibility data")
    p.add_argument("points", help="visibility points CSV (mean_n,visibility,sigma)")
    p.add_argument("--model", default="approx", choices=["approx", "full"])
    p.add_argument("--eta-ratio", type=float, default=None)
    p.add_argument("--out", default=".")

    p = sub.add_parser("report", help="run all verification checks")
    add_common(p)
    p.add_argument("--skip-montecarlo", action="store_true")
    return parser


def _load(args):
    path = args.config if args.config else cfgmod.default_config_path()
    cfg = cfgmod.load_config(path)
    device = cfgmod.device_from_config(cfg)
    return cfg, device


def _csv_header(fh, cfg, command, columns):
    fh.write(f"# twinpdc {command}\n")
    for line in cfgmod.effective_config_lines(cfg):
        fh.write(f"# {line}\n")
    fh.write(",".join(columns) + "\n")


def _built_jsa(cfg, device, args, filtered):
    pump = cfgmod.pump_from_config(cfg)
    approx = args.approx or cfgmod.approximation_from_config(cfg)
    grid_override = getattr(args, "grid", None)
    if grid_override:
        try:
            n, span = grid_override.split(",")
            grid = cfgmod.grid_from_config(cfg, points=int(n), span_thz=float(span))
        except ValueError as exc:
            raise ConfigError(f"bad --grid {grid_override!r}") from exc
    else:
        grid = cfgmod.grid_from_config(cfg, filtered=filtered)
    jsa_obj = build_jsa(device, pump, grid, approx)
    transmitted = None
    filt = cfgmod.filter_preset(args.filter, device, cfg)
    if filt is not None:
        jsa_obj, transmitted = apply_filter(jsa_obj, filt)
    return jsa_obj, transmitted


def cmd_jsa(args):
    cfg, device = _load(args)
    jsa_obj, transmitted = _built_jsa(cfg, device, args, filtered=args.filter != "none")
    tilt = pm_tilt_deviation(device)
    # a span too narrow for the marginals fails here, before any file is written
    geo = jsi_geometry(device, jsa_obj)
    sig, idl = geo.marginals

    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "marginals.csv")
    with open(path, "w", newline="") as fh:
        _csv_header(fh, cfg, "jsa marginals (detuning rad/ps, densities 1/(rad/ps))",
                    ["detuning_signal", "marginal_signal", "detuning_idler",
                     "marginal_idler"])
        writer = csv.writer(fh)
        for row in zip(jsa_obj.grid.axis_signal, sig, jsa_obj.grid.axis_idler, idl):
            writer.writerow([f"{v:.9g}" for v in row])
    if args.dump:
        dump_grid(jsa_obj, args.dump, header_lines=["twinpdc jsa grid dump"])

    print(f"anti-diagonal linewidth: {geo.linewidth:.4f} rad/ps "
          f"({geo.linewidth_nm:.3f} nm)")
    print(f"phasematching tilt deviation: {tilt:.3f} deg")
    for name, (width_nm, center_nm) in (("signal", geo.signal), ("idler", geo.idler)):
        print(f"{name} marginal: {width_nm:.1f} nm wide, centered {center_nm:.1f} nm")
    if transmitted is not None:
        print(f"filter transmitted fraction: {transmitted:.4f}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_overlap(args):
    cfg, device = _load(args)
    jsa_obj, transmitted = _built_jsa(cfg, device, args, filtered=args.filter != "none")
    value = spectral_overlap(jsa_obj)
    print(f"spectral overlap |O| = {abs(value):.4f} (O = {value:+.4f})")
    if transmitted is not None:
        print(f"filter transmitted fraction: {transmitted:.4f}")
    if args.compensate_delay:
        span = 3.0 * abs(device.group_delay_ps())
        tau, best = delay_compensated_overlap(jsa_obj, (-span, span))
        print(f"delay-compensated overlap = {best:.4f} at tau = {tau:.4f} ps")
    return EXIT_OK


def cmd_schmidt(args):
    cfg, device = _load(args)
    jsa_obj, _ = _built_jsa(cfg, device, args, filtered=args.filter != "none")
    sd = decompose(jsa_obj)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "schmidt_spectrum.csv")
    with open(path, "w", newline="") as fh:
        _csv_header(fh, cfg, "schmidt spectrum", ["k", "coefficient"])
        writer = csv.writer(fh)
        for k, lam in enumerate(sd.coefficients):
            writer.writerow([k, f"{lam:.12g}"])
    print(f"effective mode number K = {sd.mode_number:.2f} "
          f"(purity 1/K = {sd.purity:.4f})")
    print(f"kept {len(sd.coefficients)} modes, residual weight "
          f"{sd.truncation_residual:.2e}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_visibility(args):
    cfg, _ = _load(args)
    try:
        start, stop, num = args.mean_n.split(":")
        grid = np.linspace(float(start), float(stop), int(num))
    except ValueError as exc:
        raise ConfigError(f"bad --mean-n {args.mean_n!r}") from exc
    if grid.size == 0:
        raise ConfigError(f"bad --mean-n {args.mean_n!r}: the range is empty")
    vis = [visibility_full(args.overlap, n, args.eta1, args.eta2) for n in grid]
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "visibility.csv")
    with open(path, "w", newline="") as fh:
        _csv_header(fh, cfg, f"visibility {MODEL_FORMULAS['full']}",
                    ["mean_n", "visibility"])
        writer = csv.writer(fh)
        for n, v in zip(grid, vis):
            writer.writerow([f"{n:.9g}", f"{v:.9g}"])
    print(f"V({grid[0]:g}) = {vis[0]:.6f}, V({grid[-1]:g}) = {vis[-1]:.6f}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_montecarlo(args):
    cfg, _ = _load(args)
    sim = cfgmod.sim_from_config(cfg, seed=args.seed, gates=args.gates)
    os.makedirs(args.out, exist_ok=True)
    if args.sweep:
        try:
            powers = [float(tok) for tok in args.sweep.split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad --sweep {args.sweep!r}") from exc
        print(f"sweeping {len(powers)} powers at {sim.n_gates} gates each",
              file=sys.stderr)
        points = efficiency_sweep(sim, powers)
        path = os.path.join(args.out, "sweep.csv")
        with open(path, "w", newline="") as fh:
            _csv_header(fh, cfg, "efficiency sweep (raw C/S and accidental-corrected)",
                        ["power", "eta_signal_est", "eta_idler_est",
                         "corrected_signal", "corrected_idler", "mean_n_est"])
            writer = csv.writer(fh)
            for p in points:
                writer.writerow([f"{v:.9g}" for v in
                                 (p.power, p.eta_signal_est, p.eta_idler_est,
                                  p.corrected_signal, p.corrected_idler, p.mean_n_est)])
        for label, vals, sigs, in (
                ("signal", [p.corrected_signal for p in points],
                 [p.sigma_signal for p in points]),
                ("idler", [p.corrected_idler for p in points],
                 [p.sigma_idler for p in points])):
            intercept, se, _ = extrapolate_zero_power(powers, vals, sigs)
            print(f"zero-power Klyshko efficiency ({label}): "
                  f"{100 * intercept:.2f} +- {100 * se:.2f} %")
        print(f"wrote {path}")
        return EXIT_OK
    print(f"simulating {sim.n_gates} gates (seed {sim.seed})", file=sys.stderr)
    rec = simulate(sim)
    path = os.path.join(args.out, "counts.csv")
    write_count_records(path, [rec],
                        header_comments=cfgmod.effective_config_lines(cfg))
    kly = klyshko(rec)
    est = mean_n_from_cross(rec)
    print(f"singles: {rec.singles_signal} / {rec.singles_idler}, "
          f"coincidences: {rec.coincidences}")
    print(f"Klyshko efficiencies: eta_s = {kly.eta_signal:.4f} +- {kly.sigma_signal:.4f}, "
          f"eta_i = {kly.eta_idler:.4f} +- {kly.sigma_idler:.4f}")
    print(f"C/A = {est.cross_correlation:.3f}, "
          f"mean photon number = {est.mean_n:.4f} +- {est.sigma:.4f}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_fit(args):
    points = read_visibility_points(args.points)
    result = fit_overlap(points, model=args.model, eta_ratio=args.eta_ratio)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "fit_report.csv")
    with open(path, "w", newline="") as fh:
        fh.write(f"# twinpdc fit: {MODEL_FORMULAS[args.model]} weighted least squares\n")
        fh.write(f"# overlap,{result.overlap:.9g}\n")
        if args.model == "full":
            fh.write(f"# eta_ratio,{result.eta_ratio:.9g}\n")
        fh.write(f"# sigma,{result.sigma:.3g}\n")
        fh.write(f"# chi_square,{result.chi_square:.6g}\n")
        fh.write(f"# boundary,{result.at_boundary}\n")
        writer = csv.writer(fh)
        writer.writerow(["mean_n", "visibility", "sigma", "residual"])
        for p, r in zip(points, result.residuals):
            writer.writerow([f"{p.mean_n:.9g}", f"{p.visibility:.9g}",
                             f"{p.sigma:.9g}", f"{r:.6g}"])
    flag = " (boundary solution)" if result.at_boundary else ""
    print(f"spectral overlap = {result.overlap:.4f} +- {result.sigma:.4f}{flag}")
    print(f"chi-square / dof = {result.reduced_chi_square:.3f} "
          f"over {result.n_points} points")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_report(args):
    cfg, _ = _load(args)
    checks = run_report(cfg, include_montecarlo=not args.skip_montecarlo,
                        progress=lambda msg: print(f"... {msg}", file=sys.stderr))
    for check in checks:
        print(check.line())
    failed = [c for c in checks if not c.passed]
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    return EXIT_OK if not failed else EXIT_NUMERIC


COMMANDS = {
    "jsa": cmd_jsa,
    "overlap": cmd_overlap,
    "schmidt": cmd_schmidt,
    "visibility": cmd_visibility,
    "montecarlo": cmd_montecarlo,
    "fit": cmd_fit,
    "report": cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FitConvergenceError as exc:
        print(f"fit did not converge: {exc}", file=sys.stderr)
        return EXIT_NOCONVERGENCE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TwinPdcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
