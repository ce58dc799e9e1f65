"""Command-line front end.

Subcommands: jsa | overlap | schmidt | visibility | montecarlo | fit | report.
Every flag that sets a config value is written into the loaded config before
anything is built, so each run has one effective config.  All numeric output
is CSV whose '#' header names the command, the units and the formula
implemented, then that effective config.  Exit codes: 0 ok, 1 usage, 2 config,
a bad flag value, a malformed input table or an unreadable/unwritable file,
3 numeric/resolution, 4 non-convergence.
"""
import argparse
import math
import os
import sys

import numpy as np

from . import config as cfgmod
from .dispersion import pm_tilt_deviation
from .errors import ConfigError, FitConvergenceError, TwinPdcError
from .fit import fit_overlap
from .jsa import dump_grid
from .montecarlo import efficiency_sweep, simulate, zero_power_efficiencies
from .report import delay_search_range, jsi_geometry, run_report
from .schmidt import (decompose, delay_compensated_overlap, spectral_overlap)
from .twinstats import (klyshko, mean_n_from_cross, read_visibility_points,
                        visibility_full, write_count_records, write_table)

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

    # a dest "section.key" names the config value the flag sets (see _load)
    def add_grid(p):
        p.add_argument("--approx", dest="grid.approximation", default=None,
                       choices=["sinc", "gaussian"])
        p.add_argument("--grid", default=None, metavar="N,SPAN_THZ",
                       help="grid points and span, e.g. 1024,8.0")

    def add_spectral(p):
        add_common(p)
        p.add_argument("--filter", default="none",
                       choices=[*cfgmod.FILTER_PRESETS, "custom"])
        add_grid(p)

    p = sub.add_parser("jsa", help="build the joint amplitude, export marginals")
    add_spectral(p)
    p.add_argument("--dump", default=None,
                   help="write the complex grid's pump band to this file as .npy arrays "
                        "(read back by twinpdc.jsa.load_grid)")

    p = sub.add_parser("overlap", help="spectral overlap of the twin beams")
    add_spectral(p)
    p.add_argument("--compensate-delay", action="store_true")

    p = sub.add_parser("schmidt", help="Schmidt spectrum and mode number")
    add_spectral(p)

    p = sub.add_parser("visibility", help="visibility model curve")
    add_common(p)
    p.add_argument("--overlap", type=float, required=True)
    p.add_argument("--mean-n", default="0:0.5:26", metavar="START:STOP:NUM")
    p.add_argument("--eta1", type=float, default=1.0)
    p.add_argument("--eta2", type=float, default=1.0)

    p = sub.add_parser("montecarlo", help="gated click simulation and estimators")
    add_common(p)
    p.add_argument("--seed", dest="sim.seed", metavar="SEED", type=int, default=None)
    p.add_argument("--gates", dest="sim.gates", metavar="GATES", type=int, default=None)
    p.add_argument("--sweep", default=None, metavar="P1,P2,...",
                   help="pump powers for an efficiency sweep")

    p = sub.add_parser("fit", help="fit the spectral overlap to visibility data")
    p.add_argument("points", help="visibility points CSV (mean_n,visibility,sigma)")
    p.add_argument("--model", default="approx", choices=["approx", "full"])
    p.add_argument("--eta-ratio", type=float, default=None)
    p.add_argument("--out", default=".")

    p = sub.add_parser("report", help="run all verification checks")
    add_common(p)
    add_grid(p)
    p.add_argument("--skip-montecarlo", action="store_true")
    return parser


def _load(args):
    """The config file with every config-setting flag written into it, and its device."""
    path = args.config if args.config else cfgmod.default_config_path()
    cfg = cfgmod.load_config(path)
    for dest, value in vars(args).items():
        section, dot, key = dest.partition(".")
        if dot and value is not None:
            cfg.setdefault(section, {})[key] = str(value)
    if getattr(args, "grid", None):
        try:
            n, span = args.grid.split(",")
            cfg = cfgmod.with_grid(cfg, n, span)
        except ValueError as exc:
            raise ConfigError(f"bad --grid {args.grid!r}") from exc
    if getattr(args, "filter", None):
        cfg = cfgmod.with_filter_preset(cfg, args.filter)
    return cfg, cfgmod.device_from_config(cfg)


def _out_path(args, name):
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _provenance(title, cfg):
    """Header lines: '# twinpdc <title>', then the effective config."""
    return [f"twinpdc {title}", *cfgmod.effective_config_lines(cfg)]


def cmd_jsa(args):
    cfg, device = _load(args)
    jsa_obj, transmitted = cfgmod.amplitude_from_config(cfg)
    tilt = pm_tilt_deviation(device)
    # a span too narrow for the marginals fails here, before any file is written
    geo = jsi_geometry(device, jsa_obj)
    sig, idl = geo.marginals

    path = _out_path(args, "marginals.csv")
    write_table(path, ["detuning_signal", "marginal_signal", "detuning_idler", "marginal_idler"],
                ([f"{v:.9g}" for v in row] for row in
                 zip(jsa_obj.grid.axis_signal, sig, jsa_obj.grid.axis_idler, idl)),
                _provenance("jsa marginals (detuning rad/ps, densities 1/(rad/ps))", cfg))
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
    jsa_obj, transmitted = cfgmod.amplitude_from_config(cfg)
    value = spectral_overlap(jsa_obj)
    print(f"spectral overlap |O| = {abs(value):.4f} (O = {value:+.4f})")
    if transmitted is not None:
        print(f"filter transmitted fraction: {transmitted:.4f}")
    if args.compensate_delay:
        tau, best = delay_compensated_overlap(jsa_obj, delay_search_range(device))
        print(f"delay-compensated overlap = {best:.4f} at tau = {tau:.4f} ps")
    return EXIT_OK


def cmd_schmidt(args):
    cfg, _ = _load(args)
    jsa_obj, _ = cfgmod.amplitude_from_config(cfg)
    sd = decompose(jsa_obj)
    path = _out_path(args, "schmidt_spectrum.csv")
    write_table(path, ["k", "coefficient"],
                ([k, f"{lam:.12g}"] for k, lam in enumerate(sd.coefficients)),
                _provenance("schmidt spectrum", cfg))
    print(f"effective mode number K = {sd.mode_number:.2f} "
          f"(purity 1/K = {sd.purity:.4f})")
    print(f"kept {len(sd.coefficients)} modes, residual weight "
          f"{sd.truncation_residual:.2e}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_visibility(args):
    _load(args)  # a bad --config exits 2 here too, though no config value enters the curve
    # each comparison is False for NaN
    if not -1.0 <= args.overlap <= 1.0:
        raise ConfigError(f"bad --overlap {args.overlap!r}: needs a value in [-1, 1]")
    for flag, eta in (("--eta1", args.eta1), ("--eta2", args.eta2)):
        if not 0.0 < eta <= 1.0:
            raise ConfigError(f"bad {flag} {eta!r}: needs a value in (0, 1]")
    try:
        start, stop, num = args.mean_n.split(":")
        start, stop, num = float(start), float(stop), int(num)
    except ValueError as exc:
        raise ConfigError(f"bad --mean-n {args.mean_n!r}") from exc
    if not (0.0 <= start < math.inf and 0.0 <= stop < math.inf):
        raise ConfigError(f"bad --mean-n {args.mean_n!r}: the bounds need finite values >= 0")
    if num <= 0:
        raise ConfigError(f"bad --mean-n {args.mean_n!r}: the range is empty")
    grid = np.linspace(start, stop, num)
    vis = [visibility_full(args.overlap, n, args.eta1, args.eta2) for n in grid]
    path = _out_path(args, "visibility.csv")
    write_table(path, ["mean_n", "visibility"],
                ([f"{n:.9g}", f"{v:.9g}"] for n, v in zip(grid, vis)),
                [f"twinpdc visibility {MODEL_FORMULAS['full']}", f"--overlap = {args.overlap!r}",
                 f"--eta1 = {args.eta1!r}", f"--eta2 = {args.eta2!r}"])
    print(f"V({grid[0]:g}) = {vis[0]:.6f}, V({grid[-1]:g}) = {vis[-1]:.6f}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_montecarlo(args):
    cfg, _ = _load(args)
    sim = cfgmod.sim_from_config(cfg)
    if args.sweep:
        try:
            powers = [float(tok) for tok in args.sweep.split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad --sweep {args.sweep!r}") from exc
        print(f"sweeping {len(powers)} powers at {sim.n_gates} gates each",
              file=sys.stderr)
        points = efficiency_sweep(sim, powers)
        path = _out_path(args, "sweep.csv")
        write_table(path, ["power", "eta_signal_est", "eta_idler_est",
                           "corrected_signal", "corrected_idler", "mean_n_est"],
                    ([f"{v:.9g}" for v in (p.power, p.eta_signal_est, p.eta_idler_est,
                                            p.corrected_signal, p.corrected_idler,
                                            p.mean_n_est)] for p in points),
                    _provenance("montecarlo efficiency sweep "
                                "(raw C/S and accidental-corrected)", cfg))
        for label, (intercept, se) in zero_power_efficiencies(points).items():
            print(f"zero-power Klyshko efficiency ({label}): "
                  f"{100 * intercept:.2f} +- {100 * se:.2f} %")
        print(f"wrote {path}")
        return EXIT_OK
    print(f"simulating {sim.n_gates} gates (seed {sim.seed})", file=sys.stderr)
    rec = simulate(sim)
    path = _out_path(args, "counts.csv")
    write_count_records(path, [rec], _provenance("montecarlo counts", cfg))
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
    # each comparison is False for NaN
    if args.eta_ratio is not None and not 0.0 < args.eta_ratio < math.inf:
        raise ConfigError(f"bad --eta-ratio {args.eta_ratio!r}: needs a finite value > 0")
    points = read_visibility_points(args.points)
    result = fit_overlap(points, model=args.model, eta_ratio=args.eta_ratio)
    ratio = [f"eta_ratio,{result.eta_ratio:.9g}"] if args.model == "full" else []
    path = _out_path(args, "fit_report.csv")
    write_table(path, ["mean_n", "visibility", "sigma", "residual"],
                ([f"{p.mean_n:.9g}", f"{p.visibility:.9g}", f"{p.sigma:.9g}", f"{r:.6g}"]
                 for p, r in zip(points, result.residuals)),
                [f"twinpdc fit: {MODEL_FORMULAS[args.model]} weighted least squares",
                 f"overlap,{result.overlap:.9g}", *ratio, f"sigma,{result.sigma:.3g}",
                 f"chi_square,{result.chi_square:.6g}", f"boundary,{result.at_boundary}"])
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
