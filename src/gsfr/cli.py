"""Command-line front end: correction functions, wavenumber analysis, studies.

Commands are grouped as ``corr`` (solve/bounds/identify), ``vn``
(dispersion/cfl/sweep), ``run`` (advect/hetero/ooa), and ``search``
(cfl). Results go to CSV files with 17-significant-digit numbers or to
JSON files with Python's shortest round-trip repr; both round-trip
every finite double, and JSON writes a non-finite one as null, so each
document is strict JSON. A JSON document holds the command's parsed
options as ``config`` and its result's fields as ``result``. Exit codes: 0
success, 1 invalid usage or configuration, 2 numerical failure
(singular system, blow-up, empty search).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import sys
from math import isfinite, nan, pi

import numpy as np

from . import correction as corr
from . import experiments as xp
from .operators import NODE_KINDS, RK_SCHEMES
from .spectral import K_SAMPLES, RHO_TOL, cfl_limit, dispersion_sweep

FMT = "%.17g"
# an abscissa above this is true growth, not eigen-solver round-off (~1e-15)
ABSCISSA_TOL = 1e-12


class _Parser(argparse.ArgumentParser):
    # validation problems are exit code 1, not argparse's default 2
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _comma_list(kind, noun, text: str) -> list:
    """Comma-separated ``kind`` values, none empty; an argparse type once kind and noun are bound."""
    try:
        return [kind(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad {noun} {text!r}: {exc}") from exc


_iota_list = functools.partial(_comma_list, float, "weight list")
_element_counts = functools.partial(_comma_list, int, "element counts")


def _params(args) -> corr.CorrectionParams:
    # ValueError / GsfrError propagate to main's handler -> exit code 1
    return corr.CorrectionParams(args.p, args.iota)


def _write_text(path, text):
    if path is None:
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_csv(path, header, columns):
    rows = [",".join(header)]
    for row in zip(*columns):
        rows.append(",".join(FMT % v for v in row))
    _write_text(path, "\n".join(rows) + "\n")


def _finite_or_null(value):
    """value with arrays as lists and every non-finite float as None; finite values are left as they are."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    if isinstance(value, float) and not isfinite(value):
        return None
    return value


def _json_doc(args, result) -> str:
    """Every parsed option but the routing and --out as config; a record result (a NamedTuple) as its
    _asdict(), converted before _finite_or_null would write the tuple as an array; strict JSON."""
    config = {k: v for k, v in vars(args).items() if k not in ("group", "cmd", "func", "out")}
    if hasattr(result, "_asdict"):
        result = result._asdict()
    doc = _finite_or_null({"config": config, "result": result})
    return json.dumps(doc, sort_keys=True, allow_nan=False) + "\n"


def _cmd_corr_solve(args):
    pair = corr.solve_correction(_params(args))
    _write_text(args.out, _json_doc(args, {"h_l": pair.h_l.coeffs, "h_r": pair.h_r.coeffs}))
    print(f"solved p={args.p}: h_l = [" + ", ".join(FMT % c for c in pair.h_l.coeffs) + "]")
    return 0


def _cmd_corr_bounds(args):
    params = _params(args)
    bounds = corr.sufficient_bounds(params)
    _write_text(args.out, _json_doc(args, bounds))
    verdict = "satisfied" if bounds.satisfied else "NOT satisfied"
    print(f"sufficient bounds {verdict}; margins = [" + ", ".join(FMT % v for v in bounds.margins) + "]")
    return 0


def _cmd_corr_identify(args):
    params = _params(args)
    pair = corr.solve_correction(params)
    maps = [("osfr_iota", "osfr", lambda: corr.osfr_iota(pair.h_l))]
    if params.p == 3:
        maps.append(("esfr_kappa", "esfr", lambda: corr.esfr3_weights(pair.g_l)))
    maps.append(("recovered_iota", "iota", lambda: corr.recover_weights(pair.h_l)))
    result: dict = {}
    shown = []
    for key, label, recover in maps:
        try:
            value = recover()
            result[key] = None if value is None else np.asarray(value, dtype=float).tolist()
        except corr.GsfrError as exc:
            result[key] = f"degenerate: {exc}"
        shown.append(f"{label}=" + ("not a member" if result[key] is None else str(result[key])))
    _write_text(args.out, _json_doc(args, result))
    print("identify: " + ", ".join(shown))
    return 0


def _cmd_vn_dispersion(args):
    ops = xp.reference_operators(_params(args), args.alpha)
    k_hats, om_re, om_im = dispersion_sweep(ops, args.k_samples)
    header = ["k_hat"]
    cols = [k_hats]
    for mode in range(args.p + 1):
        header += [f"re_omega_mode_{mode}", f"im_omega_mode_{mode}"]
        cols += [om_re[:, mode], om_im[:, mode]]
    _write_csv(args.out, header, cols)
    print(f"dispersion: {args.k_samples} wavenumbers, {args.p + 1} modes" + (f" -> {args.out}" if args.out else ""))
    return 0


def _abscissa_note(abscissa: float, tolerance: str) -> None:
    """Print a note when the abscissa is true growth, so that a step limit depends on its growth ``tolerance``."""
    if abscissa > ABSCISSA_TOL:
        print(
            f"note: spectral abscissa {abscissa:.3g} > 0, so a mode grows at every step; "
            f"tau_max depends on {tolerance}"
        )


def _cmd_vn_cfl(args):
    ops = xp.reference_operators(_params(args), args.alpha)
    res = cfl_limit(ops, args.rk, args.k_samples, rho_tol=args.rho_tol)
    _write_text(args.out, _json_doc(args, res))
    print(f"tau_max = {FMT % res.tau_max} ({args.rk}, worst k_hat {res.worst_k_hat:.4f})")
    _abscissa_note(res.spectral_abscissa, f"--rho-tol ({args.rho_tol:g} here)")
    return 0


def _cmd_vn_sweep(args):
    cpus = os.cpu_count() or 1
    if not 1 <= args.jobs <= cpus:
        raise ValueError(f"--jobs must be between 1 and the {cpus} CPUs, got {args.jobs}")
    grid = xp.default_search_grid(args.p, magnitudes=args.magnitudes)
    limit = functools.partial(
        xp.step_limit, alpha=args.alpha, rk=args.rk, k_samples=args.k_samples, rho_tol=args.rho_tol
    )
    if args.jobs > 1:
        from multiprocessing import Pool

        with Pool(args.jobs) as pool:
            limits = pool.map(limit, grid)
    else:
        limits = [limit(params) for params in grid]
    taus = [nan if res is None else res.tau_max for res in limits]
    header = [f"iota_{i}" for i in range(1, args.p + 1)] + ["tau_max"]
    _write_csv(args.out, header, list(np.array([params.iota[1:] for params in grid]).T) + [taus])
    best = max((res.tau_max for res in limits if res is not None), default=nan)
    print(f"sweep: {len(grid)} points, best tau_max = {FMT % best}" + (f" -> {args.out}" if args.out else ""))
    return 0


def _cmd_run_advect(args):
    params = _params(args)
    x, u, eps = xp.advect_snapshot(params, args.alpha, args.n_elements, args.t_end, args.rk, args.nodes)
    _write_csv(args.out, ["x", "u"], [x, u])
    print(f"advect: N={args.n_elements}, t={args.t_end:g}, eps2 = {FMT % eps}")
    return 0


def _cmd_run_hetero(args):
    params = _params(args)
    report = xp.hetero_energy_study(
        params, args.alpha, args.n_elements, args.periods, args.cfl, args.rk, args.nodes
    )
    _write_csv(args.out, ["t", "energy"], [report.times, report.energy])
    if report.blew_up:
        raise xp.UnstableRunError(f"energy blow-up at t = {report.blowup_time:.6g}")
    print(
        f"hetero: survived {args.periods} periods, |E(nT)-1| final = {FMT % report.error_at_periods[-1]}, "
        f"peak energy = {FMT % report.peak_energy}"
    )
    return 0


def _cmd_run_ooa(args):
    params = _params(args)
    report = xp.ooa_study(params, args.alpha, args.element_counts, args.t_end, args.rk, args.nodes)
    _write_text(args.out, _json_doc(args, report))
    print(f"ooa: fitted order = {report.fitted_order:.4f} (r^2 = {report.r_squared:.6f})")
    if report.at_roundoff:
        print(
            f"note: smallest error {min(report.errors):.3g} < {xp.ROUNDOFF_FLOOR:g}, at the round-off floor; "
            "the fitted order may read round-off, not truncation"
        )
    return 0


def _cmd_search_cfl(args):
    grid = xp.default_search_grid(args.p, magnitudes=args.magnitudes)
    report = xp.cfl_search(args.rk, grid, args.alpha)
    _write_text(args.out, _json_doc(args, report))
    print(
        f"search: best tau = {FMT % report.best_tau} at iota = ["
        + ", ".join(FMT % v for v in report.best_iota)
        + f"], order {report.ooa_at_best:.3f}"
    )
    _abscissa_note(report.spectral_abscissa, f"the search's rho_tol ({xp.REFERENCE_RHO_TOL:g})")
    return 0


_OPTIONS = {
    "--iota": dict(type=_iota_list, required=True, help="comma-separated weights iota_0..iota_p"),
    "--alpha": dict(type=float, default=1.0, help="interface upwinding ratio (1 upwind, 0.5 central)"),
    "--nodes": dict(choices=tuple(NODE_KINDS), default="gauss"),
    "--rk": dict(choices=RK_SCHEMES, default="rk44"),
    "--k-samples": dict(type=int, default=K_SAMPLES),
    "--rho-tol": dict(type=float, default=RHO_TOL),
}


def _formatter():
    # one terminal-size read for every parser built (argparse reads it per formatter)
    return functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)


def _command(parser, group, name, func, shared="", own=()):
    """``parser`` as command ``group name``: --p, ``shared`` _OPTIONS, --out, ``own`` {flag: (type, default)}."""
    parser.add_argument("--p", type=int, required=True, help="polynomial order")
    for flag in shared.split():
        parser.add_argument(flag, **_OPTIONS[flag])
    parser.add_argument("--out", default=None, help="output file path")
    for flag, (kind, default) in dict(own).items():
        parser.add_argument(flag, type=kind, default=default)
    parser.set_defaults(group=group, cmd=name, func=func)
    return parser


def _commands() -> dict:
    """(group, command) -> (its _cmd_* function as it is at call time, its help, then _command's options)."""
    # node kind cannot change a linear-advection spectrum (see xp.reference_operators)
    spectral, study = "--alpha --k-samples", "--iota --alpha --nodes --rk"
    return {
        ("corr", "solve"): (_cmd_corr_solve, "solve for a correction pair", "--iota"),
        ("corr", "bounds"): (_cmd_corr_bounds, "check the sufficient stability bounds", "--iota"),
        ("corr", "identify"): (_cmd_corr_identify, "OSFR/ESFR membership and weight recovery", "--iota"),
        ("vn", "dispersion"): (_cmd_vn_dispersion, "dispersion/dissipation curves CSV", "--iota " + spectral),
        ("vn", "cfl"): (_cmd_vn_cfl, "largest stable time step", "--iota --rk --rho-tol " + spectral),
        ("vn", "sweep"): (_cmd_vn_sweep, "CFL limit over a weight grid CSV", "--rk --rho-tol " + spectral, {
            "--magnitudes": (_iota_list, [0.0, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1]), "--jobs": (int, 1),
        }),
        ("run", "advect"): (_cmd_run_advect, "linear advection snapshot CSV", study, {
            "--n-elements": (int, 50), "--t-end": (float, pi),
        }),
        ("run", "hetero"): (_cmd_run_hetero, "variable-speed aliasing energy study", study, {
            "--n-elements": (int, 32), "--periods": (int, 15), "--cfl": (float, 0.06),
        }),
        ("run", "ooa"): (_cmd_run_ooa, "order-of-accuracy study", study, {
            "--t-end": (float, pi), "--element-counts": (_element_counts, xp.DEFAULT_ELEMENT_COUNTS),
        }),
        ("search", "cfl"): (_cmd_search_cfl, "maximise the stable step over a weight grid", "--alpha --rk", {
            "--magnitudes": (_iota_list, [0.0, 1e-4, 1e-3, 1e-2]),
        }),
    }


def _build_parser() -> _Parser:
    """The whole tree: the top-level parser, one per group and one per command (15)."""
    fmt = _formatter()
    parser = _Parser(prog="gsfr", description=__doc__.splitlines()[0], formatter_class=fmt)
    sub = functools.partial(_Parser, formatter_class=fmt)
    top = parser.add_subparsers(dest="group", required=True, parser_class=sub)
    groups = dict(corr="correction functions", vn="wavenumber analysis", run="time-domain studies",
                  search="coupled CFL/order search")
    cmds = {group: top.add_parser(group, help=help).add_subparsers(dest="cmd", required=True, parser_class=sub)
            for group, help in groups.items()}
    for (group, name), (func, help, *options) in _commands().items():
        _command(cmds[group].add_parser(name, help=help), group, name, func, *options)
    return parser


def _parse(argv):
    """The whole tree's namespace for ``argv``, from the command's parser alone when ``argv`` starts with a group and
    one of its commands (no help screen, prog or error line depends on another parser), else from the whole tree."""
    path = tuple(argv[:2])
    commands = _commands()
    if path not in commands:
        return _build_parser().parse_args(argv)
    func, _, *options = commands[path]
    parser = _command(_Parser(prog="gsfr " + " ".join(path), formatter_class=_formatter()), *path, func, *options)
    args, extras = parser.parse_known_args(argv[2:])
    if extras:  # the whole tree reports a command's leftovers from its top-level parser
        parser.exit(1, f"gsfr: error: unrecognized arguments: {' '.join(extras)}\n")
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv)
    try:
        return args.func(args)
    except corr.NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (corr.GsfrError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
