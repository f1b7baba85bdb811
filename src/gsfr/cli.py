"""Command-line front end: correction functions, wavenumber analysis, studies.

Commands are grouped as ``corr`` (solve/bounds/identify), ``vn``
(dispersion/cfl/sweep), ``run`` (advect/hetero/ooa), and ``search``
(cfl). Results go to CSV or JSON files with 17-significant-digit
numbers (round-trippable doubles); every JSON document embeds the
resolved configuration. Exit codes: 0 success, 1 invalid usage or
configuration, 2 numerical failure (singular system, blow-up, empty
search).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from math import pi

import numpy as np

from . import correction as corr
from . import experiments as xp
from .operators import NODE_KINDS, RK_SCHEMES
from .spectral import cfl_limit, dispersion_sweep

FMT = "%.17g"
# an abscissa above this is true growth, not eigen-solver round-off (~1e-15)
ABSCISSA_TOL = 1e-12


class _Parser(argparse.ArgumentParser):
    # validation problems are exit code 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _iota_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad weight list {text!r}: {exc}") from exc


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


def _json_doc(config: dict, result: dict) -> str:
    return json.dumps({"config": config, "result": result}, sort_keys=True) + "\n"


def _config(args, fields):
    return {name: getattr(args, name) for name in fields if hasattr(args, name)}


def _cmd_corr_solve(args):
    params = _params(args)
    pair = corr.solve_correction(params)
    _write_text(args.out, corr.pair_to_json(params, pair) + "\n")
    print(
        f"solved p={params.p}: h_l = ["
        + ", ".join(FMT % c for c in pair.h_l.coeffs)
        + "]"
    )
    return 0


def _cmd_corr_bounds(args):
    params = _params(args)
    bounds = corr.sufficient_bounds(params)
    doc = {
        "lower": [float(v) for v in bounds.lower],
        "margins": [float(v) for v in bounds.margins],
        "satisfied": bounds.satisfied,
    }
    _write_text(args.out, _json_doc(_config(args, ("p", "iota")), doc))
    verdict = "satisfied" if bounds.satisfied else "NOT satisfied"
    print(f"sufficient bounds {verdict}; margins = [" + ", ".join(FMT % v for v in bounds.margins) + "]")
    return 0


def _cmd_corr_identify(args):
    if args.infile is not None:
        with open(args.infile, encoding="utf-8") as fh:
            params, pair = corr.pair_from_json(fh.read())
        if params.p != args.p:
            raise ValueError(f"--p {args.p} differs from p = {params.p} in {args.infile}")
    elif args.iota is not None:
        params = _params(args)
        pair = corr.solve_correction(params)
    else:
        raise ValueError("corr identify needs --iota or --in")
    result: dict = {"p": params.p}
    try:
        iota = corr.osfr_iota(params.p, pair.h_l)
        result["osfr_iota"] = iota if iota is None else float(iota)
    except corr.GsfrError as exc:
        result["osfr_iota"] = f"degenerate: {exc}"
    if params.p == 3:
        try:
            kappas = corr.esfr3_weights(pair.g_l)
            result["esfr_kappa"] = None if kappas is None else [float(k) for k in kappas]
        except corr.GsfrError as exc:
            result["esfr_kappa"] = f"degenerate: {exc}"
        try:
            result["recovered_iota"] = [float(v) for v in corr.recover_weights_p3(pair.h_l)]
        except corr.GsfrError as exc:
            result["recovered_iota"] = f"degenerate: {exc}"
    _write_text(args.out, _json_doc(_config(args, ("p", "iota", "infile")), result))
    osfr = result.get("osfr_iota")
    esfr = result.get("esfr_kappa")
    print(
        "identify: osfr="
        + ("not a member" if osfr is None else str(osfr))
        + ", esfr="
        + ("not a member" if esfr is None else str(esfr))
        + (", iota=" + str(result.get("recovered_iota")) if params.p == 3 else "")
    )
    return 0


def _ops_for(args):
    params = _params(args)
    return params, xp.reference_operators(corr.solve_correction(params), args.alpha)


def _cmd_vn_dispersion(args):
    params, ops = _ops_for(args)
    k_hats, om_re, om_im = dispersion_sweep(ops, args.k_samples)
    header = ["k_hat"]
    cols = [k_hats]
    for mode in range(params.p + 1):
        header += [f"re_omega_mode_{mode}", f"im_omega_mode_{mode}"]
        cols += [om_re[:, mode], om_im[:, mode]]
    _write_csv(args.out, header, cols)
    print(f"dispersion: {args.k_samples} wavenumbers, {params.p + 1} modes" + (f" -> {args.out}" if args.out else ""))
    return 0


def _cmd_vn_cfl(args):
    params, ops = _ops_for(args)
    res = cfl_limit(ops, args.rk, args.k_samples, rho_tol=args.rho_tol)
    doc = {
        "tau_max": res.tau_max,
        "worst_k_hat": res.worst_k,
        "k_samples": res.k_samples,
        "rk": res.rk,
        "probes": res.probes,
        "spectral_abscissa": res.spectral_abscissa,
    }
    _write_text(args.out, _json_doc(_config(args, ("p", "iota", "alpha", "rk", "k_samples", "rho_tol")), doc))
    print(f"tau_max = {FMT % res.tau_max} ({args.rk}, worst k_hat {res.worst_k:.4f})")
    if res.spectral_abscissa > ABSCISSA_TOL:
        print(
            f"note: spectral abscissa {res.spectral_abscissa:.3g} > 0, so a mode grows at every step; "
            f"tau_max depends on --rho-tol ({args.rho_tol:g} here)"
        )
    return 0


def _cmd_vn_sweep(args):
    grid = xp.default_search_grid(args.p, magnitudes=args.magnitudes)
    points = [corr.CorrectionParams(args.p, iota) for iota in grid]
    limit = functools.partial(
        xp.step_limit, alpha=args.alpha, rk=args.rk, k_samples=args.k_samples, rho_tol=args.rho_tol
    )
    if args.jobs > 1:
        from multiprocessing import Pool

        with Pool(args.jobs) as pool:
            taus = pool.map(limit, points)
    else:
        taus = [limit(params) for params in points]
    header = [f"iota_{i}" for i in range(1, args.p + 1)] + ["tau_max"]
    cols = list(np.array(grid)[:, 1:].T)
    cols.append(np.array(taus))
    _write_csv(args.out, header, cols)
    finite = np.isfinite(cols[-1])
    best = np.nanmax(cols[-1]) if finite.any() else float("nan")
    print(f"sweep: {len(points)} points, best tau_max = {FMT % best}" + (f" -> {args.out}" if args.out else ""))
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
        f"hetero: survived {args.periods} periods, |E(nT)-1| final = {FMT % report.error_at_periods[-1]}"
    )
    return 0


def _cmd_run_ooa(args):
    params = _params(args)
    report = xp.ooa_study(params, args.alpha, args.element_counts, args.t_end, args.rk, args.nodes)
    _write_text(
        args.out,
        _json_doc(_config(args, ("p", "iota", "alpha", "rk", "t_end", "element_counts")), report.to_dict()),
    )
    print(f"ooa: fitted order = {report.fitted_order:.4f} (r^2 = {report.r_squared:.6f})")
    return 0


def _cmd_search_cfl(args):
    grid = xp.default_search_grid(args.p, magnitudes=args.magnitudes)
    report = xp.cfl_search(args.p, args.rk, grid, args.alpha)
    _write_text(
        args.out,
        _json_doc(_config(args, ("p", "rk", "alpha", "magnitudes")), report.to_dict()),
    )
    print(
        f"search: best tau = {FMT % report.best_tau} at iota = ["
        + ", ".join(FMT % v for v in report.best_iota)
        + f"], order {report.ooa_at_best:.3f}"
    )
    return 0


_OPTIONS = {
    "--iota": dict(type=_iota_list, required=True, help="comma-separated weights iota_0..iota_p"),
    "--alpha": dict(type=float, default=1.0, help="interface upwinding ratio (1 upwind, 0.5 central)"),
    "--nodes": dict(choices=tuple(NODE_KINDS), default="gauss"),
    "--rk": dict(choices=RK_SCHEMES, default="rk44"),
    "--k-samples": dict(type=int, default=256),
    "--rho-tol": dict(type=float, default=1e-10),
}


def _command(group, name, func, help, options=""):
    """Add subcommand ``name`` taking --p, the space-separated shared ``options`` and --out."""
    sub = group.add_parser(name, help=help)
    sub.add_argument("--p", type=int, required=True, help="polynomial order")
    for flag in options.split():
        sub.add_argument(flag, **_OPTIONS[flag])
    sub.add_argument("--out", default=None, help="output file path")
    sub.set_defaults(func=func)
    return sub


def _build_parser() -> _Parser:
    parser = _Parser(prog="gsfr", description=__doc__.splitlines()[0])
    top = parser.add_subparsers(dest="group", required=True)

    corr_p = top.add_parser("corr", help="correction functions").add_subparsers(dest="cmd", required=True)
    _command(corr_p, "solve", _cmd_corr_solve, "solve for a correction pair", "--iota")
    _command(corr_p, "bounds", _cmd_corr_bounds, "check the sufficient stability bounds", "--iota")
    s = _command(corr_p, "identify", _cmd_corr_identify, "OSFR/ESFR membership and weight recovery")
    s.add_argument("--iota", type=_iota_list, default=None, help="comma-separated weights, unless --in is given")
    s.add_argument("--in", dest="infile", default=None, help="JSON correction file instead of --iota")

    vn_p = top.add_parser("vn", help="wavenumber analysis").add_subparsers(dest="cmd", required=True)
    # node kind cannot change a linear-advection spectrum (see xp.reference_operators)
    spectral = "--alpha --k-samples"
    _command(vn_p, "dispersion", _cmd_vn_dispersion, "dispersion/dissipation curves CSV", "--iota " + spectral)
    _command(vn_p, "cfl", _cmd_vn_cfl, "largest stable time step", "--iota --rk --rho-tol " + spectral)
    s = _command(vn_p, "sweep", _cmd_vn_sweep, "CFL limit over a weight grid CSV", "--rk --rho-tol " + spectral)
    s.add_argument("--magnitudes", type=_iota_list, default=[0.0, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1])
    s.add_argument("--jobs", type=int, default=1)

    run_p = top.add_parser("run", help="time-domain studies").add_subparsers(dest="cmd", required=True)
    study = "--iota --alpha --nodes --rk"
    s = _command(run_p, "advect", _cmd_run_advect, "linear advection snapshot CSV", study)
    s.add_argument("--n-elements", dest="n_elements", type=int, default=50)
    s.add_argument("--t-end", dest="t_end", type=float, default=pi)
    s = _command(run_p, "hetero", _cmd_run_hetero, "variable-speed aliasing energy study", study)
    s.add_argument("--n-elements", dest="n_elements", type=int, default=32)
    s.add_argument("--periods", type=int, default=15)
    s.add_argument("--cfl", type=float, default=0.06)
    s = _command(run_p, "ooa", _cmd_run_ooa, "order-of-accuracy study", study)
    s.add_argument("--t-end", dest="t_end", type=float, default=pi)
    s.add_argument(
        "--element-counts",
        dest="element_counts",
        type=lambda t: tuple(int(v) for v in t.split(",")),
        default=xp.DEFAULT_ELEMENT_COUNTS,
    )

    search_p = top.add_parser("search", help="coupled CFL/order search").add_subparsers(dest="cmd", required=True)
    s = _command(search_p, "cfl", _cmd_search_cfl, "maximise the stable step over a weight grid", "--alpha --rk")
    s.add_argument("--magnitudes", type=_iota_list, default=[0.0, 1e-4, 1e-3, 1e-2])

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except corr.NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (corr.GsfrError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
