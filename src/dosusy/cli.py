"""Command-line front end.

Subcommands
-----------
eval      evaluate a closed-form quantity at a point
quantize  quantized coupling with a shooting cross-check
partners  superpotential and partner potentials (point or CSV curves)
family    one-parameter solution families (point or CSV curve)
audit     printed-series audit records (JSON or CSV)
critical  pocket-threshold point of the upper partner
figures   emit figure curve data as CSV files
trace     classical zero-energy orbit as CSV plus closure summary
verify    run verification suites, emit a canonical JSON report

Exit codes: 0 success, 1 verification/computation failure, 2 usage error.
Reports and curve files are deterministic: same inputs, same bytes.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import model, solver, susy
from . import family as fam
from .exceptions import SingularPointError
from .numkit import _curve_csv
from .solver import _EIGEN_TOL

__all__ = ["main", "build_parser", "figure_payloads"]


def __getattr__(name: str):   # cli.figure_payloads is checks' own, loaded on first use
    if name == "figure_payloads":
        from . import checks
        return checks.figure_payloads
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _SuiteNames:   # verify's help lists the suites: checks loads only when it is printed
    def __str__(self) -> str:
        from . import checks
        return ", ".join(checks.SUITE_NAMES)


# ----------------------------------------------------------------------
# shared flag groups and file output
# ----------------------------------------------------------------------

def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid-min", type=float, default=1e-3,
                   help="smallest radius of the evaluation grid (default %(default)g)")
    p.add_argument("--grid-max", type=float, default=1e3,
                   help="largest radius of the evaluation grid (default %(default)g)")
    p.add_argument("--grid-points", type=int, default=400,
                   help="number of log-spaced grid points (default %(default)s)")


def _grid_of(args) -> np.ndarray:
    return model.default_grid(args.grid_min, args.grid_max, args.grid_points)


def _write_text(path: str, payload: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(payload)


def _emit(outdir: str, payloads) -> None:
    """Write each (file name, payload) pair into outdir as it comes and print its path."""
    os.makedirs(outdir, exist_ok=True)
    for fname, payload in payloads:
        path = os.path.join(outdir, fname)
        _write_text(path, payload)
        print(path)


def _no_nan(name: str, values, where: str):
    """values, or a computation failure naming the quantity if one is NaN."""
    if np.isnan(values).any():
        raise RuntimeError(f"{name} is NaN {where}")
    return values


# ----------------------------------------------------------------------
# subcommand handlers
# ----------------------------------------------------------------------

# eval quantity -> (flag it needs, or None; its value from the arguments and float kappa)
_EVAL = {
    "W": (None, lambda a, k: susy.superpotential(a.rho, k, a.l)),
    "dW": (None, lambda a, k: susy.superpotential_dr(a.rho, k, a.l)),
    "Uminus": (None, lambda a, k: susy.partner_minus_closed(a.rho, k, a.l)),
    "Uplus": (None, lambda a, k: susy.partner_plus_closed(a.rho, k, a.l)),
    "U": ("w", lambda a, k: model.potential(a.rho, a.w, k)),
    "Ueff": ("w", lambda a, k: model.effective_potential_general(a.rho, a.w, k, a.l)),
    "f": (None, lambda a, k: model.f_factor(a.rho, k, a.l)),
    "u": ("N", lambda a, k: model.radial_u(a.rho, a.N, a.l, a.kappa, normalized=a.normalized)),
    "xi": (None, lambda a, k: model.map_coordinates(a.rho, k)[0]),
    "alpha": (None, lambda a, k: model.map_coordinates(a.rho, k)[1]),
}


def _cmd_eval(args) -> int:
    kappa, _ = model.parse_kappa(args.kappa)
    needs, value = _EVAL[args.quantity]
    if needs and getattr(args, needs) is None:
        raise ValueError(f"eval {args.quantity} needs --{needs}")
    with np.errstate(all="ignore"):
        val = value(args, kappa)
    print(repr(float(_no_nan(args.quantity, val, f"at rho = {args.rho!r}"))))
    return 0


def _cmd_quantize(args) -> int:
    kappa, _ = model.parse_kappa(args.kappa)
    w = model.coupling_quantized(args.N, kappa)
    res = solver.shoot_coupling(args.N, args.kappa, args.l)
    rel = abs(res.w_star - w) / w
    ok = rel < _EIGEN_TOL
    print(repr(w))
    print(f"shooting cross-check: w_star = {res.w_star!r} "
          f"(relative deviation {rel:.3e}, {res.defect_evaluations} defect "
          f"evaluations) [{'ok' if ok else 'FAIL'}]")
    return 0 if ok else 1


def _cmd_partners(args) -> int:
    kappa, _ = model.parse_kappa(args.kappa)
    point = args.rho is not None
    rho = args.rho if point else _grid_of(args)
    parts = (("W", "partners_w", "superpotential W(rho)", susy.superpotential),
             ("U_minus", "partners_minus", "lower partner U_minus(rho)",
              susy.partner_minus_closed),
             ("U_plus", "partners_plus", "upper partner U_plus(rho)", susy.partner_plus_closed))
    where = f"at rho = {rho!r}" if point else "on the grid"
    with np.errstate(all="ignore"):
        values = [_no_nan(name, fn(rho, kappa, args.l), where) for name, _, _, fn in parts]
    if point:
        for (name, *_), val in zip(parts, values):
            print(f"{name:<7} = {val!r}")
        return 0
    rhos = list(map(repr, rho.tolist()))   # the three files' rho column, formatted once
    _emit(args.out or ".", (
        (f"{stem}.csv", _curve_csv(f"{stem}: {desc}",
                                   "rho (units R), value (units E0; W in 1/R), kappa, l",
                                   f"kappa={args.kappa}, l={args.l}", "rho,value,kappa,l",
                                   [(rhos, vals, kappa, args.l)]))
        for (_, stem, desc, _), vals in zip(parts, values)))
    return 0


def _cmd_family(args) -> int:
    kappa, _ = model.parse_kappa(args.kappa)
    if args.rho is not None:
        v = fam.v_family(args.rho, kappa, args.l, args.lam, args.side)
        print(f"V        = {v!r}")
        try:
            wl = fam.family_superpotential(args.rho, kappa, args.l, args.lam, args.side)
            print(f"W_lambda = {wl!r}")
        except SingularPointError as exc:
            print(f"W_lambda = singular ({exc})")
        return 0
    grid = _grid_of(args)
    vals = fam.family_on_grid(kappa, args.l, args.lam, args.side, grid)
    zeros = fam.v_zeros(kappa, args.l, args.lam, args.side, grid)
    payload = _curve_csv(
        "family_v: one-parameter solution family coefficient V_lambda(rho)",
        "rho (units R), value, kappa, l",
        f"kappa={args.kappa}, l={args.l}, lambda={args.lam}, side={args.side}",
        "rho,value,kappa,l", [(grid, vals, kappa, args.l)])
    _emit(args.out or ".", [("family_v.csv", payload)])
    if zeros:
        print("singular loci of W_lambda (zeros of V): "
              + ", ".join(repr(z) for z in zeros))
    return 0


def _cmd_audit(args) -> int:
    records = fam.series_audit()
    if args.format == "json":
        import json
        payload = json.dumps([r.to_dict() for r in records],
                             indent=2, sort_keys=True) + "\n"
    else:
        fields = [(r.formula_id, str(r.l), repr(r.kappa), repr(r.max_dev),
                   "" if r.ode_residual_max is None else repr(r.ode_residual_max),
                   repr(r.ratio), r.verdict) for r in records]
        payload = _curve_csv("printed-series audit: printed formulas vs quadrature oracles",
                             "formula_id, l, kappa, max_dev, ode_residual_max, ratio, verdict",
                             "", "formula_id,l,kappa,max_dev,ode_residual_max,ratio,verdict",
                             [tuple(map(list, zip(*fields)))])
    if args.out:
        _write_text(args.out, payload)
        print(args.out)
    else:
        sys.stdout.write(payload)
    return 0


def _cmd_critical(args) -> int:
    kappa, _ = model.parse_kappa(args.kappa)
    points = (solver.critical_angular_all(kappa) if args.all
              else [solver.critical_angular(kappa)])
    if args.all and not points:
        print("no pocket threshold in the scan window (l in (1, 20), rho in (0.1, 10))")
        return 1
    for cp in points:
        print(f"l_cr  = {cp.l_cr!r}")
        print(f"rho_cr = {cp.rho_cr!r}")
        print(f"slope_residual = {cp.slope_residual:.3e}, "
              f"curvature_residual = {cp.curvature_residual:.3e}, "
              f"newton_iterations = {cp.newton_iterations}")
    return 0


def _cmd_figures(args) -> int:
    from . import checks
    names = ("fig1", "fig2") if args.figure == "all" else (args.figure,)
    _emit(args.out, (pair for name in names for pair in checks.figure_payloads(name).items()))
    return 0


def _cmd_trace(args) -> int:
    traj = solver.classical_trajectory(args.kappa, w=args.w, rho0=args.rho,
                                       direction_deg=args.direction,
                                       samples=args.samples,
                                       revolutions=args.revolutions)
    print(f"kappa = {traj.k1}/{traj.k2}, w = {traj.w!r}, rho0 = {args.rho!r}, "
          f"direction = {args.direction!r} deg")
    print(f"closure_defect = {traj.closure_defect:.3e} after "
          f"{args.revolutions if args.revolutions is not None else traj.k2} revolution(s), "
          f"closure_time = {traj.closure_time!r}")
    print(f"focal_point = ({traj.focal_point[0]!r}, {traj.focal_point[1]!r}) "
          f"at t = {traj.focal_time!r}")
    print(f"energy_drift = {traj.energy_drift:.3e} (relative to max |U| on the orbit)")
    if args.out:
        payload = _curve_csv(
            "trace: classical zero-energy orbit",
            "t (scaled time), x (units R), y (units R), speed",
            f"kappa={args.kappa}, w={args.w}, rho0={args.rho}, "
            f"direction_deg={args.direction}",
            "t,x,y,speed", [(traj.t, traj.x, traj.y, np.hypot(traj.vx, traj.vy))])
        _write_text(args.out, payload)
        print(args.out)
    return 0


def _cmd_verify(args) -> int:
    from . import checks
    names = []
    for item in args.suite:
        names.extend(s.strip() for s in item.split(",") if s.strip())
    results = checks.run_suites(names or ("all",))
    payload = checks.report_json(results)
    if args.out:
        _write_text(args.out, payload)
    else:
        sys.stdout.write(payload)
    code = checks.exit_code(results)
    gating = [r for r in results if not r.informative]
    failed = [r for r in gating if not r.passed]
    print(f"{len(gating) - len(failed)}/{len(gating)} gating checks passed, "
          f"{sum(1 for r in results if r.informative)} informative entries"
          + (f"; FAILED: {', '.join(r.check_id for r in failed)}" if failed else ""),
          file=sys.stderr)
    return code


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dosusy",
        description=("Zero-energy focusing potentials, their supersymmetric "
                     "partners, one-parameter solution families, and the "
                     "numerical verification suite."))
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("eval", help="evaluate a closed-form quantity at a point")
    p.add_argument("quantity", choices=_EVAL)
    p.add_argument("--kappa", required=True,
                   help="shape exponent, decimal or rational 'k1/k2'")
    p.add_argument("--l", type=int, default=0, help="orbital number (default 0)")
    p.add_argument("--N", type=int, default=None, help="ladder label (for u)")
    p.add_argument("--w", type=float, default=None, help="coupling (for U, Ueff)")
    p.add_argument("--rho", type=float, required=True, help="radius in units of R")
    p.add_argument("--normalized", action="store_true",
                   help="unit-norm scaling for u (l >= 1 only)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("quantize",
                       help="quantized coupling with a shooting cross-check")
    p.add_argument("--kappa", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--l", type=int, default=0,
                   help="orbital number for the cross-check (default 0)")
    p.set_defaults(func=_cmd_quantize)

    p = sub.add_parser("partners",
                       help="superpotential and partner potentials")
    p.add_argument("--kappa", required=True)
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--rho", type=float, default=None,
                   help="evaluate at one radius instead of emitting CSV curves")
    p.add_argument("--out", default=None, help="output directory (default '.')")
    _add_grid_flags(p)
    p.set_defaults(func=_cmd_partners)

    p = sub.add_parser("family", help="one-parameter solution families")
    p.add_argument("--kappa", required=True)
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--lambda", dest="lam", type=float, default=0.0,
                   help="family parameter (default 0)")
    p.add_argument("--side", choices=("bosonic", "fermionic"), default="bosonic")
    p.add_argument("--rho", type=float, default=None,
                   help="evaluate at one radius instead of emitting a CSV curve")
    p.add_argument("--out", default=None, help="output directory (default '.')")
    _add_grid_flags(p)
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("audit", help="printed-series audit records")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("critical",
                       help="pocket-threshold point of the upper partner")
    p.add_argument("--kappa", required=True)
    p.add_argument("--all", action="store_true",
                   help="report every threshold in the scan window")
    p.set_defaults(func=_cmd_critical)

    p = sub.add_parser("figures", help="emit figure curve data as CSV")
    p.add_argument("figure", choices=("fig1", "fig2", "all"))
    p.add_argument("--out", default=".", help="output directory (default '.')")
    p.set_defaults(func=_cmd_figures)

    p = sub.add_parser("trace", help="classical zero-energy orbit")
    p.add_argument("--kappa", required=True,
                   help="rational shape exponent 'k1/k2' (closure span needs it)")
    p.add_argument("--w", type=float, required=True, help="coupling strength")
    p.add_argument("--rho", type=float, required=True, help="start radius")
    p.add_argument("--direction", type=float, default=90.0,
                   help="launch angle vs the radius vector, degrees (default 90)")
    p.add_argument("--samples", type=int, default=1000,
                   help="number of output samples, at most 10^6 (default 1000)")
    p.add_argument("--revolutions", type=float, default=None,
                   help="traced span in revolutions, at most 100 "
                        "(default: the closure span k2)")
    p.add_argument("--out", default=None, help="CSV output file (default: none)")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("verify", help="run verification suites")
    suite = p.add_argument("--suite", action="append", default=[],
                           help="suite name or comma list (default all); known: %(suites)s")
    suite.suites = _SuiteNames()
    p.add_argument("--out", default=None, help="report file (default stdout)")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        # Bad parameter combinations (invalid states, unknown suites, ...)
        print(f"dosusy: error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # Computation failures: quadrature, convergence, orbit geometry.
        print(f"dosusy: failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"dosusy: filesystem error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
