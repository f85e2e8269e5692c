"""Verification suite: every closed form in the library measured against an
independent numerical route, reported in one canonical machine-readable
shape.

Each check is a CheckResult with a stable id, the parameters it ran at, a
single measured number, the threshold it is held to, and the outcome.  A
handful of entries are informative: they document measurements (the
printed-series audit verdicts) without gating the exit code.

Checks are grouped into named suites; `run_suites` executes a selection and
returns results sorted by check id, so a report built from the same inputs
is byte-identical across runs — nothing here depends on wall time, paths,
or random state.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import family as fam
from . import model, solver, susy
from .numkit import _curve_csv, _median, _richardson, _stencil_nodes, derivative
from .solver import _EIGEN_TOL

__all__ = [
    "CheckResult",
    "SUITE_NAMES",
    "run_suites",
    "exit_code",
    "report_json",
]


@dataclass(frozen=True)
class CheckResult:
    """One verified statement: id, inputs, one number, one threshold.  params, measured and
    threshold are plain JSON values as the check builds them; to_dict converts nothing."""

    check_id: str
    params: dict
    measured: float
    threshold: float | None
    passed: bool
    informative: bool = False

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "params": self.params,
            "measured": self.measured,
            "threshold": self.threshold,
            "pass": self.passed,
        }


def _fmt_kappa(kappa: float) -> str:
    exact = model.parse_kappa(kappa)[1]
    return repr(kappa) if exact is None else str(exact)


_GRID = model.default_grid()


def _check(check_id: str, measured, threshold: float, ok: bool = True,
           **params) -> CheckResult:
    """A gating check: it passes iff ``ok`` and measured < threshold, and its
    suite, recorded in ``params``, is the check id's first field."""
    return CheckResult(check_id=check_id,
                       params={"suite": check_id.split(":", 1)[0], **params},
                       measured=measured, threshold=threshold,
                       passed=ok and measured < threshold)


def _worst(rel: np.ndarray, columns) -> tuple[float, int, float]:
    """The largest entry of a 2-D deviation array, its row, and the
    coordinate ``columns`` gives its column; ties go to the first."""
    i, j = np.unravel_index(np.argmax(rel), rel.shape)
    return float(rel[i, j]), int(i), float(columns[j])


def _slope_sign_changes(values) -> int:
    """How often a sampled curve's slope changes sign, flat steps skipped."""
    s = np.sign(np.diff(np.asarray(values)))
    s = s[s != 0]
    return int(np.sum(s[:-1] != s[1:]))


# ----------------------------------------------------------------------
# riccati: closed-form partners versus the superpotential combinations
# ----------------------------------------------------------------------

# U-/+ = W^2 -/+ W': each side's sign of W' and the name of the susy closed form
# it must equal, looked up at call time so that a patched susy reaches the check
_RICCATI_SIDES = (("minus", -1.0, "partner_minus_closed"),
                  ("plus", 1.0, "partner_plus_closed"))


def suite_riccati() -> list[CheckResult]:
    results = []
    l = np.arange(11.0)[:, None]   # every closed form broadcasts l: one row per l
    for kappa in (0.5, 1.0, 1.5):
        w = susy.superpotential(_GRID, kappa, l)
        w1 = susy.superpotential_dr(_GRID, kappa, l)
        for side, sign, partner_closed in _RICCATI_SIDES:
            closed = getattr(susy, partner_closed)(_GRID, kappa, l)
            # Scale by the term magnitudes: near the origin W^2 and W'
            # separately reach ~1/rho^2 while their combination nearly
            # cancels, and a naive pointwise ratio would measure only
            # that floating-point cancellation, not the identity.
            scale = w * w + np.abs(w1) + np.abs(closed) + 1e-300
            rel = np.abs(w * w + sign * w1 - closed) / scale
            worst, worst_l, worst_rho = _worst(rel, _GRID)
            results.append(_check(
                f"riccati:{side}:kappa={_fmt_kappa(kappa)}", worst, 1e-10,
                kappa=_fmt_kappa(kappa), side=side, l_values="0..10",
                grid_points=len(_GRID), worst_l=worst_l, worst_rho=worst_rho,
                scaling="sum of term magnitudes"))
    return results


# ----------------------------------------------------------------------
# partner: ladder-bottom identity and the compact-coordinate route to f
# ----------------------------------------------------------------------

def suite_partner() -> list[CheckResult]:
    results = []
    for kappa, ls in ((0.5, tuple(range(11))),
                      (1.0, tuple(range(11))),
                      (1.5, (0, 3, 6, 9))):
        rel = []
        for l in ls:
            N = 1 + int(round(l / kappa))
            wq = model.coupling_quantized(N, kappa)
            ueff = model.effective_potential_general(_GRID, wq, kappa, l)
            uminus = susy.partner_minus_closed(_GRID, kappa, l)
            cent = l * (l + 1.0) / _GRID ** 2
            scale = np.abs(cent) + np.abs(ueff - cent) + 1e-300
            rel.append(np.abs(uminus - ueff) / scale)
        worst, i, worst_rho = _worst(np.array(rel), _GRID)
        results.append(_check(
            f"partner:ladder-bottom:kappa={_fmt_kappa(kappa)}", worst, 1e-12,
            kappa=_fmt_kappa(kappa), l_values=list(ls), N_rule="N = 1 + l/kappa",
            worst_l=ls[i], worst_rho=worst_rho))

    grid = np.geomspace(0.05, 20.0, 48)
    for kappa, l in ((1.0, 0), (0.5, 1), (1.5, 2)):
        recon = susy.natanzon_f_reconstruction(grid, kappa, l)
        ratio = recon / model.f_factor(grid, kappa, l)
        med = _median(ratio)
        spread = float(np.max(np.abs(ratio / med - 1.0)))
        results.append(_check(
            f"partner:factor-reconstruction:kappa={_fmt_kappa(kappa)}:l={l}", spread, 1e-8,
            kappa=_fmt_kappa(kappa), l=l, grid="48 log points on [0.05, 20]",
            median_ratio=med))
    return results


# ----------------------------------------------------------------------
# eigenvalue: shooting oracle versus the quantized-coupling ladder
# ----------------------------------------------------------------------

_EIGEN_STATES: tuple[tuple[float, int, int], ...] = (
    (1.0, 1, 0), (1.0, 2, 0), (1.0, 2, 1), (1.0, 3, 0), (1.0, 3, 1), (1.0, 3, 2),
    (0.5, 1, 0), (0.5, 2, 0), (0.5, 3, 0), (0.5, 3, 1),
    (1.5, 1, 0), (1.5, 2, 0), (1.5, 3, 0), (1.5, 3, 3),
)


def suite_eigenvalue() -> list[CheckResult]:
    results = []
    shots = solver.shoot_couplings([(N, kappa, l) for kappa, N, l in _EIGEN_STATES])
    for (kappa, N, l), res in zip(_EIGEN_STATES, shots):
        w_formula = model.coupling_quantized(N, kappa)
        results.append(_check(
            f"eigenvalue:kappa={_fmt_kappa(kappa)}:N={N}:l={l}",
            abs(res.w_star - w_formula) / w_formula, _EIGEN_TOL,
            kappa=_fmt_kappa(kappa), N=N, l=l, w_star=res.w_star, w_formula=w_formula,
            match_defect=res.match_defect, defect_evaluations=res.defect_evaluations,
            bracket=list(res.bracket)))
    return results


# ----------------------------------------------------------------------
# wavefunction: analytic u against the half-line operator, and node counts
# ----------------------------------------------------------------------

_WF_STATES: tuple[tuple[float, int, int], ...] = (
    (1.0, 1, 0), (1.0, 2, 0), (1.0, 2, 1), (1.0, 3, 0), (1.0, 3, 1), (1.0, 3, 2),
    (0.5, 3, 1), (1.5, 2, 0),
)


def suite_wavefunction() -> list[CheckResult]:
    results = []
    radii = np.geomspace(0.1, 10.0, 25)
    # Second differences divide rounding noise by h^2, so the optimal step
    # is much coarser than for first derivatives; 1e-3 balances the two
    # error sources near machine precision for these smooth profiles.
    for kappa, N, l in _WF_STATES:
        wq = model.coupling_quantized(N, kappa)
        u = model.radial_u(radii, N, l, kappa)
        upp = derivative(lambda r: model.radial_u(r, N, l, kappa), radii,
                         1e-3 * np.maximum(1.0, radii), order=2)
        ueff = model.effective_potential_general(radii, wq, kappa, l)
        resid = -upp + ueff * u
        scale = float(np.max(np.abs(upp) + np.abs(ueff * u)))
        results.append(_check(
            f"wavefunction:residual:kappa={_fmt_kappa(kappa)}:N={N}:l={l}",
            float(np.max(np.abs(resid))) / scale, 1e-7,
            kappa=_fmt_kappa(kappa), N=N, l=l, radii="25 log points on [0.1, 10]",
            scaling="sup of term magnitudes"))

        state = model.make_state(N, l, kappa)
        sf = model.SampledFunction(_GRID, model.radial_u(_GRID, N, l, kappa))
        nodes = sf.node_count()
        results.append(_check(
            f"wavefunction:nodes:kappa={_fmt_kappa(kappa)}:N={N}:l={l}",
            float(abs(nodes - state.n_r)), 0.5,
            kappa=_fmt_kappa(kappa), N=N, l=l, node_count=nodes, expected_n_r=state.n_r))
    return results


# ----------------------------------------------------------------------
# critical: pocket-threshold location and the l=6 / l=7 regime split
# ----------------------------------------------------------------------

def suite_critical() -> list[CheckResult]:
    results = []
    cp = solver.critical_angular(1.0)
    results.append(_check(
        "critical:location:kappa=1", max(abs(cp.l_cr - 6.876), abs(cp.rho_cr - 1.599)), 0.005,
        kappa="1", l_cr=cp.l_cr, rho_cr=cp.rho_cr, reference=[6.876, 1.599],
        newton_iterations=cp.newton_iterations))
    results.append(_check(
        "critical:residuals:kappa=1", max(cp.slope_residual, cp.curvature_residual), 1e-8,
        kappa="1", slope_residual=cp.slope_residual,
        curvature_residual=cp.curvature_residual))

    rho = np.geomspace(0.5, 5.0, 2001)
    for l, expected in ((7, 2), (6, 0)):
        changes = _slope_sign_changes(susy.partner_plus_closed(rho, 1.0, l))
        results.append(_check(
            f"critical:pocket:l={l}", float(abs(changes - expected)), 0.5,
            kappa="1", l=l, slope_sign_changes=changes, expected=expected,
            window="rho in (0.5, 5)"))
    return results


# ----------------------------------------------------------------------
# family: defining first-order equation, shared-partner identity, shifts
# ----------------------------------------------------------------------

_LAMBDAS = (-2.0, -0.5, 0.0, 0.5, 2.0)


def _v_and_slope(radii, kappa, l, side):
    """V_lambda at the radii for every lambda of _LAMBDAS (rows), its 5-point difference
    at spacing 2e-3 rho and the tail integral, all from one quadrature call.  Its anchored
    integrals are prefix-summed: stencil neighbours differ only by short segments, and the
    anchor segment's error only shifts lambda, which the defining equation absorbs."""
    h = 2e-3 * radii
    nodes = _stencil_nodes(radii, h)
    ints = fam._tail_integral(nodes, kappa, l, side)
    vs = fam._v_lambda(nodes, np.array(_LAMBDAS)[:, None, None], ints, kappa, l, side)
    return vs[:, 2], _richardson(vs.swapaxes(0, 1), h, 1), ints[2]


def suite_family() -> list[CheckResult]:
    results = []
    radii = np.array([0.2, 0.35, 0.6, 0.9, 1.4, 2.2, 3.5])
    lams = np.array(_LAMBDAS)
    for kappa in (1.0, 0.5):
        for l in (0, 1, 2):
            w2 = 2.0 * susy.superpotential(radii, kappa, l)
            for side in ("bosonic", "fermionic"):
                v, d, _ = _v_and_slope(radii, kappa, l, side)
                wv = w2 * v
                raw = d + wv + 1.0 if side == "bosonic" else d - wv - 1.0
                rel = (np.abs(raw) / (1.0 + np.abs(d) + np.abs(wv))).T   # (radius, lambda)
                worst, i, worst_lambda = _worst(rel, lams)
                results.append(_check(
                    f"family:ode:kappa={_fmt_kappa(kappa)}:l={l}:side={side}", worst, 1e-8,
                    kappa=_fmt_kappa(kappa), l=l, side=side, lambdas=list(_LAMBDAS),
                    derivative="5-point differences of the quadrature V",
                    worst_rho=float(radii[i]), worst_lambda=worst_lambda))

    # Shared lower partner across the bosonic-fixed family.
    pts = np.geomspace(0.12, 8.0, 21)
    for kappa in (1.0, 0.5):
        for l in (0, 1, 2):
            # V' from the stencil, not from the defining equation under test
            v, vp, integrals = _v_and_slope(pts, kappa, l, "bosonic")
            # adjacent to a zero of V, W_lambda is singular: those points are skipped
            scale = np.abs(fam._v_lambda(pts, np.abs(lams[:, None]), np.abs(integrals),
                                         kappa, l, "bosonic"))
            keep = np.abs(v) >= 1e-6 * (scale + 1e-300)
            w, w1, um = (np.broadcast_to(x, v.shape)[keep] for x in (
                susy.superpotential(pts, kappa, l), susy.superpotential_dr(pts, kappa, l),
                susy.partner_minus_closed(pts, kappa, l)))
            v, vp = v[keep], vp[keep]
            wl = w + 1.0 / v
            wlp = w1 - vp / (v * v)
            raw = wl * wl - wlp - um
            worst = float(np.max(np.abs(raw) / (wl * wl + np.abs(wlp) + np.abs(um) + 1.0),
                                 initial=-1.0))
            kept = int(np.count_nonzero(keep))
            results.append(_check(
                f"family:partner-identity:kappa={_fmt_kappa(kappa)}:l={l}", worst, 1e-7,
                kappa=_fmt_kappa(kappa), l=l, side="bosonic", lambdas=list(_LAMBDAS),
                derivative="5-point differences of the quadrature V",
                points_kept=kept, points_skipped_near_zero=keep.size - kept))

    # Parameter shifts move V by an exact multiple of f^2 (or f^-2).
    r = np.array([0.3, 1.0, 2.5])
    for kappa, l, side in ((1.0, 1, "bosonic"), (0.5, 1, "fermionic")):
        v_hi = fam.v_family(r, kappa, l, 2.0, side)
        v_lo = fam.v_family(r, kappa, l, -0.5, side)
        f2 = model.f_factor(r, kappa, l) ** 2
        expected = -2.5 * f2 if side == "bosonic" else 2.5 / f2
        worst = float(np.max(np.abs((v_hi - v_lo) - expected) / np.abs(expected)))
        results.append(_check(
            f"family:lambda-shift:kappa={_fmt_kappa(kappa)}:l={l}:side={side}", worst, 1e-12,
            kappa=_fmt_kappa(kappa), l=l, side=side, lambda_pair=[2.0, -0.5],
            radii=r.tolist()))

    # Spot values of the kappa=1, l=0, lambda=0 member: V = rho(1-rho^2)/(1+rho^2).
    member = {"kappa": "1", "l": 0, "lambda": 0.0, "side": "bosonic"}
    for name, fn, rho, expected, threshold in (
            ("v-at-1", fam.v_family, 1.0, 0.0, 1e-12),
            ("v-at-2", fam.v_family, 2.0, -1.2, 1e-10),
            ("wlambda-at-2", fam.family_superpotential, 2.0, -0.1 - 5.0 / 6.0, 1e-10)):
        results.append(_check(
            f"family:spot:{name}", abs(fn(rho, 1.0, 0, 0.0, "bosonic") - expected), threshold,
            **member, expected=expected))

    zeros = fam.v_zeros(1.0, 0, 0.0, "bosonic", np.geomspace(0.2, 5.0, 301))
    results.append(_check(
        "family:zeros:lambda0", abs(zeros[0] - 1.0) if len(zeros) == 1 else 1.0, 1e-6,
        **member, zeros=list(zeros), expected=[1.0]))
    return results


# ----------------------------------------------------------------------
# audit: printed closed-form series versus quadrature oracles
# ----------------------------------------------------------------------

def suite_audit() -> list[CheckResult]:
    records = fam.series_audit()
    by_key = {(r.formula_id, r.l): r for r in records}
    s1, v1 = by_key[("S1", 0)], by_key[("V1", 0)]
    results = [
        _check("audit:anchor:S1:l=0", s1.max_dev, 1e-10, ok=s1.verdict == "match",
               formula_id="S1", l=0, verdict=s1.verdict, required_verdict="match"),
        _check("audit:anchor:V1:l=0:factor-2", abs(v1.ratio - 2.0), 1e-6,
               ok=v1.verdict == "mismatch", formula_id="V1", l=0, verdict=v1.verdict,
               required_verdict="mismatch", ratio=v1.ratio,
               ode_residual_max=v1.ode_residual_max),
    ]
    # informative entries: no threshold, recorded as passed, never gating
    for r in records:
        results.append(CheckResult(
            f"audit:verdict:{r.formula_id}:l={r.l}",
            dict(r.to_dict(), suite="audit", informative=True),
            r.max_dev, None, True, informative=True))
    return results


# ----------------------------------------------------------------------
# annihilation: the lowering operator kills the nodeless member
# ----------------------------------------------------------------------

def suite_annihilation() -> list[CheckResult]:
    grid = np.geomspace(1e-2, 1e2, 6001)
    cases = [(kappa, l) for kappa in (0.5, 1.0, 1.5) for l in (0, 1, 2)]
    # one stacked ladder pass: the stencil weights are shared by all rows
    rows = np.empty((len(cases), len(grid)))
    for row, (kappa, l) in zip(rows, cases):
        vals = model.f_factor(grid, kappa, l)
        np.divide(vals, np.max(np.abs(vals)), out=row)
    kappas, ls = zip(*cases)
    out = susy.apply_ladder(model.SampledFunction(grid, rows), kappas, ls, which="A")
    return [_check(f"annihilation:kappa={_fmt_kappa(kappa)}:l={l}",
                   float(np.max(np.abs(row))), 1e-8,
                   kappa=_fmt_kappa(kappa), l=l, grid="6001 log points on [1e-2, 1e2]",
                   normalization="unit sup-norm")
            for (kappa, l), row in zip(cases, out.values)]


# ----------------------------------------------------------------------
# closure: classical orbits close, conserve energy, and rescale with w
# ----------------------------------------------------------------------

def suite_closure() -> list[CheckResult]:
    results = []
    cases = (("1", 3.0, 1e-6), ("1/2", 2.0, 1e-5))
    trajs = {}
    for kappa, w, tol in cases:
        traj = trajs[kappa] = solver.classical_trajectory(kappa, w=w, rho0=0.5,
                                                          direction_deg=63.0)
        results.append(_check(
            f"closure:defect:kappa={kappa}", traj.closure_defect, tol,
            kappa=kappa, w=w, rho0=0.5, direction_deg=63.0, revolutions=traj.k2,
            closure_time=traj.closure_time, focal_point=list(traj.focal_point),
            rhs_evaluations=traj.rhs_evaluations))
        results.append(_check(
            f"closure:energy:kappa={kappa}", traj.energy_drift, 1e-8,
            kappa=kappa, w=w, rho0=0.5, direction_deg=63.0,
            scaling="max |E| relative to max |U| on the orbit"))

    thetas = np.linspace(0.05, 2.0 * math.pi - 0.05, 40)
    # the w side is the kappa = 1 closure orbit itself; 4w gets its own solve
    p1, s1 = trajs["1"].path_on_angles(thetas)
    p4, s4 = solver.classical_trajectory("1", w=12.0, rho0=0.5,
                                         direction_deg=63.0).path_on_angles(thetas)
    results.append(_check(
        "closure:w-scaling:path",
        float(np.max(np.hypot(p1[:, 0] - p4[:, 0], p1[:, 1] - p4[:, 1]))), 1e-8,
        kappa="1", w_pair=[3.0, 12.0], rho0=0.5, direction_deg=63.0,
        comparison="positions at 40 shared accumulated angles"))
    results.append(_check(
        "closure:w-scaling:speed", float(np.max(np.abs(s4 / s1 - 2.0))), 1e-6,
        kappa="1", w_pair=[3.0, 12.0], expected_speed_ratio=2.0))
    return results


# ----------------------------------------------------------------------
# degeneracy: shell sizes from exact enumeration
# ----------------------------------------------------------------------

def suite_degeneracy() -> list[CheckResult]:
    results = []
    for N in range(1, 7):
        count = len(model.enumerate_shell(N, 1))
        results.append(_check(
            f"degeneracy:kappa=1:N={N}", float(abs(count - N * N)), 0.5,
            kappa="1", N=N, count=count, expected=N * N))
    count = len(model.enumerate_shell(3, "1/2"))
    results.append(_check(
        "degeneracy:kappa=1/2:N=3", float(abs(count - 4)), 0.5,
        kappa="1/2", N=3, count=count, expected=4,
        note="raw enumeration; the N^2 rule is specific to kappa=1"))
    return results


def figure_payloads(figure: str) -> dict[str, str]:
    """CSV payloads for the two published-curve bundles, keyed by filename.

    fig1: both partner potentials at l = 2 for kappa in {1/2, 1, 3/2};
    fig2: kappa = 1, lower partner at l in {1, 5, 10} and upper partner at
    l in {6, 7, 8} (straddling the pocket threshold).  Pure function of the
    figure name — identical bytes on every call.
    """
    grid = model.default_grid()
    if figure == "fig1":
        combos = ((0.5, 2), (1.0, 2), (1.5, 2))
        layout = (("fig1_minus.csv", "lower partner potential U_minus(rho)",
                   susy.partner_minus_closed, combos),
                  ("fig1_plus.csv", "upper partner potential U_plus(rho)",
                   susy.partner_plus_closed, combos))
    elif figure == "fig2":
        layout = (("fig2_minus.csv", "lower partner potential U_minus(rho)",
                   susy.partner_minus_closed, ((1.0, 1), (1.0, 5), (1.0, 10))),
                  ("fig2_plus.csv", "upper partner potential U_plus(rho)",
                   susy.partner_plus_closed, ((1.0, 6), (1.0, 7), (1.0, 8))))
    else:
        raise ValueError(f"unknown figure {figure!r} (expected 'fig1' or 'fig2')")

    payloads: dict[str, str] = {}
    rhos = list(map(repr, grid.tolist()))   # both files' rho column, formatted once
    for fname, desc, fn, combos in layout:
        blocks = [(rhos, fn(grid, kappa, l), kappa, l) for kappa, l in combos]
        curves = "; ".join(f"kappa={kappa!r}, l={l}" for kappa, l in combos)
        payloads[fname] = _curve_csv(
            f"{fname[:-4]}: {desc} on the default log grid",
            "rho (units R), U (units E0), kappa, l",
            curves, "rho,U,kappa,l", blocks)
    return payloads


# ----------------------------------------------------------------------
# figures: curve emission is reproducible and hits known spot values
# ----------------------------------------------------------------------

def _csv_rows(payload: str):
    """The data rows of an emitted CSV as lists of field strings; a check
    converts only the fields it compares."""
    for line in payload.splitlines():
        if line and not line.startswith(("#", "rho")):
            yield line.split(",")


def suite_figures() -> list[CheckResult]:
    results = []
    payloads = {}
    for fig in ("fig1", "fig2"):
        first = figure_payloads(fig)
        second = figure_payloads(fig)
        payloads[fig] = first
        results.append(_check(
            f"figures:deterministic:{fig}", 0.0 if first == second else 1.0, 0.5,
            figure=fig, files=sorted(first.keys()),
            comparison="two in-process builds, byte equality"))

    rows = _csv_rows(payloads["fig1"]["fig1_minus.csv"])
    val = next(float(r[1]) for r in rows if float(r[0]) == 1.0 and float(r[2]) == 1.0)
    results.append(_check(
        "figures:spot:fig1-minus:rho=1:kappa=1", abs(val - (-2.75)), 1e-12,
        figure="fig1", rho=1.0, kappa="1", l=2, expected=-2.75, value=val))

    rows = [r for r in _csv_rows(payloads["fig2"]["fig2_plus.csv"]) if 0.5 < float(r[0]) < 5.0]
    for l, expected in ((7, 2), (6, 0)):
        changes = _slope_sign_changes([float(r[1]) for r in rows if float(r[3]) == l])
        results.append(_check(
            f"figures:pocket:fig2-plus:l={l}", float(abs(changes - expected)), 0.5,
            figure="fig2", l=l, slope_sign_changes=changes, expected=expected,
            window="rho in (0.5, 5)"))
    return results


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

SUITES = {
    "riccati": suite_riccati,
    "partner": suite_partner,
    "eigenvalue": suite_eigenvalue,
    "wavefunction": suite_wavefunction,
    "critical": suite_critical,
    "family": suite_family,
    "audit": suite_audit,
    "annihilation": suite_annihilation,
    "closure": suite_closure,
    "degeneracy": suite_degeneracy,
    "figures": suite_figures,
}

SUITE_NAMES = tuple(SUITES)


def run_suites(names=("all",)) -> list[CheckResult]:
    """Run the named suites (or all of them) and return sorted results."""
    if isinstance(names, str):
        names = (names,)
    if "all" in names:
        selected = list(SUITE_NAMES)
    else:
        unknown = [n for n in names if n not in SUITES]
        if unknown:
            raise ValueError(
                f"unknown suite(s) {unknown}; valid names: {['all', *SUITE_NAMES]}")
        selected = [n for n in SUITE_NAMES if n in names]
    results: list[CheckResult] = []
    for name in selected:
        results.extend(SUITES[name]())
    results.sort(key=lambda r: r.check_id)
    return results


def exit_code(results) -> int:
    """0 iff every gating (non-informative) check passed."""
    return 0 if all(r.passed or r.informative for r in results) else 1


def report_json(results) -> str:
    """Canonical JSON report: sorted checks, sorted keys, newline-terminated."""
    payload = {
        "checks": [r.to_dict() for r in results],
        "summary": {
            "total": len(results),
            "gating": sum(1 for r in results if not r.informative),
            "informative": sum(1 for r in results if r.informative),
            "failed": sum(1 for r in results if not r.passed and not r.informative),
            "exit_code": exit_code(results),
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
