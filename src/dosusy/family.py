"""One-parameter solution families of the two factorization Riccati equations,
and an audit of the printed closed-form series against quadrature oracles.

General solutions are built from the particular superpotential W by the
standard shift W_lambda = W + 1/V_lambda, where V_lambda solves a linear
first-order equation on each side:

    lower ("bosonic") side:  V' + 2 W V = -1,  V_lambda = -f^2 (lambda + I_-),
    upper ("fermionic") side: V' - 2 W V = +1, V_lambda = f^-2 (lambda + I_+),

with I_-(rho) the integral of f^-2 and I_+(rho) the integral of f^2, both
anchored at rho_ref = 1 (the natural upper-limit convention diverges for
this family, so the reference point is pinned to the focusing radius;
lambda = 0 then means a vanishing integral term at rho = 1).  Each
W_lambda reproduces the corresponding partner potential:
W_lambda^2 - W_lambda' = U_- on the lower side, and with the opposite
derivative sign U_+ on the upper side.

The audit half of the module re-evaluates four printed closed-form
expressions for these integrals/families — exactly as typeset, including
their idiosyncratic product notations — and compares them against the
quadrature-built oracles, reporting match/constant-offset-match/mismatch
verdicts plus measured deviation factors.  It never repairs a formula.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .exceptions import ConvergenceError, SingularPointError
from .model import _check_grid, _check_rho, _f_integrand, _radial, f_factor
from .numkit import _anchored_integral, _median, bracketed_root, derivative, integrate_adaptive
from . import susy   # looked up at call time, so a patched susy reaches the family

__all__ = [
    "v_family",
    "family_on_grid",
    "family_superpotential",
    "v_zeros",
    "printed_series_eval",
    "SeriesAuditRecord",
    "series_audit",
    "AUDIT_MATCH_TOL",
    "FORMULA_IDS",
]

_POWER = {"bosonic": -2, "fermionic": 2}   # the power of f each side integrates

#: Single audit threshold: verdicts are cut at this relative deviation.
AUDIT_MATCH_TOL = 1e-8

FORMULA_IDS = ("S1", "S_half", "V1", "V_half")

# Largest l taken by printed_series_eval: S_half's log coefficient
# 4 (4l+1)!! 4^l / (2l+1)! has a finite numerator up to here and overflows at 67.
_MAX_L = 66


def _check_member(lam: float, side: str) -> None:
    """Rejects a family parameter that is not finite, and an unknown side."""
    if not math.isfinite(lam):
        raise ValueError(f"family parameter lambda must be finite, got {lam}")
    if side not in _POWER:
        raise ValueError(f"side must be one of {tuple(_POWER)}, got {side!r}")


def _tail_integral(rho, kappa: float, l: int, side: str):
    """Integral of f^-2 (bosonic) or f^2 (fermionic) from rho_ref=1 to each rho (any shape), on
    model's scaled integrand in t = ln rho, prefix-summed in one quadrature call; segments
    longer than 2/kappa, twice the integrand's scale about the anchor, are cut."""
    integrand, e = _f_integrand(kappa, l, _POWER[side])
    return np.ldexp(_anchored_integral(integrand, 0.0, np.log(rho), 2.0 / kappa), e)


def _v_lambda(rho, lam, integral, kappa: float, l: int, side: str):
    """V_lambda from the anchored integral, elementwise over broadcast arrays.

    Where f^2 underflows to 0 the fermionic V overflows to the infinity signed
    as lambda + integral; where that is 0 as well, V is 0/0 and RuntimeError
    is raised.
    """
    f2 = f_factor(rho, kappa, l) ** 2
    g = lam + integral
    if side == "bosonic":
        return -f2 * g
    undetermined = (f2 == 0.0) & (g == 0.0)
    if np.any(undetermined):
        where = float(np.asarray(rho)[undetermined].flat[0])
        raise RuntimeError(f"V_lambda is 0/0 at rho = {where!r}: f^2 underflows to 0 "
                           "where lambda + I_+ is 0")
    with np.errstate(divide="ignore", over="ignore"):
        return np.divide(g, f2)


@_radial
def v_family(rho, kappa: float, l: int, lam: float = 0.0, side: str = "bosonic"):
    """Family coefficient V_lambda at each radius (any shape; a scalar gives a float).

    bosonic:   V = -f^2 (lambda + Int_1^rho f^-2),  solves V' + 2WV = -1;
    fermionic: V =  f^-2 (lambda + Int_1^rho f^2),  solves V' - 2WV = +1.
    """
    _check_member(lam, side)
    return _v_lambda(rho, lam, _tail_integral(rho, kappa, l, side), kappa, l, side)


def family_on_grid(kappa: float, l: int, lam: float, side: str, grid) -> np.ndarray:
    """V_lambda sampled on a sorted grid: v_family on the checked grid."""
    return v_family(_check_grid(grid), kappa, l, lam, side)


def family_superpotential(rho, kappa: float, l: int, lam: float = 0.0,
                          side: str = "bosonic") -> float:
    """Shifted superpotential W_lambda = W + 1/V_lambda at a single radius.

    Raises
    ------
    SingularPointError
        When V_lambda vanishes (to within its numerical scale) at rho: the
        family member has a singular locus there, which is reported, not
        smoothed over.
    """
    _check_member(lam, side)
    rho = float(_check_rho(rho)[0])
    integral = _tail_integral(rho, kappa, l, side)
    v = float(_v_lambda(rho, lam, integral, kappa, l, side))
    scale = abs(_v_lambda(rho, abs(lam), abs(integral), kappa, l, side))
    # an overflowed V is no zero, though its scale is infinite too
    if not math.isinf(v) and abs(v) <= 1e-10 * scale + 1e-300:
        raise SingularPointError(
            f"family member (kappa={kappa}, l={l}, lambda={lam}, {side}) "
            f"is singular at rho = {rho}", rho=rho)
    return susy.superpotential(rho, kappa, l) + 1.0 / v


def v_zeros(kappa: float, l: int, lam: float, side: str, grid) -> list[float]:
    """Zeros of V_lambda inside the grid span (singular loci of W_lambda).

    V_lambda changes sign exactly where lambda + Int_1^rho does.  Every sign
    change of that term between grid nodes is refined in one bracketed root
    search in t = ln rho (``numkit.bracketed_root``, to 1e-14 + 4 eps |t|) on
    the integrand of the nodes' prefix integrals; each probe sweep is one
    quadrature call from each bracket's node nearer rho = 1, whose smaller
    prefix rounds less where a far node's would dwarf lambda.  Zeros are a
    legitimate feature of family members — they are returned, not raised.

    Raises
    ------
    ConvergenceError
        If the search fails on a bracket.
    """
    _check_member(lam, side)
    grid = _check_grid(grid)
    g = lam + _tail_integral(grid, kappa, l, side)
    i = np.flatnonzero(g[:-1] * g[1:] < 0.0)
    t, (integrand, e) = np.log(grid), _f_integrand(kappa, l, _POWER[side])
    near = np.where(np.abs(t[i]) <= np.abs(t[i + 1]), i, i + 1)
    res = bracketed_root(lambda s, a, ga: ga + integrate_adaptive(integrand, a, s),
                         t[i], t[i + 1], args=(t[near], np.ldexp(g[near], -e)))
    # status -1: the nodes' prefixes change sign but the probes from the nearer node do not,
    # so the zero is within the probes' error of a node, and x is that node
    if np.any(failed := res.status < -1):
        raise ConvergenceError(f"zero search of V_lambda failed near rho = "
                               f"{grid[i][failed].tolist()}")
    return np.sort(np.concatenate([grid[g == 0.0], np.exp(res.x)])).tolist()


# =====================================================================
# Printed closed-form series, exactly as typeset
# =====================================================================
#
# Two antiderivative series S (one per shape exponent) for the integral of
# f^-2 in the angle variable, and two series V for the bosonic family
# coefficient.  Product notations follow the source text literally:
# in S1 the falling product stops at (l+1-m), in V1 at (l-m) — the audit's
# job is to measure the consequences, not to harmonize them.

def printed_series_eval(alpha, l: int, formula_id: str):
    """Evaluate one of the four printed series at angle alpha in (0, pi).

    Formula ids: "S1" and "V1" belong to the kappa = 1 profile, "S_half"
    and "V_half" to kappa = 1/2.  Values are reproduced exactly as typeset;
    any discrepancy with the quadrature oracles is the audit's finding.
    l runs from 0 to 66; past that a prefactor overflows, so a larger l
    raises ValueError.
    """
    if formula_id not in FORMULA_IDS:
        raise ValueError(f"unknown formula id {formula_id!r}")
    if not 0 <= l <= _MAX_L:
        raise ValueError(f"l must lie in [0, {_MAX_L}], got {l}")
    scalar = np.isscalar(alpha)
    a = np.asarray(alpha, dtype=float)
    if np.any((a <= 0.0) | (a >= math.pi)):
        raise ValueError("alpha must lie strictly inside (0, pi)")

    sin_a = np.sin(a)
    cos_a = np.cos(a)
    # Each coefficient's falling products gain one factor per term, in the
    # order the notation prints them.
    num = den = 1.0
    if formula_id == "S1":
        csc = 1.0 / sin_a
        total = csc ** (2 * l + 1)
        for m in range(1, l + 1):
            num, den = num * (l - (m - 1.0)), den * (2 * l - 1 - 2.0 * (m - 1))
            total = total + 2.0 ** m * num / den * csc ** (2 * l + 1 - 2 * m)
        out = -(2.0 ** (2 * l + 1) / (2 * l + 1)) * cos_a * total
    elif formula_id == "V1":
        bracket, num = np.ones_like(a), 1.0 * l
        for m in range(1, l + 1):
            num, den = num * (l - 1.0 * m), den * (2 * l - 1 - 2.0 * (m - 1))
            bracket = bracket + (2.0 * sin_a ** 2) ** m * (num / den)
        out = (2.0 * cos_a / (2 * l + 1)) * np.tan(0.5 * a) * bracket
    else:   # S_half and V_half: one sum over m <= 2l, then (4l+1)!! in the log term
        csc2, half_sin2 = 1.0 / sin_a ** 2, 0.5 * sin_a ** 2
        bracket = np.ones_like(a)
        for m in range(1, 2 * l + 1):
            num, den = num * (4 * l + 1 - 2.0 * (m - 1)), den * (2 * l - 1.0 * (m - 1))
            bracket = bracket + (num / ((2.0 * csc2) ** m * den) if formula_id == "S_half"
                                 else half_sin2 ** m * num / den)
        log_tan = np.log(np.tan(0.5 * a))   # num is now (4l+1)!!
        if formula_id == "S_half":
            lead = -(2.0 ** (4 * l + 3) / (2 * l + 1)) * cos_a * csc2 ** (2 * l + 1) * bracket
            out = lead + 4.0 * num * 4.0 ** l / math.factorial(2 * l + 1) * log_tan
        else:
            lead = (2.0 * cos_a / (2 * l + 1)) * np.tan(0.5 * a) ** 2 * bracket
            # log-term prefactor as typeset: 4 (4l+1)!! / ((2l+1)! csc^4(alpha/2))
            out = lead + 4.0 * num / math.factorial(2 * l + 1) * half_sin2 ** (2 * l) \
                * np.sin(0.5 * a) ** 4 * log_tan
    return float(out) if scalar else out


# =====================================================================
# Series audit
# =====================================================================

@dataclass(frozen=True)
class SeriesAuditRecord:
    """Outcome of auditing one printed formula at one angular momentum.

    max_dev is the largest relative deviation from the quadrature oracle
    (pointwise, anchored at rho = 1 for the S antiderivatives);
    ode_residual_max is the scaled defining-equation residual of the
    printed expression (V formulas only, None for S); ratio is the
    measured deviation factor (median printed/oracle), 1.0 on a match.
    """

    formula_id: str
    l: int
    kappa: float
    max_dev: float
    ode_residual_max: float | None
    ratio: float
    verdict: str

    def to_dict(self) -> dict:
        return asdict(self)


def _audit_alphas() -> np.ndarray:
    # Fixed audit abscissae: wide coverage of (0, pi), clear of both
    # endpoints where the integrand's power of csc dominates everything.
    return np.linspace(0.35, math.pi - 0.35, 21)


def _audit_S(formula_id: str, l: int, kappa: float, alphas, oracle) -> SeriesAuditRecord:
    printed = printed_series_eval(alphas, l, formula_id)

    dev_pw = float(np.max(np.abs(printed - oracle) / (1.0 + np.abs(oracle))))
    d_printed = np.diff(printed)
    d_oracle = np.diff(oracle)
    dev_diff = float(np.max(np.abs(d_printed - d_oracle) / (1.0 + np.abs(d_oracle))))
    keep = np.abs(d_oracle) > 1e-12
    ratio = _median(d_printed[keep] / d_oracle[keep])

    verdict = ("match" if dev_pw < AUDIT_MATCH_TOL else
               "constant-offset-match" if dev_diff < AUDIT_MATCH_TOL else "mismatch")
    return SeriesAuditRecord(formula_id=formula_id, l=l, kappa=kappa,
                             max_dev=dev_pw, ode_residual_max=None,
                             ratio=ratio, verdict=verdict)


def _audit_V(formula_id: str, l: int, kappa: float, alphas, rho, oracle) -> SeriesAuditRecord:
    v_oracle = _v_lambda(rho, 0.0, oracle, kappa, l, "bosonic")
    v_printed = printed_series_eval(alphas, l, formula_id)

    dev_pw = float(np.max(np.abs(v_printed - v_oracle) / (1.0 + np.abs(v_oracle))))
    keep = np.abs(v_oracle) > 1e-10
    ratio = _median(v_printed[keep] / v_oracle[keep])

    # Defining-equation residual of the printed expression itself,
    # V' + 2 W V + 1 with V' by the 5-point stencil in rho, all radii at once.
    d = derivative(lambda r: printed_series_eval(2.0 * np.arctan(r ** kappa), l, formula_id),
                   rho, 2e-4 * rho, 1)
    wv = 2.0 * susy.superpotential(rho, kappa, l) * v_printed
    res = float(np.max(np.abs(d + wv + 1.0) / (1.0 + np.abs(d) + np.abs(wv))))

    verdict = "match" if dev_pw < AUDIT_MATCH_TOL else "mismatch"
    return SeriesAuditRecord(formula_id=formula_id, l=l, kappa=kappa,
                             max_dev=dev_pw, ode_residual_max=res,
                             ratio=ratio, verdict=verdict)


def series_audit() -> list[SeriesAuditRecord]:
    """Audit the four printed formulas at l = 0..3 against quadrature oracles.

    Returns one record per (formula, l), in deterministic order.  Verdicts
    are informative measurements; the caller decides what is load-bearing.
    S and V at one (kappa, l) read one oracle: (S1, V1) at kappa = 1, (S_half, V_half) at 1/2.
    The oracle is I_- at rho = tan(alpha/2)^(1/kappa), where f^-2 d rho is S's integrand d alpha.
    """
    alphas = _audit_alphas()
    rhos = {kappa: np.tan(0.5 * alphas) ** (1.0 / kappa) for kappa in (1.0, 0.5)}
    oracles = {(kappa, l): _tail_integral(rhos[kappa], kappa, l, "bosonic")
               for kappa in rhos for l in range(4)}
    return [_audit_S(fid, l, kappa, alphas, oracles[kappa, l]) if fid.startswith("S")
            else _audit_V(fid, l, kappa, alphas, rhos[kappa], oracles[kappa, l])
            for fid in FORMULA_IDS for kappa in [1.0 if fid in ("S1", "V1") else 0.5]
            for l in range(4)]
