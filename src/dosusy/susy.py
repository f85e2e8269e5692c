"""Factorization machinery: superpotential, partner potentials, ladder maps.

The nodeless half-line solution f of each l-ladder factorizes the zero-energy
problem.  With

    W(rho) = -d/d rho ln f(rho) = l/rho - (2l+1) / (rho (1 + rho^(2 kappa)))

the two partner potentials are U_- = W^2 - W' (the physical effective
potential at the bottom-of-ladder coupling) and U_+ = W^2 + W' (its
supersymmetric partner, positive for every l and the carrier of the
trapping pocket at large l).  First-order ladder maps A = d/d rho + W and
its adjoint connect the two problems; A annihilates f.

Angular momentum enters these closed forms only algebraically, so all
functions accept real (continuous) l; state-level validation lives in
`model`.
"""

from __future__ import annotations

import numpy as np

from .model import (_RADII, SampledFunction, _fold, _pow, _radial, _rdiv, _rmul, _rsub,
                    _well_root, _xi, default_grid)
from .numkit import _anchored_integral, _curve_csv, grid_derivative

_HUGE = np.finfo(float).max

__all__ = [
    "superpotential",
    "superpotential_dr",
    "superpotential_d2r",
    "superpotential_d3r",
    "partner_minus",
    "partner_plus",
    "partner_minus_closed",
    "partner_plus_closed",
    "partner_plus_dr",
    "partner_plus_d2r",
    "apply_ladder",
    "natanzon_f_reconstruction",
]


# --- W and its derivatives from T = 1/(1 + rho^(2 kappa)) -------------

def _numerators_t(T, kappa: float, l, order: int) -> list:
    """[B_0, ..., B_order] with d^n W / d rho^n = B_n / rho^(n+1).

    Each B_n is a polynomial in T and S = 1 - T, because rho dT/d rho =
    -k T S with k = 2 kappa: one power rho^k serves every order.  S enters
    only next to O(1) terms, so 1 - T is precise enough.  B_n is affine in l.
    T is read, never written: each B_n is a new array.  They are formed from
    the highest order down, so that B_1 and B_0 are written over kS and cT.

    Each further power of k multiplies a finite factor that carries its zero first:
    q = cT kS is 0 at T = 0 and at T = 1, and k (2T - 1) is 0 at rho = 1.  So where
    rho^k passes the float range (T = 0 or 1, every rho != 1 once kappa > 1e100)
    B_n is its limit, (-1)^n n! l or -(-1)^n n! (l+1), with no inf * 0, and only
    at rho = 1 can a power of k pass the range, as a signed infinity (unwarned only
    under the caller's errstate, as in _over_rho).

    k = 2 kappa is inf past kappa = HUGE/2: each product x k is (2x) kappa, the same
    product rounded once, and past HUGE/22 (where 11 kS may pass the range) kappa is 0
    at T = 0 and 1, where each k multiplies a zero.  q is held to HUGE: it passes the
    range only at rho = 1 (for l < 1e290), where k (2T - 1) = 0.
    """
    km = kappa if 22.0 * kappa < _HUGE else kappa * np.sign(T * (1.0 - T))
    cT = (2.0 * l + 1.0) * T
    B = []
    if order >= 1:
        kS = T * -2.0
        kS += 2.0
        kS *= km   # (2S) kappa
    if order >= 2:
        q = np.minimum(cT * kS, _HUGE)
        qkd = q * ((4.0 * T - 2.0) * km)   # k^2 cT S (T - S)
    if order >= 3:   # (q k)(k (1 - 6 T S)) = k^3 cT S (1 - 6 T S)
        B.append(_k3(cT * (6.0 + 11.0 * kS) - 6.0 * qkd,
                     (2.0 * q * km) * ((2.0 - 12.0 * T * (1.0 - T)) * km)) - 6.0 * l)
    if order >= 2:
        B.append(2.0 * l - (cT * (2.0 + 3.0 * kS) - qkd))
    if order >= 1:
        kS += 1.0
        B1 = _rmul(cT, kS)
        B1 -= l
        B.append(B1)   # cT (1 + kS) - l
    B.append(_rsub(l, cT))   # l - cT
    return B[::-1]


def _k3(x, y):
    """x + y for a term y in k^3, and y where both are infinite: at rho = 1 it outgrows x's
    terms in k and k^2 (B_1^2 while l + 1/2 < kappa), where their infinities meet."""
    if not np.isinf(y).any():
        return x + y
    with np.errstate(invalid="ignore"):   # inf - inf: replaced
        s = x + y
    return np.where(np.isinf(x) & np.isinf(y), y, s)


@_radial
def _over_rho(rho, kappa, l, order, combine):
    """combine(B_0, ..., B_order) / rho^(order + 1), the B_n of _numerators_t at the T of
    _well_root, written over combine's own result; 0 or a signed infinity, with no warning,
    where the quotient, rho^(order + 1) or a power of k passes the float range (only a NaN
    warns).  A scalar radius, never remembered, takes T alone by _well_root's formula: no g, h."""
    with np.errstate(over="ignore", divide="ignore"):
        if rho.ndim:
            T = _well_root(rho, kappa)[2]
        else:
            t = _pow(rho, kappa)
            T = 1.0 / (t * t + 1.0)
        num = combine(*_numerators_t(T, kappa, l, order))
        num /= _pow(rho, order + 1) if order else rho   # num has the result's shape
    return num


def superpotential(rho, kappa: float, l) -> np.ndarray | float:
    """W(rho) = l/rho - (2l+1)/(rho (1 + rho^(2 kappa))).

    Near the origin W ~ -(l+1)/rho (it is built from the regular branch);
    at large rho W ~ l/rho.
    """
    return _over_rho(rho, kappa, l, 0, lambda B0: B0)


def superpotential_dr(rho, kappa: float, l):
    """Closed-form dW/d rho = (-l + (2l+1) T (1 + 2 kappa (1 - T))) / rho^2."""
    return _over_rho(rho, kappa, l, 1, lambda B0, B1: B1)


def superpotential_d2r(rho, kappa: float, l):
    return _over_rho(rho, kappa, l, 2, lambda B0, B1, B2: B2)


def superpotential_d3r(rho, kappa: float, l):
    return _over_rho(rho, kappa, l, 3, lambda B0, B1, B2, B3: B3)


# --- partner potentials -------------------------------------------------

@_radial
def _reduced(rho, kappa, a, k_well, k_h=None):
    """a / rho^2 - k_well g^2 (+ k_h h^2, 0 h^2 included), g and h from _well_root.

    a / rho^2 is 0 where a = 0 and rho * rho underflows.  Once a term passes the float range,
    u's non-finite lanes are redone as P / rho / rho, P = a - k_well x T^2 (+ k_h T^2) with
    x = rho^(2 kappa) and T = 1/(1 + x): P is finite, as no term exceeds its coefficient over
    rho^2.  With no 1/rho^2 term (a = k_h = 0) u is kept, the well and its infinity alone.
    """
    g, h, _ = _well_root(rho, kappa)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):   # inf - inf: redone below
        g = _rmul(g, g)
        r2 = rho * rho
        if not (np.all(a) if isinstance(a, np.ndarray) else a):   # 0/0 would be NaN: divide by 1
            r2 = np.where((a == 0) & (r2 == 0), 1.0, r2)
        u = _rdiv(a, r2)
        u -= _rmul(k_well, g)
        if k_h is not None:   # 0 h^2 too, NaN where h^2 is inf
            h = _rmul(h, h)
            u += _rmul(k_h, h)
        k_h = 0.0 if k_h is None else k_h   # P's h coefficient
        # each term is within c / rho^2 <= c 4^span (taken in log2: 4.0 ** span may overflow)
        c = np.max(np.abs(a) + np.abs(k_well) + abs(k_h))
        if c < 2.0 ** (1023.0 - 2.0 * _RADII.get()[1]) or c / np.min(rho) ** 2 < _HUGE:
            return u
        x = _pow(rho, 2.0 * kappa)
        T2 = _pow(1.0 + x, -2.0)
        keep = np.isfinite(u) | ((a == 0) & (k_h == 0))
        return np.where(keep, u, (a - k_well * x * T2 + k_h * T2) / rho / rho)


def partner_minus_closed(rho, kappa: float, l):
    """Algebraically reduced lower partner:

    U_-(rho) = l(l+1)/rho^2 - (2l+1)(2l+2k+1) / (rho^(2(1-k)) (1+rho^(2k))^2).

    The well coefficient (2l+1)(2l+2k+1) is exactly the quantized coupling
    at the bottom of the l-ladder, N = 1 + l/kappa.
    """
    c = 2.0 * l + 1.0
    return _reduced(rho, kappa, l * (l + 1.0), c * (c + 2.0 * kappa))


def partner_plus_closed(rho, kappa: float, l):
    """Algebraically reduced upper partner:

    U_+(rho) = l(l-1)/rho^2 - (2l+1)(2l-2k-1) / (rho^(2(1-k)) (1+rho^(2k))^2)
               + 2(2l+1) / (rho^2 (1+rho^(2k))^2).
    """
    c = 2.0 * l + 1.0
    return _reduced(rho, kappa, l * (l - 1.0), c * (c - 2.0 * kappa - 2.0), 2.0 * c)


# W^2 -+ W' under their own names are the reduced forms, which have no cancellation floor
partner_minus = partner_minus_closed
partner_plus = partner_plus_closed


def _u_plus_slope(B0, B1, B2):
    """The numerator of d U_+ / d rho = 2 W W' + W'' over rho^3; the pocket search reads it too."""
    return 2.0 * B0 * B1 + B2


def _u_plus_curvature(B0, B1, B2, B3):
    """The numerator of d^2 U_+ / d rho^2 = 2 (W'^2 + W W'') + W''' over rho^4."""
    return _k3(2.0 * (B1 * B1 + B0 * B2), B3)


def partner_plus_dr(rho, kappa: float, l):
    """d U_+ / d rho from the factorized form 2 W W' + W''."""
    return _over_rho(rho, kappa, l, 2, _u_plus_slope)


def partner_plus_d2r(rho, kappa: float, l):
    """d^2 U_+ / d rho^2 = 2 (W'^2 + W W'') + W'''."""
    return _over_rho(rho, kappa, l, 3, _u_plus_curvature)


def figure_payloads(figure: str) -> dict[str, str]:
    """CSV payloads for the two published-curve bundles, keyed by filename.

    fig1: both partner potentials at l = 2 for kappa in {1/2, 1, 3/2};
    fig2: kappa = 1, lower partner at l in {1, 5, 10} and upper partner at
    l in {6, 7, 8} (straddling the pocket threshold).  Pure function of the
    figure name — identical bytes on every call.
    """
    grid = default_grid()
    if figure == "fig1":
        combos = ((0.5, 2), (1.0, 2), (1.5, 2))
        layout = (("fig1_minus.csv", "lower partner potential U_minus(rho)",
                   partner_minus_closed, combos),
                  ("fig1_plus.csv", "upper partner potential U_plus(rho)",
                   partner_plus_closed, combos))
    elif figure == "fig2":
        layout = (("fig2_minus.csv", "lower partner potential U_minus(rho)",
                   partner_minus_closed, ((1.0, 1), (1.0, 5), (1.0, 10))),
                  ("fig2_plus.csv", "upper partner potential U_plus(rho)",
                   partner_plus_closed, ((1.0, 6), (1.0, 7), (1.0, 8))))
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


def apply_ladder(u: SampledFunction, kappa, l, which: str = "A") -> SampledFunction:
    """Apply a first-order ladder operator to a sampled function.

    which = "A"    : (d/d rho + W) u   -- lowers within the factorized pair
    which = "Adag" : (-d/d rho + W) u

    For stacked rows u.values of shape (m, n), ``kappa`` and ``l`` are
    scalars or one value per row; one stencil pass differentiates every
    row.  The derivative uses 5-point stencils (one-sided at the edges), so
    the two or three samples nearest each boundary carry lower accuracy;
    residual metrics elsewhere exclude them.  Grids with fewer than five
    points are rejected.
    """
    if which not in ("A", "Adag"):
        raise ValueError(f"which must be 'A' or 'Adag', got {which!r}")
    out = grid_derivative(u.grid, u.values)
    if which == "Adag":
        np.negative(out, out=out)
    n = len(u.grid)
    rows = out.reshape(-1, n)
    m = len(rows)
    # W u is added row by row, in place: no (m, n) temporary
    for row, v, k, lr in zip(rows, u.values.reshape(-1, n),
                             np.broadcast_to(kappa, m).tolist(),
                             np.broadcast_to(l, m).tolist()):
        row += superpotential(u.grid, k, lr) * v
    return SampledFunction(u.grid, out)


@_radial
def natanzon_f_reconstruction(grid, kappa: float, l: int) -> np.ndarray:
    """Rebuild the nodeless factor from the compact-coordinate route.

    Quadrature evaluation of

        f_rec(rho) = |d xi/d rho|^(-1/2) * exp( (1/2) Int_0^xi(rho) Q(s) ds ),
        Q(s) = (2q+1) s / (s^2 - 1),   q = (2l+1)/(2 kappa) + 1/2,

    which reproduces f_factor up to one global multiplicative constant
    (checked by the caller as a constant-ratio property).  The integral is
    anchored at xi = 0, i.e. rho = 1, and taken in t = ln rho: there
    d xi/dt = -kappa (1 - xi^2), so Q(xi) d xi = (2q+1) kappa xi(t) dt with a
    bounded integrand, even where xi rounds to +-1.  The integrals to all
    grid points are one prefix-summed quadrature call, on segments cut at
    2/kappa, twice the scale of xi = -tanh(kappa t).
    """
    q = (2.0 * l + 1.0) / (2.0 * kappa) + 0.5
    fold = _fold.__wrapped__   # quadrature nodes never repeat: not remembered
    integral = (2.0 * q + 1.0) * kappa * _anchored_integral(
        lambda t: _xi(rho := np.exp(t), fold(rho, kappa)[1]), 0.0, np.log(grid), 2.0 / kappa)
    # |d xi/d rho| = 4 kappa p v^2 / rho on the fold, p = x^(2 kappa): taken in logs
    # so that neither it nor its inverse square root overflows
    x, p, _ = _fold(grid, kappa)
    log_dxi = np.log(4.0 * kappa) + 2.0 * kappa * np.log(x) - 2.0 * np.log1p(p) - np.log(grid)
    return np.exp(0.5 * (integral - log_dxi))
