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

from .model import (SampledFunction, _check_rho, _fold, _pow, _radial, _rdiv, _rmul, _rsub,
                    _well_root, _xi)
from .numkit import _anchored_integral, grid_derivative

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

def _quotient(rho, k, num=1.0, plus=0.0):
    """num / (plus + rho^k) with no warning where rho^k overflows or underflows.

    The quotient is then 0 or a correctly signed infinity; only a NaN warns.
    An array num must be the caller's own: the quotient is written over it.
    """
    with np.errstate(over="ignore", divide="ignore"):
        d = _pow(rho, k)
        if plus:   # rho^k is never -0.0, so plus = 0.0 may be skipped
            d += plus
        if not isinstance(num, np.ndarray):
            return _rdiv(num, d)
        num /= d   # num has the result's shape: d has rho's, num that of l and T together
        return num


def _numerators(rho, kappa: float, l, order: int) -> list:
    """_numerators_t at T = 1/(1 + rho^(2 kappa)), which is 0 where the power overflows."""
    return _numerators_t(_quotient(rho, 2.0 * kappa, plus=1.0), kappa, l, order)


def _numerators_t(T, kappa: float, l, order: int) -> list:
    """[B_0, ..., B_order] with d^n W / d rho^n = B_n / rho^(n+1).

    Each B_n is a polynomial in T and S = 1 - T, because rho dT/d rho =
    -k T S with k = 2 kappa: one power rho^k serves every order.  S enters
    only next to O(1) terms, so 1 - T is precise enough.  B_n is affine in l.
    T is read, never written: each B_n is a new array.  They are formed from
    the highest order down, so that B_1 and B_0 are written over kS and cT.
    """
    k = 2.0 * kappa
    cT = (2.0 * l + 1.0) * T
    B = []
    if order >= 1:
        kS = 1.0 - T
        kS *= k
    if order >= 2:
        k2Sd = k * kS * (2.0 * T - 1.0)  # k^2 S (T - S)
    if order >= 3:
        k3Se = k * k * kS * (1.0 - 6.0 * T * (1.0 - T))  # k^3 S (1 - 6 T S)
        B.append(cT * (6.0 + 11.0 * kS - 6.0 * k2Sd + k3Se) - 6.0 * l)
    if order >= 2:
        B.append(2.0 * l - cT * (2.0 + 3.0 * kS - k2Sd))
    if order >= 1:
        kS += 1.0
        B1 = _rmul(cT, kS)
        B1 -= l
        B.append(B1)   # cT (1 + kS) - l
    B.append(_rsub(l, cT))   # l - cT
    return B[::-1]


@_radial
def superpotential(rho, kappa: float, l) -> np.ndarray | float:
    """W(rho) = l/rho - (2l+1)/(rho (1 + rho^(2 kappa))).

    Near the origin W ~ -(l+1)/rho (it is built from the regular branch);
    at large rho W ~ l/rho.
    """
    W = _numerators(rho, kappa, l, 0)[0]
    with np.errstate(over="ignore"):   # +-inf where W passes the float range
        W /= rho
    return W


def superpotential_dr(rho, kappa: float, l):
    """Closed-form dW/d rho = (-l + (2l+1) T (1 + 2 kappa (1 - T))) / rho^2."""
    return _w_derivative(rho, kappa, l, 1)


def superpotential_d2r(rho, kappa: float, l):
    return _w_derivative(rho, kappa, l, 2)


def superpotential_d3r(rho, kappa: float, l):
    return _w_derivative(rho, kappa, l, 3)


@_radial
def _w_derivative(rho, kappa, l, n):
    return _quotient(rho, n + 1, _numerators(rho, kappa, l, n)[n])


# --- partner potentials -------------------------------------------------

def _centrifugal(a, r2):
    """a / r2 for r2 = rho * rho, written over r2 when it has the result's shape.

    Where rho * rho underflows to 0 the quotient is its limit: an exact 0
    for a = 0, and the infinity of a's sign otherwise (the caller ignores
    the divide by zero).
    """
    if not (np.all(a) if isinstance(a, np.ndarray) else a):   # 0/0 would be NaN: divide by 1
        r2 = np.where((a == 0) & (r2 == 0), 1.0, r2)
    return _rdiv(a, r2)


def _where_terms_overflow(u, rho, kappa, a, k_well, k_h=0.0):
    """u, with its non-finite lanes redone where a term of U-+ passes the float range.

    U-+ = P / rho^2 with P = a - k_well x T^2 + k_h T^2, x = rho^(2 kappa) and
    T = 1/(1 + x), so no term exceeds its coefficient over rho^2.  Once one
    overflows, u is inf - inf or an infinity that another term would cancel;
    P is finite, and P / rho / rho is the value or its signed infinity.  With
    no 1/rho^2 term (a = k_h = 0), u is the well alone, its infinity included,
    which P would lose where x underflows.  When no term can overflow, u comes
    back untouched and unscanned.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if np.max(np.abs(a) + np.abs(k_well) + abs(k_h)) / np.min(rho) ** 2 < _HUGE:
            return u
        x = _pow(rho, 2.0 * kappa)
        T2 = (1.0 + x) ** -2.0
        keep = np.isfinite(u) | ((a == 0) & (k_h == 0))
        return np.where(keep, u, (a - k_well * x * T2 + k_h * T2) / rho / rho)


def partner_minus(rho, kappa: float, l):
    """Lower partner W^2 - W' (equals the effective potential on the ladder)."""
    return _partner(rho, kappa, l, -1.0)


def partner_plus(rho, kappa: float, l):
    """Upper partner W^2 + W'."""
    return _partner(rho, kappa, l, 1.0)


@_radial
def _partner(rho, kappa, l, sign):
    B0, B1 = _numerators(rho, kappa, l, 1)
    return _quotient(rho, 2, B0 * B0 + sign * B1)


@_radial
def partner_minus_closed(rho, kappa: float, l):
    """Algebraically reduced lower partner:

    U_-(rho) = l(l+1)/rho^2 - (2l+1)(2l+2k+1) / (rho^(2(1-k)) (1+rho^(2k))^2).

    The well coefficient (2l+1)(2l+2k+1) is exactly the quantized coupling
    at the bottom of the l-ladder, N = 1 + l/kappa.
    """
    g = _well_root(rho, kappa)[0]
    c = 2.0 * l + 1.0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):   # inf - inf: redone below
        g *= g
        u = _centrifugal(l * (l + 1.0), rho * rho)
        u -= _rmul(c * (c + 2.0 * kappa), g)
    return _where_terms_overflow(u, rho, kappa, l * (l + 1.0), c * (c + 2.0 * kappa))


@_radial
def partner_plus_closed(rho, kappa: float, l):
    """Algebraically reduced upper partner:

    U_+(rho) = l(l-1)/rho^2 - (2l+1)(2l-2k-1) / (rho^(2(1-k)) (1+rho^(2k))^2)
               + 2(2l+1) / (rho^2 (1+rho^(2k))^2).
    """
    g, h = _well_root(rho, kappa)
    c = 2.0 * l + 1.0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):   # inf - inf: redone below
        g *= g
        h *= h
        u = _centrifugal(l * (l - 1.0), rho * rho)
        u -= _rmul(c * (c - 2.0 * kappa - 2.0), g)
        u += _rmul(2.0 * c, h)
    return _where_terms_overflow(u, rho, kappa, l * (l - 1.0), c * (c - 2.0 * kappa - 2.0),
                                 2.0 * c)


@_radial
def partner_plus_dr(rho, kappa: float, l):
    """d U_+ / d rho from the factorized form 2 W W' + W''."""
    B0, B1, B2 = _numerators(rho, kappa, l, 2)
    return _quotient(rho, 3, 2.0 * B0 * B1 + B2)


@_radial
def partner_plus_d2r(rho, kappa: float, l):
    """d^2 U_+ / d rho^2 = 2 (W'^2 + W W'') + W'''."""
    B0, B1, B2, B3 = _numerators(rho, kappa, l, 3)
    return _quotient(rho, 4, 2.0 * (B1 * B1 + B0 * B2) + B3)


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
    grid, _ = _check_rho(grid)
    q = (2.0 * l + 1.0) / (2.0 * kappa) + 0.5
    integral = (2.0 * q + 1.0) * kappa * _anchored_integral(
        lambda t: _xi(rho := np.exp(t), _fold(rho, kappa)[1]), 0.0, np.log(grid), 2.0 / kappa)
    # |d xi/d rho| = 4 kappa p v^2 / rho on the fold, p = x^(2 kappa): taken in logs
    # so that neither it nor its inverse square root overflows
    x, p, _ = _fold(grid, kappa)
    log_dxi = np.log(4.0 * kappa) + 2.0 * kappa * np.log(x) - 2.0 * np.log1p(p) - np.log(grid)
    return np.exp(0.5 * (integral - log_dxi))
