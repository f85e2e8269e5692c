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

from dataclasses import dataclass

import numpy as np

from .model import SampledFunction, _check_rho, map_coordinates
from .numkit import DEFAULT_PROFILE, ToleranceProfile, grid_derivative, integrate_adaptive

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
    "SusyPair",
    "LadderResult",
    "apply_ladder",
    "natanzon_f_reconstruction",
]


# --- T = 1/(1 + rho^(2 kappa)) and its first three derivatives ----------

def _T_chain(rho, kappa):
    t2k = rho ** (2.0 * kappa)
    T = 1.0 / (1.0 + t2k)
    k = kappa
    T1 = -2.0 * k * rho ** (2.0 * k - 1.0) * T ** 2
    T2 = (-2.0 * k * (2.0 * k - 1.0) * rho ** (2.0 * k - 2.0) * T ** 2
          + 8.0 * k ** 2 * rho ** (4.0 * k - 2.0) * T ** 3)
    T3 = (-2.0 * k * (2.0 * k - 1.0) * (2.0 * k - 2.0) * rho ** (2.0 * k - 3.0) * T ** 2
          + 24.0 * k ** 2 * (2.0 * k - 1.0) * rho ** (4.0 * k - 3.0) * T ** 3
          - 48.0 * k ** 3 * rho ** (6.0 * k - 3.0) * T ** 4)
    return T, T1, T2, T3


def superpotential(rho, kappa: float, l) -> np.ndarray | float:
    """W(rho) = l/rho - (2l+1)/(rho (1 + rho^(2 kappa))).

    Near the origin W ~ -(l+1)/rho (it is built from the regular branch);
    at large rho W ~ l/rho.
    """
    scalar = np.isscalar(rho)
    rho = _check_rho(rho)
    T = 1.0 / (1.0 + rho ** (2.0 * kappa))
    w = l / rho - (2.0 * l + 1.0) * T / rho
    return float(w) if scalar else w


def superpotential_dr(rho, kappa: float, l):
    """Closed-form dW/d rho (no finite differences)."""
    scalar = np.isscalar(rho)
    rho = _check_rho(rho)
    T, T1, _, _ = _T_chain(rho, kappa)
    g1 = (2.0 * l + 1.0) * (-T / rho ** 2 + T1 / rho)
    out = -l / rho ** 2 - g1
    return float(out) if scalar else out


def superpotential_d2r(rho, kappa: float, l):
    scalar = np.isscalar(rho)
    rho = _check_rho(rho)
    T, T1, T2, _ = _T_chain(rho, kappa)
    g2 = (2.0 * l + 1.0) * (2.0 * T / rho ** 3 - 2.0 * T1 / rho ** 2 + T2 / rho)
    out = 2.0 * l / rho ** 3 - g2
    return float(out) if scalar else out


def superpotential_d3r(rho, kappa: float, l):
    scalar = np.isscalar(rho)
    rho = _check_rho(rho)
    T, T1, T2, T3 = _T_chain(rho, kappa)
    g3 = (2.0 * l + 1.0) * (-6.0 * T / rho ** 4 + 6.0 * T1 / rho ** 3
                            - 3.0 * T2 / rho ** 2 + T3 / rho)
    out = -6.0 * l / rho ** 4 - g3
    return float(out) if scalar else out


# --- partner potentials -------------------------------------------------

def partner_minus(rho, kappa: float, l):
    """Lower partner W^2 - W' (equals the effective potential on the ladder)."""
    w = superpotential(rho, kappa, l)
    return w * w - superpotential_dr(rho, kappa, l)


def partner_plus(rho, kappa: float, l):
    """Upper partner W^2 + W'."""
    w = superpotential(rho, kappa, l)
    return w * w + superpotential_dr(rho, kappa, l)


def partner_minus_closed(rho, kappa: float, l):
    """Algebraically reduced lower partner:

    U_-(rho) = l(l+1)/rho^2 - (2l+1)(2l+2k+1) / (rho^(2(1-k)) (1+rho^(2k))^2).

    The well coefficient (2l+1)(2l+2k+1) is exactly the quantized coupling
    at the bottom of the l-ladder, N = 1 + l/kappa.
    """
    scalar = np.isscalar(rho)
    rho = _check_rho(rho)
    den = rho ** (2.0 * (1.0 - kappa)) * (1.0 + rho ** (2.0 * kappa)) ** 2
    out = l * (l + 1.0) / rho ** 2 - (2.0 * l + 1.0) * (2.0 * l + 2.0 * kappa + 1.0) / den
    return float(out) if scalar else out


def partner_plus_closed(rho, kappa: float, l):
    """Algebraically reduced upper partner:

    U_+(rho) = l(l-1)/rho^2 - (2l+1)(2l-2k-1) / (rho^(2(1-k)) (1+rho^(2k))^2)
               + 2(2l+1) / (rho^2 (1+rho^(2k))^2).
    """
    scalar = np.isscalar(rho)
    rho = _check_rho(rho)
    t2k = rho ** (2.0 * kappa)
    den = rho ** (2.0 * (1.0 - kappa)) * (1.0 + t2k) ** 2
    out = (l * (l - 1.0) / rho ** 2
           - (2.0 * l + 1.0) * (2.0 * l - 2.0 * kappa - 1.0) / den
           + 2.0 * (2.0 * l + 1.0) / (rho ** 2 * (1.0 + t2k) ** 2))
    return float(out) if scalar else out


def partner_plus_dr(rho, kappa: float, l):
    """d U_+ / d rho from the factorized form 2 W W' + W''."""
    w = superpotential(rho, kappa, l)
    w1 = superpotential_dr(rho, kappa, l)
    w2 = superpotential_d2r(rho, kappa, l)
    return 2.0 * w * w1 + w2


def partner_plus_d2r(rho, kappa: float, l):
    """d^2 U_+ / d rho^2 = 2 (W'^2 + W W'') + W'''."""
    w = superpotential(rho, kappa, l)
    w1 = superpotential_dr(rho, kappa, l)
    w2 = superpotential_d2r(rho, kappa, l)
    w3 = superpotential_d3r(rho, kappa, l)
    return 2.0 * (w1 * w1 + w * w2) + w3


@dataclass(frozen=True)
class SusyPair:
    """Partner pair at fixed (kappa, l); thin façade over the closed forms."""

    kappa: float
    l: int

    def __post_init__(self) -> None:
        if self.kappa <= 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if self.l < 0:
            raise ValueError(f"l must be >= 0, got {self.l}")

    def W(self, rho):
        return superpotential(rho, self.kappa, self.l)

    def W_dr(self, rho):
        return superpotential_dr(rho, self.kappa, self.l)

    def U_minus(self, rho):
        return partner_minus_closed(rho, self.kappa, self.l)

    def U_plus(self, rho):
        return partner_plus_closed(rho, self.kappa, self.l)


@dataclass(frozen=True)
class LadderResult:
    """Record of a single ladder-operator application."""

    input: SampledFunction
    output: SampledFunction
    operator_tag: str

    def __post_init__(self) -> None:
        if not np.array_equal(self.input.grid, self.output.grid):
            raise ValueError("ladder output must live on the input grid")
        if self.operator_tag not in ("A", "Adag"):
            raise ValueError(f"unknown operator tag {self.operator_tag!r}")


def apply_ladder(u: SampledFunction, kappa: float, l: int, which: str = "A") -> SampledFunction:
    """Apply a first-order ladder operator to a sampled function.

    which = "A"    : (d/d rho + W) u   -- lowers within the factorized pair
    which = "Adag" : (-d/d rho + W) u

    The derivative uses 5-point stencils (one-sided at the edges), so the
    two or three samples nearest each boundary carry lower accuracy;
    residual metrics elsewhere exclude them.  Grids with fewer than five
    points are rejected.
    """
    if which not in ("A", "Adag"):
        raise ValueError(f"which must be 'A' or 'Adag', got {which!r}")
    du = grid_derivative(u.grid, u.values, order=1, stencil=5)
    w = superpotential(u.grid, kappa, l)
    sign = 1.0 if which == "A" else -1.0
    return SampledFunction(u.grid, sign * du + w * u.values)


def natanzon_f_reconstruction(grid, kappa: float, l: int,
                              profile: ToleranceProfile = DEFAULT_PROFILE) -> np.ndarray:
    """Rebuild the nodeless factor from the compact-coordinate route.

    Quadrature evaluation of

        f_rec(rho) = |d xi/d rho|^(-1/2) * exp( (1/2) Int_0^xi(rho) Q(s) ds ),
        Q(s) = (2q+1) s / (s^2 - 1),   q = (2l+1)/(2 kappa) + 1/2,

    which reproduces f_factor up to one global multiplicative constant
    (checked by the caller as a constant-ratio property).  The integral is
    anchored at xi = 0, i.e. rho = 1.
    """
    grid = _check_rho(grid)
    q = (2.0 * l + 1.0) / (2.0 * kappa) + 0.5
    two_q1 = 2.0 * q + 1.0

    def Q(s):
        s = np.asarray(s, dtype=float)
        return two_q1 * s / (s * s - 1.0)

    xi, _ = map_coordinates(grid, kappa)
    dxi = 4.0 * kappa * grid ** (2.0 * kappa - 1.0) / (1.0 + grid ** (2.0 * kappa)) ** 2
    out = np.empty_like(grid)
    for i, x in enumerate(xi):
        integral = integrate_adaptive(Q, 0.0, float(x), profile)
        out[i] = dxi[i] ** (-0.5) * np.exp(0.5 * integral)
    return out
