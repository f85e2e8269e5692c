"""Zero-energy solvers: radial shooting, pocket-threshold search, and
classical orbit tracing for the focusing potential family.

All of these are independent numerical routes onto quantities the closed
forms predict analytically: the shooting eigensolver recovers quantized
couplings without knowing the coupling ladder, the critical-point search
locates the birth of the trapping pocket in the upper partner, and the
trajectory tracer confirms orbit closure for rational shape exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import BracketError, ConvergenceError, GeometryError
from .model import (SampledFunction, _check_coupling, _check_grid, _check_rho,
                    coupling_quantized, default_grid, parse_kappa, potential,
                    state_quantum_numbers)
from .numkit import bracketed_root, newton2d
from .numkit import dop853 as solve_ivp  # the orbit integrator; tracers and tests swap this name
from .susy import partner_plus_d2r, partner_plus_dr

__all__ = [
    "ShootingResult",
    "CriticalPoint",
    "Trajectory",
    "integrate_radial",
    "shoot_coupling",
    "shoot_couplings",
    "critical_angular",
    "critical_angular_all",
    "classical_trajectory",
]


_OVERFLOW_LIMIT = 1e250
# Magnus cells per shooting leg, on the graded edges of _leg_edges; the error
# scales as cells^-4.  Measured: 800 keeps the relative coupling error of the
# verify states near 2e-11 and of random kappa in [0.2, 4], N <= 6 under 1e-10.
_CELLS = 800
_TAIL = 1e-17     # potential term, relative to (l+1/2)^2, where the legs start
_GAUSS = math.sqrt(3.0) / 6.0   # Gauss points sit at mid -+ _GAUSS * h
_COMM = math.sqrt(3.0) / 12.0   # commutator weight of the 4th-order Magnus step


# ======================================================================
# === Radial problem at zero energy ===
# ======================================================================
#
# -u'' + [ l(l+1)/rho^2 + U(rho) ] u = 0 becomes, in t = ln rho with
# u = rho^(1/2) y, the Poeschl-Teller problem y'' = q(t) y with
# q(t) = L^2 - w / (4 cosh^2(kappa t)) and L = l + 1/2, integrated as
# Y' = [[0, 1], [q, 0]] Y by the 4th-order Magnus propagator with two Gauss
# points per cell.  Far out on either side q = L^2 to rounding, so the
# regular branch starts as Y = (1, L) at t = -T and the decaying branch as
# Y = (1, -L) at t = +T.  At rho = 1, du/drho = y' + y/2.

def _leg_edges(w, kappa, L) -> np.ndarray:
    """Edges of the outward leg, t = -T ... 0, along a new last axis.

    T is where w / (4 cosh^2(kappa T)) falls to _TAIL * L^2 (at least 1).
    The edges are uniform in s = (1 - e^(-c|t|)) / c with c = kappa/2, so
    cells widen like e^(kappa |t| / 2) into the tail: a 4th-order Magnus
    cell's error follows the derivatives of q, which fall off like
    e^(-2 kappa |t|).  Parameters broadcast, one leg per element.
    """
    w, kappa, L = (np.asarray(x, dtype=float)[..., None] for x in (w, kappa, L))
    T = np.maximum(np.log(w / (4.0 * _TAIL * L * L)) / (2.0 * kappa), 1.0)
    c = 0.5 * kappa
    u = np.arange(_CELLS + 1) / _CELLS
    return np.log(u + np.exp(-c * T) * (1.0 - u)) / c


def _cells(t: np.ndarray, w: float, kappa: float, L: float) -> np.ndarray:
    """Magnus propagators over the cells between consecutive edges t.

    exp(Omega) for the traceless Omega = [[a, h], [c, -a]] is cosh(r) I +
    sinh(r)/r Omega, r^2 = a^2 + h c (cos, sin when r^2 < 0).  Each cell is
    scaled by exp(-L |h|), so products never overflow; edges may run either
    way along the last axis.
    """
    h, mid = np.diff(t, axis=-1), 0.5 * (t[..., 1:] + t[..., :-1])

    def q(x):
        z = np.exp(-2.0 * kappa * np.abs(x))   # 1/(4 cosh^2) = z/(1+z)^2
        return L * L - w * z / (1.0 + z) ** 2

    q1, q2 = q(mid - _GAUSS * h), q(mid + _GAUSS * h)
    a, c = _COMM * h * h * (q1 - q2), 0.5 * h * (q1 + q2)
    r2 = a * a + h * c
    r = np.sqrt(np.abs(r2))
    rg = np.where(r2 >= 0.0, r, 0.0)
    damp, up = np.exp(-L * np.abs(h)), np.exp(rg - L * np.abs(h))
    sinhc = np.divide(-np.expm1(-2.0 * rg), 2.0 * rg, out=np.ones_like(rg), where=rg > 0.0)
    ch = np.where(r2 >= 0.0, 0.5 * (up + damp * np.exp(-rg)), damp * np.cos(r))
    sh = np.where(r2 >= 0.0, up * sinhc, damp * np.sinc(r / np.pi))
    return np.stack([ch + sh * a, sh * h, sh * c, ch - sh * a], axis=-1).reshape(h.shape + (2, 2))


def _product(M: np.ndarray) -> np.ndarray:
    """Ordered product M[n-1] @ ... @ M[0] over the cell axis, pairwise."""
    while M.shape[-3] > 1:
        if M.shape[-3] % 2:
            M = np.concatenate([M, np.broadcast_to(np.eye(2), M[..., :1, :, :].shape)], axis=-3)
        M = M[..., 1::2, :, :] @ M[..., 0::2, :, :]
    return M[..., 0, :, :]


def _scan(w: float, kappa: float, l: int, samples: np.ndarray, t_end: float):
    """Carry the regular branch from its tail through the sample points t (at
    most t_end) to t_end, on the graded shooting cells split at every sample:
    one pairwise product up to the first sample, then a sequential scan
    keeping (y, y') at unit 1-norm and its size in log space.
    Returns y and log-scale at the samples, and (y, y') at t_end.
    """
    L = l + 0.5
    leg = _leg_edges(w, kappa, L)
    base = np.concatenate([leg, -leg[-2::-1]])
    t0 = min(base[0], np.min(samples, initial=0.0))
    edges = np.union1d(base, np.concatenate([samples, [t0, t_end]]))
    edges = edges[(edges >= t0) & (edges <= t_end)]
    idx = np.searchsorted(edges, samples)
    M = _cells(edges, w, kappa, L)
    first = int(np.min(idx, initial=len(M)))
    y, dy = (_product(M[:first]) @ (1.0, L)).tolist() if first else (1.0, L)
    ys, logs, lg = [], [], 0.0   # the leading identity cell records the first sample
    for m00, m01, m10, m11 in [(1.0, 0.0, 0.0, 1.0)] + M[first:].reshape(-1, 4).tolist():
        y, dy = m00 * y + m01 * dy, m10 * y + m11 * dy
        n = abs(y) + abs(dy)
        y, dy, lg = y / n, dy / n, lg + math.log(n)
        ys.append(y)
        logs.append(lg)
    log_scale = np.asarray(logs) + L * np.abs(edges[first:] - t0)
    return np.asarray(ys)[idx - first], log_scale[idx - first], (y, dy)


def _as_u(t, y, log_scale) -> np.ndarray:
    """u = rho^(1/2) y at t = ln rho, rescaled to unit sup-norm."""
    u = y * np.exp(0.5 * t + log_scale - np.max(0.5 * t + log_scale))
    return u / np.max(np.abs(u))


def integrate_radial(w: float, kappa: float, l: int, grid) -> SampledFunction:
    """Outward zero-energy integration of the half-line problem onto a grid.

    Starts the regular branch u ~ rho^(l+1) in the small-radius tail and
    returns u sampled on the grid, rescaled to unit sup-norm (the absolute
    scale of a linear homogeneous solution is a convention).  At a
    quantized coupling this reproduces the bound-family u; away from one
    the returned samples grow ~ rho^(l+1) at large radius.

    Raises
    ------
    ConvergenceError
        If |u|, scaled to unit size at the smallest grid point, would pass
        the guard limit before the far end of the grid; the message reports
        the blow-up radius.
    """
    _check_coupling(w)
    grid = _check_grid(grid)
    t = np.log(grid)
    y, log_scale, _ = _scan(w, kappa, l, t, t[-1])
    over = np.nonzero(0.5 * (t - t[0]) + log_scale - log_scale[0] > math.log(_OVERFLOW_LIMIT))[0]
    if len(over):
        raise ConvergenceError(
            f"radial solution overflowed at rho = {grid[over[0]]:.6g} "
            f"(w = {w}, kappa = {kappa}, l = {l})")
    return SampledFunction(grid, _as_u(t, y, log_scale))


@dataclass(frozen=True)
class ShootingResult:
    """Eigencoupling found by shooting one leg and mirroring it.

    match_defect is the scale-normalized Wronskian of the outward and
    inward branches at the matching radius rho = 1 (zero iff the branches
    are proportional; stays regular even when the eigenfunction has a node
    exactly at the matching radius).  u is assembled on first read, on the
    default grid, built then.
    """

    w_star: float
    match_defect: float
    bracket: tuple[float, float]
    defect_evaluations: int
    kappa: float = field(repr=False, compare=False)
    l: int = field(repr=False, compare=False)

    @cached_property
    def u(self) -> SampledFunction:
        return _assemble_eigenfunction(self.w_star, self.kappa, self.l, default_grid())


def _match_defect(w, kappa, L):
    """Scale-normalized Wronskian of the two branches at rho = 1, elementwise."""
    M = _product(_cells(_leg_edges(w, kappa, L), w[..., None], kappa[..., None], L[..., None]))
    yo, dyo = M[..., 0, 0] + M[..., 0, 1] * L, M[..., 1, 0] + M[..., 1, 1] * L   # M @ (1, L)
    # q depends on |t| only, so on the mirrored edges (h -> -h) each cell is exactly
    # diag(1, -1) M diag(1, -1): the inward leg from (1, -L) ends at exactly (yo, -dyo).
    yi, dyi = yo, -dyo
    duo, dui = dyo + 0.5 * yo, dyi + 0.5 * yi
    return (duo * yi - dui * yo) / (np.hypot(yo, duo) * np.hypot(yi, dui))


def shoot_couplings(states) -> list[ShootingResult]:
    """Recover the quantized couplings of many (N, kappa, l) states at once.

    The defect function is the normalized Wronskian mismatch of the regular
    (outward) and decaying (inward) branches at rho = 1; its sign change
    brackets exactly one eigencoupling.  Only the outward leg is propagated;
    the potential is even in ln rho, so the inward leg is its mirror image.
    Every state's defect is a vector element of one bracketed root search
    (``numkit.bracketed_root``), so a row is the same, bit for bit,
    whichever other states share the call.  Each bracket is +-30% around
    the closed-form ladder value, cut at (2 kappa (N + a - 1))^2 and
    (2 kappa (N + a))^2, a = 1/(2 kappa), which separate it from its ladder
    neighbours for every N and kappa; the root search itself never consults
    the closed form.

    Raises
    ------
    BracketError
        If the defect does not change sign over a state's bracket; the
        message names the state.
    ConvergenceError
        If a state's defect is not finite, or its root search stops without
        converging; the message names the state.
    """
    states = list(states)
    rows = []
    for N, kappa, l in states:
        kappa_f, _ = parse_kappa(kappa)
        state_quantum_numbers(N, l, kappa)  # validates the (N, l, kappa) combination
        w_bar = coupling_quantized(N, kappa_f)
        a = 0.5 / kappa_f
        bracket = (max(w_bar / 1.3, (2.0 * kappa_f * (N + a - 1.0)) ** 2),
                   min(w_bar * 1.3, (2.0 * kappa_f * (N + a)) ** 2))
        rows.append((kappa_f, l, *map(float, bracket)))
    kappas, ls, los, his = (np.array(col, dtype=float) for col in zip(*rows))
    with np.errstate(over="ignore", invalid="ignore"):   # a non-finite defect is raised below
        res = bracketed_root(_match_defect, los, his, args=(kappas, ls + 0.5))
    for i in np.flatnonzero(res.status != 0):
        (N, _, l), (kappa_f, _, lo, hi) = states[i], rows[i]
        name = f"N={N}, kappa={kappa_f}, l={l}"
        if res.status[i] == -1:
            raise BracketError(
                f"defect has no sign change on bracket ({lo:.6g}, {hi:.6g}) for {name}: "
                f"d(lo)={res.f_lo[i]:.3e}, d(hi)={res.f_hi[i]:.3e}")
        problem = ("the matching defect is not finite" if res.status[i] == -3 else
                   f"the root search did not converge in {res.nfev[i]} defect evaluations")
        raise ConvergenceError(f"{problem} on bracket ({lo:.6g}, {hi:.6g}) for {name}")

    return [ShootingResult(w_star=float(res.x[i]), match_defect=float(res.f_x[i]),
                           bracket=(rows[i][2], rows[i][3]),
                           defect_evaluations=int(res.nfev[i]),
                           kappa=rows[i][0], l=states[i][2])
            for i in range(len(states))]


def shoot_coupling(N: int, kappa, l: int) -> ShootingResult:
    """Recover one quantized coupling: the one-state call of shoot_couplings.

    Raises
    ------
    BracketError
        If the defect does not change sign over the bracket.
    """
    return shoot_couplings([(N, kappa, l)])[0]


def _assemble_eigenfunction(w: float, kappa: float, l: int, grid) -> SampledFunction:
    """The eigenfunction on the given grid from one outward scan to rho = 1.

    q is even in t = ln rho, so the decaying branch is the regular one
    mirrored, and at an eigencoupling the state is even or odd in t: the
    scan runs at -|t|, and the t > 0 half changes sign when y' is farther
    from a node than y at the joint.
    """
    t = np.log(grid)
    y, log_scale, (y0, dy0) = _scan(w, kappa, l, -np.abs(t), 0.0)
    if abs(y0) <= abs(dy0):
        y = np.where(t > 0.0, -y, y)
    return SampledFunction(grid, _as_u(t, y, log_scale))


# ======================================================================
# === Birth of the trapping pocket in the upper partner ===
# ======================================================================

@dataclass(frozen=True)
class CriticalPoint:
    """Simultaneous zero of the first two radial derivatives of U_+.

    Marks the angular momentum above which the upper partner develops a
    pocket (local minimum behind a barrier).  Residuals are the absolute
    values of dU_+/d rho and d^2U_+/d rho^2 at the returned point.
    """

    l_cr: float
    rho_cr: float
    slope_residual: float
    curvature_residual: float
    newton_iterations: int


def _pocket_indicator(l: float, kappa: float, rho_grid: np.ndarray) -> tuple[float, float]:
    """Largest slope of U_+ over the scan grid and its location."""
    slopes = partner_plus_dr(rho_grid, kappa, l)
    i = int(np.argmax(slopes))
    return float(slopes[i]), float(rho_grid[i])


def _largest_slopes(ls: np.ndarray, kappa: float, rho_grid: np.ndarray) -> list[float]:
    """_pocket_indicator's largest slope at each l, for 16 values of l per
    closed-form call: one call for all of them would hold far larger temporaries."""
    return np.concatenate([partner_plus_dr(rho_grid, kappa, ls[i:i + 16, None]).max(axis=1)
                           for i in range(0, len(ls), 16)]).tolist()


def critical_angular_all(kappa: float) -> list[CriticalPoint]:
    """All pocket-threshold points in the scan window l in (1, 20), rho in (0.1, 10).

    Below the threshold U_+ decreases monotonically (slope < 0 everywhere);
    above it a rising stretch appears.  The threshold in l is first located
    by deterministic bisection on the sign of the largest slope, then the
    pair (l_cr, rho_cr) is polished by the damped two-dimensional Newton on
    (dU_+/d rho, d^2 U_+/d rho^2) with analytic derivative evaluations.
    """
    if kappa <= 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    rho_grid = np.geomspace(0.1, 10.0, 241)
    l_grid = np.linspace(1.05, 20.0, 96)
    ind = _largest_slopes(l_grid, kappa, rho_grid)

    points: list[CriticalPoint] = []
    for i in range(len(l_grid) - 1):
        if not (ind[i] < 0.0 <= ind[i + 1] or ind[i] >= 0.0 > ind[i + 1]):
            continue
        lo, hi = float(l_grid[i]), float(l_grid[i + 1])
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            v, _rho = _pocket_indicator(mid, kappa, rho_grid)
            if (v < 0.0) == (ind[i] < 0.0):
                lo = mid
            else:
                hi = mid
        l_seed = 0.5 * (lo + hi)
        _, rho_seed = _pocket_indicator(l_seed, kappa, rho_grid)

        def F(z):
            l, rho = z
            return np.array([partner_plus_dr(rho, kappa, l),
                             partner_plus_d2r(rho, kappa, l)])

        x, fx, iters = newton2d(F, np.array([l_seed, rho_seed]))
        points.append(CriticalPoint(l_cr=float(x[0]), rho_cr=float(x[1]),
                                    slope_residual=abs(float(fx[0])),
                                    curvature_residual=abs(float(fx[1])),
                                    newton_iterations=iters))
    return points


def critical_angular(kappa: float) -> CriticalPoint:
    """First pocket-threshold point (see critical_angular_all).

    Raises
    ------
    ConvergenceError
        If no threshold exists in the scan window.
    """
    points = critical_angular_all(kappa)
    if not points:
        raise ConvergenceError(
            f"no pocket threshold found for kappa = {kappa} in the scan window")
    return points[0]


# ======================================================================
# === Classical zero-energy orbits ===
# ======================================================================
#
# Unit mass, total energy fixed at zero: |v| = sqrt(-2 U) everywhere.  For
# rational shape exponent kappa = k1/k2 every bounded orbit closes after
# k2 angular revolutions and re-focuses after half that.  The force is
# central, so the polar angle advances monotonically at the rate
# |L| / r^2 with L = x vy - y vx conserved: the accumulated angle |theta|
# is the integration clock, dX/d|theta| = (r^2 / |L|) dX/dt, and the state
# (x, y, vx, vy, t) carries the physical time.  Closure and focus then sit
# at fixed clock values (2 pi k2 and pi k2) and need no root search.

@dataclass(frozen=True)
class Trajectory:
    """A traced orbit plus its closure diagnostics.

    closure_defect is max(|r_end - r_start| / max(1, rho0),
    |v_end - v_start| / max(1, v0)) evaluated after k2 full revolutions;
    focal_point is the position after k2/2 revolutions.  energy_drift is
    the largest |E| along the orbit relative to |U(start)|, taken at
    ``samples`` points uniform in accumulated angle, both ends included.
    rhs_evaluations counts the integrator's right-hand-side calls.

    t, x, y, vx, vy are ``samples`` points uniform in time over
    [0, closure_time]; they are computed on first read from the dense
    orbit, by inverting the monotone t(theta).
    """

    kappa: float
    k1: int
    k2: int
    w: float
    closure_defect: float
    closure_time: float
    focal_point: tuple[float, float]
    focal_time: float
    energy_drift: float
    rhs_evaluations: int
    samples: int = field(repr=False, compare=False)
    orbit: object = field(repr=False, compare=False)   # numkit.dop853 result over |theta|

    @cached_property
    def t(self) -> np.ndarray:
        return np.linspace(0.0, self.closure_time, self.samples)

    @cached_property
    def _states(self) -> np.ndarray:
        return _states_at_times(self.orbit, self.t, self.closure_time)

    x = property(lambda self: self._states[0])
    y = property(lambda self: self._states[1])
    vx = property(lambda self: self._states[2])
    vy = property(lambda self: self._states[3])

    def path_on_angles(self, thetas) -> tuple[np.ndarray, np.ndarray]:
        """Positions (n, 2) and speeds (n,) at accumulated angles |theta|
        inside the traced span, read from the dense orbit without a new solve.

        The accumulated angle is monotonic (central force), so it serves as a
        parametrization-free clock: orbits traced at couplings w and 4w can be
        compared point by point on a shared angle grid.
        """
        angles = np.abs(np.asarray(thetas, dtype=float)).reshape(-1)
        if angles.size and not angles.max() <= self.orbit.t[-1]:   # NaN included
            raise ValueError(f"angle {angles.max():.6g} lies beyond the traced span "
                             f"{self.orbit.t[-1]:.6g}")
        x, y, vx, vy, _t = self.orbit.sol(angles)
        return np.column_stack([x, y]), np.hypot(vx, vy)


# At most 1/64 revolution per step.  Past a deep pericenter the clock otherwise
# takes long steps whose dense output errs ten times more than the step ends
# (near-radial launches: max |E| 1.4e-9 between steps against 1.0e-10 at them).
_MAX_ANGLE_STEP = 2.0 * math.pi / 64.0
_RTOL = 1e-12   # DOP853 relative tolerance of every orbit (atol 1e-14)
# Caps on a traced orbit: each revolution is at least 64 steps, all kept as
# dense output, and every sample is an array column.
_MAX_REVOLUTIONS = 100
_MAX_SAMPLES = 1_000_000


def _angle_rhs(kappa: float, w: float, inv_l: float):
    """dX/d|theta| = (r^2 / |L|) dX/dt for the state X = (x, y, vx, vy, t)."""
    # acc = (dU/d rho) (r^2 / |L|) / r, with dU/d rho =
    # 2 w rho^(2k-3) [(1-k) + (1+k) rho^(2k)] / (1 + rho^(2k))^3 and
    # rho^(2k-3) = rho^(2k) / r^3 from the one power per call
    lo, hi, gain = 1.0 - kappa, 1.0 + kappa, 2.0 * w * inv_l

    def rhs(theta, s):
        x, y, vx, vy, _t = s.tolist()   # Python floats: faster than numpy scalars
        r2 = x * x + y * y
        dt = r2 * inv_l
        p = r2 ** kappa
        acc = gain * p * (lo + hi * p) / ((1.0 + p) ** 3 * r2)
        return [dt * vx, dt * vy, -acc * x, -acc * y, dt]
    return rhs


def _integrate_orbit(kappa: float, w: float, rho0: float, angle: float,
                     direction_deg: float):
    """DOP853 from |theta| = 0 to ``angle``, with dense output."""
    if not 1e-6 <= _check_rho(rho0, "rho0") <= 1e3:
        raise ValueError(f"rho0 must lie within the guard radii [1e-6, 1e3], got {rho0!r}")
    # a non-finite angle never ends the integration; inf % 360 is NaN
    if not angle <= 2.0 * math.pi * _MAX_REVOLUTIONS:
        raise ValueError(f"the traced span must be finite and at most {_MAX_REVOLUTIONS} "
                         f"revolutions, got {angle / (2.0 * math.pi)!r}")
    if not math.isfinite(direction_deg):
        raise ValueError(f"direction must be finite, got {direction_deg!r} deg")
    d = direction_deg % 360.0
    if d == 0.0:
        # L = 0 outward: the orbit creeps out at ever lower speed, never turning
        raise ValueError(f"direction {direction_deg!r} deg is a radial launch outward; "
                         "it has no angular momentum and never accumulates an angle")
    if d == 180.0:
        # L = 0 inward: the angle clock has no rate, and the plunge hits the origin
        raise GeometryError(f"direction {direction_deg!r} deg is a radial plunge; "
                            "with no angular momentum it reaches the origin",
                            kind="origin", rho=1e-6)
    v0 = math.sqrt(-2.0 * potential(rho0, w, kappa))
    # a launch below the x axis is the exact mirror of the one at 360 - d above it
    phi = math.radians(min(d, 360.0 - d))
    state0 = [rho0, 0.0, v0 * math.cos(phi), math.copysign(v0 * math.sin(phi), 180.0 - d), 0.0]
    inv_l = 1.0 / abs(rho0 * state0[3])

    def guard(theta, s):   # on each accepted step
        r = math.hypot(s[0], s[1])
        if r < 1e-6:
            raise GeometryError(f"orbit reached the origin at t = {s[4]:.6g}",
                                kind="origin", rho=1e-6)
        if r > 1e3:
            raise GeometryError(f"orbit escaped beyond rho = 1e3 at t = {s[4]:.6g}",
                                kind="escape", rho=1e3)

    sol = solve_ivp(_angle_rhs(kappa, w, inv_l), (0.0, angle), state0, rtol=_RTOL,
                    atol=1e-14, max_step=_MAX_ANGLE_STEP, check=guard)
    return sol, np.array(state0), v0


def _states_at_times(sol, times: np.ndarray, t_end: float) -> np.ndarray:
    """Dense states (x, y, vx, vy, t) at the given physical times.

    Inverts the monotone t(|theta|) by Newton steps with dt/d|theta| = r^2/|L|,
    started from linear interpolation over the accepted steps.
    """
    s0 = sol.y[:, 0]
    abs_l = abs(s0[0] * s0[3] - s0[1] * s0[2])
    theta = np.interp(times, sol.y[4], sol.t)
    for _ in range(30):
        s = sol.sol(theta)
        resid = s[4] - times
        if np.max(np.abs(resid), initial=0.0) <= 1e-13 * t_end:
            return s
        theta = np.clip(theta - resid * abs_l / (s[0] ** 2 + s[1] ** 2),
                        sol.t[0], sol.t[-1])
    raise ConvergenceError("time-uniform orbit samples did not converge")


def classical_trajectory(kappa, w: float, rho0: float,
                         direction_deg: float = 90.0,
                         samples: int = 1000,
                         revolutions: float | None = None) -> Trajectory:
    """Trace a zero-energy orbit and diagnose closure.

    ``kappa`` must carry an exact rational value k1/k2 (string "k1/k2",
    Fraction, or a float with a small-denominator representation); the
    closure claim is specific to rational shape exponents.  The traced span
    defaults to the closure span of k2 full revolutions; with an explicit
    ``revolutions`` the start-vs-end defect is still reported but only
    measures closure when the span is a multiple of k2.  The span is at
    most 100 revolutions and ``samples`` at most 10^6; larger requests are
    refused before any integration.
    """
    kappa_f, exact = parse_kappa(kappa)
    if exact is None:
        raise ValueError("closure tracing needs an exact rational kappa = k1/k2")
    _check_coupling(w)
    k1, k2 = exact.numerator, exact.denominator
    revs = float(k2) if revolutions is None else float(revolutions)
    if not revs > 0:
        raise ValueError(f"revolutions must be positive, got {revs!r}")
    if not 2 <= samples <= _MAX_SAMPLES:
        raise ValueError(f"samples must be between 2 and {_MAX_SAMPLES}, got {samples}")

    sol, s0, v0 = _integrate_orbit(kappa_f, w, rho0, 2.0 * math.pi * revs, direction_deg)
    s_close = sol.y[:, -1]
    dr = math.hypot(s_close[0] - s0[0], s_close[1] - s0[1])
    dv = math.hypot(s_close[2] - s0[2], s_close[3] - s0[3])
    defect = max(dr / max(1.0, rho0), dv / max(1.0, v0))

    # Focal passage: position after half the traced span.
    s_half = sol.sol(math.pi * revs)

    ys = sol.sol(np.linspace(0.0, sol.t[-1], samples))
    energy = 0.5 * (ys[2] ** 2 + ys[3] ** 2) + potential(np.hypot(ys[0], ys[1]), w, kappa_f)
    drift = float(np.max(np.abs(energy)) / abs(potential(rho0, w, kappa_f)))

    return Trajectory(kappa=kappa_f, k1=k1, k2=k2, w=w,
                      closure_defect=float(defect), closure_time=float(s_close[4]),
                      focal_point=(float(s_half[0]), float(s_half[1])),
                      focal_time=float(s_half[4]),
                      energy_drift=drift, rhs_evaluations=int(sol.nfev),
                      samples=samples, orbit=sol)
