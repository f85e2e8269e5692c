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

from .exceptions import ConvergenceError, GeometryError
from .model import (SampledFunction, _check_coupling, _check_grid, _check_rho,
                    coupling_quantized, parse_kappa, potential, state_quantum_numbers)
from .numkit import _distinct, bracketed_root, newton2d, straight_line_rhs
from .numkit import dop853 as solve_ivp  # the orbit integrator; tracers and tests swap this name
from . import susy
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
_CELL_FLOOR, _CELL_CAP = 200, 500_000   # Magnus cells per shooting leg (_leg_cells)
_TAIL = 1e-17     # potential term, relative to (l+1/2)^2, where the legs start
_GAUSS = math.sqrt(15.0) / 10.0   # Gauss points sit at mid and mid -+ _GAUSS * h


# ======================================================================
# === Radial problem at zero energy ===
# ======================================================================
#
# -u'' + [ l(l+1)/rho^2 + U(rho) ] u = 0 becomes, in t = ln rho with
# u = rho^(1/2) y, the Poeschl-Teller problem y'' = q(t) y with
# q(t) = L^2 - w / (4 cosh^2(kappa t)) and L = l + 1/2, integrated as
# Y' = [[0, 1], [q, 0]] Y by the 6th-order Magnus propagator with three Gauss
# points per cell.  Far out on either side q = L^2 to rounding, so the
# regular branch starts as Y = (1, L) at t = -T and the decaying branch as
# Y = (1, -L) at t = +T.  At rho = 1, du/drho = y' + y/2.

def _leg_cells(w, kappa, L):
    """Magnus cells per leg, elementwise: the floor, one per radian of the well's
    WKB phase (pi/kappa) max(0, sqrt(w)/2 - L), or 4 phase^(1/3) / sqrt(kappa),
    whichever is most.  Measured relative coupling errors: the floor keeps the
    verify states under 1e-12, the phase count large N near 3e-4/N^2, and the
    last small kappa near 1e-6 of the rung spacing 2 kappa."""
    phase = np.pi / kappa * np.maximum(0.5 * np.sqrt(w) - L, 0.0)
    n = np.ceil(np.maximum(np.maximum(phase, 4.0 * np.cbrt(phase) / np.sqrt(kappa)), _CELL_FLOOR))
    if np.any(n > _CELL_CAP):
        raise ConvergenceError(f"the shooting legs need {np.max(n):.6g} Magnus cells, "
                               f"past the cap of {_CELL_CAP} per leg")
    return n


def _leg_edges(w, kappa, L) -> np.ndarray:
    """Edges of the outward leg, t = -T ... 0, along a new last axis.

    T is where w / (4 cosh^2(kappa T)) falls to _TAIL * L^2 (at least 1).
    The edges are uniform in s = (1 - e^(-c|t|)) / c with c = kappa/3, so
    cells widen like e^(kappa |t| / 3) into the tail, where q's derivatives
    fall off like e^(-2 kappa |t|).  Parameters broadcast, one leg per element;
    a leg of fewer cells than the longest ends in empty ones (identities).
    """
    w, kappa, L = (np.asarray(x, dtype=float)[..., None] for x in (w, kappa, L))
    T = np.maximum(np.log(w / (4.0 * _TAIL * L * L)) / (2.0 * kappa), 1.0)
    n = _leg_cells(w, kappa, L)
    u = np.minimum(np.arange(int(n.max()) + 1), n) / n
    return np.log(u + np.exp(-kappa * T / 3.0) * (1.0 - u)) * (3.0 / kappa)


def _cells(t: np.ndarray, w: float, kappa: float, L: float) -> tuple[np.ndarray, np.ndarray]:
    """Magnus propagators over the cells between consecutive edges t, and
    their log growth.

    A = [[0, 1], [q, 0]] and its commutators have two zero entries each, so the
    6th-order Omega (Blanes, Casas & Ros, BIT 40 (2000) 434) is [[a, b], [c, -a]]
    and exp(Omega) = cosh(r) I + sinh(r)/r Omega, r^2 = a^2 + b c (cos, sin when
    r^2 < 0).  A growing cell (r^2 > 0) is scaled by its own exp(-r), returned
    as its log growth r; an oscillating cell is left unscaled, log growth 0.  So
    no cell or product carries exponential growth or decay, nor over- or
    underflows where q dips below L^2.  Edges may run either way along the last axis.
    """
    h, mid = np.diff(t, axis=-1), 0.5 * (t[..., 1:] + t[..., :-1])

    def q(x):
        z = np.exp(-2.0 * kappa * np.abs(x))   # 1/(4 cosh^2) = z/(1+z)^2
        return L * L - w * z / (1.0 + z) ** 2

    q1, q2, q3 = q(mid - _GAUSS * h), q(mid), q(mid + _GAUSS * h)
    d1, d2 = q3 - q1, q3 - 2.0 * q2 + q1
    del mid, q1, q3   # these arrays set a verify pass's memory peak: each goes when done
    hh, p = h * h, d1 * d1
    a = math.sqrt(15.0) * hh * d1 * (hh * (12.0 * q2 + d2) / 6480.0 - 1.0 / 36.0)
    b = h * (1.0 + hh * (hh * p / 2160.0 - d2 / 54.0))
    c = h * (q2 + 5.0 * d2 / 18.0
             + hh * (d2 * (6.0 * q2 + d2) / 324.0 + p * (hh * q2 / 2160.0 - 1.0 / 72.0)))
    del d1, q2, d2, hh, p
    r = a * a + b * c
    grow = np.sqrt(np.maximum(r, 0.0))
    r = np.sqrt(np.maximum(-r, 0.0, out=r), out=r)   # the angle of an oscillating cell
    ch, sh = np.cos(r), np.sinc(r / np.pi)
    e = np.expm1(np.multiply(grow, -2.0, out=r), out=r)   # exp(-2 grow) - 1
    sh *= np.divide(e, -2.0 * grow, out=np.ones_like(e), where=grow > 0.0)
    ch *= 1.0 + 0.5 * e
    for x in (a, b, c):
        x *= sh
    M = np.stack([ch + a, b, c, np.subtract(ch, a, out=ch)], axis=-1)
    return M.reshape(h.shape + (2, 2)), grow


def _product(M: np.ndarray) -> np.ndarray:
    """Ordered product M[n-1] @ ... @ M[0] over the cell axis, pairwise."""
    while M.shape[-3] > 1:
        if M.shape[-3] % 2:
            M = np.concatenate([M, np.broadcast_to(np.eye(2), M[..., :1, :, :].shape)], axis=-3)
        M = M[..., 1::2, :, :] @ M[..., 0::2, :, :]
    return M[..., 0, :, :]


def integrate_radial(w: float, kappa: float, l: int, grid) -> SampledFunction:
    """Outward zero-energy integration of the half-line problem onto a grid.

    Starts the regular branch u ~ rho^(l+1) in the small-radius tail and
    returns u sampled on the grid, rescaled to unit sup-norm (the absolute
    scale of a linear homogeneous solution is a convention).  At a
    quantized coupling this reproduces the bound-family u; away from one
    the returned samples grow ~ rho^(l+1) at large radius.

    The branch runs on the graded shooting cells split at every grid point:
    one pairwise product up to the first point, then a sequential scan that
    keeps (y, y') at unit 1-norm and its size, with the cells' log growth,
    in log space.

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
    L = l + 0.5
    leg = _leg_edges(w, kappa, L)
    base = np.concatenate([leg, -leg[-2::-1]])
    edges = _distinct(np.concatenate([base, t, [min(base[0], t[0])]]))
    edges = edges[edges <= t[-1]]
    idx = np.searchsorted(edges, t)
    M, grow = _cells(edges, w, kappa, L)
    first = int(idx[0])
    y, dy = (_product(M[:first]) @ (1.0, L)).tolist() if first else (1.0, L)
    ys, logs, lg = [], [], 0.0   # the leading identity cell records the first point
    for m00, m01, m10, m11 in [(1.0, 0.0, 0.0, 1.0)] + M[first:].reshape(-1, 4).tolist():
        y, dy = m00 * y + m01 * dy, m10 * y + m11 * dy
        n = abs(y) + abs(dy)
        y, dy, lg = y / n, dy / n, lg + math.log(n)
        ys.append(y)
        logs.append(lg)
    log_scale = (np.asarray(logs) + np.cumsum(np.concatenate([[0.0], grow[first:]])))[idx - first]
    log_size = 0.5 * t + log_scale   # u = rho^(1/2) y
    over = np.nonzero(log_size - log_size[0] > math.log(_OVERFLOW_LIMIT))[0]
    if len(over):
        raise ConvergenceError(
            f"radial solution overflowed at rho = {grid[over[0]]:.6g} "
            f"(w = {w}, kappa = {kappa}, l = {l})")
    u = np.asarray(ys)[idx - first] * np.exp(log_size - np.max(log_size))
    return SampledFunction(grid, u / np.max(np.abs(u)))


@dataclass(frozen=True)
class ShootingResult:
    """Eigencoupling found by shooting one leg and mirroring it.

    match_defect is the scale-normalized Wronskian of the outward and
    inward branches at the matching radius rho = 1 (zero iff the branches
    are proportional; stays regular even when the eigenfunction has a node
    exactly at the matching radius).
    """

    w_star: float
    match_defect: float
    bracket: tuple[float, float]
    defect_evaluations: int


def _match_defect(w, kappa, L):
    """Scale-normalized Wronskian of the two branches at rho = 1, elementwise."""
    # the defect is scale-free, so the cells' log growth is not needed
    M = _product(_cells(_leg_edges(w, kappa, L), w[..., None], kappa[..., None], L[..., None])[0])
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
    (``numkit.bracketed_root``) on legs padded with identities to the longest
    (memory goes as states x longest leg), so a row is the same, bit for bit,
    whichever other states share the call.  Each bracket is +-30% around the
    closed-form ladder value, cut at (2 kappa (N + a - 1))^2 and (2 kappa
    (N + a))^2, a = 1/(2 kappa), which separate it from its ladder neighbours
    for every N and kappa; the root search itself never consults it.

    Raises
    ------
    ConvergenceError
        If a leg needs more than _CELL_CAP cells (the message names the cap), or
        a state's defect does not change sign over its bracket, is not finite,
        or its root search stops without converging (the message names it).
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
    with np.errstate(all="ignore"):   # a non-finite defect is raised below
        res = bracketed_root(_match_defect, los, his, args=(kappas, ls + 0.5))
    for i in np.flatnonzero(res.status != 0):
        (N, _, l), (kappa_f, _, lo, hi) = states[i], rows[i]
        status, name = res.status[i], f"N={N}, kappa={kappa_f}, l={l}"
        problem = ("defect has no sign change" if status == -1 else
                   "the matching defect is not finite" if status == -3 else
                   f"the root search did not converge in {res.nfev[i]} defect evaluations")
        ends = f": d(lo)={res.f_lo[i]:.3e}, d(hi)={res.f_hi[i]:.3e}" if status == -1 else ""
        raise ConvergenceError(f"{problem} on bracket ({lo:.6g}, {hi:.6g}) for {name}{ends}")

    return [ShootingResult(w_star=float(res.x[i]), match_defect=float(res.f_x[i]),
                           bracket=(rows[i][2], rows[i][3]),
                           defect_evaluations=int(res.nfev[i]))
            for i in range(len(states))]


def shoot_coupling(N: int, kappa, l: int) -> ShootingResult:
    """Recover one quantized coupling: the one-state call of shoot_couplings."""
    return shoot_couplings([(N, kappa, l)])[0]


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


@np.errstate(all="ignore")   # non-finite coefficients are raised; T = 0 is rho = inf
def _common_zeros(T, kappa: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """R = m^2 - n o, l = -m/n and rho at T = 1/(1 + rho^(2 kappa)).  The slope and
    curvature numerators of U_+ (susy's, read at each call) are quadratics in l, each
    taken from its values F at l = 0, 1, -1, with the common root l where their Sylvester
    resultant R vanishes (Cox, Little & O'Shea, ch. 3).  Unit-scaled coefficients keep R
    finite; its sign and l stay."""
    B = susy._numerators_t(T, kappa, np.array([[0.0], [1.0], [-1.0]]), 3)   # rows l = 0, 1, -1
    quadratics = []
    for name, (F0, F1, Fm) in (("slope", susy._u_plus_slope(*B[:3])),
                               ("curvature", susy._u_plus_curvature(*B))):
        q = np.array([F0, 0.5 * (F1 - Fm), 0.5 * (F1 + Fm) - F0])
        if not np.all(np.isfinite(q)):
            raise ConvergenceError(f"the {name} of U_+ is not finite for kappa = {kappa}")
        quadratics.append(q / np.max(np.abs(q), axis=0))
    c, d = quadratics
    m, n, o = c[2] * d[0] - c[0] * d[2], c[2] * d[1] - c[1] * d[2], c[1] * d[0] - c[0] * d[1]
    return m * m - n * o, -m / n, ((1.0 - T) / T) ** (0.5 / kappa)


def _accepts(l: float, rho: float, kappa: float) -> bool:
    """(l, rho) lies in the window, and the slope of U_+ has a maximum at rho: the
    curvature is + and - at 1e-4 of the feature width 1/(2 kappa) in and out."""
    if not (1.0 < l < 20.0 and 0.1 < rho < 10.0):
        return False
    h = 1e-4 / (2.0 * kappa)
    inside, outside = partner_plus_d2r(rho * np.array([1.0 - h, 1.0 + h]), kappa, l)
    return inside > 0.0 > outside


def critical_angular_all(kappa: float) -> list[CriticalPoint]:
    """All pocket-threshold points in the window l in (1, 20), rho in (0.1, 10), by l.

    At a threshold the slope and curvature of U_+ vanish together, at a maximum
    of the slope: at a root T of the resultant of _common_zeros, on one T grid
    for every kappa (U_+'s features of width 1/kappa are O(1) wide in T).  Newton
    polishes each candidate that _accepts on F = 1e-2 (slope, curvature), so its
    stop |F| < 1e-10 is the acceptance bound 1e-8, above F's rounding floor
    (1e-10 at kappa ~ 22); the result must pass _accepts again.  A failed search
    or polish is a ConvergenceError.
    """
    if kappa <= 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    t_hi = 1.0 / (1.0 + 0.1 ** (2.0 * kappa))   # rho = 0.1; rho = 10 is at 1 - t_hi
    T = np.linspace(1.0 - t_hi, t_hi, 512)      # 256 points find every threshold of the tests
    r = _common_zeros(T, kappa)[0]
    i = np.flatnonzero((r[:-1] < 0.0) != (r[1:] < 0.0))
    res = bracketed_root(lambda t: _common_zeros(t, kappa)[0], T[i], T[i + 1])
    if np.any(res.status != 0):
        raise ConvergenceError(f"the threshold search failed for kappa = {kappa}")

    def F(z):
        l, rho = z
        return 1e-2 * np.array([partner_plus_dr(rho, kappa, l), partner_plus_d2r(rho, kappa, l)])
    points = []
    for seed in zip(*(v.tolist() for v in _common_zeros(res.x, kappa)[1:])):
        if not _accepts(*seed, kappa):
            continue
        try:
            x, fx, iters = newton2d(F, np.array(seed))
        except (ConvergenceError, ValueError) as exc:   # ValueError: an iterate at rho <= 0
            raise ConvergenceError(f"the Newton polish failed: {exc} (kappa = {kappa}, "
                                   f"candidate (l, rho) = {seed!r})") from exc
        if _accepts(*x.tolist(), kappa):
            points.append(CriticalPoint(*x.tolist(), *np.abs(1e2 * fx).tolist(), iters))
    return sorted(points, key=lambda cp: cp.l_cr)


def critical_angular(kappa: float) -> CriticalPoint:
    """The first point of critical_angular_all; a ConvergenceError if it has none."""
    points = critical_angular_all(kappa)
    if not points:
        raise ConvergenceError(f"no pocket threshold found for kappa = {kappa} in the scan window")
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
    the largest |E| along the orbit relative to the largest |U| along it,
    each read at ``samples`` points uniform in accumulated angle, ends
    included.
    rhs_evaluations counts the integrator's right-hand-side calls.

    t, x, y, vx, vy are ``samples`` points uniform in time over
    [0, closure_time]; they are computed on first read from the dense
    orbit, at the angles where its clock reads each time.
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
        return _states_at_times(self.orbit, self.t)

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


# dX/d|theta| = (r^2 / |L|) dX/dt for the state X = (x, y, vx, vy, t), with
# acc = (dU/d rho) (r^2 / |L|) / r, where dU/d rho =
# 2 w rho^(2k-3) [(1-k) + (1+k) rho^(2k)] / (1 + rho^(2k))^3 and
# rho^(2k-3) = rho^(2k) / r^3 from the one power per call
_ANGLE_RHS = """
def rhs(theta, x, y, vx, vy, clock):
    r2 = x * x + y * y
    dt = r2 * inv_l
    p = r2 ** kappa
    acc = gain * p * (lo + hi * p) / ((1.0 + p) ** 3 * r2)
    return dt * vx, dt * vy, -acc * x, -acc * y, dt
"""


def _angle_rhs(kappa: float, w: float, inv_l: float):
    """The orbit's right-hand side in the accumulated angle, as straight-line source."""
    return straight_line_rhs(_ANGLE_RHS, kappa=kappa, inv_l=inv_l, lo=1.0 - kappa,
                             hi=1.0 + kappa, gain=2.0 * w * inv_l)


def _integrate_orbit(kappa: float, w: float, rho0: float, angle: float,
                     direction_deg: float):
    """DOP853 from |theta| = 0 to ``angle``, with dense output."""
    if not 1e-6 <= _check_rho(rho0, "rho0")[0] <= 1e3:
        raise ValueError(f"rho0 must lie within the guard radii [1e-6, 1e3], got {rho0!r}")
    # a non-finite angle never ends the integration; inf % 360 is NaN
    if not angle <= 2.0 * math.pi * _MAX_REVOLUTIONS:
        raise ValueError(f"the traced span must be finite and at most {_MAX_REVOLUTIONS} "
                         f"revolutions, got {angle / (2.0 * math.pi)!r}")
    if not math.isfinite(direction_deg):
        raise ValueError(f"direction must be finite, got {direction_deg!r} deg")
    d = direction_deg % 360.0
    if d == 180.0:
        # L = 0 inward: the angle clock has no rate, and the plunge hits the origin
        raise GeometryError(f"direction {direction_deg!r} deg is a radial plunge; "
                            "with no angular momentum it reaches the origin",
                            kind="origin", rho=1e-6)
    v0 = math.sqrt(-2.0 * potential(rho0, w, kappa))
    # a launch below the x axis is the exact mirror of the one at 360 - d above it
    phi = math.radians(min(d, 360.0 - d))
    state0 = [rho0, 0.0, v0 * math.cos(phi), math.copysign(v0 * math.sin(phi), 180.0 - d), 0.0]
    momentum = abs(rho0 * state0[3])
    inv_l = 1.0 / momentum if momentum else math.inf
    if not math.isfinite(2.0 * w * inv_l):   # finite iff every parameter the orbit binds is
        # L = 0 outward (d = 0, or so near it that L underflows or 1/L or 2w/L passes
        # the float range): the orbit creeps out at ever lower speed, never turning
        raise ValueError(f"direction {direction_deg!r} deg is a radial launch outward; "
                         "it has no angular momentum and never accumulates an angle")

    def guard(theta, s):   # on each accepted step
        r = math.hypot(s[0], s[1])
        if r < 1e-6:
            raise GeometryError(f"orbit reached the origin at t = {s[4]:.6g}",
                                kind="origin", rho=1e-6)
        if r > 1e3:
            raise GeometryError(f"orbit escaped beyond rho = 1e3 at t = {s[4]:.6g}",
                                kind="escape", rho=1e3)

    try:
        sol = solve_ivp(_angle_rhs(kappa, w, inv_l), (0.0, angle), state0, rtol=_RTOL,
                        atol=1e-14, max_step=_MAX_ANGLE_STEP, check=guard)
    except ConvergenceError as exc:
        raise ConvergenceError(f"direction {direction_deg!r} deg launches with angular momentum "
                               f"L = {momentum:.3g}: {exc}") from exc
    return sol, np.array(state0), v0


def _states_at_times(sol, times: np.ndarray) -> np.ndarray:
    """Dense states (x, y, vx, vy, t) at the given physical times.

    t(|theta|) is monotone, so the accepted step whose end clocks hold a
    time brackets the one angle where the clock reads it.
    """
    i = np.clip(np.searchsorted(sol.y[4], times), 1, len(sol.t) - 1)
    res = bracketed_root(lambda theta, time: sol.sol(theta)[4] - time,
                         sol.t[i - 1], sol.t[i], args=(times,))
    if np.any(res.status != 0):
        raise ConvergenceError("time-uniform orbit samples did not converge")
    return sol.sol(res.x)


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
    U = potential(np.hypot(ys[0], ys[1]), w, kappa_f)
    drift = float(np.max(np.abs(0.5 * (ys[2] ** 2 + ys[3] ** 2) + U)) / np.max(np.abs(U)))

    return Trajectory(kappa=kappa_f, k1=k1, k2=k2, w=w,
                      closure_defect=float(defect), closure_time=float(s_close[4]),
                      focal_point=(float(s_half[0]), float(s_half[1])),
                      focal_time=float(s_half[4]),
                      energy_drift=drift, rhs_evaluations=int(sol.nfev),
                      samples=samples, orbit=sol)
