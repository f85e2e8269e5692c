"""Numerical kernel: ultraspherical polynomials, adaptive quadrature,
finite differences, a damped 2-D Newton iteration, a bracketed root search,
an embedded Runge-Kutta integrator with dense output and the CSV writer.

Everything in here is generic plumbing used by the physics modules; nothing
knows about potentials.  The quadrature is a nested Gauss(7)/Kronrod(15)
rule that refines many integrals in one vectorised sweep per step, which
doubles as the oracle for the closed-form integrals checked elsewhere, so
it keeps explicit error accounting instead of hiding it behind a library
call.
"""

from __future__ import annotations

import ast
import math
from functools import cache, reduce
from itertools import chain, repeat
from struct import Struct
from types import SimpleNamespace

import numpy as np

from .exceptions import ConvergenceError, QuadratureError

__all__ = [
    "gegenbauer_eval",
    "integrate_adaptive",
    "derivative",
    "fornberg_weights",
    "grid_derivative",
    "newton2d",
    "bracketed_root",
    "dop853",
    "straight_line_rhs",
]


# =====================================================================
# Ultraspherical (Gegenbauer) polynomials
# =====================================================================
#
# Three-term recurrence:
#     C_0(x) = 1
#     C_1(x) = 2 q x
#     p C_p(x) = 2 x (p + q - 1) C_{p-1}(x) - (p + 2 q - 2) C_{p-2}(x)
#
# The parameter q may be any real number (the physics needs half-integer
# and third-integer values); the degree p must be a non-negative integer.

def gegenbauer_eval(p: int, q: float, x):
    """Evaluate the ultraspherical polynomial C_p^(q) at x.

    Parameters
    ----------
    p : int
        Polynomial degree, >= 0.
    q : float
        Real order parameter (non-integer values allowed).
    x : float or ndarray
        Argument(s) in [-1, 1].

    Returns
    -------
    float or ndarray
        C_p^(q)(x), matching the shape of ``x``.
    """
    if not isinstance(p, (int, np.integer)) or isinstance(p, bool):
        raise ValueError(f"degree p must be an integer, got {p!r}")
    if p < 0:
        raise ValueError(f"degree p must be non-negative, got {p}")
    xs = np.asarray(x, dtype=float)   # x itself when it is a float array: read, never written
    # fmin/fmax skip a NaN, which passes through as a NaN value
    if (np.fmin.reduce(xs, axis=None, initial=-1.0) < -1.0 - 1e-14
            or np.fmax.reduce(xs, axis=None, initial=1.0) > 1.0 + 1e-14):
        raise ValueError("argument outside [-1, 1]")

    if p == 0:
        ones = np.ones_like(xs)
        return ones if isinstance(x, np.ndarray) else float(ones)
    def twice(c):   # 2 x c in one pass as x (2c): doubling is exact, so the bits are (2x) c's
        return xs * (2.0 * c) if math.isfinite(2.0 * c) else 2.0 * xs * c

    # C_0 = 1 stays a scalar, and 2x c is formed anew where it is used: two arrays fewer
    c_prev, c_cur = 1.0, twice(q)
    for k in range(2, p + 1):
        c_next = twice((k + q - 1.0) / k)
        c_next *= c_cur
        c_prev *= (k + 2.0 * q - 2.0) / k
        c_next -= c_prev
        c_prev, c_cur = c_cur, c_next
    return c_cur if isinstance(x, np.ndarray) else float(c_cur)


# =====================================================================
# Adaptive Gauss-Kronrod quadrature
# =====================================================================
#
# 15-point Kronrod extension of the 7-point Gauss rule (nodes/weights are
# the standard QUADPACK constants).  The embedded pair gives a per-panel
# error estimate |K15 - G7|.  Many integrals are refined together: each
# sweep bisects, in every unconverged integral, the panels whose estimate
# is at or above that integral's mean panel estimate, and evaluates all new
# nodes in one integrand call.  Panels are open at their endpoints (no node
# sits on a boundary), so integrable endpoint singularities are fine as
# long as the integrand is finite at every interior node.

_KRONROD_NODES = np.array([
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691,
    -0.7415311855993944, -0.5860872354676911, -0.4058451513773972,
    -0.2077849550078985, 0.0,
    0.2077849550078985, 0.4058451513773972, 0.5860872354676911,
    0.7415311855993944, 0.8648644233597691, 0.9491079123427585,
    0.9914553711208126,
])

_KRONROD_WEIGHTS = np.array([
    0.0229353220105292, 0.0630920926299786, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
    0.2044329400752989, 0.1903505780647854, 0.1690047266392679,
    0.1406532597155259, 0.1047900103222502, 0.0630920926299786,
    0.0229353220105292,
])

# Gauss-7 weights attach to Kronrod nodes 1, 3, 5, ..., 13.
_GAUSS_WEIGHTS = np.array([
    0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
    0.4179591836734694, 0.3818300505051189, 0.2797053914892767,
    0.1294849661688697,
])
_GAUSS_SLOTS = slice(1, 14, 2)
_MAX_PANELS = 4000   # panel evaluations per integral before it counts as stalled


def _panels(f, a, b):
    """One Gauss-Kronrod pass over each panel [a_i, b_i], all nodes in one
    call of f: returns (K15 values, error estimates).

    Each weighted sum runs over the nodes in a fixed order, so a panel's
    value does not depend on which other panels share the call.
    """
    half = 0.5 * (b - a)
    x = 0.5 * (a + b) + half * _KRONROD_NODES[:, None]   # (15, panels)
    fx = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    k15 = half * reduce(np.add, _KRONROD_WEIGHTS[:, None] * fx)
    g7 = half * reduce(np.add, _GAUSS_WEIGHTS[:, None] * fx[_GAUSS_SLOTS])
    return k15, np.abs(k15 - g7)


def integrate_adaptive(f, a, b):
    """Integrate f over the finite interval (a, b) with nested-rule refinement.

    ``a`` and ``b`` are scalars or broadcastable arrays of limits, one
    integral per element; scalar limits give a float, array limits an array
    of their broadcast shape.  ``f`` must accept an ndarray of abscissae and
    return values elementwise; it is called once per refinement sweep, with
    the nodes of every integral still refining.  Each integral stops on its
    own when its summed error estimate is at most ``1e-10 (1 + |I|)``.

    Raises
    ------
    QuadratureError
        If an integral's estimate is not finite (the message names its
        limits), or its summed error estimate still exceeds the tolerance
        after 4000 panel evaluations (``_MAX_PANELS``).  The exception carries the
        best estimate and its bound for the worst such integral.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    shape = a.shape
    lo, hi = a.flatten(), b.flatten()
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError("interval endpoints must be finite")
    sign = np.where(hi < lo, -1.0, 1.0)
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)

    n = lo.size
    result = np.zeros(n)
    evaluated = np.zeros(n, dtype=int)
    own, pa, pb, val, err = np.zeros(0, dtype=int), *np.zeros((4, 0))
    new_own = np.flatnonzero(lo < hi)   # the integral each panel belongs to; a == b stays 0
    new_a, new_b = lo[new_own], hi[new_own]
    while new_own.size:
        with np.errstate(all="ignore"):   # a non-finite estimate is raised below
            new_val, new_err = _panels(f, new_a, new_b)
        evaluated += np.bincount(new_own, minlength=n)
        own, pa, pb, val, err = (np.concatenate(pair) for pair in (
            (own, new_own), (pa, new_a), (pb, new_b), (val, new_val), (err, new_err)))
        # per-integral sums run in panel order, whatever else is in the batch
        total = np.bincount(own, val, n)
        bound = np.bincount(own, err, n)
        count = np.bincount(own, minlength=n)
        finite = np.isfinite(total) & np.isfinite(bound)   # their sum may overflow
        if not finite.all():   # NaN and inf never fail the test below
            k = np.argmin(finite)
            raise QuadratureError(f"the integral estimate is not finite on ({float(a.flat[k])!r}, "
                                  f"{float(b.flat[k])!r})", math.nan, math.inf)
        refine = (count > 0) & (bound > 1e-10 * (1.0 + np.abs(total)))
        settled = (count > 0) & ~refine
        result[settled] = total[settled]
        stalled = refine & (evaluated >= _MAX_PANELS)
        if stalled.any():
            worst = np.flatnonzero(stalled)[
                np.argmax(bound[stalled] / (1.0 + np.abs(total[stalled])))]
            raise QuadratureError(
                f"quadrature stalled at error bound {bound[worst]:.3e} "
                f"after {evaluated[worst]} panels",
                best_estimate=float(sign[worst] * total[worst]),
                error_bound=float(bound[worst]))
        live = refine[own]
        split = live & (err >= (bound / np.maximum(count, 1))[own])
        mid = 0.5 * (pa[split] + pb[split])
        new_own = np.concatenate([own[split], own[split]])
        new_a = np.concatenate([pa[split], mid])
        new_b = np.concatenate([mid, pb[split]])
        keep = live & ~split
        own, pa, pb, val, err = own[keep], pa[keep], pb[keep], val[keep], err[keep]
    out = sign * result
    return float(out[0]) if shape == () else out.reshape(shape)


# np.unique and np.median import numpy.ma on first use, which costs a fresh
# process a few milliseconds; these two do the same sort-based work without it.

def _distinct(x) -> np.ndarray:
    """The distinct values of x, sorted: np.unique's sort and neighbour compare,
    for finite values."""
    x = np.sort(x, axis=None)
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


def _median(x) -> float:
    """np.median of a non-empty 1-D array, bit for bit: the middle value, or the
    mean (a + b) / 2 of the two middle ones, NaN if any value is.  As in
    np.mean, the sum starts from +0.0 (a -0.0 median is +0.0)."""
    x = np.sort(x)
    h = len(x) // 2
    if np.isnan(x[-1]):
        return math.nan
    return float(0.0 + x[h] if len(x) % 2 else (0.0 + x[h - 1] + x[h]) / 2.0)


def _anchored_integral(f, anchor: float, pts, scale: float):
    """Integral of f from ``anchor`` to each of ``pts`` (any shape, unsorted;
    a scalar point gives a float), for an f that changes on the length
    ``scale`` about the anchor.

    The segments between neighbouring distinct points, anchor included, go
    to one quadrature call and are summed outward from the anchor: a point
    reads only the segments between it and the anchor.  A segment longer than
    ``scale`` is first cut at the breakpoints anchor +- scale 2^k inside it, so
    none is longer than both ``scale`` and its distance from the anchor: one long
    panel can err far more than its |K15 - G7| estimate.  With ``scale`` = inf a single
    point is exactly the direct integral.
    """
    x = np.asarray(pts, dtype=float)
    nodes = _distinct(np.append(x, anchor))
    if np.max(np.diff(nodes), initial=0.0) > scale:
        steps = scale * 2.0 ** np.arange(math.ceil(math.log2(np.ptp(nodes) / scale)))
        cuts = np.concatenate([anchor - steps, anchor + steps])
        j = np.clip(np.searchsorted(nodes, cuts), 1, nodes.size - 1)   # the segment each cut is in
        cuts = cuts[(nodes[j - 1] < cuts) & (cuts < nodes[j]) & (nodes[j] - nodes[j - 1] > scale)]
        nodes = np.sort(np.append(nodes, cuts))
    seg = integrate_adaptive(f, nodes[:-1], nodes[1:])
    k = np.searchsorted(nodes, anchor)
    cum = np.concatenate([-np.cumsum(seg[:k][::-1])[::-1], [0.0], np.cumsum(seg[k:])])
    out = cum[np.searchsorted(nodes, x)]
    return float(out) if x.ndim == 0 else out


# =====================================================================
# Finite differences
# =====================================================================

def _stencil_nodes(x, h):
    """x + (-1, -1/2, 0, 1/2, 1) h stacked along a new first axis; h broadcasts with x."""
    offsets = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    return x + offsets.reshape(-1, *[1] * max(np.ndim(x), np.ndim(h))) * h


def _richardson(fs, h, order: int):
    """f' or f'' from f on _stencil_nodes(x, h): one Richardson level over spacings h, h/2."""
    fm, fmh, f0, fph, fp = fs
    s = 0.5 * h
    if order == 1:
        return (8.0 * (fph - fmh) - (fp - fm)) / (12.0 * s)
    return (4.0 * ((fph - 2.0 * f0 + fmh) / (s * s)) - (fp - 2.0 * f0 + fm) / (h * h)) / 3.0


def derivative(f, x, h, order: int):
    """Fourth-order first (order 1) or second (order 2) derivative of f at x: f is called
    once, on x + (-1, -1/2, 0, 1/2, 1) h stacked along a new first axis (h broadcasts
    with x).  A scalar x and h give a float."""
    if order not in (1, 2):
        raise ValueError("only first and second derivatives supported")
    d = _richardson(f(_stencil_nodes(x, h)), h, order)
    return float(d) if np.ndim(d) == 0 else d


def _fornberg_kernel():
    """Fornberg's recursion for the first derivative on five nodes as one
    function of (z, xs) without loops: every statement the recursion executes
    whose value is read, in its order, on locals w{k}_{j} (order k = 0, 1,
    node j).  The last node's pass stores no order-0 weight and no c1; each
    division it drops follows a kept one by the same divisor, so a zero
    divisor raises as in the loop.  Products with an exact 1.0 are folded
    away (c2 starts at each pass's first gap, and pass 1 reads c1 = w0_0 =
    1.0); each product with 0.0 stays, since it carries an inf or a NaN."""
    body = ["x0, x1, x2, x3, x4, = xs", "c5 = x0 - z", "c4 = x1 - z", "c3 = x1 - x0", "c2 = c3",
            "w1_1 = (1.0 - c5 * 0.0) / c2", "w0_1 = -c5 / c2",   # pass 1: w1_0 = 0.0
            "w1_0 = (c4 * 0.0 - 1.0) / c3", "w0_0 = c4 / c3", "c1 = c2"]
    for i in range(2, 5):
        live = i < 4   # order-0 weights and c1 are read only by a later pass
        body += ["c5 = c4", f"c4 = x{i} - z"]
        for j in range(i):
            body += [f"c3 = x{i} - x{j}", "c2 *= c3" if j else "c2 = c3"]
            if j == i - 1:  # the new column i reads column j before its update
                body.append(f"w1_{i} = c1 * (w0_{j} - c5 * w1_{j}) / c2")
                body += [f"w0_{i} = -c1 * c5 * w0_{j} / c2"] * live
            body.append(f"w1_{j} = (c4 * w1_{j} - w0_{j}) / c3")
            body += [f"w0_{j} = c4 * w0_{j} / c3"] * live
        body += ["c1 = c2"] * live
    body.append("return w1_0, w1_1, w1_2, w1_3, w1_4")
    source = "def fornberg_weights(z, xs):\n" + "".join(f"    {line}\n" for line in body)
    exec(compile(source, "<fornberg kernel>", "exec"), scope := {"__name__": __name__})
    return scope["fornberg_weights"]


fornberg_weights = _fornberg_kernel()
fornberg_weights.__doc__ = """First-derivative weights at z on five nodes (Fornberg's recursion).

    Returns five floats w such that sum(w[j] * f(xs[j])) approximates f'(z).
    The recursion runs as a straight-line kernel on the numbers as given,
    generated once at import; a node count other than five raises ValueError.
    """


_BLOCK = 1024   # grid points per pass of grid_derivative's loop


def grid_derivative(grid, values) -> np.ndarray:
    """First derivative of sampled values on a (possibly non-uniform) grid.

    Uses a sliding 5-point window (centered in the interior, one-sided at
    the edges) with Fornberg weights, so log-spaced grids are handled
    without loss of order.  ``values`` is one sampled function of shape
    (n,) or m of them stacked as (m, n); the weights depend only on the
    grid, so each point's weights are computed once for all rows.  The
    points go in blocks of ``_BLOCK``: beyond the output, no array grows
    with n.
    """
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    n = len(grid)
    if n < 5:
        raise ValueError(f"need at least 5 grid points, got {n}")
    if grid.ndim != 1 or values.ndim > 2 or values.shape[-1:] != grid.shape:
        raise ValueError("values must be (n,) or (m, n) on a 1-D grid of n points")
    out = np.zeros_like(values)
    for lo in range(0, n, _BLOCK):   # points lo .. hi - 1
        hi = min(lo + _BLOCK, n)
        starts = np.clip(np.arange(lo - 2, hi - 2), 0, n - 5)   # windows: grid[starts[i]:][:5]
        windows = grid[starts[:, None] + np.arange(5)]
        # windows reach the kernel scaled by 2^-e, e their span's exponent, so no product
        # of gaps under- or overflows and the weights scale back exactly
        scale = np.ldexp(1.0, -np.frexp(windows[:, 4] - windows[:, 0])[1])[:, None]
        sets = map(fornberg_weights, (grid[lo:hi] * scale[:, 0]).tolist(),
                   (windows * scale).tolist())   # one 5-tuple a point, in point order
        weights = np.fromiter(chain.from_iterable(sets), float, count=5 * (hi - lo)).reshape(-1, 5)
        weights *= scale
        for j, w in enumerate(weights.T):   # out[i] = sum over j of w[i] v[starts[i] + j]
            out[..., lo:hi] += w * values[..., starts + j]
    return out


# =====================================================================
# Damped 2-D Newton
# =====================================================================

def _jacobian2(F, x):
    J = np.empty((2, 2))
    for j in range(2):
        h = 1e-4 * max(1.0, abs(x[j]))
        xp = x.copy(); xp[j] += h
        xm = x.copy(); xm[j] -= h
        J[:, j] = (np.asarray(F(xp), dtype=float) - np.asarray(F(xm), dtype=float)) / (2.0 * h)
    return J


_NEWTON_MAX_ITER = 60


def newton2d(F, x0) -> tuple[np.ndarray, np.ndarray, int]:
    """Solve F(x) = 0 for x in R^2 with a damped Newton iteration.

    The Jacobian is estimated by central differences at relative step 1e-4;
    each Newton step is halved (up to 10 times) until the residual norm
    decreases.  Returns ``(x, F(x), iterations)``.

    Raises
    ------
    ConvergenceError
        If the residual norm fails to drop below 1e-10 within 60
        iterations (``_NEWTON_MAX_ITER``), or the Jacobian becomes singular.
    """
    x = np.asarray(x0, dtype=float).copy()
    fx = np.asarray(F(x), dtype=float)
    for it in range(1, _NEWTON_MAX_ITER + 1):
        norm = float(np.max(np.abs(fx)))
        if norm < 1e-10:
            return x, fx, it - 1
        J = _jacobian2(F, x)
        try:
            step = np.linalg.solve(J, -fx)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"singular Jacobian at x = {x.tolist()}") from exc
        lam = 1.0
        for _ in range(10):
            x_new = x + lam * step
            f_new = np.asarray(F(x_new), dtype=float)
            if float(np.max(np.abs(f_new))) < norm:
                break
            lam *= 0.5
        else:
            raise ConvergenceError(
                f"no descent direction at x = {x.tolist()} (|F| = {norm:.3e})")
        x, fx = x_new, f_new
    raise ConvergenceError(
        f"Newton failed to converge in {_NEWTON_MAX_ITER} iterations "
        f"(|F| = {float(np.max(np.abs(fx))):.3e})")


# =====================================================================
# Bracketed root search
# =====================================================================

_ROOT_XATOL, _ROOT_XRTOL, _ROOT_MAX_ITER = 1e-14, 4.0 * np.finfo(float).eps, 100


def bracketed_root(f, lo, hi, args=()):
    """Roots of the elementwise f(x, *args) on the brackets (lo, hi).

    Chandrupatla's hybrid (Adv. Eng. Softw. 28 (1997) 145): inverse
    quadratic interpolation through the last three points where that is
    safe, bisection elsewhere, each new point at least half the tolerance
    inside the bracket.  One rule serves every caller: stop once the bracket
    is narrower than 1e-14 + 4 eps |x| or f is exactly zero, and give up
    after 100 iterations.

    ``lo``, ``hi`` and each array in ``args`` hold one entry per element.
    ``f`` is called once per bracket end, then once per iteration on the
    elements still searching; each element iterates on its own, so its
    result is the same, bit for bit, whichever elements share the call.
    Returns, per element: ``x`` (the bracket end with the smaller |f|),
    ``f_x``, ``nfev``, ``f_lo`` and ``f_hi`` (f at lo and hi) and
    ``status``: 0 converged, -1 no sign change, -2 iteration cap reached,
    -3 f not finite.
    """
    x1, x2 = np.array(lo, dtype=float), np.array(hi, dtype=float)
    args, n = [np.asarray(a) for a in args], x1.size
    f1, f2 = (np.asarray(f(x, *args), dtype=float) for x in (x1, x2))
    out = SimpleNamespace(x=np.full(n, np.nan), f_x=np.full(n, np.nan), f_lo=f1, f_hi=f2,
                          nfev=np.zeros(n, dtype=int), status=np.zeros(n, dtype=int))
    idx, x3, f3 = np.arange(n), x2, f2   # (x3, f3): the point the last step dropped
    for it in range(_ROOT_MAX_ITER + 1):
        small = np.abs(f1) < np.abs(f2)
        xm, fm = np.where(small, x1, x2), np.where(small, f1, f2)
        dx, tol = np.abs(x2 - x1), np.abs(xm) * _ROOT_XRTOL + _ROOT_XATOL
        bad, zero = ~(np.isfinite(f1) & np.isfinite(f2)), fm == 0.0
        same, narrow = np.sign(f1) == np.sign(f2), dx < tol
        done = bad | zero | same | narrow | (it == _ROOT_MAX_ITER)
        if done.any():
            code = np.where(bad, -3, np.where(zero, 0, np.where(same, -1, np.where(narrow, 0, -2))))
            k = idx[done]
            out.x[k], out.f_x[k], out.status[k], out.nfev[k] = xm[done], fm[done], code[done], it + 2
            idx, x1, f1, x2, f2, x3, f3, dx, tol = (
                v[~done] for v in (idx, x1, f1, x2, f2, x3, f3, dx, tol))
        if not idx.size:
            return out
        t = 0.5
        if it:
            d12, d32 = f1 - f2, f3 - f2
            with np.errstate(divide="ignore", invalid="ignore"):
                xi, phi = (x1 - x2) / (x3 - x2), d12 / d32
                alpha = (x3 - x1) / (x2 - x1)
                t = np.where((1 - np.sqrt(1 - xi) < phi) & (phi < np.sqrt(xi)),
                             f1 / d12 * f3 / d32 - alpha * f1 / (f3 - f1) * f2 / -d32, 0.5)
            t = np.minimum(np.maximum(t, 0.5 * tol / dx), 1 - 0.5 * tol / dx)
        x = x1 + t * (x2 - x1)
        fx = np.asarray(f(x, *(a[idx] for a in args)), dtype=float)
        same = np.sign(fx) == np.sign(f1)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = x, fx


# =====================================================================
# Embedded Runge-Kutta 8(5,3) with dense output (DOP853)
# =====================================================================
#
# The Prince-Dormand tableau of the DOP853 code of Hairer, Norsett & Wanner
# (Solving Ordinary Differential Equations I, 2nd ed., 1993, II.10): nodes
# C; the strictly lower triangle of A, row by row, where rows 1-11 are the
# stages, row 12 the 8th-order weights (its stage at t + h starts the next
# step) and rows 13-15 the extra stages of the dense output; the 5th- and
# 3rd-order error weights E; and the dense-output matrix D.

def _table(text: str, shape) -> np.ndarray:
    return np.array(text.split(), dtype=float).reshape(shape)


_DOP_C = _table("""
    0 0.05260015195876773 0.0789002279381516 0.1183503419072274 0.2816496580927726
    0.3333333333333333 0.25 0.3076923076923077 0.6512820512820513 0.6 0.8571428571428571 1.0
    1.0 0.1 0.2 0.7777777777777778""", 16)
_DOP_A = np.zeros((16, 16))
_DOP_A[np.tril_indices(16, -1)] = _table("""
    0.05260015195876773 0.0197250569845379 0.0591751709536137 0.02958758547680685 0
    0.08876275643042054 0.2413651341592667 0 -0.8845494793282861 0.924834003261792
    0.037037037037037035 0 0 0.17082860872947386 0.12546768756682242 0.037109375 0 0
    0.17025221101954405 0.06021653898045596 -0.017578125 0.03709200011850479 0 0
    0.17038392571223998 0.10726203044637328 -0.015319437748624402 0.008273789163814023
    0.6241109587160757 0 0 -3.3608926294469414 -0.868219346841726 27.59209969944671
    20.154067550477894 -43.48988418106996 0.47766253643826434 0 0 -2.4881146199716677
    -0.590290826836843 21.230051448181193 15.279233632882423 -33.28821096898486
    -0.020331201708508627 -0.9371424300859873 0 0 5.186372428844064 1.0914373489967295
    -8.149787010746927 -18.52006565999696 22.739487099350505 2.4936055526796523
    -3.0467644718982196 2.273310147516538 0 0 -10.53449546673725 -2.0008720582248625
    -17.9589318631188 27.94888452941996 -2.8589982771350235 -8.87285693353063
    12.360567175794303 0.6433927460157636 0.054293734116568765 0 0 0 0 4.450312892752409
    1.8915178993145003 -5.801203960010585 0.3111643669578199 -0.1521609496625161
    0.20136540080403034 0.04471061572777259 0.056167502283047954 0 0 0 0 0 0.25350021021662483
    -0.2462390374708025 -0.12419142326381637 0.15329179827876568 0.00820105229563469
    0.007567897660545699 -0.008298 0.03183464816350214 0 0 0 0 0.028300909672366776
    0.053541988307438566 -0.05492374857139099 0 0 -0.00010834732869724932 0.0003825710908356584
    -0.00034046500868740456 0.1413124436746325 -0.42889630158379194 0 0 0 0 -4.697621415361164
    7.683421196062599 4.06898981839711 0.3567271874552811 0 0 0 -0.0013990241651590145
    2.9475147891527724 -9.15095847217987""", 120)
_DOP_E = _table("""
    0.01312004499419488 0 0 0 0 -1.2251564463762044 -0.4957589496572502 1.6643771824549864
    -0.35032884874997366 0.3341791187130175 0.08192320648511571 -0.022355307863886294 0
    -0.18980075407240762 0 0 0 0 4.450312892752409 1.8915178993145003 -5.801203960010585
    -0.4226823213237919 -0.1521609496625161 0.20136540080403034 0.02265179219836082 0""", (2, 13))
_DOP_D = _table("""
    -8.428938276109013 0 0 0 0 0.5667149535193777 -3.0689499459498917 2.38466765651207
    2.117034582445028 -0.871391583777973 2.2404374302607883 0.6315787787694688
    -0.08899033645133331 18.148505520854727 -9.194632392478356 -4.436036387594894
    10.427508642579134 0 0 0 0 242.28349177525817 165.20045171727028 -374.5467547226902
    -22.113666853125306 7.733432668472264 -30.674084731089398 -9.332130526430229
    15.697238121770845 -31.139403219565178 -9.35292435884448 35.81684148639408
    19.985053242002433 0 0 0 0 -387.0373087493518 -189.17813819516758 527.8081592054236
    -11.57390253995963 6.8812326946963 -1.0006050966910838 0.7777137798053443
    -2.778205752353508 -60.19669523126412 84.32040550667716 11.99229113618279
    -25.69393346270375 0 0 0 0 -154.18974869023643 -231.5293791760455 357.6391179106141
    93.40532418362432 -37.45832313645163 104.0996495089623 29.8402934266605 -43.53345659001114
    96.32455395918828 -39.17726167561544 -149.72683625798564""", (4, 16))


def _straight_line(source: str):
    """Parse a right-hand side written as straight-line source: one function
    ``def f(t, y0, ..., y{n-1})`` of assignments that returns the tuple of the
    n derivatives.  Gives the function, its argument names, the arguments it
    reads and its parameters: every other name it reads but never assigns."""
    (fn,) = ast.parse(source).body
    if isinstance(fn, ast.FunctionDef):
        *body, ret = fn.body
        names = [node for node in ast.walk(fn) if isinstance(node, ast.Name)]
        stored = {node.id for node in names if isinstance(node.ctx, ast.Store)}
        read = {node.id for node in names if isinstance(node.ctx, ast.Load)}
        args = [a.arg for a in fn.args.args]
        if (isinstance(ret, ast.Return) and isinstance(ret.value, ast.Tuple)
                and all(isinstance(s, (ast.Assign, ast.AugAssign)) for s in body)
                and len(ret.value.elts) == len(args) - 1 and not stored & set(args)):
            return fn, args, read, sorted(read - stored - set(args))
    raise ValueError("a straight-line right-hand side is one function of (t, y0, ..., y{n-1}) "
                     "that assigns only locals and returns its n derivatives")


def _rhs_lines(source: str, renamed: dict, targets) -> list[str]:
    """The statements of a straight-line right-hand side, ending in
    ``targets[i] = derivative i``.  Each argument is named as in ``renamed``
    and every other name gets a trailing underscore, which no name of the
    generated code around it has."""
    fn = _straight_line(source)[0]
    for node in ast.walk(fn):
        if isinstance(node, ast.Name):
            node.id = renamed.get(node.id, node.id + "_")
    *body, ret = fn.body
    return [*map(ast.unparse, body),
            *(f"{target} = {ast.unparse(e)}" for target, e in zip(targets, ret.value.elts))]


def straight_line_rhs(source: str, **params):
    """A right-hand side ``fun(t, y)`` for ``dop853`` written as straight-line
    source, with its parameters bound.

    ``source`` is one function ``def f(t, y0, ..., y{n-1})`` of assignments to
    locals that returns the tuple of the n derivatives; each other name it
    reads is a parameter, given here by keyword.  ``fun`` is compiled from these
    lines and returns a list of floats; ``fun.solve`` is its DOP853 step loop,
    with the same lines pasted into every stage, which ``dop853`` runs.
    """
    bind, names = _straight_line_unit(source)
    if set(params) != names:
        raise TypeError(f"this right-hand side takes the parameters {sorted(names)}, "
                        f"got {sorted(params)}")
    fun, fun.solve = bind(params)
    return fun


@cache
def _straight_line_unit(source: str):
    """``bind(params) -> (fun, solve)`` compiled in one unit from a
    straight-line source, and the names of its parameters.

    ``fun(t, y)`` is the right-hand side.  ``solve`` is the DOP853 step loop
    on Python-float locals: stage s is k{s}_0 .. k{s}_{n-1}, formed by the
    source's lines, nonzero table entries are repr literals, and intermediate
    stages form only the arguments the source reads.  Stage 12 (c = 1) forms
    the whole new state u0 .. u{n-1}.  ``solve(t, t_end, h_abs, y, f, rtol,
    atol, max_step, check, rows)`` appends t, y and the 16 stages of each
    accepted step to the bytearray ``rows`` as native doubles and returns the
    number of attempts."""
    _, args, read, params = _straight_line(source)
    n = len(args) - 1
    reads = [i for i in range(n) if args[i + 1] in read]

    def names(v):
        return [f"{v}{i}" for i in range(n)]

    def ks(s):
        return "".join(f"k{s}_{i}, " for i in range(n))

    def dot(weights, i):
        return " + ".join(f"{float(a)!r} * k{j}_{i}" for j, a in enumerate(weights) if a)

    def stage(s, z="z", form=reads):
        clock = [f"tc = t + {float(_DOP_C[s])!r} * h"] if args[0] in read else []
        return ([f"{z}{i} = y{i} + ({dot(_DOP_A[s, :s], i)}) * h" for i in form] + clock
                + _rhs_lines(source, dict(zip(args, ["tc", *names(z)])), names(f"k{s}_")))

    ys, us, ds = (", ".join(names(v)) for v in "yud")
    rhs = ["def fun(t, y):", f"    {ys}, = y",
           *(f"    {line}" for line in _rhs_lines(source, dict(zip(args, ["t", *names("y")])),
                                                  names("d"))),
           f"    return [{ds}]"]
    attempt = [stage(s) for s in range(1, 12)] + [stage(12, "u", range(n)), ["attempts += 1"]]
    for i in range(n):   # squares as p * p: a float ** 2 raises OverflowError past 1e154
        attempt.append([f"a, b = abs(u{i}), abs(y{i})",
                        "sc = atol + (b if b > a else a) * rtol",   # max(a, b): a NaN in u stays
                        f"p{i}, q{i} = ({dot(_DOP_E[0], i)}) / sc, ({dot(_DOP_E[1], i)}) / sc"])
    attempt.append([f"e5 = {' + '.join(f'p{i} * p{i}' for i in range(n))}",
                    f"e3 = {' + '.join(f'q{i} * q{i}' for i in range(n))}"])
    solve = [
        "def solve(t, t_end, h_abs, y, f, rtol, atol, max_step, check, rows):",
        f"    {ys}, = y", f"    {ks(0)}= f", "    attempts = 0",
        "    while t < t_end:",
        "        min_step = 10.0 * (nextafter(t, inf) - t)",
        "        h_abs, rejected = min(max(h_abs, min_step), max_step), False",
        "        while True:",
        "            if not h_abs >= min_step:   # NaN included",
        "                raise ConvergenceError(f'step size {h_abs:.3g} fell below ten float '",
        "                                       f'spacings at t = {t!r}')",
        "            t_new = min(t + h_abs, t_end)",
        "            h = h_abs = t_new - t",
        *(f"            {line}" for block in attempt for line in block),
        f"            err = 0.0 if e5 == 0 and e3 == 0 else h * e5 / sqrt((e5 + 0.01 * e3) * {n})",
        "            if err < 1:",
        "                factor = 10.0 if err == 0 else min(10.0, 0.9 * err ** -0.125)",
        "                h_abs *= min(1.0, factor) if rejected else factor",
        "                break",
        "            h_abs *= max(0.2, 0.9 * err ** -0.125)",
        "            rejected = True",
        "        if check is not None:",
        f"            check(t_new, [{us}])",
        *(f"        {line}" for s in range(13, 16) for line in stage(s)),
        f"        rows += pack(t_new, {us}, {''.join(ks(s) for s in range(16))})",
        f"        t, {ys}, {ks(0)}= t_new, {us}, {ks(12)}",
        "    return attempts"]
    lines = ["def bind(params):", *(f"    {p}_ = params[{p!r}]" for p in params),
             *(f"    {line}" for line in rhs + solve), "    return fun, solve"]
    scope = {"nextafter": math.nextafter, "inf": math.inf, "sqrt": math.sqrt,
             "ConvergenceError": ConvergenceError, "pack": Struct(f"{1 + 17 * n}d").pack}
    exec(compile("\n".join(lines) + "\n", f"<straight-line rhs n={n}>", "exec"), scope)
    return scope["bind"], frozenset(params)


def dop853(fun, t_span, y0, *, rtol: float, atol: float, max_step: float = math.inf,
           check=None):
    """Integrate y' = fun(t, y) forward over t_span = (t0, t1) by DOP853.

    Hairer's error norm mixes the 5th- and 3rd-order estimates, scaled by
    atol + rtol max(|y_old|, |y_new|); a step passes when it is below 1, and
    the next step is 0.9 norm^(-1/8) times the last, the factor kept in
    [0.2, 10] (at most 1 after a rejection) and the step at most
    ``max_step``.  The first step follows Hairer's initial-step rule on
    ``fun(t, y)``; the steps run in ``fun.solve``, so ``fun`` comes from
    ``straight_line_rhs``, which compiles both from one source.  ``check(t, y)``
    runs on each accepted step with the state as a list and may raise to stop.

    Returns the step ends ``t``, the states ``y`` there as columns, the
    right-hand-side call count ``nfev`` and ``sol``, the dense output at a
    time or an array of times in the span: shape (n,) or (n, len(times)),
    and exactly the step's state at a step end.

    Raises
    ------
    ConvergenceError
        If a step shrinks below ten float spacings at its t.
    """
    t, t_end = float(t_span[0]), float(t_span[1])
    if not -math.inf < t < t_end < math.inf:
        raise ValueError(f"the span must be finite and run forward, got {t_span!r}")
    y = np.array(y0, dtype=float)
    n = y.size
    f = np.asarray(fun(t, y.tolist()), dtype=float)
    scale = atol + np.abs(y) * rtol
    # a norm past the float range is inf: then h0 = h1 = 0 and the steps start at their floor
    with np.errstate(over="ignore", invalid="ignore"):
        d0, d1 = np.linalg.norm(y / scale) / n ** 0.5, np.linalg.norm(f / scale) / n ** 0.5
        # floats, not the norms' np.float64: that would make every step numpy-scalar arithmetic
        h0 = float(min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end - t))
        f1 = np.asarray(fun(t + h0, (y + h0 * f).tolist()))
        d2 = np.linalg.norm((f1 - f) / scale) / n ** 0.5 / h0
        h1 = max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15 else (0.01 / max(d1, d2)) ** 0.125
    h_abs = float(min(100 * h0, h1, t_end - t, max_step))

    rows = bytearray()
    attempts = fun.solve(t, t_end, h_abs, y.tolist(), f.tolist(), rtol, atol, max_step, check,
                         rows)
    # dense coefficients of every step at once; K[:, 0] and K[:, 12] are f at its ends
    steps = np.frombuffer(rows).reshape(-1, 1 + 17 * n)
    T, Y = np.append(t, steps[:, 0]), np.vstack([y, steps[:, 1:n + 1]])
    K = steps[:, n + 1:].reshape(-1, 16, n)
    h, dy = np.diff(T)[:, None], np.diff(Y, axis=0)
    F = np.concatenate([np.stack([dy, h * K[:, 0] - dy, 2 * dy - h * (K[:, 12] + K[:, 0])], 1),
                        h[..., None] * (_DOP_D @ K)], axis=1)

    def sol(times):
        x = np.asarray(times, dtype=float)
        i = np.clip(np.searchsorted(T, x, side="right") - 1, 0, len(F) - 1)
        u = ((x - T[i]) / (T[i + 1] - T[i]))[..., None]
        Fi, v = F[i], 1 - u
        out = np.zeros(x.shape + (n,))
        for k in range(6, -1, -1):   # Horner in u and 1 - u alternately
            out += Fi[..., k, :]
            out *= u if k % 2 == 0 else v
        return np.moveaxis(np.where((x == T[-1])[..., None], Y[-1], out + Y[i]), -1, 0)

    return SimpleNamespace(t=T, y=Y.T, nfev=2 + 12 * attempts + 3 * len(F), sol=sol)


# =====================================================================
# CSV emission (locale-independent, '#'-commented headers)
# =====================================================================

def _curve_csv(title: str, column_doc: str, param_doc: str, header: str, blocks) -> str:
    """Each block is a tuple of columns: a constant, an array of values, or
    a list of fields the caller formatted (so a column shared by several
    blocks or files is formatted once); at least one is not a constant."""

    def column(c):
        if isinstance(c, list) and c and isinstance(c[0], str):
            return c
        if np.ndim(c) == 0:  # a constant column, formatted once
            return repeat(repr(float(c)) if isinstance(c, (float, np.floating)) else str(c))
        return map(repr, np.asarray(c).tolist())

    lines = [f"# {title}", f"# columns: {column_doc}"]
    if param_doc:
        lines.append(f"# parameters: {param_doc}")
    lines.append(header)
    for columns in blocks:
        lines.extend(map(",".join, zip(*map(column, columns))))
    return "\n".join(lines) + "\n"
