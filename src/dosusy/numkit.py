"""Numerical kernel: ultraspherical polynomials, adaptive quadrature,
finite differences, and a damped two-dimensional Newton iteration.

Everything in here is generic plumbing used by the physics modules; nothing
knows about potentials.  The quadrature is a nested Gauss(7)/Kronrod(15)
rule that refines many integrals in one vectorised sweep per step, which
doubles as the oracle for the closed-form integrals checked elsewhere, so
it keeps explicit error accounting instead of hiding it behind a library
call.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from .exceptions import ConvergenceError, QuadratureError

__all__ = [
    "gegenbauer_eval",
    "integrate_adaptive",
    "derivative",
    "fornberg_weights",
    "grid_derivative",
    "newton2d",
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
    xs = np.asarray(x, dtype=float)
    if np.any(np.abs(xs) > 1.0 + 1e-14):
        raise ValueError("argument outside [-1, 1]")

    c_prev = np.ones_like(xs)
    if p == 0:
        return c_prev if isinstance(x, np.ndarray) else float(c_prev)
    two_x = 2.0 * xs
    c_cur = q * two_x
    for k in range(2, p + 1):
        c_prev, c_cur = c_cur, (k + q - 1.0) / k * two_x * c_cur - (k + 2.0 * q - 2.0) / k * c_prev
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


def _panels(f, a, b, half_line, pw):
    """One Gauss-Kronrod pass over each panel [a_i, b_i], all nodes in one
    call of f: returns (K15 values, error estimates).

    Panels flagged ``half_line`` live in alpha, rho = tan(alpha/2)^(1/pw).
    Each weighted sum runs over the nodes in a fixed order, so a panel's
    value does not depend on which other panels share the call.
    """
    half = 0.5 * (b - a)
    x = 0.5 * (a + b) + half * _KRONROD_NODES[:, None]   # (15, panels)
    jac = None
    if half_line.any():
        alpha = x[:, half_line]
        rho = np.tan(0.5 * alpha) ** (1.0 / pw)
        jac = rho / (pw * np.sin(alpha))
        x[:, half_line] = rho
    fx = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    if jac is not None:
        fx[:, half_line] *= jac
    k15 = half * reduce(np.add, _KRONROD_WEIGHTS[:, None] * fx)
    g7 = half * reduce(np.add, _GAUSS_WEIGHTS[:, None] * fx[_GAUSS_SLOTS])
    return k15, np.abs(k15 - g7)


def integrate_adaptive(f, a, b, tol: float = 1e-10, tail_power: float = 1.0,
                       max_panels: int = 4000):
    """Integrate f over (a, b) to ``tol`` with nested-rule refinement.

    ``a`` and ``b`` are scalars or broadcastable arrays of limits, one
    integral per element; scalar limits give a float, array limits an array
    of their broadcast shape.  ``f`` must accept an ndarray of abscissae and
    return values elementwise; it is called once per refinement sweep, with
    the nodes of every integral still refining.  Each integral stops on its
    own when its summed error estimate is at most ``tol (1 + |I|)``.

    ``b = inf`` is supported through the half-line substitution
    rho = tan(alpha/2)^(1/tail_power), which maps (a, inf), a >= 0, to a
    finite alpha-interval inside (0, pi); ``tail_power`` is the exponent
    kappa of that map and is ignored for finite intervals.

    Raises
    ------
    QuadratureError
        If an integral's summed error estimate still exceeds the tolerance
        after ``max_panels`` panel evaluations.  The exception carries the
        best estimate and its bound for the worst such integral.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    shape = a.shape
    lo, hi = a.flatten(), b.flatten()
    half_line = hi == np.inf
    if np.any(np.isinf(lo) | (hi == -np.inf)):
        raise ValueError("only upper-endpoint infinity is supported")
    if np.any(np.isnan(lo) | np.isnan(hi)):
        raise ValueError("interval endpoints must be finite (or b = inf)")
    pw = float(tail_power)
    if half_line.any():
        if np.any(lo[half_line] < 0):
            raise ValueError("half-line integrals need a >= 0")
        if not pw > 0:
            raise ValueError("tail_power must be positive")
        lo[half_line] = 2.0 * np.arctan(lo[half_line] ** pw)
        hi[half_line] = math.pi
    sign = np.where(hi < lo, -1.0, 1.0)
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)

    n = lo.size
    result = np.zeros(n)
    evaluated = np.zeros(n, dtype=int)
    own, pa, pb, val, err = np.zeros(0, dtype=int), *np.zeros((4, 0))
    new_own = np.flatnonzero(lo < hi)   # the integral each panel belongs to; a == b stays 0
    new_a, new_b = lo[new_own], hi[new_own]
    while new_own.size:
        new_val, new_err = _panels(f, new_a, new_b, half_line[new_own], pw)
        evaluated += np.bincount(new_own, minlength=n)
        own, pa, pb, val, err = (np.concatenate(pair) for pair in (
            (own, new_own), (pa, new_a), (pb, new_b), (val, new_val), (err, new_err)))
        # per-integral sums run in panel order, whatever else is in the batch
        total = np.bincount(own, val, n)
        bound = np.bincount(own, err, n)
        count = np.bincount(own, minlength=n)
        refine = (count > 0) & (bound > tol * (1.0 + np.abs(total)))
        settled = (count > 0) & ~refine
        result[settled] = total[settled]
        stalled = refine & (evaluated >= max_panels)
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


# =====================================================================
# Finite differences
# =====================================================================

def derivative(f, x, order: int = 1, step: float = 1e-4):
    """Central finite difference with one Richardson extrapolation level.

    The step is ``step * max(1, |x|)``, elementwise for an array ``x``
    (which ``f`` then receives whole); Richardson combination of the h and
    h/2 stencils raises both the first- and second-derivative formulas to
    fourth order.  A scalar ``x`` gives a float.
    """
    if order not in (1, 2):
        raise ValueError("only first and second derivatives supported")
    scalar = np.ndim(x) == 0
    x = float(x) if scalar else np.asarray(x, dtype=float)
    h = step * (max(1.0, abs(x)) if scalar else np.maximum(1.0, abs(x)))

    if order == 1:
        def cd(s):
            return (f(x + s) - f(x - s)) / (2.0 * s)
    else:
        def cd(s):
            return (f(x + s) - 2.0 * f(x) + f(x - s)) / (s * s)

    coarse, fine = cd(h), cd(0.5 * h)
    d = (4.0 * fine - coarse) / 3.0
    return float(d) if scalar else d


def fornberg_weights(z: float, xs, m: int) -> np.ndarray:
    """Finite-difference weights on arbitrary nodes (Fornberg's recursion).

    Returns an array ``w`` of shape (m+1, len(xs)) such that
    ``w[k] @ f(xs)`` approximates the k-th derivative of f at ``z``.  The
    recursion runs on Python floats: for a handful of nodes that is several
    times cheaper than indexing numpy scalars.
    """
    xs = np.asarray(xs, dtype=float).tolist()
    n = len(xs)
    w = [[0.0] * n for _ in range(m + 1)]
    w[0][0] = 1.0
    c1 = 1.0
    c4 = xs[0] - z
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = xs[i] - z
        for j in range(i):
            c3 = xs[i] - xs[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    w[k][i] = c1 * (k * w[k - 1][i - 1] - c5 * w[k][i - 1]) / c2
                w[0][i] = -c1 * c5 * w[0][i - 1] / c2
            for k in range(mn, 0, -1):
                w[k][j] = (c4 * w[k][j] - k * w[k - 1][j]) / c3
            w[0][j] = c4 * w[0][j] / c3
        c1 = c2
    return np.array(w)


def grid_derivative(grid, values, order: int = 1, stencil: int = 5) -> np.ndarray:
    """Differentiate sampled values on a (possibly non-uniform) grid.

    Uses a sliding ``stencil``-point window (centered in the interior,
    one-sided at the edges) with Fornberg weights, so log-spaced grids are
    handled without loss of order.  ``values`` is one sampled function of
    shape (n,) or m of them stacked as (m, n); the weights depend only on
    the grid, so each point's weights are computed once for all rows.
    """
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    n = len(grid)
    if n < stencil:
        raise ValueError(f"need at least {stencil} grid points, got {n}")
    if grid.ndim != 1 or values.ndim > 2 or values.shape[-1:] != grid.shape:
        raise ValueError("values must be (n,) or (m, n) on a 1-D grid of n points")
    half = stencil // 2
    top = n - stencil + half + 1  # points half .. top-1 have centred windows
    nodes = grid.tolist()
    weights = np.empty((stencil, n))
    for i in range(n):
        lo = min(max(i - half, 0), n - stencil)
        weights[:, i] = fornberg_weights(nodes[i], nodes[lo:lo + stencil], order)[order]
    # out_row[i] = sum_j weights[j, i] * v[lo(i) + j]: a slice of v at the
    # centred points and one sample at each edge.  Rows are done one at a
    # time, so no (m, n) temporary is built beyond the output.
    out = np.zeros_like(values)
    for v, row in zip(values.reshape(-1, n), out.reshape(-1, n)):
        for j, w in enumerate(weights):
            row[:half] += w[:half] * v[j]
            row[half:top] += w[half:top] * v[j:j + top - half]
            row[top:] += w[top:] * v[n - stencil + j]
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


def newton2d(F, x0, max_iter: int = 60) -> tuple[np.ndarray, np.ndarray, int]:
    """Solve F(x) = 0 for x in R^2 with a damped Newton iteration.

    The Jacobian is estimated by central differences at relative step 1e-4;
    each Newton step is halved (up to 10 times) until the residual norm
    decreases.  Returns ``(x, F(x), iterations)``.

    Raises
    ------
    ConvergenceError
        If the residual norm fails to drop below 1e-10 within
        ``max_iter`` iterations, or the Jacobian becomes singular.
    """
    x = np.asarray(x0, dtype=float).copy()
    fx = np.asarray(F(x), dtype=float)
    for it in range(1, max_iter + 1):
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
        f"Newton failed to converge in {max_iter} iterations "
        f"(|F| = {float(np.max(np.abs(fx))):.3e})")
