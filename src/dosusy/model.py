"""Zero-energy focusing potential family and its bound-family states.

Scaled units throughout: radii in units of the focusing radius R
(rho = r/R) and energies in units of E0 = hbar^2 / (2 m R^2).  The family
is parametrized by a positive shape exponent kappa and a positive coupling
strength w:

    U(rho) = -w * rho^(2 kappa - 2) / (1 + rho^(2 kappa))^2

kappa = 1 is the wave-optics fish-eye profile; kappa = 1/2 reproduces the
shell-filling (Aufbau) case.  Zero-energy normalizable-family solutions of
the radial problem exist on the quantized coupling ladder

    w(N, kappa) = (2 kappa)^2 (N + 1/(2 kappa) - 1) (N + 1/(2 kappa)),

with radial factors built from ultraspherical polynomials in the compact
coordinate xi = (1 - rho^(2 kappa)) / (1 + rho^(2 kappa)) = cos(alpha),
alpha = 2 arctan(rho^kappa).
"""

from __future__ import annotations

import contextvars
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .exceptions import NonNormalizableStateError, QuadratureError
from .numkit import gegenbauer_eval, integrate_adaptive

__all__ = [
    "StateLabel",
    "SampledFunction",
    "parse_kappa",
    "default_grid",
    "map_coordinates",
    "potential",
    "coupling_quantized",
    "f_factor",
    "state_quantum_numbers",
    "radial_u",
    "normalization_constant",
    "effective_potential_general",
    "make_state",
    "enumerate_shell",
]
_SPAN = contextvars.ContextVar("_SPAN", default=math.inf)   # set by _radial; inf: judge lanes
_MEMO_POINTS = 65_536   # _memo remembers no larger grid: its arrays would outlive the call


def parse_kappa(value) -> tuple[float, Fraction | None]:
    """Normalize a shape exponent given as float, Fraction, int, or "k1/k2".

    Returns ``(kappa, exact)`` where ``exact`` is a small-denominator
    Fraction when one represents the input to 1e-12 (needed by operations
    that demand exact rational arithmetic), else None; kappa is then the
    float nearest ``exact``.  A decimal string is read as a float.  Raises
    ValueError unless kappa is positive and finite as a float.
    """
    if isinstance(value, str):
        text = value.strip()
        if "/" in text:
            num, den = text.split("/", 1)
            if int(den) == 0:
                raise ValueError(f"kappa has a zero denominator: {value!r}")
            value = Fraction(int(num), int(den))
        else:
            value = float(text)
    if isinstance(value, (int, np.integer)):
        value = Fraction(int(value))
    if isinstance(value, Fraction):
        exact = value
        try:
            kappa = float(value)
        except OverflowError:   # beyond the float range
            kappa = math.inf if value > 0 else -math.inf
    elif isinstance(value, float):
        exact = Fraction(value).limit_denominator(64) if math.isfinite(value) else None
        if exact is not None and (abs(float(exact) - value) > 1e-12 * max(1.0, abs(value))
                                  or exact == 0):   # no snap of a tiny value to 0
            exact = None
        kappa = float(exact) if exact is not None else value
    else:
        raise TypeError(f"cannot interpret kappa from {value!r}")
    if not 0 < kappa < math.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    return kappa, exact


@dataclass(frozen=True)
class StateLabel:
    """Bound-family state label.

    N is the principal label on the coupling ladder; n = n_r + l + 1 is the
    familiar principal quantum number; n_r counts radial nodes.  They are
    tied together by N = n + (1/kappa - 1) l, so for kappa = 1 the label N
    coincides with n.
    """

    N: int
    l: int
    m: int = 0
    n_r: int = field(default=-1)
    n: int = field(default=-1)

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        if self.l < 0:
            raise ValueError(f"l must be >= 0, got {self.l}")
        if abs(self.m) > self.l:
            raise ValueError(f"|m| must not exceed l, got m={self.m}, l={self.l}")


def make_state(N: int, l: int, kappa, m: int = 0) -> StateLabel:
    """Build a validated StateLabel for the given shape exponent.

    Uses exact rational arithmetic: l / kappa must make n_r = N - 1 - l/kappa
    a non-negative integer, otherwise the (N, l) pair does not exist at this
    kappa and a ValueError is raised.  n_r is the polynomial degree p of
    state_quantum_numbers.
    """
    kappa_f, exact = parse_kappa(kappa)
    if exact is None:
        raise ValueError("state labelling needs an exact rational kappa")
    n_r, _ = _degree_order(N, l, kappa_f, exact)
    return StateLabel(N=N, l=l, m=m, n_r=n_r, n=n_r + l + 1)


# --- the argument contract shared by every closed form and oracle ------

def _check_rho(rho, name: str = "rho"):
    """Radius as a float array and its largest |log2 rho|; rejects rho <= 0, NaN and inf."""
    rho = np.asarray(rho, dtype=float)
    lo, hi = rho.min(initial=np.inf), rho.max(initial=1.0)   # each propagates a NaN
    if not (lo > 0 and hi < np.inf):
        raise ValueError(f"{name} must be strictly positive and finite")
    return rho, max(-math.log2(min(lo, 1.0)), math.log2(hi))


def _check_grid(grid) -> np.ndarray:
    """Radial grid as a float array: positive and finite radii, strictly increasing."""
    grid, _ = _check_rho(grid, "grid")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    return grid


def _check_coupling(w) -> None:
    """Rejects a coupling w that is not positive and finite (NaN included)."""
    if not 0 < w < np.inf:
        raise ValueError(f"coupling w must be positive and finite, got {w}")


# --- in-place arithmetic -----------------------------------------------
#
# A closed form writes only into arrays it allocated itself, never into an
# argument: each result of a ufunc on a grid is a new 128 KiB array at
# 16,384 points, and holding fewer of them at once keeps the heap from
# growing and being trimmed from one form to the next.  Augmented assignment
# works in place on an array and rebinds a numpy scalar; the helpers below
# cover the ops whose result goes over the second operand.  Each keeps the
# IEEE operation and its operands' order, so every value keeps its bits.
# A result _memo remembers is read-only and shared: a write over a helper's
# result goes through _into, which gives it a new array where it may not write.

def _into(a, b=None):
    """out= for a ufunc of a and b written over a, an array the closed form made.

    a when a is writeable and the result keeps a's shape, else None: a numpy
    scalar has no buffer, a remembered array (_memo) is read-only, and a
    result broadcast past a's shape needs a new one.
    """
    return a if (isinstance(a, np.ndarray) and a.flags.writeable
                 and getattr(b, "shape", ()) in ((), a.shape)) else None


def _rsub(a, b):
    """a - b, written over b (the closed form's own) where it fits; scalars take the operator."""
    return np.subtract(a, b, out=b) if _into(b, a) is not None else a - b


def _rdiv(a, b):
    """a / b, written over b (the closed form's own) where it fits; scalars take the operator."""
    return np.divide(a, b, out=b) if _into(b, a) is not None else a / b


def _rmul(a, b):
    """a * b, written over b (the closed form's own) where it fits; scalars take the operator."""
    return np.multiply(a, b, out=b) if _into(b, a) is not None else a * b


def _pow(b, e):
    """b ** e, bit for bit, for a base b > 0 made from the radii (rho or its fold x).

    Powers under 2^-1100 or over 2^1030 are 0.0 or +inf without pow's slow path or a warning.
    The result is a new array (or a numpy scalar) that the caller may write into.  A numpy
    scalar base is taken as a 0-d array: its power is then numpy's own loop, as an array
    lane's is, not a numpy float's ** (the C library's pow, which may differ in the last bit).
    A 0-d base with a 0-d array exponent is taken as one lane of 1-d arrays: numpy's loop
    over an exponent array differs from the one for a single exponent (b^-1 is 1/b only there).
    """
    b = np.asanyarray(b)
    span, arr = _SPAN.get(), isinstance(e, np.ndarray)
    if arr and e.ndim == 0 == b.ndim:
        return _pow(b.reshape(1), e.reshape(1))[0]
    if span * (np.abs(e).max(initial=0.0) if arr else abs(e)) < 1e3:   # no power near 0 or inf
        return b ** e
    with np.errstate(divide="ignore", over="ignore"):
        if b.ndim == 0:   # one power: numpy's, its overflow quiet as the lanes' below
            return b ** e
        m = np.abs(e)   # b^e = s^m
        s = np.where(e < 0, 1.0 / b, b) if arr else (1.0 / b if e < 0 else b)
        keep, inf = s >= np.exp2(-1100.0 / m), s > np.exp2(1030.0 / m)
        del s   # 1/b, if made, goes before out is
        out = np.zeros(inf.shape)
        np.copyto(out, np.inf, where=inf)
        keep ^= inf   # every inf lane passed the lower bound too
        # the kept lanes' powers are written in place: np.power is ** bit for bit there
        return np.power(b, e, out=out, where=keep)


def _memo(helper):
    """helper(rho, kappa), remembering its last call on a grid of 1 to _MEMO_POINTS lanes (a
    scalar radius seldom repeats; on a grid a hit saves more than a miss costs at any size).

    An equal kappa and radii equal lane by lane (positive and finite, so == is exact) get
    the remembered results themselves, read-only.  The slot keeps a copy of rho, so a grid
    written in place since is a miss, and is one tuple, replaced in one assignment, so no
    thread reads one call's key with another's results."""
    @functools.wraps(helper)
    def remembered(rho, kappa):
        if rho.ndim == 0 or not 0 < rho.size <= _MEMO_POINTS or isinstance(kappa, np.ndarray):
            return helper(rho, kappa)   # kappa lanes: no key
        last_kappa, last_rho, out = remembered.last
        # a miss seldom shares the last lane: it is compared before the whole grid is
        if (last_kappa == kappa and last_rho.shape == rho.shape
                and last_rho.item(-1) == rho.item(-1) and (last_rho == rho).all()):
            return out
        out = helper(rho, kappa)
        for a in out if isinstance(out, tuple) else (out,):
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
        remembered.last = (kappa, rho.copy(), out)
        return out
    remembered.last = (math.nan, None, None)   # nan == kappa is False: nothing remembered
    return remembered


def _radial(closed_form):
    """Give a closed form closed_form(rho, ...) the radius contract.

    rho passes _check_rho and reaches the closed form as a float array, and
    _pow reads its span from _SPAN.  A scalar rho gives a float back (a tuple
    of floats for a tuple of results); for array input the arrays pass through.
    """
    @functools.wraps(closed_form)
    def contracted(rho, *args, **kwargs):
        checked, span = _check_rho(rho)
        (context := contextvars.copy_context()).run(_SPAN.set, span)   # for this call only
        out = context.run(closed_form, checked, *args, **kwargs)
        if not np.isscalar(rho):
            return out
        return tuple(map(float, out)) if isinstance(out, tuple) else float(out)
    return contracted


class SampledFunction:
    """A function sampled on a strictly increasing positive radial grid.

    ``values`` has the grid's shape (n,), or (m, n) for m functions sampled
    on the same grid, one per row.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid, values):
        grid = _check_grid(grid)
        values = np.asarray(values, dtype=float)
        if grid.ndim != 1 or values.ndim > 2 or values.shape[-1:] != grid.shape:
            raise ValueError("values must be (n,) or (m, n) on a 1-D grid of n points")
        if len(grid) < 2:
            raise ValueError("need at least two samples")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        self.grid = grid
        self.values = values

    def __len__(self) -> int:
        return len(self.grid)

    def node_count(self) -> int:
        """Number of strict sign changes (zero samples are skipped); one row only."""
        if self.values.ndim != 1:
            raise ValueError("node_count needs a single sampled function, not stacked rows")
        v = self.values[np.abs(self.values) > 0]
        return int(np.sum(np.sign(v[:-1]) != np.sign(v[1:])))


_MAX_GRID_POINTS = 1_000_000


def default_grid(lo: float = 1e-3, hi: float = 1e3, n: int = 400) -> np.ndarray:
    """Log-spaced radial grid used by curve emitters and grid checks.

    When the range brackets rho = 1 the grid contains it exactly (it is the
    potential's symmetry point, the branch-matching radius, and the anchor
    of the one-parameter families), by splicing two log-spaced sections of
    imperceptibly different ratios.  n runs from 2 to 10^6; a larger grid is
    refused with ValueError before anything is allocated.
    """
    if not (0 < lo < hi):
        raise ValueError("need 0 < lo < hi")
    if not 2 <= n <= _MAX_GRID_POINTS:
        raise ValueError(f"need 2 to {_MAX_GRID_POINTS} grid points, got {n}")
    if not (lo < 1.0 < hi):
        return np.geomspace(lo, hi, n)
    n_lo = int(round((n - 1) * np.log(1.0 / lo) / np.log(hi / lo)))
    n_lo = max(1, min(n - 2, n_lo))
    left = np.geomspace(lo, 1.0, n_lo + 1)
    right = np.geomspace(1.0, hi, n - n_lo)
    return np.concatenate([left, right[1:]])


@_memo
def _fold(rho, kappa):
    """The folded radius x = min(rho, 1/rho), p = x^(2k) and v = 1/(1 + p).

    Inverting the radius leaves x and p and maps T = 1/(1 + rho^(2k)) to
    1 - T; with p in (0, 1], a form written on the fold never overflows
    where rho^(2k) does.
    """
    with np.errstate(over="ignore"):   # 1/rho is inf below rho = 2^-1024, where x = rho
        x = np.minimum(rho, 1.0 / rho)
    p = _pow(x, 2.0 * kappa)
    return x, p, _rdiv(1.0, p + 1.0)


def _xi(rho, p):
    """xi = (1 - rho^(2k)) / (1 + rho^(2k)) from the fold, negative beyond rho = 1.

    xi is written over p where _into allows: the caller reads p no more.
    """
    d = p + 1.0
    xi = _rsub(1.0, p)
    xi /= d
    return np.copysign(xi, 1.0 - rho, out=_into(xi, rho))


@_radial
def map_coordinates(rho, kappa: float):
    """Compact coordinates of the radius: xi in (-1, 1) and alpha in (0, pi).

    xi = (1 - rho^(2 kappa)) / (1 + rho^(2 kappa)),  alpha = 2 arctan(rho^kappa),
    tied by xi = cos(alpha).  rho = 1 maps to (0, pi/2); inverting the radius
    flips the sign of xi and maps alpha to pi - alpha, so both come from the
    fold: alpha = 2 arctan(x^kappa) inside rho = 1 and pi minus that beyond.
    """
    x, p, _ = _fold(rho, kappa)
    alpha = 2.0 * np.arctan(_pow(x, float(kappa)))
    return _xi(rho, p), np.where(rho > 1.0, np.pi - alpha, alpha)


def _ueff(rho, w: float, kappa: float, l):
    """l(l+1)/rho^2 + U(rho), finite and accurate wherever it is representable.

    The well's shape rho^(2k-2) T^2 is p v^2 / rho^2 on both sides of rho = 1.
    For l > 0, l(l+1) - w p v^2 stays accurate where p underflows, as l(l+1)
    dominates there.  At l = 0 the shape takes its own power, x^(2k-2) v^2
    inside rho = 1 and x^(2k+2) v^2 beyond: p / x^2 is 0 or 0/0 where p
    underflows, while rho^(2k-2) may be of order 1 (kappa = 1).
    """
    _check_coupling(w)
    x, p, v = _fold(rho, kappa)
    if l:
        p = _rmul(w, p)   # w p v v
        p *= v
        p *= v
        u = _rsub(l * (l + 1.0), p)
        with np.errstate(over="ignore"):   # +inf where l(l+1)/rho^2 passes the float range
            u /= rho
            u /= rho
        return u
    v = _rmul(v, v)
    u = _pow(x, np.where(rho > 1.0, 2.0 * kappa + 2.0, 2.0 * kappa - 2.0))
    u *= -w
    u *= v
    return u


@_memo
def _well_root(rho, kappa):
    """g = rho^(k-1) T, h = T / rho and T = 1/(1 + rho^(2k)) from the one power t = rho^k.

    T = 1/q with q = t t + 1 (0 where t t overflows) is W's and its derivatives'
    variable (susy._over_rho), so W, W' and both partners on one grid share the power.
    g and h, squared, are the reduced partners' well terms, accurate while t is
    finite (g is NaN where it overflows); where t is subnormal or h infinite,
    t h loses g, which takes its own power there.  The partners keep this
    form, not the finite fold of _ueff, until perfbench's seed-variation test
    stops relying on failing closed-form-grid batches (ROADMAP, Known defects).
    """
    t = _pow(rho, kappa)
    with np.errstate(over="ignore", invalid="ignore"):   # h = inf below rho ~ 1/HUGE
        q = t * t
        q += 1.0
        T = 1.0 / q
        q *= rho
        h = _rdiv(1.0, q)
        if _SPAN.get() * max(kappa, 1.0) > 1022:   # some t may be subnormal or some h inf
            lost = (t < np.finfo(float).tiny) | np.isinf(h)
            if rho.ndim == 0:
                return np.where(lost, _pow(rho, kappa - 1.0) / (t * t + 1.0), t * h), h, T
            lost = lost.nonzero()   # the few lanes whose g takes its own power
            g_lost = _pow(rho[lost], kappa - 1.0) / (t[lost] * t[lost] + 1.0)
            t *= h
            t[lost] = g_lost
            return t, h, T
        t *= h
    return t, h, T


@_radial
def potential(rho, w: float, kappa: float):
    """Scaled potential U(rho) = -w rho^(2k-2) / (1 + rho^(2k))^2 (units E0)."""
    return _ueff(rho, w, kappa, 0)


def coupling_quantized(N: int, kappa: float) -> float:
    """Quantized coupling w(N, kappa) = (2k)^2 (N + 1/(2k) - 1)(N + 1/(2k))."""
    if not isinstance(N, (int, np.integer)) or N < 1:
        raise ValueError(f"N must be a positive integer, got {N!r}")
    if kappa <= 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    half = 1.0 / (2.0 * kappa)
    try:
        w = (2.0 * kappa) ** 2 * (N + half - 1.0) * (N + half)
    except OverflowError:   # float ** raises where float * gives inf
        w = math.inf
    if w == math.inf:
        raise ValueError(f"the coupling w(N={N}, kappa={kappa}) overflows the float range")
    return w


@_radial
def f_factor(rho, kappa: float, l: int):
    """Nodeless radial factor f = rho^(l+1) / (1 + rho^(2k))^((2l+1)/(2k)).

    This is the half-line ground solution at the bottom of each l-ladder and
    the weight multiplying the ultraspherical polynomial in every u.
    """
    if l < 0:
        raise ValueError(f"l must be >= 0, got {l}")
    x, p, v = _fold(rho, kappa)
    del p   # only xi reads p: let it go before f is made
    return _folded_f(rho, x, v, kappa, l)


def _folded_f(rho, x, v, kappa: float, l):
    """f on the fold, from _fold's x and v, which it writes over where _into allows.

    The inversion rho -> 1/rho turns rho^(l+1) / (1 + rho^(2k))^a into
    rho^-l v^a, a = (2l+1)/(2k), so f = x^l v^a min(rho, 1) with every
    factor in (0, 1] and v^a >= 2^-a: f is finite, and accurate, wherever
    it is representable.  radial_u shares it, so u = f bit for bit at
    polynomial degree 0.
    """
    v = np.asarray(v)   # a scalar's power as its array lane's (see _pow)
    v = np.power(v, (2.0 * l + 1.0) / (2.0 * kappa), out=_into(v))
    f = v if l == 0 else _rmul(_pow(x, l), v)   # x^0 = 1 times v is v
    f *= np.minimum(rho, 1.0, out=_into(x, rho))
    return f


def _f_integrand(kappa: float, l: int, power: int):
    """f^power e^t over 2^e, the integrand of f^power d rho in t = ln rho, and e: 2^e is near
    f(1)^power (e = 0 where f(1) underflows), so no absolute error floor swamps a small integral.
    Quadrature nodes never repeat, so f takes the fold that _memo does not remember."""
    e = power * math.frexp(f_factor(1.0, kappa, l))[1]
    f = _radial(lambda rho: _folded_f(rho, *_fold.__wrapped__(rho, kappa)[::2], kappa, l))
    return (lambda t: np.ldexp(f(rho := np.exp(t)) ** power * rho, -e)), e


def state_quantum_numbers(N: int, l: int, kappa) -> tuple[int, float]:
    """Polynomial degree p = N - 1 - l/kappa and order q = (2l+1)/(2k) + 1/2.

    p must come out a non-negative integer for the state to exist; exact
    rational arithmetic is used when kappa allows it.
    """
    return _degree_order(N, l, *parse_kappa(kappa))


def _degree_order(N: int, l: int, kappa_f: float, exact: Fraction | None) -> tuple[int, float]:
    if l < 0:
        raise ValueError(f"no state at (N={N}, l={l}): l must be >= 0")
    if exact is not None:
        ratio = Fraction(l) / exact
        if ratio.denominator != 1:
            raise ValueError(f"no state at (N={N}, l={l}, kappa={exact}): l/kappa not integer")
        p = N - 1 - int(ratio)
    else:
        raw = N - 1 - l / kappa_f
        p = int(round(raw))
        if abs(raw - p) > 1e-9:
            raise ValueError(f"no state at (N={N}, l={l}, kappa={kappa_f}): p = {raw}")
    if p < 0:
        raise ValueError(f"no state at (N={N}, l={l}): negative degree p = {p}")
    q = (2.0 * l + 1.0) / (2.0 * kappa_f) + 0.5
    return p, q


@_radial
def radial_u(rho, N: int, l: int, kappa, normalized: bool = False):
    """Half-line radial solution u = rho * R at the quantized coupling.

    u(rho) = f(rho) * C_p^(q)(xi(rho)) with p radial nodes.  With
    ``normalized=True`` the result is scaled to unit norm on (0, inf);
    states with l = 0 are not normalizable and raise
    NonNormalizableStateError in that mode.
    """
    kappa_f, exact = parse_kappa(kappa)
    degree, q = _degree_order(N, l, kappa_f, exact)
    x, p, v = _fold(rho, kappa_f)
    f = _folded_f(rho, x, v, kappa_f, l)
    del x, v   # f is written over them: let them go before the polynomial's arrays are made
    u = gegenbauer_eval(degree, q, _xi(rho, p))
    u *= f
    if normalized:
        u *= normalization_constant(N, l, kappa)
    return u


def normalization_constant(N: int, l: int, kappa) -> float:
    """Positive constant scaling u to unit half-line norm, 2^(-e/2) / sqrt(I).

    I is the integral of f^2 C_p^q(xi)^2 d rho over 2^e in t = ln rho, on the scaled
    integrand of f^2 that the family integrals use.  alpha in (0, pi) maps onto the
    half-line by t = ln tan(alpha/2) / kappa, so xi = cos(alpha) and
    dt = d alpha / (kappa sin(alpha)); t is held to +-708, where rho = e^t stays a
    float and the tail is below rounding.  u ~ rho^(-l) at large rho, so the norm
    converges exactly when l >= 1.

    Raises NonNormalizableStateError at l = 0 (nothing is silently rescaled), and
    QuadratureError below kappa = (2l+1)/700, where f(1)^2 = 2^(-(2l+1)/kappa) is
    under 2^-700 and u^2 has weight where f^2 is under the normal float range, or
    where the quadrature fails at a degree whose C_p^(q)(1)^2 passes the float range.
    """
    kappa_f, exact = parse_kappa(kappa)
    degree, q = _degree_order(N, l, kappa_f, exact)
    if l < 1:
        raise NonNormalizableStateError(f"state (N={N}, l={l}, kappa={kappa_f}) is not "
                                        "normalizable: u tends to a non-zero constant at large rho")
    if kappa_f < (floor := (2.0 * l + 1.0) / 700.0):
        raise QuadratureError(f"the norm needs kappa >= (2l+1)/700 = {floor!r} at l = {l}, or "
                              "f^2 underflows where u^2 has weight", math.nan, math.inf)
    g, e = _f_integrand(kappa_f, l, 2)

    def integrand(alpha):
        t = np.clip(np.log(np.tan(0.5 * alpha)) / kappa_f, -708.0, 708.0)
        return g(t) * gegenbauer_eval(degree, q, np.cos(alpha)) ** 2 / (kappa_f * np.sin(alpha))

    try:
        norm2 = integrate_adaptive(integrand, 0.0, math.pi)
    except QuadratureError as exc:
        peak = gegenbauer_eval(degree, q, 1.0)   # the largest |C_p^(q)| on [-1, 1]
        if peak * peak < math.inf:
            raise
        raise QuadratureError(f"the norm of state (N={N}, l={l}, kappa={kappa_f}) at degree "
                              f"p = {degree} is out of reach: C_p^(q)(xi)^2 passes the float "
                              f"range (C_p^(q)(1) = {peak:.4g}, q = {q:.6g})",
                              exc.best_estimate, exc.error_bound) from exc
    return math.ldexp(1.0 / math.sqrt(norm2), -e // 2)


@_radial
def effective_potential_general(rho, w: float, kappa: float, l: int):
    """Half-line effective potential l(l+1)/rho^2 + U(rho) for arbitrary w.

    At the quantized coupling w(N, kappa) with N = 1 + l/kappa this is the
    lower SUSY partner of the l-ladder.
    """
    if l < 0:
        raise ValueError(f"l must be >= 0, got {l}")
    return _ueff(rho, w, kappa, l)


def enumerate_shell(N: int, kappa) -> list[StateLabel]:
    """All states sharing the coupling w(N, kappa), one label per (l, m).

    l runs over the values making n_r = N - 1 - l/kappa a non-negative
    integer (multiples of k1 for kappa = k1/k2 in lowest terms); each l
    contributes 2l + 1 labels.  For kappa = 1 the total count is N^2.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    _, exact = parse_kappa(kappa)
    if exact is None:
        raise ValueError("shell enumeration needs an exact rational kappa")
    # l/kappa = l k2/k1 integral (lowest terms) <=> l is a multiple of k1, and
    # n_r >= 0 bounds l by (N - 1) kappa; make_state checks each l on its own
    return [make_state(N, l, exact, m=m)
            for l in range(0, int((N - 1) * exact) + 1, exact.numerator)
            for m in range(-l, l + 1)]
