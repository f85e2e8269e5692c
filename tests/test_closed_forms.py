"""The zero-energy closed forms against a 50-digit oracle, and their
identities over continuous parameters.

The oracle evaluates each closed form with mpmath straight from its
defining expression: T = 1/(1 + rho^(2 kappa)), W = l/rho - (2l+1) T/rho
with its radial derivatives taken by mpmath's own differentiation of T,
U-+ = W^2 -+ W', f = rho^(l+1) T^((2l+1)/(2 kappa)), u = f C_p^(q)(xi) and
U_eff = l(l+1)/rho^2 + U.  A double result agrees when its distance to the
oracle is at most 1e-12 times the sum of the magnitudes of the terms the
quantity is made of, the size that rounding errors scale with where the
terms cancel.  Values below the smallest normal double may round to zero;
values beyond the largest must be the infinity of their sign.
"""

import contextlib
import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dosusy import model, numkit, susy
from dosusy.model import (
    effective_potential_general,
    f_factor,
    map_coordinates,
    parse_kappa,
    potential,
    radial_u,
)
from dosusy.susy import (
    natanzon_f_reconstruction,
    partner_minus,
    partner_minus_closed,
    partner_plus,
    partner_plus_closed,
    partner_plus_d2r,
    partner_plus_dr,
    superpotential,
    superpotential_d2r,
    superpotential_d3r,
    superpotential_dr,
)

KAPPAS = (0.3, 0.5, 1.0, 1.5, 3.7)
LS = (0, 1, 7, 20)
RADII = (1e-30, 1e-20, 1e-10, 1e-5, 0.01, 0.3, 0.9, 1.0, 1.3, 4.0, 100.0,
         1e5, 1e10, 1e20, 1e30)
WIDE = (1e-100, *RADII, 1e100)
# where rho^(2 kappa) under- or overflows for every kappa above 0.3 (and
# rho^2 for 1e+-160): the forms that are finite for every radius
EXTREME = (1e-200, 1e-160, 1e-50, *RADII, 1e50, 1e160, 1e200)
BOUND = 1e-12
TINY = np.finfo(float).tiny
HUGE = np.finfo(float).max
W_DERIVATIVES = (superpotential, superpotential_dr, superpotential_d2r, superpotential_d3r)


def agrees(got, exact, scale):
    if abs(exact) > HUGE:
        return got == math.copysign(math.inf, exact)
    return abs(mp.mpf(got) - exact) <= BOUND * scale + TINY


def oracle_T(r, k):
    return 1 / (1 + r ** (2 * k))


def oracle_w(r, k, l, order):
    """d^order W / d rho^order and its term-magnitude scale, by Leibniz's
    rule on W = (l - (2l+1) T) * (1/rho)."""
    def inv(m):  # d^m/d rho^m of 1/rho
        return (-1) ** m * mp.factorial(m) / r ** (m + 1)

    c = 2 * l + 1
    terms = [l * inv(order)]
    step = r * mp.ldexp(1, -mp.mp.prec - 10)  # relative to rho, as mp.diff's own is not
    for j in range(order + 1):
        Tj = mp.diff(lambda x: oracle_T(x, k), r, j, h=step)
        terms.append(-c * mp.binomial(order, j) * Tj * inv(order - j))
    return mp.fsum(terms), mp.fsum(abs(t) for t in terms)


def oracle_well(r, k):
    """rho^(2k-2) T^2, the shape of the potential well."""
    return r ** (2 * k - 2) * oracle_T(r, k) ** 2


def oracle_f(r, k, l):
    return r ** (l + 1) * oracle_T(r, k) ** ((2 * l + 1) / (2 * k))


@pytest.fixture(autouse=True)
def fifty_digits():
    with mp.workdps(50):
        yield


@pytest.mark.parametrize("kappa", KAPPAS)
@pytest.mark.parametrize("l", LS)
def test_superpotential_and_derivatives_match_oracle(kappa, l):
    k = mp.mpf(kappa)
    for order, fn in enumerate(W_DERIVATIVES):
        for rho in WIDE if order < 2 else RADII:
            exact, scale = oracle_w(mp.mpf(rho), k, l, order)
            got = fn(rho, kappa, l)
            assert agrees(got, exact, scale), (order, rho, got, exact)


@pytest.mark.parametrize("kappa", KAPPAS)
@pytest.mark.parametrize("l", LS)
@mp.workdps(260)  # W^2 -+ W' cancels by up to 222 digits (kappa = 3.7, rho = 1e-30)
def test_partners_match_oracle(kappa, l):
    k, c = mp.mpf(kappa), 2 * l + 1
    for rho in RADII:
        r = mp.mpf(rho)
        W, _ = oracle_w(r, k, l, 0)
        W1, _ = oracle_w(r, k, l, 1)
        riccati_scale = W * W + abs(W1)
        well = oracle_well(r, k)
        minus_terms = (l * (l + 1) / r ** 2, -c * (c + 2 * k) * well)
        plus_terms = (l * (l - 1) / r ** 2, -c * (c - 2 * k - 2) * well,
                      2 * c * oracle_T(r, k) ** 2 / r ** 2)
        for exact, terms, closed, assembled in (
                (W * W - W1, minus_terms, partner_minus_closed, partner_minus),
                (W * W + W1, plus_terms, partner_plus_closed, partner_plus)):
            got = closed(rho, kappa, l)
            assert agrees(got, exact, mp.fsum(abs(t) for t in terms)), (closed, rho, got, exact)
            got = assembled(rho, kappa, l)
            assert agrees(got, exact, riccati_scale), (assembled, rho, got, exact)


# rho from 1e-300 to 1e-150: the 1/rho^2 term and the well of U-+ pass the
# float range, at small kappa both of them, and at kappa = 1e-5 the well wins for l = 1
@pytest.mark.parametrize("kappa", (1e-5, 1e-3, 0.1, 0.5, 1.0))
@pytest.mark.parametrize("l", (0, 1, 2, 20))
def test_reduced_partners_where_their_terms_overflow_match_oracle(kappa, l):
    k, c = mp.mpf(kappa), 2 * l + 1
    rho = np.geomspace(1e-300, 1e-150, 76)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        minus, plus = (fn(rho, kappa, l) for fn in (partner_minus_closed, partner_plus_closed))
    for x, got_minus, got_plus in zip(rho.tolist(), minus.tolist(), plus.tolist()):
        r = mp.mpf(x)
        well = oracle_well(r, k)
        for got, terms in ((got_minus, (l * (l + 1) / r ** 2, -c * (c + 2 * k) * well)),
                           (got_plus, (l * (l - 1) / r ** 2, -c * (c - 2 * k - 2) * well,
                                       2 * c * oracle_T(r, k) ** 2 / r ** 2))):
            exact = mp.fsum(terms)
            assert agrees(got, exact, mp.fsum(abs(t) for t in terms)), (x, got, exact)


# Below rho ~ 1/HUGE model._well_root's h = T / rho overflows, and where rho^kappa is
# below the smallest normal double it has lost digits: U-+ at l = 0 read 0.0 for -3
# (kappa = 1, rho = 1e-310) and -3.6e-150 (kappa = 1.3, rho = 1e-250).
SUBNORMAL_EDGE = (1e-300, 1e-308, 1e-310, 1e-320, 5e-324)


@pytest.mark.parametrize("l", (0, 1, 2))
@mp.workdps(80)
def test_reduced_partners_at_the_subnormal_edge_match_oracle(l):
    c = 2 * l + 1
    for kappa in (*np.linspace(0.2, 4.0, 39)[1:-1].tolist(), 0.51, 0.8, 1.05, 1.3):
        k = mp.mpf(kappa)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = [fn(np.array(SUBNORMAL_EDGE), kappa, l)
                     for fn in (partner_minus_closed, partner_plus_closed)]
            single = [[fn(x, kappa, l) for x in SUBNORMAL_EDGE]
                      for fn in (partner_minus_closed, partner_plus_closed)]
        assert np.array_equal(batch, single)
        for x, got_minus, got_plus in zip(SUBNORMAL_EDGE, *single):
            r = mp.mpf(x)
            well = oracle_well(r, k)
            for got, terms in ((got_minus, (l * (l + 1) / r ** 2, -c * (c + 2 * k) * well)),
                               (got_plus, (l * (l - 1) / r ** 2, -c * (c - 2 * k - 2) * well,
                                           2 * c * oracle_T(r, k) ** 2 / r ** 2))):
                exact = mp.fsum(terms)
                assert agrees(got, exact, mp.fsum(abs(t) for t in terms)), (kappa, x, got, exact)


@pytest.mark.parametrize("kappa", KAPPAS)
@pytest.mark.parametrize("l", LS)
def test_f_and_potentials_match_oracle(kappa, l):
    k = mp.mpf(kappa)
    w = 3.25
    for rho in EXTREME:
        r = mp.mpf(rho)
        exact = oracle_f(r, k, l)
        assert agrees(f_factor(rho, kappa, l), exact, exact), (rho, exact)
        well = -w * oracle_well(r, k)
        got = potential(rho, w, kappa)
        assert agrees(got, well, -well), (rho, got, well)
        terms = (l * (l + 1) / r ** 2, well)
        got = effective_potential_general(rho, w, kappa, l)
        assert agrees(got, mp.fsum(terms), mp.fsum(abs(t) for t in terms)), (rho, got)


@pytest.mark.parametrize("kappa", KAPPAS)
def test_xi_matches_oracle(kappa):
    k = mp.mpf(kappa)
    for rho in EXTREME:
        p = mp.mpf(rho) ** (2 * k)
        exact = (1 - p) / (1 + p)
        xi, _ = map_coordinates(rho, kappa)
        assert agrees(xi, exact, abs(exact)), (rho, xi, exact)


@pytest.mark.parametrize("kappa", KAPPAS)
def test_alpha_matches_oracle(kappa):
    k = mp.mpf(kappa)
    for rho in EXTREME:
        exact = 2 * mp.atan(mp.mpf(rho) ** k)
        _, alpha = map_coordinates(rho, kappa)
        assert agrees(alpha, exact, exact), (rho, alpha, exact)


@pytest.mark.parametrize("kappa", KAPPAS)
def test_compact_coordinates_raise_no_warning_at_extreme_radii(kappa):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        xi, alpha = map_coordinates(np.array([1e-200, 1e-30, 1e30, 1e200]), kappa)
        # the quadrature route integrates in t = ln rho, where xi = +-1 is harmless
        grid = np.array([1e-30, 0.5, 1.0, 2.0, 1e30])
        ratio = natanzon_f_reconstruction(grid, kappa, 1) / f_factor(grid, kappa, 1)
    np.testing.assert_array_equal(np.abs(xi), 1.0)
    assert alpha[0] >= 0.0 and alpha[-1] == math.pi
    assert np.max(np.abs(ratio / ratio[2] - 1.0)) < 1e-9


@pytest.mark.parametrize("kappa", KAPPAS)
@pytest.mark.parametrize("l", (0, 1, 7))
def test_reconstruction_ratio_is_constant_out_to_extreme_radii(kappa, l):
    grid = np.geomspace(1e-30, 1e30, 121)
    ratio = natanzon_f_reconstruction(grid, kappa, l) / f_factor(grid, kappa, l)
    assert np.max(np.abs(ratio / np.median(ratio) - 1.0)) < 1e-10


def _fold_forms(kappa, l):
    """Every closed form written on the fold x = min(rho, 1/rho), one output each."""
    return [lambda r: f_factor(r, kappa, l),
            lambda r: radial_u(r, 3, 0, kappa),
            lambda r: potential(r, 3.0, kappa),
            lambda r: effective_potential_general(r, 3.0, kappa, l),
            lambda r: map_coordinates(r, kappa)[0],
            lambda r: map_coordinates(r, kappa)[1]]


def _forms_without_well_root(kappa, l):
    """Every closed form that does not take the partners' power rho^kappa."""
    susy_forms = (*W_DERIVATIVES, partner_minus, partner_plus, partner_plus_dr,
                  partner_plus_d2r)
    return [lambda r, fn=fn: fn(r, kappa, l) for fn in susy_forms] + _fold_forms(kappa, l)


@pytest.mark.parametrize("kappa", (1e-5, 0.1, 0.5, 1.0, 1.5, 3.7))
@pytest.mark.parametrize("l", (0, 1, 7))
def test_closed_forms_raise_no_warning_at_extreme_radii(kappa, l):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for form in _forms_without_well_root(kappa, l):
            form(1e200)
        # a scalar call is as quiet as an array call, and gives its lane's value, below
        # rho = 2^-1024, where the fold's 1/rho passes the float range, and where a
        # single power passes it (U and U_eff at l = 0, U-+ where rho^kappa is inf)
        subnormal = np.array([5e-324, 1e-310])
        lanes = [(form(subnormal), [form(r) for r in subnormal.tolist()])
                 for form in _fold_forms(kappa, l)]
        for form in (lambda r: potential(r, 3.0, kappa),
                     lambda r: effective_potential_general(r, 3.0, kappa, 0)):
            lanes.append((form(np.array([1e-200])), [form(1e-200)]))
        for fn in (partner_minus_closed, partner_plus_closed):
            lanes.append((fn(np.array([1e259]), 1.5, l), [fn(1e259, 1.5, l)]))
        # at rho = 1e-200 the values that are representable: W, f, u, U, xi and alpha
        superpotential(1e-200, kappa, l)
        f_factor(1e-200, kappa, l)
        radial_u(1e-200, 3, 0, kappa)
        potential(1e-200, 3.0, kappa)
        map_coordinates(1e-200, kappa)
        # the rest pass the largest double there and are infinities of their sign:
        # W^(n) ~ -(l+1) (-1)^n n! / rho^(n+1), U+ ~ (l+1)(l+2) / rho^2 and its derivatives
        derivs = [fn(1e-200, kappa, l) for fn in W_DERIVATIVES[1:]]
        plus = [fn(1e-200, kappa, l) for fn in (partner_plus, partner_plus_dr, partner_plus_d2r)]
        # U- and U_eff are l(l+1) / rho^2 against a well rho^(2 kappa - 2) T^2: infinities
        # of either sign, or at l = 0 the well alone
        ueff = effective_potential_general(1e-200, 3.0, kappa, l)
        if l:   # at l = 0 U-'s numerator may cancel to 0 and the quotient is NaN
            minus_assembled = partner_minus(1e-200, kappa, l)
        # rho * rho underflows to 0: the reduced partners' centrifugal term is 0 where
        # its coefficient is (U- at l = 0 is its well alone) and +inf elsewhere
        minus, plus_closed = (fn(1e-200, kappa, l)
                              for fn in (partner_minus_closed, partner_plus_closed))
        # W = (l - (2l+1) T) / rho passes the largest double at 1e-308 for l > 0 and T ~ 1
        w_edge = superpotential(1e-308, kappa, l)
    r, k, c = mp.mpf("1e-200"), mp.mpf(kappa), 2 * l + 1
    minus_terms = (l * (l + 1) / r ** 2, -c * (c + 2 * k) * oracle_well(r, k))
    ueff_terms = (l * (l + 1) / r ** 2, -3 * oracle_well(r, k))
    for got, terms in ((minus, minus_terms), (ueff, ueff_terms),
                       *([(minus_assembled, minus_terms)] if l else [])):
        assert agrees(got, mp.fsum(terms), mp.fsum(abs(t) for t in terms)), (got, terms)
    assert plus_closed == math.inf
    assert agrees(w_edge, *oracle_w(mp.mpf("1e-308"), k, l, 0)), w_edge
    assert derivs == [math.inf, -math.inf, math.inf]
    assert plus == [math.inf, -math.inf, math.inf]
    # bit for bit: a scalar's powers are taken by numpy's own loop, as its lane's are, not by
    # the C library's pow, which may differ in the last bit (alpha at kappa = 1e-5, rho = 1e-310)
    for batch, single in lanes:
        assert same_bits(batch, np.array(single)), (batch, single)


def oracle_u_plus_d2r(r, k, l):
    """d^2 U_+ / d rho^2 by mpmath's differentiation of the reduced form l(l-1)/rho^2
    - c(c-2k-2) rho^(2k-2) T^2 + 2c T^2/rho^2, c = 2l+1, and its term-magnitude scale."""
    c = 2 * l + 1
    step = r * mp.ldexp(1, -mp.mp.prec - 10)
    terms = [6 * l * (l - 1) / r ** 4,
             mp.diff(lambda x: -c * (c - 2 * k - 2) * oracle_well(x, k)
                     + 2 * c * oracle_T(x, k) ** 2 / x ** 2, r, 2, h=step)]
    return mp.fsum(terms), mp.fsum(abs(t) for t in terms)


# W'', W''', U+' and U+'' on the numerators B_0..B_3 of d^n W / d rho^n = B_n / rho^(n+1)
HIGHER_FORMS = {
    "W''": (superpotential_d2r, 2, lambda B0, B1, B2, B3: B2),
    "W'''": (superpotential_d3r, 3, lambda B0, B1, B2, B3: B3),
    "U+'": (partner_plus_dr, 2, lambda B0, B1, B2, B3: 2.0 * B0 * B1 + B2),
    "U+''": (partner_plus_d2r, 3, lambda B0, B1, B2, B3: 2.0 * (B1 * B1 + B0 * B2) + B3),
}


def higher_forms(rho, kappa, l):
    """The four forms on the array rho, with warnings as errors; asserts that the call at
    each radius alone is its array lane bit for bit."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lanes = {name: fn(rho, kappa, l) for name, (fn, _, _) in HIGHER_FORMS.items()}
        for name, (fn, _, _) in HIGHER_FORMS.items():
            single = np.array([fn(r, kappa, l) for r in rho.tolist()])
            assert same_bits(single, lanes[name]), (name, single, lanes[name])
    return lanes


def assert_limits(rho, kappa, l):
    """Where rho^(2 kappa) is 0 or inf (T = 1 or 0) each form is its limit: B_n is
    (-1)^n n! l beyond rho = 1 and -(-1)^n n! (l+1) inside it."""
    lanes = higher_forms(rho, kappa, l)
    B = [np.where(rho > 1.0, l, -(l + 1.0)) * (-1) ** n * math.factorial(n) for n in range(4)]
    with np.errstate(over="ignore", divide="ignore"):   # rho^(n+1) may be inf or 0
        for name, (_, order, combine) in HIGHER_FORMS.items():
            want = combine(*B) / rho ** (order + 1)
            assert np.array_equal(lanes[name], want), (name, l, lanes[name], want)
    return lanes


def oracle_higher(r, k, l):
    """(exact, scale) of each higher form: W'' and W''' by oracle_w, U+' as 2 W W' + W''
    on them and U+'' by oracle_u_plus_d2r.  At rho = 1 the working precision grows with
    log k, so that the steps stay under 1/k."""
    with mp.workprec(mp.mp.prec + (int(mp.log(k, 2)) if r == 1 else 0)):
        (w0, s0), (w1, s1), w2, w3 = (oracle_w(r, k, l, n) for n in range(4))
        return {"W''": w2, "W'''": w3, "U+'": (2 * w0 * w1 + w2[0], 2 * s0 * s1 + w2[1]),
                "U+''": oracle_u_plus_d2r(r, k, l)}


# Past kappa = 1e100 rho^(2 kappa) is 0 or inf at every float rho != 1, one ulp away too,
# and past 2.8e102 (2 kappa)^3 passes the float range, past 9e307 2 kappa itself.  Each power
# of k multiplies a factor that is 0 at T = 0 and T = 1 first, so the forms are their limits
# there with no warning; at rho = 1 (T = 1/2) they are finite, or the infinity of their sign
# past the range (U+'' the k^3 term's, where B_1^2 passes the range against it).
@pytest.mark.parametrize("kappa", (1e103, 1e150, 1e160, 1e300, 1e308))
def test_third_order_forms_take_their_limit_where_t_underflows_at_huge_kappa(kappa):
    rho = np.array([0.5, 2.0, 1e-50, 1e-3, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0),
                    1.5, 1e3, 1e50])
    k = mp.mpf(kappa)
    for l in (0, 1, 2, 7):
        lanes = assert_limits(rho, kappa, l)
        if l not in (0, 7):   # the oracle at two l: 0.5, 2 and 1
            continue
        for i in range(2):
            for name, want in oracle_higher(mp.mpf(rho[i]), k, l).items():
                assert agrees(lanes[name][i], *want), (name, l, rho[i], lanes[name][i])
        for name, want in oracle_higher(mp.mpf(1), k, l).items():
            fn = HIGHER_FORMS[name][0]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                lane, single = fn(np.array([1.0]), kappa, l), fn(1.0, kappa, l)
            assert same_bits(np.array([single]), lane), (name, lane, single)
            # past kappa = HUGE/22 a term (11 kS) may pass the range where the form does not,
            # which is then the infinity of its sign
            assert agrees(single, *want) or (kappa > HUGE / 22 and single == math.copysign(
                math.inf, want[0])), (name, l, single, want)


def test_closed_partners_look_their_reduced_route_up_at_call_time(monkeypatch):
    # both reduced partners are one body, susy._reduced, found through susy when called
    calls = []
    monkeypatch.setattr(susy, "_reduced", lambda rho, kappa, *coefs: calls.append(coefs) or 7.0)
    assert partner_minus_closed(0.5, 1.0, 2) == 7.0
    assert partner_plus_closed(0.5, 1.0, 2) == 7.0
    assert calls == [(6.0, 35.0), (2.0, 5.0, 10.0)]


# (kappa, l) pairs with l/kappa an integer, each with polynomial degrees 0, 1, 3
STATES = [(kappa, l, 1 + round(l / kappa) + p)
          for kappa, l in ((0.3, 0), (0.5, 0), (0.5, 1), (0.5, 7), (0.5, 20), (1.0, 1),
                           (1.0, 7), (1.0, 20), (1.5, 0), (3.7, 0))
          for p in (0, 1, 3)]


@pytest.mark.parametrize("kappa, l, N", STATES)
def test_radial_u_matches_oracle(kappa, l, N):
    k = mp.mpf(kappa)
    p = N - 1 - round(l / kappa)
    q = (2 * l + 1) / (2 * k) + mp.mpf(1) / 2
    for rho in EXTREME:
        r = mp.mpf(rho)
        xi = (1 - r ** (2 * k)) / (1 + r ** (2 * k))
        # explicit sum C_p^(q)(xi) = sum_j (-1)^j (q)_(p-j) / (j! (p-2j)!) (2 xi)^(p-2j)
        terms = [(-1) ** j * mp.rf(q, p - j) / (mp.factorial(j) * mp.factorial(p - 2 * j))
                 * (2 * xi) ** (p - 2 * j) for j in range(p // 2 + 1)]
        f = oracle_f(r, k, l)
        got = radial_u(rho, N, l, kappa)
        assert agrees(got, f * mp.fsum(terms), f * mp.fsum(abs(t) for t in terms)), (rho, got)


# ----------------------------------------------------------------------
# identities over continuous parameters
# ----------------------------------------------------------------------

# U-+ are still NaN where model._well_root's rho^kappa overflows (ROADMAP, Known
# defects), so the Riccati property stays inside rho = 1e+-30
RADII_LOG = st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=32)
# the forms written on the fold are finite and accurate over the whole float range
RADII_LOG_WIDE = st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=32)


@settings(max_examples=60, deadline=None)
@given(kappa=st.floats(0.2, 4.0), l=st.floats(0.0, 20.0), log_rho=RADII_LOG)
def test_riccati_identities_over_continuous_parameters(kappa, l, log_rho):
    rho = 10.0 ** np.array(log_rho)
    W = superpotential(rho, kappa, l)
    W1 = superpotential_dr(rho, kappa, l)
    assert np.all(np.isfinite(W1))
    for sign, closed in ((-1.0, partner_minus_closed), (1.0, partner_plus_closed)):
        U = closed(rho, kappa, l)
        # the riccati suite's scaling: W^2, W' and U may each reach 1/rho^2
        scale = W * W + np.abs(W1) + np.abs(U) + 1e-300
        assert np.max(np.abs(W * W + sign * W1 - U) / scale) < 1e-10


@settings(max_examples=60, deadline=None)
@given(kappa=st.floats(0.2, 4.0), l=st.integers(0, 20), log_rho=RADII_LOG_WIDE)
def test_radial_u_is_f_at_every_ladder_bottom(kappa, l, log_rho):
    rho = 10.0 ** np.array(log_rho)
    if l:  # a state needs l/kappa integral: move kappa to the nearest l/j in range
        kappa = l / min(max(round(l / kappa), math.ceil(l / 4.0)), 5 * l)
    # radial_u works with kappa rounded to a small-denominator fraction
    # when one lies within 1e-12, so f is compared at that kappa
    kappa_f, _ = parse_kappa(kappa)
    u = radial_u(rho, 1 + round(l / kappa_f), l, kappa)
    np.testing.assert_array_equal(u, f_factor(rho, kappa_f, l))


@settings(max_examples=60, deadline=None)
@given(kappa=st.floats(0.2, 4.0), log_rho=RADII_LOG_WIDE)
def test_xi_is_odd_under_inversion(kappa, log_rho):
    rho = 10.0 ** np.array(log_rho)
    # 1/(1/rho) may be rho off by an ulp, which moves rho^(2 kappa) by 2 kappa ulps
    xi, _ = map_coordinates(rho, kappa)
    xi_inverted, _ = map_coordinates(1.0 / rho, kappa)
    assert np.max(np.abs(xi_inverted + xi)) <= 1e-15


# every float rho != 1 at every kappa past 1e100, 2 kappa past the float range too, l = 0..30
@settings(max_examples=100, deadline=None)
@given(log_kappa=st.floats(100.0, 308.25), l=st.integers(0, 30), log_rho=RADII_LOG_WIDE)
def test_higher_forms_are_their_limits_at_every_radius_past_kappa_1e100(log_kappa, l, log_rho):
    rho = 10.0 ** np.array(log_rho)
    assume(np.all(rho != 1.0))
    assert_limits(rho, 10.0 ** log_kappa, l)


# ----------------------------------------------------------------------
# the radius contract, shared by every closed form
# ----------------------------------------------------------------------

def contract_forms(kappa, l):
    """Every public closed form taking a radius first, at (kappa, l): between
    them they reach each closed form the contract decorates."""
    return {
        "map_coordinates": lambda r: map_coordinates(r, kappa),
        "potential": lambda r: potential(r, 3.0, kappa),
        "f_factor": lambda r: f_factor(r, kappa, l),
        "radial_u": lambda r: radial_u(r, 3, 0, kappa),
        "effective_potential_general": lambda r: effective_potential_general(r, 3.0, kappa, l),
        **{fn.__name__: (lambda r, fn=fn: fn(r, kappa, l))
           for fn in (*W_DERIVATIVES, partner_minus, partner_plus, partner_minus_closed,
                      partner_plus_closed, partner_plus_dr, partner_plus_d2r)},
    }


CONTRACT = contract_forms(1.5, 2)


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_radius_contract(name):
    form = CONTRACT[name]
    rho = [0.3, 1.0, 2.5]
    many, one = form(rho), form(rho[1])
    many = many if isinstance(many, tuple) else (many,)
    one = one if isinstance(one, tuple) else (one,)
    assert all(type(x) is np.ndarray and x.shape == (3,) for x in many)
    assert all(type(x) is float for x in one)
    assert list(one) == [x[1] for x in many]
    for bad in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="rho"):
            form(bad)
        with pytest.raises(ValueError, match="rho"):
            form(np.array([0.5, bad]))


# ----------------------------------------------------------------------
# closed forms compute in arrays they made: no argument is written
# ----------------------------------------------------------------------

def frozen(a):
    """A read-only float copy of a: a write into it raises."""
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


def assert_own_results(out, *inputs):
    """Each result shares no memory with any input."""
    for x in out if isinstance(out, tuple) else (out,):
        assert not any(np.shares_memory(x, a) for a in inputs)


L_COLUMN = np.arange(32.0).reshape(32, 1) * 0.37   # continuous l, one per row


@pytest.mark.parametrize("case", ["0-d", "grid", "l-column"])
def test_closed_forms_write_no_argument_and_return_their_own_arrays(case):
    rho = frozen(0.7 if case == "0-d" else np.geomspace(1e-3, 1e3, 301))
    if case == "l-column":
        l = frozen(L_COLUMN)
        forms = {fn.__name__: (lambda r, fn=fn: fn(r, 1.37, l))
                 for fn in (*W_DERIVATIVES, partner_minus, partner_plus, partner_minus_closed,
                            partner_plus_closed, partner_plus_dr, partner_plus_d2r)}
        inputs = (rho, l)
    else:
        forms = {**contract_forms(1.37, 7), **contract_forms(0.5, 0),
                 "radial_u at l": lambda r: radial_u(r, 4, 1, 0.5),
                 "radial_u normalized": lambda r: radial_u(r, 4, 1, 0.5, normalized=True)}
        inputs = (rho,)
    copies = [a.copy() for a in inputs]
    for name, form in forms.items():
        out = form(rho)
        assert np.shape(out[0] if isinstance(out, tuple) else out) == np.broadcast_shapes(
            *(a.shape for a in inputs)), name
        assert_own_results(out, *inputs)
    for a, copy in zip(inputs, copies):
        assert same_bits(a, copy)


@pytest.mark.parametrize("p", range(5))
def test_gegenbauer_eval_writes_no_argument(p):
    x = frozen(np.linspace(-1.0, 1.0, 301))
    out = numkit.gegenbauer_eval(p, 2.37, x)
    assert_own_results(out, x)
    assert same_bits(x, np.linspace(-1.0, 1.0, 301))


@pytest.mark.parametrize("l", [0.0, 1.0, L_COLUMN], ids=["l=0", "l=1", "l-column"])
def test_numerators_leave_t_to_the_next_call(l):
    # the solver takes two sets of numerators from one T
    T = frozen(np.linspace(0.0, 1.0, 257))
    B = susy._numerators_t(T, 1.3, l, 3)
    assert_own_results(tuple(B), T)
    assert same_bits(T, np.linspace(0.0, 1.0, 257))
    assert same_bits(susy._numerators_t(T, 1.3, l, 3)[3], B[3])


# Peak traced memory of each form on a 16,384-point grid (128 KiB an array),
# in units of its output, when each form evaluated its expression in one go
# with a new array for every operation.
EXPRESSION_AT_ONCE_PEAKS = {"W": 3.0, "W'": 6.0, "U-": 5.0, "U+": 5.0, "f": 6.0, "u": 9.0,
                            "U_eff": 5.0}


def test_closed_form_grid_forms_hold_few_grid_arrays():
    kappa, l, N = 1.37, 7, 3
    grid = np.geomspace(1e-6, 1e6, 16384)
    forms = {"W": lambda: superpotential(grid, kappa, l),
             "W'": lambda: superpotential_dr(grid, kappa, l),
             "U-": lambda: partner_minus_closed(grid, kappa, l),
             "U+": lambda: partner_plus_closed(grid, kappa, l),
             "f": lambda: f_factor(grid, kappa, l),
             "u": lambda: radial_u(grid, N, 0, kappa),
             "U_eff": lambda: effective_potential_general(
                 grid, (2 * l + 1.0) * (2 * l + 2 * kappa + 1.0), kappa, l)}
    peaks = {}
    for name, form in forms.items():
        form()
        tracemalloc.start()
        try:
            out = form()
            peaks[name] = tracemalloc.get_traced_memory()[1] / out.nbytes
        finally:
            tracemalloc.stop()
    # 0.1 of an array covers the small objects a call allocates besides its arrays
    assert all(peaks[name] <= EXPRESSION_AT_ONCE_PEAKS[name] + 0.1 for name in forms), peaks
    assert sum(peaks.values()) <= 27.0, peaks


# ----------------------------------------------------------------------
# powers of the radius: model._pow is b ** e bit for bit
# ----------------------------------------------------------------------

RHO_FULL = np.geomspace(1e-300, 1e300, 2001)
FOLD_FULL = np.minimum(RHO_FULL, 1.0 / RHO_FULL)   # the fold x over [1e-300, 1]
KAPPA_LOG = np.geomspace(1e-3, 1e3, 31)
# 2 kappa, the integers l, the negative 2 kappa - 2, as the closed forms pass them
EXPONENTS = [*(2.0 * KAPPA_LOG).tolist(), *range(21),
             *(2.0 * KAPPA_LOG[KAPPA_LOG < 1.0] - 2.0).tolist()]
# model._ueff's exponent at l = 0: 2 kappa - 2 inside rho = 1, 2 kappa + 2 beyond
UEFF_EXPONENTS = [np.where(RHO_FULL > 1.0, 2.0 * kappa + 2.0, 2.0 * kappa - 2.0)
                  for kappa in (1e-3, 0.2, 1.0, 2.29, 1e3)]


def same_bits(got, want):
    """Same type and shape, NaN in the same lanes and the same bits in all others."""
    a, b = np.asarray(got), np.asarray(want)
    nan = np.isnan(b)
    return (type(got) is type(want) and a.shape == b.shape
            and np.array_equal(np.isnan(a), nan)
            and np.array_equal(np.where(nan, 0.0, a).view(np.int64),
                               np.where(nan, 0.0, b).view(np.int64)))


@contextlib.contextmanager
def radial_span(rho):
    """_pow's view inside a _radial call on rho; outside one it judges every lane."""
    token = model._SPAN.set(model._check_rho(rho)[1])
    try:
        yield
    finally:
        model._SPAN.reset(token)


@pytest.mark.parametrize("inside", [False, True], ids=["outside-radial", "inside-radial"])
def test_pow_is_the_power_bit_for_bit(inside):
    with radial_span(RHO_FULL) if inside else contextlib.nullcontext():
        for base in (RHO_FULL, FOLD_FULL):
            for e in EXPONENTS + UEFF_EXPONENTS:
                with np.errstate(over="ignore"):
                    want = base ** e
                assert same_bits(model._pow(base, e), want), (base[0], e)


@pytest.mark.parametrize("base", [np.float64(1e-300), np.asarray(1e-300), np.asarray(0.5),
                                  np.float64(1e300), np.asarray(1e300)],
                         ids=["scalar-1e-300", "0d-1e-300", "0d-0.5", "scalar-1e300", "0d-1e300"])
def test_pow_of_a_scalar_base_is_plain_power(base):
    # the plain power of the base as a 0-d array, numpy's own loop, as its lane in an array
    # has: a numpy float's ** is the C library's pow, which may differ in the last bit
    for e in EXPONENTS + UEFF_EXPONENTS:
        with np.errstate(over="ignore"):
            assert same_bits(model._pow(base, e), np.asarray(base) ** e), e
            if np.ndim(e) == 0:
                assert same_bits(model._pow(base, e), (np.full(3, base) ** e)[1]), e


class _Watched(np.ndarray):
    """A base that records every lane ** or np.power is asked for."""
    lanes = []

    def __pow__(self, e):
        base = self.view(np.ndarray)
        _Watched.lanes.append(e * np.log2(base))   # log2 of each power asked for
        return base ** e

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        inputs = [x.view(np.ndarray) if isinstance(x, _Watched) else x for x in inputs]
        if ufunc is np.power:   # only the lanes where= lets through
            asked = inputs[1] * np.log2(inputs[0])
            _Watched.lanes.append(asked[np.broadcast_to(kwargs.get("where", True), asked.shape)])
        return getattr(ufunc, method)(*inputs, **kwargs)


@pytest.mark.parametrize("inside", [False, True], ids=["outside-radial", "inside-radial"])
def test_pow_sends_no_lane_past_the_float_range_to_pow(inside):
    filled = 0
    with radial_span(RHO_FULL) if inside else contextlib.nullcontext():
        for base in (RHO_FULL, FOLD_FULL):
            for e in EXPONENTS + UEFF_EXPONENTS:
                _Watched.lanes = []
                model._pow(base.view(_Watched), e)
                asked = np.concatenate([np.ravel(t) for t in _Watched.lanes])
                # the margins to 2^-1075 and 2^1024 dwarf log2's rounding
                assert np.all((asked >= -1100.001) & (asked <= 1030.001)), e
                filled += base.size - asked.size
    assert filled > 10 ** 5


@pytest.mark.parametrize("kappa", [0.2, 1.0, 2.29, 4.0])
@pytest.mark.parametrize("l", [0, 16, 20])
def test_closed_forms_keep_their_bits_without_pow_at_extreme_radii(kappa, l, monkeypatch):
    forms = contract_forms(kappa, l)
    ladder = round(l / kappa)
    if abs(ladder * kappa - l) < 1e-9:   # a bound-family state at this l: its ladder bottom
        forms["radial_u at l"] = lambda r: radial_u(r, 1 + ladder, l, kappa)
    grids = (np.geomspace(1e-150, 1e150, 4001), np.geomspace(1e-300, 1e300, 4001))

    def evaluate():
        with np.errstate(all="ignore"):
            return {(name, i): form(grid) for name, form in forms.items()
                    for i, grid in enumerate(grids)}

    got = evaluate()
    monkeypatch.setattr(model, "_pow", lambda b, e: b ** e)
    monkeypatch.setattr(susy, "_pow", lambda b, e: b ** e)
    want = evaluate()
    for key, value in want.items():
        assert same_bits(got[key], value), key


# The guarded powers and the well's lost lanes, pinned to the whole-grid expressions
# they replaced: _pow gathered its kept lanes, powered them and scattered them back, and
# _well_root took rho^(kappa-1)/(t^2 + 1) on every lane and chose it where t h loses g.

def _pow_gathered(b, e):
    """b ** e as _pow's guarded branch took it: every lane judged, the kept ones gathered."""
    b, arr = np.asanyarray(b), isinstance(e, np.ndarray)
    with np.errstate(divide="ignore", over="ignore"):
        if b.ndim == 0:
            return b ** e
        m = np.abs(e)
        s = np.where(e < 0, 1.0 / b, b) if arr else (1.0 / b if e < 0 else b)
        inf = s > np.exp2(1030.0 / m)
        keep = ~(inf | (s < np.exp2(-1100.0 / m)))
        out = np.where(inf, np.inf, 0.0)
        out[keep] = b[keep] ** (e[keep] if arr else e)
    return out


def _well_root_whole_grid(rho, kappa):
    t = _pow_gathered(rho, kappa)
    with np.errstate(over="ignore", invalid="ignore"):
        h = 1.0 / ((t * t + 1.0) * rho)
        lost = (t < TINY) | np.isinf(h)
        return np.where(lost, _pow_gathered(rho, kappa - 1.0) / (t * t + 1.0), t * h), h


WIDE_GRIDS = {"1e+-150": np.geomspace(1e-150, 1e150, 4001),
              "1e+-300": np.geomspace(1e-300, 1e300, 4001),
              "1 to 1e250": np.geomspace(1.0, 1e250, 2001)}


@pytest.mark.parametrize("kappa", [2.3, 3.7, 7.3])
@pytest.mark.parametrize("grid", [*WIDE_GRIDS, 1e259, 1e-310])
def test_guarded_powers_and_well_root_keep_their_whole_grid_bits(grid, kappa, monkeypatch):
    rho = np.asarray(WIDE_GRIDS.get(grid, grid))
    with np.errstate(over="ignore"):
        x = np.minimum(rho, 1.0 / rho)
    with radial_span(rho):
        for base, e in [(rho, e) for e in (kappa, 2 * kappa, kappa - 1, 1.0, 2.0, 3.0, 4.0)] + \
                       [(x, e) for e in (2 * kappa, kappa, 0.5, -1.0, -2.0, 7.0, 20.0)] + \
                       [(x, np.where(rho > 1.0, 2 * kappa + 2, 2 * kappa - 2))]:
            assert same_bits(model._pow(base, e), _pow_gathered(base, e)), (grid, e)
        g, h = model._well_root(rho, kappa)
        want_g, want_h = _well_root_whole_grid(rho, kappa)
    assert same_bits(g, want_g) and same_bits(h, want_h), grid
    with np.errstate(over="ignore"):
        overflow = np.isinf(rho ** kappa)
    assert np.array_equal(np.isnan(g), overflow)   # g is NaN where rho^kappa overflows
    # the reduced partners on a scalar l and an l column keep their bits and their NaN
    # lanes: closed-form-grid's 1e+-150 batches fail where rho^kappa overflows
    got = {(fn.__name__, i): fn(rho, kappa, l) for fn in (partner_minus_closed, partner_plus_closed)
           for i, l in enumerate((3, L_COLUMN))}
    monkeypatch.setattr(susy, "_well_root", _well_root_whole_grid)
    monkeypatch.setattr(susy, "_pow", _pow_gathered)
    for (name, i), value in got.items():
        l = (3, L_COLUMN)[i]
        assert same_bits(value, getattr(susy, name)(rho, kappa, l)), (name, l)
        if grid != "1e+-300":   # there every term may pass the range, and P is taken instead
            assert np.array_equal(np.isnan(value), np.broadcast_to(overflow, np.shape(value)))


# Past kappa = HUGE/2, k = 2 kappa is inf; each product with k is taken as (2x) kappa.
@pytest.mark.parametrize("kappa", [1e308, 1.7e308])
def test_first_derivative_takes_its_limits_where_k_overflows(kappa):
    rho = np.array([0.5, 1e-300, 1.0, 2.0, 1e300])
    for l in (0, 1, 7):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lane = superpotential_dr(rho, kappa, l)
            single = [superpotential_dr(r, kappa, l) for r in rho.tolist()]
        assert same_bits(np.array(single), lane), (l, lane, single)
        # B_1 is l + 1 inside rho = 1, -l beyond it and (l + 1/2)(1 + kappa) - l at rho = 1
        with np.errstate(over="ignore", divide="ignore"):
            want = np.array([l + 1.0, l + 1.0, (l + 0.5) * (1.0 + kappa) - l, -l, -l]) / rho ** 2
        assert np.array_equal(lane, want), (l, lane, want)
    assert superpotential_dr(2.0, kappa, 1) == -0.25 and superpotential_dr(0.5, kappa, 1) == 8.0
    assert superpotential_d2r(2.0, kappa, 1) == 0.25 and superpotential_d3r(2.0, kappa, 1) == -0.375


def test_upper_partner_curvature_at_rho_1_is_the_k3_term_infinity():
    # B_1^2 passes the range at rho = 1 against the -inf k^3 term of B_3: the sum is -inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert partner_plus_d2r(1.0, 1e160, 1) == -math.inf
        assert superpotential_d3r(1.0, 1e308, 1) == -math.inf
        lanes = partner_plus_d2r(np.array([0.5, 1.0, 2.0]), 1e300, L_COLUMN)
    assert np.all(lanes[:, 1] == -math.inf) and np.all(np.isfinite(lanes[:, [0, 2]]))
