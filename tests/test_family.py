"""One-parameter families and the printed-series audit.

The kappa = 1, l = 0 family admits a hand-computed closed form that anchors
everything else: there f^2 = rho^2/(1+rho^2), the anchored integral of f^-2
is rho - 1/rho, and the lambda = 0 coefficient collapses to

    V(rho) = rho (1 - rho^2) / (1 + rho^2),

with V(1) = 0, V(2) = -1.2 and a shifted-member zero at the root of
rho - 1/rho = -lambda.  The audit expectations below (verdicts and measured
deviation factors) are frozen numbers from the quadrature oracle; they are
deterministic because the audit abscissae are fixed.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dosusy import family
from dosusy.exceptions import SingularPointError
from dosusy.family import (
    AUDIT_MATCH_TOL,
    FORMULA_IDS,
    family_on_grid,
    family_superpotential,
    printed_series_eval,
    series_audit,
    v_family,
    v_zeros,
)
from dosusy.model import default_grid, f_factor
from dosusy.susy import superpotential


def closed_v(rho):
    return rho * (1.0 - rho * rho) / (1.0 + rho * rho)


# ----------------------------------------------------------------------
# family coefficient V
# ----------------------------------------------------------------------

@pytest.mark.parametrize("rho", [0.3, 1.0, 2.0, 5.0])
def test_bosonic_closed_form(rho):
    got = v_family(rho, 1.0, 0, lam=0.0, side="bosonic")
    assert got == pytest.approx(closed_v(rho), rel=1e-10, abs=1e-12)


def test_bosonic_spot_values():
    assert abs(v_family(1.0, 1.0, 0)) < 1e-13
    assert v_family(2.0, 1.0, 0) == pytest.approx(-1.2, rel=1e-10)


@pytest.mark.parametrize("side", ["bosonic", "fermionic"])
def test_point_values_are_plain_floats(side):
    assert type(v_family(2.0, 1.0, 0, 0.25, side)) is float
    assert type(family_superpotential(2.0, 1.0, 0, 0.25, side)) is float


@pytest.mark.parametrize("side", ["bosonic", "fermionic"])
@pytest.mark.parametrize("lam", [-2.0, 0.5, 3.0])
def test_lambda_shift_is_exact(side, lam):
    # Shifting lambda adds -lam f^2 (bosonic) or +lam/f^2 (fermionic);
    # the quadrature part is identical, so the shift is essentially exact.
    kappa, l, rho = 1.0, 1, 1.7
    base = v_family(rho, kappa, l, 0.0, side)
    shifted = v_family(rho, kappa, l, lam, side)
    f2 = f_factor(rho, kappa, l) ** 2
    expect = base - lam * f2 if side == "bosonic" else base + lam / f2
    assert shifted == pytest.approx(expect, rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("side, sign", [("bosonic", -1.0), ("fermionic", 1.0)])
@pytest.mark.parametrize("rho", [0.5, 1.5])
def test_defining_first_order_equation(side, sign, rho):
    # V' -+ 2 W V = -+1 with the derivative taken by central differences of
    # the quadrature-built V.
    kappa, l, lam = 1.0, 1, 0.7
    h = 1e-4 * rho
    vm2, vm1, vp1, vp2 = (v_family(rho + k * h, kappa, l, lam, side)
                          for k in (-2, -1, 1, 2))
    dv = (8.0 * (vp1 - vm1) - (vp2 - vm2)) / (12.0 * h)
    v0 = v_family(rho, kappa, l, lam, side)
    w = superpotential(rho, kappa, l)
    residual = dv - sign * 2.0 * w * v0 - sign
    assert abs(residual) / (1.0 + abs(dv) + abs(2.0 * w * v0)) < 1e-6


def test_family_on_grid_matches_pointwise():
    grid = np.geomspace(0.3, 3.0, 9)
    vals = family_on_grid(1.0, 1, -0.4, "bosonic", grid)
    for r, v in zip(grid, vals):
        assert v == pytest.approx(v_family(r, 1.0, 1, -0.4, "bosonic"),
                                  rel=1e-11, abs=1e-13)


def test_v_family_on_a_sorted_array_is_family_on_grid_bit_for_bit():
    grid = np.geomspace(1e-3, 1e6, 97)
    for side in ("bosonic", "fermionic"):
        got = v_family(grid, 0.7, 2, -0.3, side)
        expected = family_on_grid(0.7, 2, -0.3, side, grid)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


@settings(max_examples=200, deadline=None)
@given(side=st.sampled_from(["bosonic", "fermionic"]), kappa=st.floats(0.2, 4.0),
       l=st.integers(0, 4), lam=st.floats(-2.0, 2.0), log_rho=st.floats(-8.0, 20.0))
# one long panel from the anchor passed its error estimate at these, 1.5e-9 and 1.8e-7 off
@example(side="bosonic", kappa=3.258879318786974, l=0, lam=0.0, log_rho=3.258879318786974)
@example(side="fermionic", kappa=3.7714285714285714, l=3, lam=0.0, log_rho=14.026624834362995)
def test_point_value_is_the_grid_route_at_its_radius(side, kappa, l, lam, log_rho):
    # The few long segments from the anchor to a far radius must still find the integrand's
    # mass near rho = 1.  Where V crosses zero a relative comparison means nothing,
    # so the bound is relative to the scale f^+-2 (|lambda| + |I|).
    assume(abs(log_rho) >= 1e-3)
    rho = 10.0 ** log_rho
    grid = np.geomspace(min(rho, 1.0), max(rho, 1.0), 200)
    on_grid = family_on_grid(kappa, l, lam, side, grid)[0 if rho < 1.0 else -1]
    point = v_family(rho, kappa, l, lam, side)
    integral = family._tail_integral(rho, kappa, l, side)
    scale = abs(family._v_lambda(rho, abs(lam), abs(integral), kappa, l, side))
    assert point == on_grid or abs(point - on_grid) <= 1e-9 * scale


def _z_form(rho, kappa, l, side):
    """(I, f^2) at rho by mpmath, I the integral of f^-2 (bosonic) or f^2 (fermionic) from 1.

    With z = rho^(2k) / (1 + rho^(2k)) and T = 1 - z = 1 / (1 + rho^(2k)),
    f^(2s) d rho = (2k)^-1 z^A T^B dz, A = (s(2l+2) + 1)/(2k) - 1, B = (2sl - 1)/(2k) - 1,
    and f^2 = z^((l+1)/k) T^(l/k).  The integral runs from z = 1/2 to z inside rho = 1 and
    from T = 1/2 to T beyond it, so 1 - z is never formed by subtraction.  It is taken in
    v = ln 2w for w = z or T, where a far radius's endpoint power is smooth for tanh-sinh,
    and whose lower limit -log1p(expm1(y)/2), y = 2k |ln rho|, keeps its digits near rho = 1.
    """
    s, k = (-1 if side == "bosonic" else 1), mp.mpf(kappa)
    y = 2 * k * abs(mp.log(mp.mpf(rho)))
    near, far = 1 / (1 + mp.exp(y)), 1 / (1 + mp.exp(-y))   # the lesser and greater of z and T
    z, T = (near, far) if rho < 1.0 else (far, near)
    A, B = (s * (2 * l + 2) + 1) / (2 * k) - 1, (2 * s * l - 1) / (2 * k) - 1
    P, Q, sign = (A, B, -1) if rho < 1.0 else (B, A, 1)

    def integrand(v):   # w^P (1 - w)^Q dw with w = e^v / 2, times 2^(P + 1 + Q): 1 at v = 0
        return mp.exp((P + 1) * v) * (2 - mp.exp(v)) ** Q

    # mp.quad stops on an absolute error, so the integrand is scaled to 1 at w = 1/2
    integral = sign * mp.quad(integrand, [-mp.log1p(mp.expm1(y) / 2), 0])
    integral /= 2 * k * 2 ** (P + 1 + Q)
    return integral, z ** ((l + 1) / k) * T ** (l / k)


@settings(max_examples=200, deadline=None)
@given(side=st.sampled_from(["bosonic", "fermionic"]), kappa=st.floats(0.2, 4.0),
       l=st.integers(0, 4), lam=st.floats(-2.0, 2.0), log_rho=st.floats(-8.0, 20.0))
# one long panel from the anchor passed its error estimate at these, 1.5e-9 and 1.8e-7 off
@example(side="bosonic", kappa=3.258879318786974, l=0, lam=0.0, log_rho=3.258879318786974)
@example(side="fermionic", kappa=3.7714285714285714, l=3, lam=0.0, log_rho=14.026624834362995)
# an unscaled oracle integrand summed to I ~ 1e-14 at 1e-22 absolute error, 2.2e-9 off
@example(side="fermionic", kappa=0.201171875, l=4, lam=0.0, log_rho=-3.5)
def test_v_family_is_the_z_form(side, kappa, l, lam, log_rho):
    # V = -f^2 (lambda + I_-) or f^-2 (lambda + I_+), to 1e-9 of its scale f^+-2 (|lambda| + |I|)
    rho = 10.0 ** log_rho
    with mp.workdps(20):
        integral, f2 = _z_form(rho, kappa, l, side)
        v, scale = ((-f2 * (lam + integral), f2 * (abs(lam) + abs(integral))) if side == "bosonic"
                    else ((lam + integral) / f2, (abs(lam) + abs(integral)) / f2))
    assert abs(v_family(rho, kappa, l, lam, side) - float(v)) <= 1e-9 * float(scale)


@settings(max_examples=200, deadline=None)
@given(kappa=st.floats(0.2, 4.0), l=st.integers(0, 4), log_rho=st.floats(-8.0, 20.0))
def test_the_bosonic_integral_is_odd_under_inversion(kappa, l, log_rho):
    # f^-2 d rho is odd under rho -> 1/rho, so I_-(1/rho) = -I_-(rho), to 1e-9 of |I| plus
    # f(1)^-2, the integrand's scale at the anchor (1/rho is itself rounded)
    rho = 10.0 ** log_rho
    i_rho, i_inv = (family._tail_integral(r, kappa, l, "bosonic") for r in (rho, 1.0 / rho))
    assert abs(i_rho + i_inv) <= 1e-9 * (abs(i_rho) + f_factor(1.0, kappa, l) ** -2)


@pytest.mark.parametrize("side", ["bosonic", "fermionic"])
@pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("l", [2, 3, 5])
def test_family_on_the_default_grid_is_the_point_route(side, kappa, l):
    # Near rho = 1 the bosonic V is small while I_- is large a few decades out,
    # so each radius must read only the segments between it and the anchor.
    grid = default_grid()
    on_grid = family_on_grid(kappa, l, 0.3, side, grid)[::10]
    point = np.array([v_family(rho, kappa, l, 0.3, side) for rho in grid[::10]])
    np.testing.assert_allclose(on_grid, point, rtol=1e-12, atol=0.0)


def test_family_on_grid_validation():
    with pytest.raises(ValueError):
        family_on_grid(1.0, 0, 0.0, "bosonic", [2.0, 1.0])
    with pytest.raises(ValueError):
        family_on_grid(1.0, 0, 0.0, "sideways", [1.0, 2.0])


def test_v_family_validation():
    with pytest.raises(ValueError):
        v_family(-1.0, 1.0, 0)
    with pytest.raises(ValueError):
        v_family(1.0, 1.0, 0, side="neither")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_grid_must_be_finite(bad):
    for grid in ([0.5, bad, 2.0], [0.5, 2.0, bad]):
        with pytest.raises(ValueError, match="grid"):
            family_on_grid(1.0, 0, 0.0, "bosonic", grid)
        with pytest.raises(ValueError, match="grid"):
            v_zeros(1.0, 0, 0.0, "bosonic", grid)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_family_parameter_must_be_finite(lam):
    grid = [0.5, 1.0, 2.0]
    for call in (lambda: v_family(2.0, 1.0, 0, lam),
                 lambda: family_superpotential(2.0, 1.0, 0, lam),
                 lambda: family_on_grid(1.0, 0, lam, "bosonic", grid),
                 lambda: v_zeros(1.0, 0, lam, "bosonic", grid)):
        with pytest.raises(ValueError, match="lambda"):
            call()


# ----------------------------------------------------------------------
# shifted superpotential W_lambda
# ----------------------------------------------------------------------

def test_shifted_superpotential_spot():
    # W_lambda(2) = W(2) + 1/V(2) = -0.1 - 5/6 for kappa=1, l=0, lambda=0.
    got = family_superpotential(2.0, 1.0, 0, 0.0, "bosonic")
    assert got == pytest.approx(-0.1 - 5.0 / 6.0, rel=1e-10)


def test_shifted_superpotential_singular_locus():
    with pytest.raises(SingularPointError) as info:
        family_superpotential(1.0, 1.0, 0, 0.0, "bosonic")
    assert info.value.rho == 1.0


def test_large_lambda_limit():
    # 1/V ~ -1/(lambda f^2) as |lambda| grows, so W_lambda drifts back to W.
    kappa, l, rho, lam = 1.0, 1, 1.3, 1e6
    wl = family_superpotential(rho, kappa, l, lam, "bosonic")
    w = superpotential(rho, kappa, l)
    expect = -1.0 / (lam * f_factor(rho, kappa, l) ** 2)
    assert wl - w == pytest.approx(expect, rel=1e-4)


def test_v_zeros_lambda_zero():
    zs = v_zeros(1.0, 0, 0.0, "bosonic", np.geomspace(0.2, 5.0, 200))
    assert len(zs) == 1
    assert zs[0] == pytest.approx(1.0, abs=1e-9)
    zs = v_zeros(1.0, 0, 0.0, "fermionic", np.geomspace(0.2, 5.0, 200))
    assert zs == pytest.approx([1.0], abs=1e-9)


def test_v_zeros_shifted_member():
    # Zero where the anchored integral rho - 1/rho equals 1/2:
    # rho^2 - rho/2 - 1 = 0.
    oracle = (0.5 + math.sqrt(0.25 + 4.0)) / 2.0
    zs = v_zeros(1.0, 0, -0.5, "bosonic", np.geomspace(0.2, 5.0, 200))
    assert zs == pytest.approx([oracle], abs=1e-9)


def test_v_zeros_on_a_grid_node():
    # The zero of rho - 1/rho + lambda is the middle node, its bracket's node nearer rho = 1:
    # the probes start from its prefix, 1.1e-16, and the search converges on it.
    root = 10.0 ** 0.125
    grid = np.geomspace(root / 10.0, root * 10.0, 3)
    assert v_zeros(1.0, 0, -(root - 1.0 / root), "bosonic", grid) == pytest.approx([root],
                                                                                  rel=1e-14)


def test_v_zeros_on_the_far_node_of_its_bracket(monkeypatch):
    # The zero is the middle node, the far one of its bracket: the nodes' prefixes change sign
    # across it, but the probes from the near node reach it with the other sign (status -1),
    # and x is the node.
    statuses = []
    search = family.bracketed_root
    monkeypatch.setattr(family, "bracketed_root", lambda *args, **kwargs: statuses.extend(
        (res := search(*args, **kwargs)).status.tolist()) or res)
    root = 10.0 ** 0.36
    grid = np.array([root / 10.0 ** 0.56, root, root * 10.0])
    assert v_zeros(1.0, 0, -(root - 1.0 / root), "bosonic", grid) == pytest.approx([root],
                                                                                  rel=1e-14)
    assert statuses == [-1]


def test_v_zeros_probes_integrate_from_the_bracket(monkeypatch):
    # The prefix sweep over the grid runs in numkit; here each root-search
    # probe is one short quadrature from its bracket's node nearer rho = 1.
    calls = []
    quad = family.integrate_adaptive
    monkeypatch.setattr(family, "integrate_adaptive",
                        lambda *args, **kwargs: calls.append(args) or quad(*args, **kwargs))
    zs = v_zeros(1.0, 0, -0.5, "bosonic", np.geomspace(0.2, 5.0, 301))
    assert zs == pytest.approx([(0.5 + math.sqrt(4.25)) / 2.0], abs=1e-12)
    assert len(calls) <= 12


@settings(max_examples=200, deadline=None)
@given(side=st.sampled_from(["bosonic", "fermionic"]), kappa=st.floats(0.2, 4.0),
       l=st.integers(0, 4), log_root=st.floats(-1.5, 1.5), below=st.floats(0.01, 1.0),
       above=st.floats(0.01, 1.0), nodes=st.integers(2, 50))
def test_v_zeros_is_the_one_root_of_the_z_form(side, kappa, l, log_root, below, above, nodes):
    # lambda = -I(root) makes lambda + I, monotone in rho, vanish once on a grid spanning
    # root.  v_zeros forms lambda + I as the prefix lambda + I(near) at the bracket's node
    # nearer rho = 1 plus one quadrature from it, so at the zero found |lambda + I| is within
    # 1e-10 of the integrals it is made of, 1 + |lambda| + |I(near)|, plus the slope
    # dI/dt = rho f^+-2 times the search's tolerance in t
    root = 10.0 ** log_root
    with mp.workdps(20):
        integral, f2 = _z_form(root, kappa, l, side)
        lam = -float(integral)
        slope = float(root * (f2 if side == "fermionic" else 1 / f2))
    # a smaller slope leaves lambda + I rounding noise at every node
    assume(slope >= 1e-6 * (1.0 + abs(lam)))
    grid = np.geomspace(root / 10.0 ** below, root * 10.0 ** above, nodes)
    (zero,) = v_zeros(kappa, l, lam, side, grid)
    j = min(np.searchsorted(grid, zero, side="right"), nodes - 1)
    near = min(grid[j - 1:j + 1], key=lambda r: abs(math.log(r)))
    with mp.workdps(20):
        residual = float(abs(lam + _z_form(zero, kappa, l, side)[0]))
        prefix = float(abs(_z_form(near, kappa, l, side)[0]))
    eps = np.finfo(float).eps
    assert residual <= (1e-10 * (1.0 + abs(lam) + prefix)
                        + slope * (1e-14 + 4 * eps * abs(math.log(zero))))


@pytest.mark.parametrize("grid", [[1e-4, 0.5], [5e-5, 1.0]])
def test_v_zeros_on_a_sparse_grid_far_from_the_anchor(grid):
    # lambda = -I_-(0.01) = 2.0e9, and I at the left node is 1e10 (1e-4) or 3.2e11 (5e-5)
    # times larger: with probes from that node, its rounding put the zero 1.3e-5 and 4.8e-5 off
    with mp.workdps(20):
        lam = -float(_z_form(0.01, 1.0, 2, "bosonic")[0])
    assert v_zeros(1.0, 2, lam, "bosonic", grid) == pytest.approx([0.01], rel=1e-13)


# ----------------------------------------------------------------------
# printed series: frozen reproductions of the typeset expressions
# ----------------------------------------------------------------------

ALPHAS = np.linspace(0.4, math.pi - 0.4, 9)


def test_printed_series_first_profile_antiderivative():
    # l = 0: -2 cos(a)/sin(a); l = 1: -(8/3) cos(a) (csc^3 + 2 csc).
    got = printed_series_eval(ALPHAS, 0, "S1")
    np.testing.assert_allclose(got, -2.0 * np.cos(ALPHAS) / np.sin(ALPHAS), rtol=1e-13)
    got = printed_series_eval(ALPHAS, 1, "S1")
    csc = 1.0 / np.sin(ALPHAS)
    np.testing.assert_allclose(
        got, -(8.0 / 3.0) * np.cos(ALPHAS) * (csc ** 3 + 2.0 * csc), rtol=1e-13)


def test_printed_series_first_profile_family():
    got = printed_series_eval(ALPHAS, 0, "V1")
    np.testing.assert_allclose(got, 2.0 * np.cos(ALPHAS) * np.tan(ALPHAS / 2.0),
                               rtol=1e-13, atol=1e-15)


def test_printed_series_half_profile_lowest_terms():
    sin, cos = np.sin(ALPHAS), np.cos(ALPHAS)
    log_term = np.log(np.tan(ALPHAS / 2.0))
    got = printed_series_eval(ALPHAS, 0, "S_half")
    np.testing.assert_allclose(got, -8.0 * cos / sin ** 2 + 4.0 * log_term,
                               rtol=1e-12, atol=1e-13)
    got = printed_series_eval(ALPHAS, 0, "V_half")
    expect = (2.0 * cos * np.tan(ALPHAS / 2.0) ** 2
              + 4.0 * np.sin(ALPHAS / 2.0) ** 4 * log_term)
    np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("l", [0, 2])
def test_matched_series_derivative_equals_integrand(l):
    # Calculus route: d/da of the matched antiderivative must reproduce the
    # angle-variable integrand 2^((2l+1)/k)/k * csc^((2l+k+1)/k).
    kappa = 1.0
    a, h = 1.2, 1e-6
    fd = (printed_series_eval(a + h, l, "S1") - printed_series_eval(a - h, l, "S1")) / (2 * h)
    integrand = 2.0 ** (2 * l + 1) * math.sin(a) ** -(2 * l + 2) / kappa
    assert fd == pytest.approx(integrand, rel=1e-6)


def test_mismatched_series_derivative_deviates():
    # The half-exponent antiderivative as typeset does NOT differentiate to
    # its integrand; the deviation is order unity, not a constant offset.
    a, h = 1.2, 1e-6
    fd = (printed_series_eval(a + h, 0, "S_half")
          - printed_series_eval(a - h, 0, "S_half")) / (2 * h)
    integrand = 2.0 ** 2 / 0.5 * math.sin(a) ** -3.0
    assert abs(fd - integrand) / abs(integrand) > 0.1


def test_printed_series_validation():
    with pytest.raises(ValueError):
        printed_series_eval(0.0, 0, "S1")
    with pytest.raises(ValueError):
        printed_series_eval(math.pi, 0, "S1")
    with pytest.raises(ValueError):
        printed_series_eval(1.0, -1, "S1")
    with pytest.raises(ValueError):
        printed_series_eval(1.0, 0, "S2")
    out = printed_series_eval(np.array([1.0, 1.5]), 0, "V1")
    assert out.shape == (2,)


@pytest.mark.parametrize("formula_id", FORMULA_IDS)
def test_printed_series_cap_is_the_last_l_with_finite_prefactors(formula_id):
    top = family._MAX_L
    assert np.all(np.isfinite(printed_series_eval(np.array([1.0, 0.5 * math.pi]), top, formula_id)))
    with pytest.raises(ValueError, match=f"\\[0, {top}\\]"):
        printed_series_eval(1.0, top + 1, formula_id)
    # one past the cap, S_half's log coefficient 4 (4l+1)!! 4^l is no longer finite
    double_factorial = math.prod(range(4 * top + 5, 1, -2), start=1.0)   # (4l+5)!! as a float
    assert 4.0 * double_factorial * 4.0 ** (top + 1) == math.inf


# ----------------------------------------------------------------------
# audit records
# ----------------------------------------------------------------------

# Frozen audit table: (formula_id, l) -> (verdict, deviation factor).  The
# factors are measured medians of printed/oracle on the fixed abscissae.
EXPECTED_AUDIT = {
    ("S1", 0): ("match", 1.0),
    ("S1", 1): ("match", 1.0),
    ("S1", 2): ("match", 1.0),
    ("S1", 3): ("match", 1.0),
    ("S_half", 0): ("mismatch", 1.6663554368306683),
    ("S_half", 1): ("mismatch", 1.9057479992308841),
    ("S_half", 2): ("mismatch", 1.9657933167772732),
    ("S_half", 3): ("mismatch", 1.986344308418278),
    ("V1", 0): ("mismatch", 2.0),
    ("V1", 1): ("mismatch", 0.9017361203618737),
    ("V1", 2): ("mismatch", 1.2925303874114842),
    ("V1", 3): ("mismatch", 1.9989648513562246),
    ("V_half", 0): ("mismatch", 0.7494169188597279),
    ("V_half", 1): ("mismatch", 1.4920892955674887),
    ("V_half", 2): ("mismatch", 1.7602850826045149),
    ("V_half", 3): ("mismatch", 1.8848368158592663),
}


@pytest.fixture(scope="module")
def audit_records():
    return series_audit()


def test_audit_shape_and_order(audit_records):
    assert len(audit_records) == 16
    expected_order = [(fid, l) for fid in FORMULA_IDS for l in range(4)]
    assert [(r.formula_id, r.l) for r in audit_records] == expected_order
    for r in audit_records:
        assert r.kappa == (1.0 if r.formula_id in ("S1", "V1") else 0.5)


def test_audit_verdicts_and_ratios(audit_records):
    for r in audit_records:
        verdict, ratio = EXPECTED_AUDIT[(r.formula_id, r.l)]
        assert r.verdict == verdict, (r.formula_id, r.l)
        assert r.ratio == pytest.approx(ratio, rel=1e-6), (r.formula_id, r.l)


def test_audit_matched_entries_are_tight(audit_records):
    for r in audit_records:
        if r.verdict == "match":
            assert r.max_dev < 1e-10
            assert r.max_dev < AUDIT_MATCH_TOL


def test_audit_factor_two_anchor(audit_records):
    rec = next(r for r in audit_records if r.formula_id == "V1" and r.l == 0)
    assert rec.verdict == "mismatch"
    assert abs(rec.ratio - 2.0) < 1e-6
    # the printed expression also fails its own defining equation
    assert rec.ode_residual_max > 0.01


def test_audit_residual_fields(audit_records):
    for r in audit_records:
        if r.formula_id.startswith("S"):
            assert r.ode_residual_max is None
        else:
            assert r.ode_residual_max >= 0.0
    d = audit_records[0].to_dict()
    assert set(d) == {"formula_id", "l", "kappa", "max_dev",
                      "ode_residual_max", "ratio", "verdict"}


def test_audit_is_deterministic(audit_records):
    again = series_audit()
    assert again == audit_records


def test_audit_integrates_one_oracle_per_kappa_and_l(monkeypatch):
    # S and V at one (kappa, l) read the same antiderivative: 2 kappas x 4 l
    anchored, calls = family._anchored_integral, []

    def counted(*args):
        calls.append(args)
        return anchored(*args)

    monkeypatch.setattr(family, "_anchored_integral", counted)
    records = series_audit()
    assert len(calls) == 8
    assert {(r.formula_id, r.l) for r in records} == set(EXPECTED_AUDIT)
    for r in records:
        verdict, ratio = EXPECTED_AUDIT[(r.formula_id, r.l)]
        assert r.verdict == verdict and r.ratio == pytest.approx(ratio, rel=1e-6)


@pytest.mark.parametrize("kappa", [1.0, 0.5])
def test_audit_oracle_matches_mpmath_in_the_z_form(kappa):
    # A second route to the oracle I_-(rho), rho = tan(alpha/2)^(1/kappa): with
    # z = sin^2(alpha/2) it is (2 kappa)^-1 Int_{1/2}^z [z(1 - z)]^(-(2l+1)/(2 kappa) - 1) dz,
    # done by tanh-sinh quadrature at 30 digits.  The worst case is 1.6e-12 (1 + |I|)
    # (kappa = 1/2, l = 3, at the float alpha nearest pi/2, where rho is not exactly
    # the anchor); a prefix sum from the leftmost node gave 9.9e-11 there.
    alphas = family._audit_alphas()
    rho = np.tan(0.5 * alphas) ** (1.0 / kappa)
    with mp.workdps(30):
        for l in range(4):
            p = mp.mpf(2 * l + 1) / (2 * kappa) + 1

            def integrand(z):
                return (z * (1 - z)) ** -p / (2 * kappa)

            got = family._tail_integral(rho, kappa, l, "bosonic")
            for alpha, value in zip(alphas, got):
                z = mp.sin(mp.mpf(alpha) / 2) ** 2
                ref = float(mp.quad(integrand, [mp.mpf(1) / 2, z], method="tanh-sinh"))
                assert abs(value - ref) <= 1e-11 * (1.0 + abs(ref)), (kappa, l, alpha)
