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

import numpy as np
import pytest

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
from dosusy.model import f_factor
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


def test_v_zeros_probes_integrate_from_the_bracket(monkeypatch):
    # One prefix sweep over the grid, then one short quadrature per brentq probe.
    calls = []
    quad = family.integrate_adaptive
    monkeypatch.setattr(family, "integrate_adaptive",
                        lambda *args, **kwargs: calls.append(args) or quad(*args, **kwargs))
    zs = v_zeros(1.0, 0, -0.5, "bosonic", np.geomspace(0.2, 5.0, 301))
    assert zs == pytest.approx([(0.5 + math.sqrt(4.25)) / 2.0], abs=1e-12)
    assert len(calls) <= 12


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
