"""Factorization layer: superpotential, partner potentials, ladder maps.

Two identities do most of the work here.  First, W is minus the logarithmic
derivative of the nodeless factor, so W and all its closed-form radial
derivatives can be cross-checked by finite differences.  Second, the adjoint
ladder acting on the nodeless factor itself satisfies

    Adag f = -f' + W f = 2 W f        (since f' = -W f),

which gives an exact pointwise oracle for the stencil-based operator.
"""

import math

import numpy as np
import pytest

from dosusy.model import SampledFunction, default_grid, f_factor
from dosusy.numkit import derivative
from dosusy.susy import (
    apply_ladder,
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

GRID = default_grid()
KAPPAS = (0.5, 1.0, 1.5)


# ----------------------------------------------------------------------
# superpotential
# ----------------------------------------------------------------------

def test_superpotential_spots():
    assert superpotential(1.0, 1.0, 0) == -0.5
    assert superpotential(2.0, 1.0, 0) == pytest.approx(-0.1, rel=1e-15)


@pytest.mark.parametrize("l", [0, 2])
def test_superpotential_origin_asymptote(l):
    # Regular-branch behaviour: W ~ -(l+1)/rho near the origin.
    rho = 1e-8
    assert superpotential(rho, 1.0, l) * rho == pytest.approx(-(l + 1.0), rel=1e-12)


@pytest.mark.parametrize("l", [1, 3])
def test_superpotential_tail_asymptote(l):
    rho = 1e8
    assert superpotential(rho, 1.0, l) * rho == pytest.approx(float(l), rel=1e-12)


@pytest.mark.parametrize("kappa", [0.5, 1.0, 1.5, 0.8])
@pytest.mark.parametrize("l", [0, 1, 3])
@pytest.mark.parametrize("rho", [0.35, 1.0, 2.4])
def test_superpotential_is_log_derivative_of_f(kappa, l, rho):
    numeric = -derivative(lambda r: np.log(f_factor(r, kappa, l)), rho, 1e-4 * max(1.0, rho), 1)
    assert superpotential(rho, kappa, l) == pytest.approx(numeric, rel=1e-9, abs=1e-11)


@pytest.mark.parametrize("kappa", KAPPAS)
@pytest.mark.parametrize("l", [0, 2])
@pytest.mark.parametrize("rho", [0.4, 1.3, 3.1])
def test_closed_form_derivative_chain(kappa, l, rho):
    # Each analytic derivative is validated against a finite difference of
    # the one below it.
    h = 1e-4 * max(1.0, rho)
    fd1 = derivative(lambda r: superpotential(r, kappa, l), rho, h, 1)
    assert superpotential_dr(rho, kappa, l) == pytest.approx(fd1, rel=1e-8, abs=1e-9)
    fd2 = derivative(lambda r: superpotential_dr(r, kappa, l), rho, h, 1)
    assert superpotential_d2r(rho, kappa, l) == pytest.approx(fd2, rel=1e-7, abs=1e-8)
    fd3 = derivative(lambda r: superpotential_d2r(r, kappa, l), rho, h, 1)
    assert superpotential_d3r(rho, kappa, l) == pytest.approx(fd3, rel=1e-6, abs=1e-7)


def test_superpotential_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        superpotential(-1.0, 1.0, 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_superpotential_rejects_non_finite_radius(bad):
    with pytest.raises(ValueError):
        superpotential(bad, 1.0, 0)
    with pytest.raises(ValueError):
        superpotential(np.array([0.5, bad]), 1.0, 0)


# ----------------------------------------------------------------------
# partner potentials
# ----------------------------------------------------------------------

def test_partner_spots():
    assert partner_minus_closed(1.0, 1.0, 0) == -0.75
    assert partner_plus_closed(1.0, 1.0, 0) == 1.25
    assert partner_minus_closed(1.0, 1.0, 2) == -2.75
    assert partner_minus_closed(2.0, 1.0, 1) == pytest.approx(-0.1, rel=1e-14)


@pytest.mark.parametrize("kappa", KAPPAS)
@pytest.mark.parametrize("l", [0, 1, 4, 10])
def test_closed_forms_equal_superpotential_combinations(kappa, l):
    w = superpotential(GRID, kappa, l)
    w1 = superpotential_dr(GRID, kappa, l)
    scale = w * w + np.abs(w1) + 1e-300
    minus = np.abs((w * w - w1) - partner_minus_closed(GRID, kappa, l))
    plus = np.abs((w * w + w1) - partner_plus_closed(GRID, kappa, l))
    assert np.max(minus / (scale + np.abs(partner_minus_closed(GRID, kappa, l)))) < 1e-10
    assert np.max(plus / (scale + np.abs(partner_plus_closed(GRID, kappa, l)))) < 1e-10


def test_partner_combination_helpers_agree_with_closed_forms():
    # W^2 -+ W' by name are the reduced forms, with no cancellation floor of their own
    assert partner_minus is partner_minus_closed
    assert partner_plus is partner_plus_closed


@pytest.mark.parametrize("kappa", KAPPAS)
def test_upper_partner_is_positive(kappa):
    for l in range(11):
        assert np.all(partner_plus_closed(GRID, kappa, l) > 0.0)


@pytest.mark.parametrize("kappa, l", [(1.0, 5), (1.0, 8), (0.5, 3)])
@pytest.mark.parametrize("rho", [0.3, 1.1, 2.6])
def test_upper_partner_derivatives(kappa, l, rho):
    h = 1e-4 * max(1.0, rho)
    fd1 = derivative(lambda r: partner_plus_closed(r, kappa, l), rho, h, 1)
    assert partner_plus_dr(rho, kappa, l) == pytest.approx(fd1, rel=1e-7, abs=1e-7)
    fd2 = derivative(lambda r: partner_plus_dr(r, kappa, l), rho, h, 1)
    assert partner_plus_d2r(rho, kappa, l) == pytest.approx(fd2, rel=1e-6, abs=1e-6)


# ----------------------------------------------------------------------
# ladder operators
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kappa, l", [(1.0, 0), (0.5, 1), (1.5, 2)])
def test_ladder_annihilates_nodeless_factor(kappa, l):
    grid = np.geomspace(1e-2, 1e2, 4001)
    f = f_factor(grid, kappa, l)
    u = SampledFunction(grid, f / np.max(np.abs(f)))
    out = apply_ladder(u, kappa, l, which="A")
    assert np.max(np.abs(out.values)) < 1e-8


def test_adjoint_ladder_on_nodeless_factor():
    # Adag f = 2 W f exactly; only the stencil derivative contributes error.
    grid = np.linspace(0.5, 4.0, 1201)
    kappa, l = 1.0, 1
    f = f_factor(grid, kappa, l)
    out = apply_ladder(SampledFunction(grid, f), kappa, l, which="Adag")
    oracle = 2.0 * superpotential(grid, kappa, l) * f
    inner = slice(3, -3)
    scale = np.max(np.abs(oracle))
    assert np.max(np.abs(out.values[inner] - oracle[inner])) < 1e-8 * scale


def test_ladder_composition_is_schroedinger_operator():
    # Adag A u = -u'' + U_minus u, checked on a Gaussian bump whose second
    # derivative is known analytically.
    grid = np.linspace(0.5, 4.0, 1401)
    kappa, l = 1.0, 1
    s = 0.5
    bump = np.exp(-((grid - 2.0) ** 2) / s)
    bump_d2 = bump * (4.0 * (grid - 2.0) ** 2 / s ** 2 - 2.0 / s)

    stepped = apply_ladder(SampledFunction(grid, bump), kappa, l, which="A")
    out = apply_ladder(stepped, kappa, l, which="Adag")
    oracle = -bump_d2 + partner_minus_closed(grid, kappa, l) * bump

    inner = slice(5, -5)
    scale = np.max(np.abs(oracle[inner]))
    assert np.max(np.abs(out.values[inner] - oracle[inner])) < 1e-5 * scale


def test_ladder_linearity():
    grid = np.geomspace(0.1, 10.0, 301)
    u = SampledFunction(grid, np.sin(grid) * np.exp(-grid))
    scaled = SampledFunction(grid, 2.5 * u.values)
    a = apply_ladder(u, 1.0, 0)
    b = apply_ladder(scaled, 1.0, 0)
    # scaling by 2.5 re-rounds each sample; the stencil divides that by h
    np.testing.assert_allclose(b.values, 2.5 * a.values, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("which", ["A", "Adag"])
def test_ladder_on_stacked_rows_matches_single_rows(which):
    grid = np.geomspace(0.1, 10.0, 301)
    cases = [(0.5, 0), (1.0, 2), (1.5, 1), (2.2, 3.5)]
    rows = np.stack([f_factor(grid, kappa, 2) * np.sin(kappa * grid) for kappa, _ in cases])
    kappas, ls = zip(*cases)
    out = apply_ladder(SampledFunction(grid, rows), kappas, ls, which=which)
    assert out.values.shape == rows.shape
    for (kappa, l), row, got in zip(cases, rows, out.values):
        single = apply_ladder(SampledFunction(grid, row), kappa, l, which=which)
        np.testing.assert_array_equal(got, single.values)
    # scalar kappa and l apply to every row
    shared = apply_ladder(SampledFunction(grid, rows), 1.0, 2, which=which)
    for row, got in zip(rows, shared.values):
        single = apply_ladder(SampledFunction(grid, row), 1.0, 2, which=which)
        np.testing.assert_array_equal(got, single.values)


def test_ladder_validation():
    grid = np.linspace(1.0, 2.0, 10)
    u = SampledFunction(grid, np.ones_like(grid))
    with pytest.raises(ValueError):
        apply_ladder(u, 1.0, 0, which="B")
    short = SampledFunction([1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        apply_ladder(short, 1.0, 0)
    stacked = SampledFunction(grid, np.ones((3, len(grid))))
    with pytest.raises(ValueError):  # one kappa per row, or one for all
        apply_ladder(stacked, [1.0, 0.5], 0)


# ----------------------------------------------------------------------
# compact-coordinate reconstruction
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kappa, l", [(1.0, 0), (1.5, 2)])
def test_reconstruction_matches_f_up_to_constant(kappa, l):
    grid = np.geomspace(0.05, 20.0, 30)
    rec = natanzon_f_reconstruction(grid, kappa, l)
    ratio = rec / f_factor(grid, kappa, l)
    mid = np.median(ratio)
    assert np.max(np.abs(ratio - mid)) / abs(mid) < 1e-8
