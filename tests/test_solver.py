"""Independent numerical routes: shooting, pocket threshold, orbit tracing.

These tests deliberately avoid the closed forms wherever the solver itself
is the oracle: shooting brackets never consult the ladder formula for the
root (only for the bracket center), the node radius of the first excited
state is recovered from a sign change, and orbit focusing is checked through
geometry (the image of a point source sits at the reciprocal radius, and is
the same point for different launch directions).
"""

import dataclasses
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dosusy import checks, numkit, solver, susy
from dosusy.exceptions import ConvergenceError, GeometryError
from dosusy.model import (
    SampledFunction,
    coupling_quantized,
    f_factor,
    parse_kappa,
    potential,
    radial_u,
    state_quantum_numbers,
)
from dosusy.solver import (
    CriticalPoint,
    ShootingResult,
    Trajectory,
    classical_trajectory,
    critical_angular,
    critical_angular_all,
    integrate_radial,
    shoot_coupling,
)
from dosusy.susy import partner_plus_d2r, partner_plus_dr

FINE = np.geomspace(0.05, 20.0, 1501)
PACKAGE_PARENT = os.path.dirname(os.path.dirname(os.path.abspath(solver.__file__)))


# ----------------------------------------------------------------------
# outward radial integration
# ----------------------------------------------------------------------

def test_integration_reproduces_nodeless_state():
    grid = np.geomspace(0.01, 10.0, 400)
    u = integrate_radial(3.0, 1.0, 0, grid)
    f = f_factor(grid, 1.0, 0)
    f = f / np.max(np.abs(f))
    assert np.max(np.abs(u.values - f)) < 1e-7


def test_integration_from_beyond_the_leg_tail():
    # The outward leg starts where the potential is below rounding (rho ~
    # 3e-9 here) or at the first grid point, whichever is smaller.
    grid = np.geomspace(1e-30, 10.0, 301)
    u = integrate_radial(3.0, 1.0, 0, grid)
    f = f_factor(grid, 1.0, 0)
    assert np.max(np.abs(u.values - f / np.max(f))) < 1e-9


def test_integration_first_excited_node_radius():
    # At w = 15 (kappa = 1, l = 0) the solution changes sign exactly once,
    # at the unit radius.
    u = integrate_radial(15.0, 1.0, 0, FINE)
    sign = np.sign(u.values)
    flips = np.where(sign[:-1] * sign[1:] < 0)[0]
    assert len(flips) == 1
    i = flips[0]
    x0, x1 = FINE[i], FINE[i + 1]
    y0, y1 = u.values[i], u.values[i + 1]
    node = x0 - y0 * (x1 - x0) / (y1 - y0)
    assert node == pytest.approx(1.0, abs=1e-6)


def _tail_label(u):
    """The decaying branch falls like rho^(-l) and the dominant one grows like
    rho^(l+1); their log-log slopes straddle +1/2, so the final decade's slope
    (the last two samples on a shorter grid) labels the tail."""
    grid, vals = u.grid, np.abs(u.values)
    mask = grid >= grid[-1] / 10.0
    if np.count_nonzero(mask) < 2:
        mask[-2:] = True
    slope = np.polyfit(np.log(grid[mask]), np.log(np.maximum(vals[mask], 1e-290)), 1)[0]
    return "decaying" if slope < 0.5 else "non-decaying"


@pytest.mark.parametrize("w, l, label", [
    (3.0, 0, "decaying"),
    (10.0, 0, "non-decaying"),
    (15.0, 1, "decaying"),
    (13.0, 1, "non-decaying"),
])
def test_tail_classification(w, l, label):
    assert _tail_label(integrate_radial(w, 1.0, l, FINE)) == label


def test_integration_overflow_guard():
    # Large l makes the dominant branch grow so fast it trips the guard
    # well inside the grid.
    with pytest.raises(ConvergenceError, match="overflow"):
        integrate_radial(7.0, 1.0, 60, np.geomspace(0.01, 1e3, 200))


def test_integration_validation():
    with pytest.raises(ValueError):
        integrate_radial(-1.0, 1.0, 0, FINE)
    with pytest.raises(ValueError):
        integrate_radial(3.0, 1.0, 0, [2.0, 1.0])
    for w in (math.nan, math.inf):
        with pytest.raises(ValueError, match="coupling"):
            integrate_radial(w, 1.0, 0, FINE)
    for grid in ([0.5, math.nan, 2.0], [0.5, 2.0, math.inf], [0.0, 1.0]):
        with pytest.raises(ValueError, match="grid"):
            integrate_radial(3.0, 1.0, 0, grid)


def test_classify_tail_short_grid_fallback():
    u = SampledFunction([1.0, 2.0, 1000.0], [1.0, 0.5, 0.001])
    assert _tail_label(u) in ("decaying", "non-decaying")


# ----------------------------------------------------------------------
# shooting for the quantized coupling
# ----------------------------------------------------------------------

def test_shooting_ground_coupling():
    res = shoot_coupling(1, "1", 0)
    assert isinstance(res, ShootingResult)
    assert [f.name for f in dataclasses.fields(res)] == [
        "w_star", "match_defect", "bracket", "defect_evaluations"]
    assert res.w_star == pytest.approx(3.0, rel=1e-8)
    assert abs(res.match_defect) < 1e-9
    assert res.defect_evaluations >= 3
    assert res.bracket == (3.0 / 1.3, 3.0 * 1.3)


@pytest.mark.parametrize("N, kappa, l, w_expected, nodes", [
    (3, "1", 0, 35.0, 2),
    (2, "1/2", 0, 6.0, 1),
    (2, "3/2", 0, 28.0, 1),
])
def test_shooting_recovers_ladder(N, kappa, l, w_expected, nodes):
    res = shoot_coupling(N, kappa, l)
    assert res.w_star == pytest.approx(w_expected, rel=1e-8)
    assert integrate_radial(res.w_star, parse_kappa(kappa)[0], l, FINE).node_count() == nodes


@pytest.mark.parametrize("N, kappa", [(6, 0.226), (4, 0.2185)])
def test_shooting_small_kappa(N, kappa):
    # +-30% around w(N) reaches a neighbouring ladder value once kappa is
    # small; the default bracket stops short of both neighbours.
    res = shoot_coupling(N, kappa, 0)
    w = coupling_quantized(N, kappa)
    assert coupling_quantized(N - 1, kappa) < res.bracket[0] < w < res.bracket[1]
    assert res.bracket[1] < coupling_quantized(N + 1, kappa)
    assert res.w_star == pytest.approx(w, rel=1e-9)


@pytest.mark.parametrize("kappa", [1e-3, 1e-4, 1e-5])
@pytest.mark.parametrize("N", [1, 2, 3, 6])
def test_shooting_at_a_small_kappa(N, kappa):
    # legs of length ~ 1/kappa where the potential dips below L^2: the cells'
    # own-growth scaling keeps the defect finite (the error grows ~ 1/kappa)
    res = shoot_coupling(N, kappa, 0)
    assert res.w_star == pytest.approx(coupling_quantized(N, kappa), abs=1e-6)


@settings(max_examples=20, deadline=None)
@given(kappa=st.floats(0.2, 4.0), N=st.integers(1, 6))
def test_shooting_recovers_ladder_for_continuous_kappa(kappa, N):
    res = shoot_coupling(N, kappa, 0)
    assert res.w_star == pytest.approx(coupling_quantized(N, kappa), rel=1e-9)


def _seeded_states():
    """The pinned shooting set: every state at kappa in {1/3, 1/2, 2/3, 1, 3/2, 2, 3}
    with l <= 4 and N <= 6 (86), and 25 seeded kappa uniform in [0.2, 4] at l = 0
    with N = 1..6 (150)."""
    rational = []
    for kappa in ("1/3", "1/2", "2/3", "1", "3/2", "2", "3"):
        for l in range(5):
            for N in range(1, 7):
                try:
                    state_quantum_numbers(N, l, kappa)
                except ValueError:
                    continue
                rational.append((N, kappa, l))
    kappas = np.random.default_rng(0).uniform(0.2, 4.0, 25).tolist()
    return rational + [(N, kappa, 0) for kappa in kappas for N in range(1, 7)]


def _relative_errors(states, results):
    w = np.array([coupling_quantized(N, parse_kappa(kappa)[0]) for N, kappa, _ in states])
    return np.abs(np.array([r.w_star for r in results]) - w) / w


def test_seeded_state_set_keeps_its_worst_bound():
    # the worst is 1.09e-11 at (6, 0.2104, 0): the long leg of the smallest kappa
    states = _seeded_states()
    assert len(states) == 236
    assert np.max(_relative_errors(states, solver.shoot_couplings(states))) < 2e-11


@pytest.mark.parametrize("N, bound", [(1000, 1e-9), (10_000, 1e-11), (100_000, 1e-13)])
def test_shooting_at_a_large_n_resolves_the_well(N, bound):
    # one cell per radian of the well's phase: the error falls as 1/N^2 (2.7e-10 at 10^3)
    res = shoot_coupling(N, 1.0, 0)
    assert _relative_errors([(N, 1.0, 0)], [res])[0] < bound


@pytest.mark.parametrize("kappa", [1e-6, 1e-7, 1e-8])
def test_shooting_at_a_tiny_kappa_resolves_the_rung_spacing(kappa):
    # w = 1 + 2 kappa: the error is 1.4e-6 of the rung spacing 2 kappa at each kappa
    res = shoot_coupling(1, kappa, 0)
    assert abs(res.w_star - coupling_quantized(1, kappa)) < 1e-5 * 2.0 * kappa


def test_verify_states_shoot_on_the_cell_floor():
    kappa, N, l = (np.array(col, dtype=float) for col in zip(*checks._EIGEN_STATES))
    top = [r.bracket[1] for r in solver.shoot_couplings(
        [(int(n), k, int(m)) for k, n, m in checks._EIGEN_STATES])]
    cells = solver._leg_cells(np.array(top), kappa, l + 0.5)
    assert cells.tolist() == [solver._CELL_FLOOR] * len(cells) and solver._CELL_FLOOR <= 320


@pytest.mark.parametrize("call", [
    lambda: shoot_coupling(1_000_000, 1.0, 0),
    lambda: shoot_coupling(1, 1e-10, 0),
    lambda: integrate_radial(4e12, 1.0, 0, FINE),
], ids=["large-N", "tiny-kappa", "integrate_radial"])
def test_a_state_past_the_cell_cap_is_refused(call):
    # the count is judged before a leg's cells are built, so nothing large is allocated
    with pytest.raises(ConvergenceError, match=r"Magnus cells, past the cap of 500000 per leg$"):
        call()


@pytest.mark.parametrize("N, kappa, l", [(N, kappa, l) for kappa, N, l in checks._EIGEN_STATES]
                         + [(6, 0.226, 0)])
def test_mirrored_eigenfunction_is_the_closed_form(N, kappa, l):
    # The regular branch at the ladder coupling is the closed form on rho <= 1,
    # where it dominates.  q is even in ln rho, so the state has parity
    # (-1)^nodes in ln rho, u(1/rho) = +-u(rho)/rho: the mirrored half is the
    # closed form too, as the one-leg matching defect assumes.
    kappa_f = parse_kappa(kappa)[0]
    inner = np.geomspace(1e-3, 1.0, 400)
    u = integrate_radial(coupling_quantized(N, kappa_f), kappa_f, l, inner).values
    ref = radial_u(inner, N, l, kappa)
    ref = ref / np.max(np.abs(ref))
    assert np.max(np.abs(u * np.sign(u @ ref) - ref)) < 1e-9
    nodes = state_quantum_numbers(N, l, kappa)[0]
    grid = np.concatenate([inner, 1.0 / inner[-2::-1]])
    outer = (-1) ** nodes * u[-2::-1] / inner[-2::-1]
    mirrored = SampledFunction(grid, np.concatenate([u, outer]))
    assert mirrored.node_count() == nodes
    ref = radial_u(grid, N, l, kappa)
    ref = ref / np.max(np.abs(ref))
    full = mirrored.values / np.max(np.abs(mirrored.values))
    assert np.max(np.abs(full * np.sign(full @ ref) - ref)) < 1e-9


def test_radial_path_does_not_use_solve_ivp(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("solve_ivp called on the radial path")

    monkeypatch.setattr(solver, "solve_ivp", refuse)
    assert shoot_coupling(2, "1", 0).w_star == pytest.approx(15.0, rel=1e-9)
    integrate_radial(15.0, 1.0, 0, FINE)


def _no_root_in_default_bracket(monkeypatch, N, kappa):
    """Centre the default bracket of (N, kappa) on 7.5: at kappa = 1 it then
    lies inside (7.5 / 1.3, 7.5 * 1.3), strictly between the first two
    couplings 3 and 15 of the l = 0 ladder, so the defect has no root in it."""
    ladder = solver.coupling_quantized
    monkeypatch.setattr(solver, "coupling_quantized",
                        lambda n, k: 7.5 if (n, k) == (N, kappa) else ladder(n, k))


def test_shooting_bracket_without_root(monkeypatch):
    # a bracket without a sign change is the solver's failure, not the caller's
    _no_root_in_default_bracket(monkeypatch, 1, 1.0)
    with pytest.raises(ConvergenceError) as info:
        shoot_coupling(1, "1", 0)
    assert str(info.value) == ("defect has no sign change on bracket (5.76923, 9) for "
                               "N=1, kappa=1.0, l=0: d(lo)=-8.548e-01, d(hi)=-8.125e-01")


def test_batched_shooting_rows_equal_single_calls():
    # the batch pads every leg to the longest (N = 1000: 3,142 cells; kappa = 1e-6:
    # 5,858) with empty cells, which propagate as the identity
    states = [(1, "1", 0), (3, "1/2", 1), (2, 0.226, 0), (3, "3/2", 3), (2, "1", 0),
              (1000, 1.0, 0), (1, 1e-6, 0)]
    batch = solver.shoot_couplings(states)
    for (N, kappa, l), row in zip(states, batch):
        single = shoot_coupling(N, kappa, l)
        assert (row.w_star, row.match_defect, row.bracket, row.defect_evaluations) == (
            single.w_star, single.match_defect, single.bracket, single.defect_evaluations)


def test_bracket_error_names_the_failing_state(monkeypatch):
    _no_root_in_default_bracket(monkeypatch, 1, 1.0)
    with pytest.raises(ConvergenceError, match=r"N=1, kappa=1\.0, l=0"):
        solver.shoot_couplings([(2, "1", 1), (1, "1", 0)])


def test_shooting_validation():
    with pytest.raises(ValueError):
        shoot_coupling(1, "1", 2)  # no such state on the ladder
    with pytest.raises(ValueError):
        shoot_coupling(0, "1", 0)  # no ladder label below 1
    with pytest.raises(ValueError, match=r"no state at \(N=3, l=-1\): l must be >= 0"):
        shoot_coupling(3, 1, -1)   # p = 3 would be a degree, but l < 0 is no state


def _two_leg_defect(w, kappa, l):
    """The matching defect with both legs propagated, as it was first written."""
    L = l + 0.5
    out_edges = solver._leg_edges(w, kappa, L)
    legs = solver._product(solver._cells(np.stack([out_edges, -out_edges]), w, kappa, L)[0])
    yo, dyo = legs[0] @ (1.0, L)
    yi, dyi = legs[1] @ (1.0, -L)
    duo, dui = dyo + 0.5 * yo, dyi + 0.5 * yi
    return (duo * yi - dui * yo) / (np.hypot(yo, duo) * np.hypot(yi, dui))


_MIRROR_CASES = [(kappa, l, on_ladder)
                 for kappa in (0.226, 0.5, 1.0, 1.5, 3.7)
                 for l in (0, 1, 3)
                 for on_ladder in (True, False)]


@pytest.mark.parametrize("kappa, l, on_ladder", _MIRROR_CASES)
def test_inward_leg_is_the_mirrored_outward_leg(kappa, l, on_ladder):
    w = coupling_quantized(3, kappa) * (1.0 if on_ladder else 1.17)
    L = l + 0.5
    out_edges = solver._leg_edges(w, kappa, L)
    yo, dyo = solver._product(solver._cells(out_edges, w, kappa, L)[0]) @ (1.0, L)
    yi, dyi = solver._product(solver._cells(-out_edges, w, kappa, L)[0]) @ (1.0, -L)
    assert (yi, dyi) == (yo, -dyo)  # exact, not approximate


@pytest.mark.parametrize("kappa, l, on_ladder", _MIRROR_CASES)
def test_one_leg_defect_equals_two_leg_defect(kappa, l, on_ladder):
    w = coupling_quantized(3, kappa) * (1.0 if on_ladder else 1.17)
    one_leg = solver._match_defect(np.array([w]), np.array([kappa]), np.array([l + 0.5]))
    assert one_leg.tolist() == [_two_leg_defect(w, kappa, l)]


# ----------------------------------------------------------------------
# pocket threshold of the upper partner
# ----------------------------------------------------------------------

def test_critical_point_location():
    cp = critical_angular(1.0)
    assert isinstance(cp, CriticalPoint)
    # within 1e-10 of the point a scan-and-Newton route found (Newton stops
    # at |F| < 1e-10, so the last digits are the seed's)
    assert cp.l_cr == pytest.approx(6.876606651413599, abs=1e-10)
    assert cp.rho_cr == pytest.approx(1.5993663589673832, abs=1e-10)
    assert cp.slope_residual < 1e-8
    assert cp.curvature_residual < 1e-8
    # the resultant's root is already far inside the acceptance bound
    assert max(cp.slope_residual, cp.curvature_residual) < 1e-11
    assert cp.newton_iterations == 0


def test_critical_point_is_deterministic():
    a = critical_angular(1.0)
    b = critical_angular(1.0)
    assert (a.l_cr, a.rho_cr) == (b.l_cr, b.rho_cr)


def test_critical_scan_finds_single_threshold():
    points = critical_angular_all(1.0)
    assert len(points) == 1
    with pytest.raises(ValueError):
        critical_angular_all(-1.0)


_ORACLE_RHO = np.geomspace(0.1, 10.0, 100_001)


def _largest_slope(kappa, l, rho=_ORACLE_RHO):
    return float(np.max(partner_plus_dr(rho, kappa, l)))


# thresholds that a 96 x 241 (l, rho) scan missed, failed to polish, or (22.166)
# that sit at F's rounding floor, where Newton's 1e-10 stop is out of reach
_HARD_KAPPAS = [5.684102, 16.0617, 21.68, 22.71, 22.16597208579026]


@pytest.mark.parametrize("kappa", np.geomspace(0.2, 1e3, 200).tolist() + _HARD_KAPPAS[-1:])
def test_every_returned_point_is_a_threshold_of_the_fine_grid_oracle(kappa):
    # Nothing raises at any of these kappa.  At a threshold, the largest slope
    # of U_+ over 10^5 radii in the window changes sign between l_cr -+ 1e-3.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        points = critical_angular_all(kappa)
    for cp in points:
        assert 1.0 < cp.l_cr < 20.0 and 0.1 < cp.rho_cr < 10.0
        assert cp.slope_residual < 1e-8 and cp.curvature_residual < 1e-8
        below, above = (_largest_slope(kappa, cp.l_cr + dl) for dl in (-1e-3, 1e-3))
        assert (below < 0.0) != (above < 0.0), (cp, below, above)


@pytest.mark.parametrize("kappa", [1.0] + _HARD_KAPPAS[:4] + [250.0, 280.0, 250.4807509070144])
def test_an_l_scan_finds_no_threshold_the_search_lacks(kappa):
    # the largest slope over 2 x 10^4 radii at l = 1, 1.01, ..., 20: each of
    # its sign changes needs a returned point within 0.01 in l (the last three
    # kappa have neither)
    rho = np.geomspace(0.1, 10.0, 20_001)
    ls = np.linspace(1.0, 20.0, 1901)
    largest = np.concatenate([partner_plus_dr(rho, kappa, ls[i:i + 32, None]).max(axis=1)
                              for i in range(0, len(ls), 32)])
    l_crs = [cp.l_cr for cp in critical_angular_all(kappa)]
    changes = np.flatnonzero((largest[:-1] < 0.0) != (largest[1:] < 0.0))
    assert bool(len(changes)) == bool(l_crs)
    for k in changes:
        assert any(ls[k] - 0.01 <= l <= ls[k + 1] + 0.01 for l in l_crs), (ls[k], l_crs)


def test_first_point_has_the_least_l():
    assert critical_angular(5.684102).l_cr == pytest.approx(1.0276140647, abs=1e-9)


def test_accepts_only_a_slope_maximum_inside_the_window():
    cp = critical_angular(1.0)
    assert solver._accepts(cp.l_cr, cp.rho_cr, 1.0)
    # at l = 7 the slope of U_+ rises to a maximum and then falls to a minimum
    rho = np.geomspace(0.5, 5.0, 2001)
    curv = partner_plus_d2r(rho, 1.0, 7.0)
    i = np.flatnonzero((curv[:-1] < 0.0) != (curv[1:] < 0.0))
    assert len(i) == 2 and curv[i[0]] > 0.0 > curv[i[1]]
    peak, dip = numkit.bracketed_root(lambda r: partner_plus_d2r(r, 1.0, 7.0), rho[i], rho[i + 1]).x
    assert solver._accepts(7.0, peak, 1.0)
    assert not solver._accepts(7.0, dip, 1.0)
    for l, r in ((1.0, 1.6), (20.0, 1.6), (6.9, 0.1), (6.9, 10.0), (np.nan, 1.6), (6.9, np.inf)):
        assert not solver._accepts(l, r, 1.0)


def test_resultant_root_is_the_common_zero_of_slope_and_curvature():
    t_star = 1.0 / (1.0 + 1.5993663589673832 ** 2)   # kappa = 1
    T = np.array([t_star - 1e-3, t_star, t_star + 1e-3])
    R, ls, rhos = solver._common_zeros(T, 1.0)
    assert R[0] * R[2] < 0.0
    assert ls[1] == pytest.approx(6.876606651413599, abs=1e-6)
    assert rhos[1] == pytest.approx(1.5993663589673832, rel=1e-14)


@pytest.mark.parametrize("name, form", [("_u_plus_slope", partner_plus_dr),
                                        ("_u_plus_curvature", partner_plus_d2r)])
def test_u_plus_numerators_are_written_once(monkeypatch, name, form):
    # partner_plus_dr/_d2r and the pocket search both look the numerator up through susy at
    # call time.  The search scales its quadratics to unit size, so a uniform scale moves the
    # resultant by its rounding only, but a copy of the formula would not move it at all.
    rho, T = np.geomspace(0.5, 5.0, 9), np.linspace(0.05, 0.95, 64)
    value, resultant = form(rho, 1.0, 7.0), solver._common_zeros(T, 1.0)[0]
    numerator = getattr(susy, name)
    monkeypatch.setattr(susy, name, lambda *B: (1.0 + 1e-6) * numerator(*B))
    np.testing.assert_allclose(form(rho, 1.0, 7.0), (1.0 + 1e-6) * value, rtol=1e-14)
    assert not np.array_equal(solver._common_zeros(T, 1.0)[0], resultant)


def test_a_patched_susy_reaches_the_pocket_search(monkeypatch):
    # the search looks U+' and U+'' up through susy when called, as checks does: a uniform
    # scale keeps the threshold and moves the residuals; a flipped U+'' fails _accepts
    base = solver.critical_angular_all(1.0)
    dr, d2r = susy.partner_plus_dr, susy.partner_plus_d2r
    monkeypatch.setattr(susy, "partner_plus_dr", lambda *a: (1.0 + 1e-4) * dr(*a))
    monkeypatch.setattr(susy, "partner_plus_d2r", lambda *a: (1.0 + 1e-4) * d2r(*a))
    scaled = solver.critical_angular_all(1.0)
    assert len(scaled) == len(base) == 1
    assert (scaled[0].l_cr, scaled[0].rho_cr) == pytest.approx((base[0].l_cr, base[0].rho_cr),
                                                               rel=1e-9)
    assert scaled[0].slope_residual != base[0].slope_residual
    assert scaled[0].curvature_residual != base[0].curvature_residual
    monkeypatch.setattr(susy, "partner_plus_d2r", lambda *a: -d2r(*a))
    assert solver.critical_angular_all(1.0) == []


@pytest.mark.parametrize("error", [ConvergenceError("no descent direction"),
                                   ValueError("rho must be strictly positive")])
def test_a_failed_polish_is_a_convergence_error_naming_the_candidate(monkeypatch, error):
    def failing(F, x0):
        raise error

    monkeypatch.setattr(solver, "newton2d", failing)
    with pytest.raises(ConvergenceError, match=r"Newton polish failed: .* \(kappa = 1\.0, "
                                               r"candidate \(l, rho\) = \(6\.87660665"):
        critical_angular_all(1.0)


@pytest.mark.parametrize("kappa", np.geomspace(0.2, 1e3, 48).tolist())
def test_critical_points_lie_in_the_window_or_the_search_fails(kappa):
    try:
        points = critical_angular_all(kappa)
    except ConvergenceError as exc:
        assert f"kappa = {kappa}" in str(exc)
        return
    for cp in points:
        assert 1.0 < cp.l_cr < 20.0 and 0.1 < cp.rho_cr < 10.0


def test_a_failed_threshold_search_is_a_convergence_error(monkeypatch):
    def stalled(f, lo, hi, args=()):
        res = numkit.bracketed_root(f, lo, hi, args)
        res.status[:] = -2
        return res

    monkeypatch.setattr(solver, "bracketed_root", stalled)
    with pytest.raises(ConvergenceError, match="threshold search failed for kappa = 1.0"):
        critical_angular_all(1.0)


def test_critical_window_without_a_threshold_gives_no_points():
    assert critical_angular_all(0.1) == []
    with pytest.raises(ConvergenceError, match="no pocket threshold"):
        critical_angular(0.1)


@pytest.mark.parametrize("l, changes", [(7, 2), (6, 0)])
def test_pocket_presence_straddles_threshold(l, changes):
    # Above the critical angular number the slope of U_plus changes sign
    # twice (well + barrier); below it the potential falls monotonically.
    rho = np.geomspace(0.5, 5.0, 2001)
    slope = partner_plus_dr(rho, 1.0, l)
    sign = np.sign(slope)
    assert int(np.sum(sign[:-1] != sign[1:])) == changes


# ----------------------------------------------------------------------
# classical orbits
# ----------------------------------------------------------------------

def apsidal_angle(kappa: float, w: float, rho0: float, direction_deg: float) -> float:
    """Polar angle the zero-energy orbit sweeps from one turning point to the
    next, launched as classical_trajectory launches it, by quadrature.

    In s = ln rho the orbit obeys (ds/dtheta)^2 = F(s) = -2 U(e^s) e^(2s) / L^2 - 1,
    so the angle is the integral of ds / sqrt(F) between the roots s1 < s2 of F,
    which bracketed_root finds on either side of rho = 1, where F peaks.  With
    s = m + h sin(phi) (m, h the roots' midpoint and half-distance) and F factored
    at its roots, the integrand sqrt((s - s1)(s2 - s) / F(s)) is bounded at both ends.
    """
    l2 = -2.0 * potential(rho0, w, kappa) * (rho0 * math.sin(math.radians(direction_deg))) ** 2

    def F(s):
        return -2.0 * potential(np.exp(s), w, kappa) * np.exp(2.0 * s) / l2 - 1.0

    far = 1.0
    while F(-far) >= 0.0 or F(far) >= 0.0:
        far *= 2.0
    roots = numkit.bracketed_root(F, [-far, 0.0], [0.0, far])
    assert np.all(roots.status == 0)
    # a root left 1e-14 off costs the angle 1e-11 through (s - s1)(s2 - s) / F(s), so each
    # is polished by three Newton steps on F, its slope taken by a central difference
    s1, s2 = roots.x
    for _ in range(3):
        d1, d2 = 1e-6 * max(1.0, abs(s1)), 1e-6 * max(1.0, abs(s2))
        s1 -= F(s1) * 2.0 * d1 / (F(s1 + d1) - F(s1 - d1))
        s2 -= F(s2) * 2.0 * d2 / (F(s2 + d2) - F(s2 - d2))
    m, h = 0.5 * (s1 + s2), 0.5 * (s2 - s1)

    def integrand(phi):
        s = m + h * np.sin(phi)
        return np.sqrt((s - s1) * (s2 - s) / F(s))

    return numkit.integrate_adaptive(integrand, -0.5 * math.pi, 0.5 * math.pi)


@settings(max_examples=200, deadline=None)
@given(kappa=st.floats(0.2, 4.0), w=st.floats(0.1, 100.0), log_rho0=st.floats(-6.0, 3.0),
       direction=st.floats(1e-6, 180.0 - 1e-6))
@example(kappa=3.75, w=3.0, log_rho0=0.0, direction=80.25)   # 1.0018e-11 off, roots unpolished
def test_apsidal_angle_is_pi_over_kappa(kappa, w, log_rho0, direction):
    # Every bound zero-energy orbit closes: turning point to turning point is pi/kappa.
    # F(0) = cosh(kappa ln rho0)^2 / sin(direction)^2 - 1 is the orbit's room between
    # them; near a circular orbit F is a difference of nearly equal numbers, and
    # below F(0) = 1e-2 that rounding costs the angle more than 1e-11.
    rho0 = 10.0 ** log_rho0
    assume(math.cosh(kappa * math.log(rho0)) ** 2 / math.sin(math.radians(direction)) ** 2
           >= 1.01)
    assert apsidal_angle(kappa, w, rho0, direction) == pytest.approx(math.pi / kappa, rel=1e-11)


def test_fisheye_orbit_closes_and_focuses():
    traj = classical_trajectory("1", 3.0, 0.5, direction_deg=63.0)
    assert isinstance(traj, Trajectory)
    assert (traj.k1, traj.k2) == (1, 1)
    assert traj.closure_defect < 1e-6
    assert traj.energy_drift < 1e-8
    # image of the start point: antipodal, at the reciprocal radius
    fx, fy = traj.focal_point
    assert math.hypot(fx, fy) == pytest.approx(2.0, abs=1e-6)
    assert fx == pytest.approx(-2.0, abs=1e-6)
    assert abs(fy) < 1e-6


def test_focal_point_is_direction_independent():
    a = classical_trajectory("1", 3.0, 0.5, direction_deg=63.0)
    b = classical_trajectory("1", 3.0, 0.5, direction_deg=100.0)
    dist = math.hypot(a.focal_point[0] - b.focal_point[0],
                      a.focal_point[1] - b.focal_point[1])
    assert dist < 1e-9


def test_half_exponent_orbit_closes_after_two_revolutions():
    traj = classical_trajectory("1/2", 2.0, 0.5, direction_deg=63.0)
    assert (traj.k1, traj.k2) == (1, 2)
    assert traj.closure_defect < 1e-8
    assert traj.energy_drift < 1e-8
    fx, fy = traj.focal_point
    assert fx == pytest.approx(2.0, abs=1e-6)
    assert abs(fy) < 1e-6


def test_trajectory_sampling_and_override():
    traj = classical_trajectory("1", 3.0, 0.5, revolutions=0.5, samples=250)
    assert len(traj.t) == len(traj.x) == len(traj.vx) == 250
    assert traj.focal_time < traj.closure_time
    speeds = np.hypot(traj.vx, traj.vy)
    assert np.all(speeds > 0.0)


def test_radial_plunge_hits_origin():
    with pytest.raises(GeometryError) as info:
        classical_trajectory("1/2", 2.0, 0.5, direction_deg=180.0)
    assert info.value.kind == "origin"


def test_escape_beyond_the_outer_guard():
    # launched near-tangentially at rho = 900, the kappa = 1 orbit swings out past rho = 1e3
    with pytest.raises(GeometryError, match="escaped beyond rho = 1e3") as info:
        classical_trajectory("1", 3.0, 900.0, direction_deg=1.0)
    assert (info.value.kind, info.value.rho) == ("escape", 1e3)


def test_near_radial_plunge_stops_at_the_origin_guard():
    # A launch 0.001 deg off the plunge dives to r ~ 1e-10; the step-end check
    # on r < 1e-6 stops it on the way in, with the physical time of that step.
    with pytest.raises(GeometryError) as info:
        classical_trajectory("1/2", 2.0, 0.5, direction_deg=179.999)
    assert info.value.kind == "origin"
    t = float(str(info.value).rpartition("t = ")[2])
    assert t == pytest.approx(0.1532, rel=1e-3)


# at 5e-324 deg L = rho0 v sin(phi) underflows to 0.0; at 3e-322 it is subnormal and 1/L is
# inf; at 1e-306 1/L is finite but the gain 2w/L is inf
@pytest.mark.parametrize("direction", [0.0, 360.0, -720.0, 5e-324, 3e-322, 1e-306])
def test_outward_radial_launch_is_rejected_up_front(direction, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an orbit with no angular momentum was integrated")

    monkeypatch.setattr(solver, "solve_ivp", refuse)
    with pytest.raises(ValueError, match="radial"):
        classical_trajectory("1", 3.0, 0.5, direction_deg=direction)
    with pytest.raises(ValueError, match="radial"):
        classical_trajectory("1", 3.0, 0.5, direction_deg=direction).path_on_angles([0.5, 1.0])


@pytest.mark.parametrize("direction", [180.0, -180.0, 540.0])
def test_inward_radial_launch_is_rejected_up_front(direction, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a radial plunge was integrated")

    monkeypatch.setattr(solver, "solve_ivp", refuse)
    for trace in (lambda: classical_trajectory("1", 3.0, 0.5, direction_deg=direction),
                  lambda: classical_trajectory("1", 3.0, 0.5, direction_deg=direction)
                  .path_on_angles([0.5, 1.0])):
        with pytest.raises(GeometryError, match="plunge") as info:
            trace()
        assert info.value.kind == "origin"
        assert info.value.rho == 1e-6


@pytest.mark.parametrize("kappa, w", [("1", 3.0), ("1/2", 2.0), ("2/3", 2.5)])
@pytest.mark.parametrize("phi", [63.0, 100.0])
def test_mirrored_launch_mirrors_the_orbit(kappa, w, phi):
    # Launching at 360 - phi reflects the orbit in the x axis (L < 0).
    a = classical_trajectory(kappa, w, 0.5, direction_deg=phi)
    b = classical_trajectory(kappa, w, 0.5, direction_deg=360.0 - phi)
    assert b.closure_time == pytest.approx(a.closure_time, rel=1e-10)
    assert b.closure_defect == pytest.approx(a.closure_defect, rel=1e-10, abs=1e-14)
    assert b.energy_drift == pytest.approx(a.energy_drift, rel=1e-10, abs=1e-14)
    assert b.focal_point[0] == pytest.approx(a.focal_point[0], rel=1e-10)
    assert b.focal_point[1] == pytest.approx(-a.focal_point[1], rel=1e-10, abs=1e-14)

    thetas = np.array([4.0, 0.3, 2.2, 1.0])
    pos_a, speed_a = a.path_on_angles(thetas)
    pos_b, speed_b = b.path_on_angles(thetas)
    np.testing.assert_allclose(pos_b[:, 0], pos_a[:, 0], rtol=1e-10, atol=1e-14)
    np.testing.assert_allclose(pos_b[:, 1], -pos_a[:, 1], rtol=1e-10, atol=1e-14)
    np.testing.assert_allclose(speed_b, speed_a, rtol=1e-10)


def test_time_uniform_samples_are_lazy_and_exact(monkeypatch):
    traj = classical_trajectory("1/2", 2.0, 0.5, direction_deg=63.0, samples=301)
    invert = solver._states_at_times
    calls = []
    monkeypatch.setattr(solver, "_states_at_times",
                        lambda *args: calls.append(args) or invert(*args))
    assert traj.rhs_evaluations > 0 and not calls
    np.testing.assert_array_equal(traj.t, np.linspace(0.0, traj.closure_time, 301))
    assert len(traj.x) == len(traj.vy) == 301
    assert len(calls) == 1
    # the orbit's own clock at the inverted angles is the requested time
    states = invert(traj.orbit, traj.t)
    assert np.max(np.abs(states[4] - traj.t)) <= 1e-13 * traj.closure_time
    np.testing.assert_array_equal(states[0], traj.x)
    # time-uniform samples still lie on the zero-energy shell
    r = np.hypot(traj.x, traj.y)
    energy = 0.5 * (traj.vx ** 2 + traj.vy ** 2) + potential(r, 2.0, 0.5)
    assert np.max(np.abs(energy)) < 1e-8 * abs(potential(0.5, 2.0, 0.5))


@pytest.mark.parametrize("kappa, w", [("1", 3.0), ("1/2", 2.0), ("2/3", 2.5)])
def test_time_uniform_samples_sit_at_their_times(kappa, w):
    traj = classical_trajectory(kappa, w, 0.5, direction_deg=63.0)
    clock = solver._states_at_times(traj.orbit, traj.t)[4]
    # the root search stops on a bracket of a few float spacings in the angle
    assert np.max(np.abs(clock - traj.t)) <= 1e-14 * traj.closure_time
    assert clock[0] == 0.0 and clock[-1] == traj.closure_time


def test_trajectory_validation():
    with pytest.raises(ValueError):
        classical_trajectory(math.sqrt(2.0) / 2.0, 3.0, 0.5)  # irrational exponent
    with pytest.raises(ValueError):
        classical_trajectory("1", -3.0, 0.5)
    with pytest.raises(ValueError):
        classical_trajectory("1", 3.0, -0.5)
    with pytest.raises(ValueError):
        classical_trajectory("1", 3.0, 0.5, revolutions=0.0)
    with pytest.raises(ValueError, match="coupling"):
        classical_trajectory("1", math.nan, 0.5)


@pytest.mark.parametrize("rho0", [1e150, 1e200, 1e300, 1e-200, 1e-300, 9.9e-7, 1.01e3])
def test_start_radius_beyond_the_guard_radii_is_refused_before_integrating(rho0, monkeypatch):
    # v0 underflows to 0 at the extremes; the orbit guard stops any step past 1e-6 or 1e3
    def refuse(*args, **kwargs):
        raise AssertionError("an orbit from beyond the guard radii was integrated")

    monkeypatch.setattr(solver, "solve_ivp", refuse)
    with pytest.raises(ValueError, match="guard radii"):
        classical_trajectory("1", 3.0, rho0)


def test_trajectory_rejects_unending_spans_up_front():
    # a non-finite span never ends the integration: the calls run in a child
    # process, whose timeout fails the test instead of hanging it
    script = """
import math
from dosusy.solver import classical_trajectory
calls = [lambda: classical_trajectory("1", 3.0, 0.5, revolutions=math.nan),
         lambda: classical_trajectory("1", 3.0, 0.5, revolutions=math.inf),
         lambda: classical_trajectory("1", 3.0, 0.5, direction_deg=math.nan),
         lambda: classical_trajectory("1", 3.0, 0.5, direction_deg=math.inf),
         lambda: classical_trajectory("1", 3.0, 0.5, samples=1),
         lambda: classical_trajectory("1", 3.0, 0.5).path_on_angles([1.0, math.inf]),
         lambda: classical_trajectory("1", 3.0, 0.5).path_on_angles([1.0, math.nan]),
         lambda: classical_trajectory("1", 3.0, 0.5, direction_deg=math.nan)
         .path_on_angles([1.0])]
for call in calls:
    try:
        call()
        print("returned")
    except ValueError:
        print("ValueError")
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=PACKAGE_PARENT))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ValueError"] * 8


@pytest.mark.parametrize("thetas", [[], [0.0], [-0.0, 0.0]])
def test_path_on_angles_at_no_angle_reads_the_launch_state(thetas):
    traj = classical_trajectory("1", 3.0, 0.5, direction_deg=63.0)
    pos, speed = traj.path_on_angles(thetas)
    assert pos.shape == (len(thetas), 2) and speed.shape == (len(thetas),)
    x, y, vx, vy, _t = traj.orbit.y[:, 0]
    assert pos.tolist() == [[x, y]] * len(thetas)
    assert speed.tolist() == [math.hypot(vx, vy)] * len(thetas)


@pytest.mark.parametrize("trace", [
    lambda: classical_trajectory("1", 3.0, 0.5, revolutions=1e9),
    lambda: classical_trajectory("1", 3.0, 0.5, revolutions=100.5),
    lambda: classical_trajectory("1/101", 3.0, 0.5),   # closure span k2 = 101 revolutions
    lambda: classical_trajectory("1", 3.0, 0.5, samples=1_000_001),
    lambda: classical_trajectory("1", 3.0, 0.5, revolutions=100.5)
    .path_on_angles([1.0, 2.0 * math.pi * 100.5]),
], ids=["revolutions-1e9", "revolutions-100.5", "closure-span-101", "samples-1000001",
        "angles-100.5-revolutions"])
def test_trajectory_caps_are_checked_before_integrating(trace, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an orbit past the cap was integrated")

    monkeypatch.setattr(solver, "solve_ivp", refuse)
    with pytest.raises(ValueError, match="revolutions|samples"):
        trace()


def test_quadrupled_coupling_preserves_path_and_doubles_speed():
    thetas = np.array([0.3, 1.0, 2.2, 4.0])
    pos1, speed1 = classical_trajectory("1", 3.0, 0.5).path_on_angles(thetas)
    pos4, speed4 = classical_trajectory("1", 12.0, 0.5).path_on_angles(thetas)
    assert pos1.shape == (4, 2) and speed1.shape == (4,)
    assert np.max(np.hypot(pos1[:, 0] - pos4[:, 0], pos1[:, 1] - pos4[:, 1])) < 1e-8
    np.testing.assert_allclose(speed4 / speed1, 2.0, rtol=1e-6)


@pytest.mark.parametrize("kappa, w", [("1", 3.0), ("1/2", 2.0)])
def test_path_on_angles_reads_the_traced_orbit(kappa, w, monkeypatch):
    # dense output is exact at the step ends, in either sign of the angle
    traj = classical_trajectory(kappa, w, 0.5, direction_deg=63.0)
    thetas = traj.orbit.t * np.where(np.arange(len(traj.orbit.t)) % 2, -1.0, 1.0)
    x, y, vx, vy, _t = traj.orbit.y

    def refuse(*args, **kwargs):
        raise AssertionError("the traced orbit was integrated again")

    monkeypatch.setattr(solver, "solve_ivp", refuse)
    pos, speed = traj.path_on_angles(thetas)
    assert pos.shape == (len(thetas), 2) and speed.shape == (len(thetas),)
    np.testing.assert_array_equal(pos, np.column_stack([x, y]))
    np.testing.assert_array_equal(speed, np.hypot(vx, vy))
    with pytest.raises(ValueError, match="beyond the traced span"):
        traj.path_on_angles([2.0 * math.pi * traj.k2 + 0.1])
