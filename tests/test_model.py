"""Potential family, coordinate maps, quantized couplings, and bound states.

Normalization oracles are worked out analytically before being asserted:
with kappa = 1 and l = 1 the substitution rho = tan(theta) turns the norm
integrals into trigonometric ones,

    N=2: integral of rho^4/(1+rho^2)^3 d rho = 3 pi / 16,
    N=3: integral of 16 rho^4 (1-rho^2)^2 / (1+rho^2)^5 d rho = 7 pi / 4,

so the unit-norm constants are 4/sqrt(3 pi) and 2/sqrt(7 pi).
"""

import math
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from dosusy import numkit
from dosusy.exceptions import NonNormalizableStateError
from dosusy.model import (
    SampledFunction,
    StateLabel,
    coupling_quantized,
    default_grid,
    effective_potential_general,
    enumerate_shell,
    f_factor,
    is_normalizable,
    make_state,
    map_coordinates,
    normalization_constant,
    parse_kappa,
    potential,
    radial_u,
    state_quantum_numbers,
)
from dosusy.susy import partner_minus_closed

GRID = default_grid()


# ----------------------------------------------------------------------
# shape exponent parsing
# ----------------------------------------------------------------------

@pytest.mark.parametrize("raw, kappa, exact", [
    ("1/2", 0.5, Fraction(1, 2)),
    ("3/2", 1.5, Fraction(3, 2)),
    ("2", 2.0, Fraction(2)),
    ("1.5", 1.5, Fraction(3, 2)),
    ("0.125", 0.125, Fraction(1, 8)),
    (0.5, 0.5, Fraction(1, 2)),
    (1, 1.0, Fraction(1)),
    (Fraction(2, 3), 2.0 / 3.0, Fraction(2, 3)),
])
def test_parse_kappa_forms(raw, kappa, exact):
    got_kappa, got_exact = parse_kappa(raw)
    assert got_kappa == pytest.approx(kappa, rel=1e-15)
    assert got_exact == exact


def test_parse_kappa_irrational_has_no_exact_form():
    kappa, exact = parse_kappa(math.sqrt(2.0) / 2.0)
    assert kappa == pytest.approx(0.7071067811865476)
    assert exact is None


@pytest.mark.parametrize("bad", ["0", "-1", 0, -2.5, Fraction(-1, 2)])
def test_parse_kappa_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        parse_kappa(bad)


@pytest.mark.parametrize("bad", ["nan", "inf", "1e400", "1/0", "1" + "0" * 400 + "/1",
                                 math.nan, math.inf, 10 ** 400, Fraction(-(10 ** 400), 3)],
                         ids=["str-nan", "str-inf", "str-overflow", "zero-denominator",
                              "huge-ratio", "nan", "inf", "huge-int", "huge-fraction"])
def test_parse_kappa_rejects_non_finite_input(bad):
    with pytest.raises(ValueError):
        parse_kappa(bad)


@pytest.mark.parametrize("text", ["0.5", "1.5", "0.3333333333334", "0.7071067811865476", "3"])
def test_parse_kappa_reads_a_decimal_string_as_its_float(text):
    assert parse_kappa(text) == parse_kappa(float(text))


def test_parse_kappa_rejects_garbage():
    with pytest.raises(TypeError):
        parse_kappa(None)
    with pytest.raises(ValueError):
        parse_kappa("a/b")


# ----------------------------------------------------------------------
# grids and sampled functions
# ----------------------------------------------------------------------

def test_default_grid_contains_unit_radius():
    assert len(GRID) == 400
    assert GRID[0] == 1e-3 and GRID[-1] == 1e3
    assert np.all(np.diff(GRID) > 0)
    assert np.any(GRID == 1.0)  # exact sample at the symmetry radius


def test_default_grid_outside_unit_range_is_plain_geomspace():
    g = default_grid(2.0, 5.0, 50)
    np.testing.assert_array_equal(g, np.geomspace(2.0, 5.0, 50))


def test_default_grid_validation():
    with pytest.raises(ValueError):
        default_grid(5.0, 2.0)
    with pytest.raises(ValueError):
        default_grid(-1.0, 2.0)
    with pytest.raises(ValueError):
        default_grid(0.1, 10.0, n=1)


class TestSampledFunction:
    def test_node_count_skips_exact_zeros(self):
        s = SampledFunction([1.0, 2.0, 3.0], [1.0, 0.0, -1.0])
        assert s.node_count() == 1
        s = SampledFunction([1.0, 2.0, 3.0], [1.0, -2.0, 1.0])
        assert s.node_count() == 2
        assert len(s) == 3

    @pytest.mark.parametrize("grid, values", [
        ([1.0, 2.0], [1.0]),              # length mismatch
        ([1.0], [1.0]),                   # too short
        ([2.0, 1.0], [1.0, 1.0]),         # not increasing
        ([-1.0, 1.0], [1.0, 1.0]),        # non-positive radius
        ([1.0, 2.0], [1.0, np.nan]),      # non-finite value
        ([1.0, np.inf], [1.0, 1.0]),      # non-finite radius
    ])
    def test_validation(self, grid, values):
        with pytest.raises(ValueError):
            SampledFunction(grid, values)

    def test_stacked_rows(self):
        s = SampledFunction([1.0, 2.0, 3.0], [[1.0, 0.0, -1.0], [1.0, 2.0, 3.0]])
        assert s.values.shape == (2, 3)
        assert len(s) == 3
        # a sign change across the row boundary is not a node of either row
        with pytest.raises(ValueError):
            s.node_count()

    @pytest.mark.parametrize("values", [
        [[1.0, 2.0], [3.0, 4.0]],         # rows shorter than the grid
        np.ones((2, 2, 3)),               # more than one stacking axis
        [[1.0, 2.0, 3.0], [1.0, np.inf, 3.0]],  # non-finite value in a row
    ])
    def test_stacked_validation(self, values):
        with pytest.raises(ValueError):
            SampledFunction([1.0, 2.0, 3.0], values)


# ----------------------------------------------------------------------
# coordinate maps
# ----------------------------------------------------------------------

def test_map_coordinates_spots():
    xi, alpha = map_coordinates(1.0, 1.0)
    assert xi == 0.0
    assert alpha == math.pi / 2
    xi, alpha = map_coordinates(2.0, 1.0)
    assert xi == pytest.approx(-0.6, rel=1e-15)
    assert alpha == pytest.approx(2.0 * math.atan(2.0), rel=1e-15)


@pytest.mark.parametrize("kappa", [0.5, 1.0, 1.5, 0.8])
def test_map_coordinates_cosine_identity(kappa):
    xi, alpha = map_coordinates(GRID, kappa)
    np.testing.assert_allclose(xi, np.cos(alpha), rtol=0, atol=1e-14)
    assert np.all((xi > -1.0) & (xi < 1.0))
    assert np.all((alpha > 0.0) & (alpha < math.pi))


@pytest.mark.parametrize("kappa", [0.5, 1.0, 1.5])
def test_map_coordinates_inversion_antisymmetry(kappa):
    rho = np.geomspace(0.05, 20.0, 101)
    xi_fwd, _ = map_coordinates(rho, kappa)
    xi_inv, _ = map_coordinates(1.0 / rho, kappa)
    np.testing.assert_allclose(xi_inv, -xi_fwd, rtol=0, atol=1e-14)


def test_map_coordinates_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        map_coordinates(0.0, 1.0)
    with pytest.raises(ValueError):
        map_coordinates(np.array([1.0, -2.0]), 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_map_coordinates_rejects_non_finite_radius(bad):
    with pytest.raises(ValueError):
        map_coordinates(bad, 1.0)
    with pytest.raises(ValueError):
        map_coordinates(np.array([1.0, bad]), 1.0)


# ----------------------------------------------------------------------
# potential and quantized couplings
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kappa", [0.5, 1.0, 1.5, 2.7])
@pytest.mark.parametrize("w", [1.0, 3.5])
def test_potential_quarter_depth_at_unit_radius(kappa, w):
    assert potential(1.0, w, kappa) == -w / 4.0


def test_potential_spot_and_negativity():
    assert potential(2.0, 3.0, 1.0) == pytest.approx(-0.12, rel=1e-15)
    for kappa in (0.5, 1.0, 1.5):
        assert np.all(potential(GRID, 2.0, kappa) < 0.0)


def test_potential_origin_behaviour():
    # kappa = 1 tends to the finite depth -w; kappa = 1/2 diverges as -w/rho.
    assert potential(1e-9, 3.0, 1.0) == pytest.approx(-3.0, rel=1e-12)
    assert potential(1e-9, 2.0, 0.5) * 1e-9 == pytest.approx(-2.0, rel=1e-4)


def test_potential_validation():
    with pytest.raises(ValueError):
        potential(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        potential(-1.0, 2.0, 1.0)


# Quantized couplings, checked against values computed by hand from
# (2k)^2 (N + 1/(2k) - 1)(N + 1/(2k)).
COUPLING_TABLE = [
    (1, 1.0, 3.0), (2, 1.0, 15.0), (3, 1.0, 35.0), (4, 1.0, 63.0), (5, 1.0, 99.0),
    (1, 0.5, 2.0), (2, 0.5, 6.0), (3, 0.5, 12.0), (4, 0.5, 20.0),
    (1, 1.5, 4.0), (2, 1.5, 28.0), (3, 1.5, 70.0),
]


@pytest.mark.parametrize("N, kappa, expected", COUPLING_TABLE)
def test_coupling_ladder(N, kappa, expected):
    assert coupling_quantized(N, kappa) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("kappa", [0.5, 0.75, 1.0, 1.5])
def test_coupling_monotone_in_N(kappa):
    ws = [coupling_quantized(N, kappa) for N in range(1, 9)]
    assert all(b > a for a, b in zip(ws, ws[1:]))


def test_coupling_validation():
    for bad in (0, -1, 2.5):
        with pytest.raises(ValueError):
            coupling_quantized(bad, 1.0)
    with pytest.raises(ValueError):
        coupling_quantized(1, -1.0)
    # (2 kappa)^2 overflows: as a float power it raises, as a numpy one it is inf
    for kappa in (1e200, 1e300, np.float64(1e200)):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="N=2, kappa=1e"):
            coupling_quantized(2, kappa)


# ----------------------------------------------------------------------
# nodeless factor and bound states
# ----------------------------------------------------------------------

def test_f_factor_spots():
    assert f_factor(1.0, 1.0, 0) == pytest.approx(2.0 ** -0.5, rel=1e-15)
    assert f_factor(1.0, 0.5, 0) == pytest.approx(0.5, rel=1e-15)


@pytest.mark.parametrize("l", range(5))
def test_f_factor_trig_identity(l):
    # For kappa = 1: f^2 = 4^-l sin^(2l)(alpha) sin^2(alpha/2).
    _, alpha = map_coordinates(GRID, 1.0)
    lhs = f_factor(GRID, 1.0, l) ** 2
    rhs = 4.0 ** -l * np.sin(alpha) ** (2 * l) * np.sin(alpha / 2.0) ** 2
    # the two routes accumulate ~l extra roundings in the repeated powers
    np.testing.assert_allclose(lhs, rhs, rtol=5e-12)


@pytest.mark.parametrize("l", [0, 1, 3])
def test_f_factor_asymptotics(l):
    # rho^(l+1) near the origin, rho^(-l) at large radius (kappa = 1).
    assert f_factor(1e-6, 1.0, l) == pytest.approx(1e-6 ** (l + 1), rel=1e-9)
    assert f_factor(1e6, 1.0, l) == pytest.approx(1e6 ** -l, rel=1e-9)


def test_f_factor_validation():
    with pytest.raises(ValueError):
        f_factor(1.0, 1.0, -1)
    with pytest.raises(ValueError):
        f_factor(0.0, 1.0, 0)


@pytest.mark.parametrize("N, l, kappa, p, q", [
    (1, 0, "1", 0, 1.0),
    (3, 1, "1", 1, 2.0),
    (3, 1, "1/2", 0, 3.5),
    (3, 3, "3/2", 0, 17.0 / 6.0),
])
def test_state_quantum_numbers(N, l, kappa, p, q):
    got_p, got_q = state_quantum_numbers(N, l, kappa)
    assert got_p == p
    assert got_q == pytest.approx(q, rel=1e-14)


@pytest.mark.parametrize("N, l, kappa", [
    (1, 1, "1"),     # negative degree
    (2, 3, "3/2"),   # negative degree
    (3, 1, "3/2"),   # l/kappa not an integer
    (2, 1, "1/2"),   # negative degree
])
def test_state_quantum_numbers_invalid(N, l, kappa):
    with pytest.raises(ValueError):
        state_quantum_numbers(N, l, kappa)


def test_state_quantum_numbers_irrational_kappa():
    # l = 0 works for any kappa; nonzero l generally does not.
    p, _ = state_quantum_numbers(3, 0, 1.0 / math.pi)
    assert p == 2
    with pytest.raises(ValueError):
        state_quantum_numbers(3, 1, 1.0 / math.pi)


def test_radial_u_reduces_to_f_at_ladder_bottom():
    u = radial_u(GRID, 1, 0, "1")
    np.testing.assert_array_equal(u, f_factor(GRID, 1.0, 0))
    u = radial_u(GRID, 2, 1, "1")  # bottom of the l = 1 ladder
    np.testing.assert_array_equal(u, f_factor(GRID, 1.0, 1))


def test_radial_u_first_excited_node_at_unit_radius():
    # N=2, l=0, kappa=1 has polynomial C_1(xi) = 2 xi: node exactly at rho=1.
    assert radial_u(1.0, 2, 0, "1") == 0.0
    assert radial_u(0.5, 2, 0, "1") > 0.0
    assert radial_u(2.0, 2, 0, "1") < 0.0


@pytest.mark.parametrize("N, l, kappa", [
    (1, 0, "1"), (2, 0, "1"), (3, 0, "1"), (3, 1, "1"), (4, 2, "1"), (5, 0, "1"),
    (2, 0, "1/2"), (3, 1, "1/2"),
    (3, 3, "3/2"), (2, 0, "3/2"),
])
def test_radial_u_node_counts(N, l, kappa):
    state = make_state(N, l, kappa)
    u = SampledFunction(GRID, radial_u(GRID, N, l, kappa))
    assert u.node_count() == state.n_r


def test_normalization_constants_against_analytic_values():
    assert normalization_constant(2, 1, "1") == pytest.approx(
        4.0 / math.sqrt(3.0 * math.pi), rel=1e-10)
    assert normalization_constant(3, 1, "1") == pytest.approx(
        2.0 / math.sqrt(7.0 * math.pi), rel=1e-10)


def _half_line_panels(kappa):
    """The quadrature's former half-line panels, frozen: Gauss-Kronrod nodes
    in alpha, mapped to rho = tan(alpha/2)^(1/kappa), values times d rho/d alpha."""
    def panels(f, a, b):
        half = 0.5 * (b - a)
        alpha = 0.5 * (a + b) + half * numkit._KRONROD_NODES[:, None]
        rho = np.tan(0.5 * alpha) ** (1.0 / kappa)
        fx = np.asarray(f(rho.ravel()), dtype=float).reshape(rho.shape)
        fx *= rho / (kappa * np.sin(alpha))
        k15 = half * reduce(np.add, numkit._KRONROD_WEIGHTS[:, None] * fx)
        g7 = half * reduce(np.add, numkit._GAUSS_WEIGHTS[:, None] * fx[numkit._GAUSS_SLOTS])
        return k15, np.abs(k15 - g7)
    return panels


@pytest.mark.parametrize("N, l, kappa", [
    (2, 1, "1"), (3, 1, "1"), (4, 2, "1"), (3, 1, "1/2"), (5, 1, "1/2"),
    (4, 2, "2/3"), (3, 3, "3/2"), (3, 2, 2.0), (4, 3, 3.0),
])
def test_normalization_constant_is_the_former_half_line_integral_bit_for_bit(
        N, l, kappa, monkeypatch):
    expected = normalization_constant(N, l, kappa)
    kappa_f, _ = parse_kappa(kappa)
    monkeypatch.setattr(numkit, "_panels", _half_line_panels(kappa_f))
    norm2 = numkit.integrate_adaptive(lambda r: radial_u(r, N, l, kappa) ** 2, 0.0, math.pi)
    assert expected == 1.0 / np.sqrt(norm2)


def test_normalized_radial_u_scaling():
    rho = 1.7
    raw = radial_u(rho, 3, 1, "1")
    scaled = radial_u(rho, 3, 1, "1", normalized=True)
    assert scaled == pytest.approx(raw * 2.0 / math.sqrt(7.0 * math.pi), rel=1e-10)


@pytest.mark.parametrize("N", [1, 2, 4])
def test_l_zero_states_are_not_normalizable(N):
    assert not is_normalizable(N, 0, "1")
    with pytest.raises(NonNormalizableStateError):
        normalization_constant(N, 0, "1")
    with pytest.raises(NonNormalizableStateError):
        radial_u(1.0, N, 0, "1", normalized=True)


def test_is_normalizable_positive_l():
    assert is_normalizable(2, 1, "1")
    assert is_normalizable(3, 3, "3/2")
    with pytest.raises(ValueError):
        is_normalizable(1, 1, "1")  # state does not exist at all


# ----------------------------------------------------------------------
# effective potential and shells
# ----------------------------------------------------------------------

def test_effective_potential_spot():
    assert effective_potential_general(1.0, 3.0, 1.0, 0) == -0.75


@pytest.mark.parametrize("kappa, l", [(1.0, 1), (1.0, 2), (0.5, 1), (1.5, 3)])
def test_effective_potential_matches_lower_partner_on_ladder(kappa, l):
    # At the bottom-of-ladder coupling N = 1 + l/kappa the general effective
    # potential must coincide with the closed-form lower partner.
    N = 1 + round(l / kappa)
    w = coupling_quantized(N, kappa)
    rho = np.geomspace(0.1, 10.0, 201)
    ueff = effective_potential_general(rho, w, kappa, l)
    um = partner_minus_closed(rho, kappa, l)
    scale = np.abs(ueff) + np.abs(um) + 1.0
    assert np.max(np.abs(ueff - um) / scale) < 1e-12


def test_effective_potential_validation():
    with pytest.raises(ValueError):
        effective_potential_general(1.0, 3.0, 1.0, -1)


def test_make_state_labels():
    s = make_state(3, 1, "1")
    assert (s.N, s.l, s.n_r, s.n) == (3, 1, 1, 3)
    s = make_state(3, 1, "1/2", m=-1)
    assert (s.n_r, s.n, s.m) == (0, 2, -1)


def test_make_state_validation():
    with pytest.raises(ValueError):
        make_state(3, 2, "1/2")       # n_r would be negative
    with pytest.raises(ValueError):
        make_state(2, 1, "3/2")       # l/kappa not an integer
    with pytest.raises(ValueError):
        make_state(2, 0, math.sqrt(2.0) / 2.0)  # no exact rational form


def test_state_label_validation():
    with pytest.raises(ValueError):
        StateLabel(N=0, l=0)
    with pytest.raises(ValueError):
        StateLabel(N=1, l=-1)
    with pytest.raises(ValueError):
        StateLabel(N=1, l=1, m=2)


@pytest.mark.parametrize("N", range(1, 7))
def test_shell_degeneracy_fisheye(N):
    states = enumerate_shell(N, "1")
    assert len(states) == N * N
    assert len({(s.l, s.m) for s in states}) == N * N
    assert all(s.n_r >= 0 for s in states)


def test_shell_contents_other_exponents():
    assert len(enumerate_shell(3, "1/2")) == 4   # l in {0, 1}
    assert len(enumerate_shell(1, "1")) == 1
    assert len(enumerate_shell(3, "3/2")) == 8   # l in {0, 3}
    ls = sorted({s.l for s in enumerate_shell(3, "3/2")})
    assert ls == [0, 3]


def test_enumerate_shell_validation():
    with pytest.raises(ValueError):
        enumerate_shell(0, "1")
    with pytest.raises(ValueError):
        enumerate_shell(2, math.sqrt(2.0) / 2.0)

