"""Potential family, coordinate maps, quantized couplings, and bound states.

Normalization oracles are worked out analytically before being asserted:
with kappa = 1 and l = 1 the substitution rho = tan(theta) turns the norm
integrals into trigonometric ones,

    N=2: integral of rho^4/(1+rho^2)^3 d rho = 3 pi / 16,
    N=3: integral of 16 rho^4 (1-rho^2)^2 / (1+rho^2)^5 d rho = 7 pi / 4,

so the unit-norm constants are 4/sqrt(3 pi) and 2/sqrt(7 pi).
"""

import math
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dosusy.exceptions import NonNormalizableStateError, QuadratureError
from dosusy.model import (
    SampledFunction,
    StateLabel,
    coupling_quantized,
    default_grid,
    effective_potential_general,
    enumerate_shell,
    f_factor,
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


@pytest.mark.parametrize("tiny", [1e-20, 1e-300, 5e-324])
def test_parse_kappa_keeps_a_tiny_positive_float(tiny):
    # the nearest small-denominator fraction is 0, which is no shape exponent
    assert parse_kappa(tiny) == parse_kappa(str(tiny)) == (tiny, None)
    with pytest.raises(ValueError, match=f"got {-tiny}"):
        parse_kappa(-tiny)


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
    with pytest.raises(ValueError, match="need 2 to 1000000 grid points"):
        default_grid(0.1, 10.0, n=1_000_001)


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
    (2, -1, "1"),    # negative l, though p = N - 1 - l/kappa = 2 is a degree
    (1, -2, "2"),    # negative l, p = 1
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


def _norm_oracle(N, l, kappa):
    """The normalization constant by mpmath, for kappa a Fraction.

    In z = rho^(2k) / (1 + rho^(2k)), f^2 d rho = (2k)^-1 z^(a-1) (1-z)^(b-1) dz with
    a = (2l+3)/(2k) and b = (2l-1)/(2k), and xi = 1 - 2z.  C_p^q(1 - 2z)^2 is a polynomial
    of degree 2p in z, so the norm is a finite sum of beta functions: (2k)^-1 B(a, b) at
    p = 0, and sum_j c_j (2k)^-1 B(a + j, b) over the coefficients c_j in z above it.
    """
    k = mp.mpf(kappa.numerator) / kappa.denominator
    degree = N - 1 - int(l / kappa)
    q = (2 * l + 1) / (2 * k) + mp.mpf(1) / 2
    a, b = (2 * l + 3) / (2 * k), (2 * l - 1) / (2 * k)
    before, c = [0], [mp.mpf(1)]   # C_(n-1) and C_n in powers of z, from C_(-1) = 0
    for n in range(1, degree + 1):   # n C_n = 2 (n+q-1) xi C_(n-1) - (n+2q-2) C_(n-2)
        xi_c = [u - 2 * v for u, v in zip(c + [0], [0] + c)]
        before, c = c, [(2 * (n + q - 1) * u - (n + 2 * q - 2) * v) / n
                        for u, v in zip(xi_c, before + [0] * (len(xi_c) - len(before)))]
    square = [sum(c[i] * c[j - i] for i in range(max(0, j - degree), min(j, degree) + 1))
              for j in range(2 * degree + 1)]
    return 1 / mp.sqrt(sum(s * mp.beta(a + j, b) for j, s in enumerate(square)) / (2 * k))


@settings(max_examples=200, deadline=None)
@given(l=st.integers(1, 30), m=st.integers(1, 40), degree=st.integers(0, 3))
def test_normalization_constant_is_the_beta_oracle(l, m, degree):
    # kappa = l/m puts (N, l) = (1 + m + p, l) at polynomial degree p; 1e-10 is the
    # quadrature's own bound
    kappa = Fraction(l, m)
    with mp.workdps(40):
        expected = float(_norm_oracle(1 + m + degree, l, kappa))
    assert normalization_constant(1 + m + degree, l, kappa) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("N, l, kappa, rel", [
    *((*state, 1e-10) for state in [(2, 1, "1"), (3, 1, "1"), (4, 2, "1"), (3, 1, "1/2"),
                                    (5, 1, "1/2"), (4, 2, "2/3"), (3, 3, "3/2"), (3, 2, 2.0),
                                    (4, 3, 3.0)]),
    # where the norm is small: integrated unscaled, these were 8.2e-4 to 0.25 off
    *((*state, 1e-13) for state in [(16, 15, "1"), (21, 20, "1"), (17, 8, "1/2"),
                                    (21, 1, "1/20"), (41, 1, "1/40"), (101, 50, "1/2"),
                                    (151, 1, "1/150")]),
])
def test_normalization_constant_on_the_named_states(N, l, kappa, rel):
    with mp.workdps(40):
        expected = float(_norm_oracle(N, l, parse_kappa(kappa)[1]))
    assert normalization_constant(N, l, kappa) == pytest.approx(expected, rel=rel)


@pytest.mark.parametrize("N, l, kappa", [(5, 1, "1/2"), (44, 1, "1/40"), (5, 3, "3/2")])
def test_the_norm_oracle_is_the_quadrature_of_u_squared_rho_in_t(N, l, kappa):
    # u^2 rho = f^2 rho C_p^q(xi)^2 with xi = -tanh(kappa t), by tanh-sinh quadrature around
    # the peak of f^2 rho at z = (2l+3)/(4l+2), of width 1/sqrt(4 kappa (2l+1) z (1-z)) in t
    exact = parse_kappa(kappa)[1]
    degree, _ = state_quantum_numbers(N, l, kappa)
    with mp.workdps(30):
        k = mp.mpf(exact.numerator) / exact.denominator
        q = (2 * l + 1) / (2 * k) + mp.mpf(1) / 2
        z = mp.mpf(2 * l + 3) / (4 * l + 2)
        peak, width = mp.log(z / (1 - z)) / (2 * k), 1 / mp.sqrt(4 * k * (2 * l + 1) * z * (1 - z))

        def u2rho(t):
            return (mp.exp((2 * l + 3) * t - (2 * l + 1) / k * mp.log1p(mp.exp(2 * k * t)))
                    * mp.gegenbauer(degree, q, -mp.tanh(k * t)) ** 2)

        points = [-mp.inf, *(peak + c * width for c in (-30, -8, -2, 0, 2, 8, 30)), mp.inf]
        assert abs(1 / mp.sqrt(mp.quad(u2rho, points)) / _norm_oracle(N, l, exact) - 1) < 1e-20


@pytest.mark.parametrize("l, m, refused", [(1, 233, False), (1, 234, True),
                                            (30, 344, False), (30, 345, True)])
def test_the_norm_below_its_kappa_floor_is_a_named_failure(l, m, refused):
    # kappa >= (2l+1)/700 keeps u^2's weight where f^2 is a normal float; below it the
    # unguarded quadrature drifted silently, then stalled, then returned inf at (399, 1, 1/398)
    kappa = Fraction(l, m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if refused:
            with pytest.raises(QuadratureError, match=r"kappa >= \(2l\+1\)/700 = "):
                normalization_constant(1 + m, l, kappa)
        else:
            with mp.workdps(40):
                expected = float(_norm_oracle(1 + m, l, kappa))
            assert normalization_constant(1 + m, l, kappa) == pytest.approx(expected, rel=1e-10)


def test_normalized_radial_u_scaling():
    rho = 1.7
    raw = radial_u(rho, 3, 1, "1")
    scaled = radial_u(rho, 3, 1, "1", normalized=True)
    assert scaled == pytest.approx(raw * 2.0 / math.sqrt(7.0 * math.pi), rel=1e-10)


@pytest.mark.parametrize("N", [1, 2, 4])
def test_l_zero_states_are_not_normalizable(N):
    with pytest.raises(NonNormalizableStateError):
        normalization_constant(N, 0, "1")
    with pytest.raises(NonNormalizableStateError):
        radial_u(1.0, N, 0, "1", normalized=True)


def test_is_normalizable_positive_l():
    assert 0.0 < normalization_constant(2, 1, "1") < math.inf
    assert 0.0 < normalization_constant(3, 3, "3/2") < math.inf
    with pytest.raises(ValueError):
        normalization_constant(1, 1, "1")  # state does not exist at all


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


@pytest.mark.parametrize("call", [
    lambda: make_state(2, -1, "1"),
    lambda: radial_u(1.0, 2, -1, "1"),
    lambda: normalization_constant(2, -1, "1"),
], ids=["make_state", "radial_u", "normalization_constant"])
def test_every_state_entry_point_refuses_negative_l_with_one_message(call):
    # (N=2, l=-1, kappa=1) gives the integer degree p = 2; l < 0 alone rules it out,
    # with the message state_quantum_numbers gives
    with pytest.raises(ValueError, match=r"^no state at \(N=2, l=-1\): l must be >= 0$"):
        call()


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

