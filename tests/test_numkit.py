"""Numerical kernel tests: polynomial recurrence, quadrature, stencils, Newton,
bracketed root search and the DOP853 integrator.

Expected values come from closed-form antiderivatives and textbook polynomial
identities, evaluated independently of the code under test.
"""

import math
import warnings

import numpy as np
import pytest

from dosusy import model, numkit
from dosusy.exceptions import ConvergenceError, QuadratureError
from dosusy.numkit import (
    bracketed_root,
    derivative,
    dop853,
    fornberg_weights,
    gegenbauer_eval,
    grid_derivative,
    integrate_adaptive,
    newton2d,
)

RNG = np.random.default_rng(20260814)


# ----------------------------------------------------------------------
# ultraspherical polynomials
# ----------------------------------------------------------------------

class TestGegenbauer:
    @pytest.mark.parametrize("q", [0.5, 1.0, 1.5, 2.5, 17 / 6])
    @pytest.mark.parametrize("x", [-0.9, 0.0, 0.3, 1.0])
    def test_degree_zero_is_one(self, q, x):
        assert gegenbauer_eval(0, q, x) == 1.0

    @pytest.mark.parametrize("q", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("x", [-0.7, 0.1, 0.5])
    def test_degree_one(self, q, x):
        assert gegenbauer_eval(1, q, x) == pytest.approx(2.0 * q * x, rel=1e-15)

    @pytest.mark.parametrize("q", [0.5, 1.5, 2.5, 3.5])
    def test_low_degree_closed_forms(self, q):
        # C_2 = 2q(q+1)x^2 - q and C_3 = (4/3)q(q+1)(q+2)x^3 - 2q(q+1)x.
        xs = np.linspace(-1.0, 1.0, 41)
        c2 = 2.0 * q * (q + 1.0) * xs ** 2 - q
        c3 = (4.0 / 3.0) * q * (q + 1.0) * (q + 2.0) * xs ** 3 - 2.0 * q * (q + 1.0) * xs
        np.testing.assert_allclose(gegenbauer_eval(2, q, xs), c2, rtol=0, atol=1e-13)
        np.testing.assert_allclose(gegenbauer_eval(3, q, xs), c3, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("p", range(7))
    @pytest.mark.parametrize("q", [0.5, 1.5, 17 / 6])
    def test_value_at_unit_argument(self, p, q):
        # C_p(1) = Gamma(p + 2q) / (Gamma(2q) p!).
        expect = math.gamma(p + 2.0 * q) / (math.gamma(2.0 * q) * math.factorial(p))
        assert gegenbauer_eval(p, q, 1.0) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("p", range(9))
    def test_parity(self, p):
        xs = RNG.uniform(-0.99, 0.99, size=17)
        for q in (0.5, 1.7):
            left = gegenbauer_eval(p, q, -xs)
            right = (-1.0) ** p * gegenbauer_eval(p, q, xs)
            np.testing.assert_allclose(left, right, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("p", range(13))
    @pytest.mark.parametrize("q", [0.5, 1.5, 2.5, 5.5])
    def test_differential_equation(self, p, q):
        # The recurrence output must satisfy the defining second-order ODE;
        # residuals are scaled by the polynomial's own magnitude.
        # Derivatives come from the exact order-raising relation
        # d/dx C_p^(q) = 2q C_(p-1)^(q+1), not finite differences.
        xs = np.linspace(-0.95, 0.95, 50)
        c0 = gegenbauer_eval(p, q, xs)
        c1 = 2.0 * q * gegenbauer_eval(p - 1, q + 1.0, xs) if p >= 1 else 0.0
        c2 = 4.0 * q * (q + 1.0) * gegenbauer_eval(p - 2, q + 2.0, xs) if p >= 2 else 0.0
        denom = xs * xs - 1.0
        res = np.max(np.abs(c2 + (2.0 * q + 1.0) * xs / denom * c1
                            - p * (p + 2.0 * q) / denom * c0))
        scale = 1.0 + np.max(np.abs(c0))
        assert res / scale < 1e-9

    def test_scalar_vs_array(self):
        xs = np.array([0.25])
        assert isinstance(gegenbauer_eval(4, 1.5, 0.25), float)
        assert gegenbauer_eval(4, 1.5, xs).shape == (1,)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gegenbauer_eval(-1, 1.0, 0.5)
        with pytest.raises(ValueError):
            gegenbauer_eval(1.5, 1.0, 0.5)
        with pytest.raises(ValueError):
            gegenbauer_eval(True, 1.0, 0.5)
        with pytest.raises(ValueError):
            gegenbauer_eval(2, 1.0, 1.2)


# ----------------------------------------------------------------------
# adaptive quadrature
# ----------------------------------------------------------------------

class TestQuadrature:
    def test_simple_segments(self):
        assert integrate_adaptive(lambda x: x, 0.0, 1.0) == pytest.approx(0.5, abs=1e-14)
        # integral of csc^2 over [pi/4, pi/2] is cot(pi/4) - cot(pi/2) = 1
        val = integrate_adaptive(lambda t: 1.0 / np.sin(t) ** 2, math.pi / 4, math.pi / 2)
        assert val == pytest.approx(1.0, rel=1e-12)
        # integral of (1 + r^2)/r^2 over [1, 2] is [r - 1/r] = 3/2
        val = integrate_adaptive(lambda r: (1.0 + r * r) / (r * r), 1.0, 2.0)
        assert val == pytest.approx(1.5, rel=1e-12)

    def test_orientation(self):
        f = lambda x: np.exp(-x * x)  # noqa: E731
        fwd = integrate_adaptive(f, 0.0, 2.0)
        assert integrate_adaptive(f, 2.0, 0.0) == pytest.approx(-fwd, rel=1e-13)
        assert integrate_adaptive(f, 1.3, 1.3) == 0.0

    def test_additivity(self):
        f = lambda x: np.exp(-x * x)  # noqa: E731
        whole = integrate_adaptive(f, 0.0, 2.0)
        split = integrate_adaptive(f, 0.0, 0.7) + integrate_adaptive(f, 0.7, 2.0)
        assert split == pytest.approx(whole, rel=1e-12)

    def test_random_polynomials_linearity(self):
        # Gauss-Kronrod is exact (to roundoff) on low-degree polynomials, so
        # random degree-8 combinations check both accuracy and linearity.
        for _ in range(5):
            ca = RNG.normal(size=9)
            cb = RNG.normal(size=9)
            alpha, beta = RNG.normal(size=2)
            pa = np.polynomial.Polynomial(ca)
            pb = np.polynomial.Polynomial(cb)
            mix = lambda x: alpha * pa(x) + beta * pb(x)  # noqa: E731
            exact = (alpha * pa + beta * pb).integ()
            got = integrate_adaptive(mix, -1.0, 2.0)
            assert got == pytest.approx(exact(2.0) - exact(-1.0), rel=1e-12, abs=1e-12)

    def test_endpoint_singularity(self):
        # Panels never place a node on the boundary, so an integrable
        # endpoint singularity converges by bisection toward it.
        val = integrate_adaptive(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0)
        assert val == pytest.approx(2.0, rel=1e-8)

    def test_stall_reports_best_estimate(self):
        with pytest.raises(QuadratureError) as info:
            integrate_adaptive(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, max_panels=8)
        err = info.value
        assert "panels" in str(err)
        assert 1.5 < err.best_estimate < 2.5
        assert err.error_bound > 0.0

    def test_array_limits_equal_one_element_calls_bit_for_bit(self):
        # reversed limits and a = b share one batch
        f = lambda x: 1.0 / (1.0 + x * x) + np.cos(3.0 * x) / (1.0 + x ** 4)  # noqa: E731
        a = np.array([0.0, 2.0, 1.3, -1.0, -4.0])
        b = np.array([2.0, 0.0, 1.3, 3.0, 5.0])
        batch = integrate_adaptive(f, a, b)
        assert batch.tolist() == [integrate_adaptive(f, float(ai), float(bi))
                                  for ai, bi in zip(a, b)]
        assert batch[2] == 0.0 and batch[1] == -batch[0]

    def test_one_integrand_call_per_sweep(self):
        calls = []

        def f(x):
            calls.append(x.size)
            return 1.0 / np.sqrt(x)

        b = np.array([1.0, 0.5, 2.0])
        integrate_adaptive(f, 0.0, b)
        batch_calls = len(calls)
        single_calls = []
        for bi in b:
            calls.clear()
            integrate_adaptive(f, 0.0, float(bi))
            single_calls.append(len(calls))
        assert batch_calls == max(single_calls)

    def test_limits_broadcast_to_the_output_shape(self):
        b = np.array([[0.5, 1.0, 1.5], [2.0, 2.5, 3.0]])
        got = integrate_adaptive(np.cos, 0.0, b)
        assert got.shape == (2, 3)
        np.testing.assert_allclose(got, np.sin(b), rtol=1e-13)
        assert isinstance(integrate_adaptive(np.cos, 0.0, 1.0), float)

    def test_a_stalled_integral_stops_the_batch_with_its_own_estimate(self):
        f = lambda x: 1.0 / np.sqrt(x)  # noqa: E731
        with pytest.raises(QuadratureError) as single:
            integrate_adaptive(f, 0.0, 1.0, max_panels=8)
        with pytest.raises(QuadratureError) as batch:
            integrate_adaptive(f, np.array([0.5, 0.0, 0.25]), 1.0, max_panels=8)
        assert batch.value.best_estimate == single.value.best_estimate
        assert batch.value.error_bound == single.value.error_bound
        assert str(batch.value) == str(single.value)

    def test_invalid_intervals(self):
        f = lambda x: x  # noqa: E731
        with pytest.raises(ValueError):
            integrate_adaptive(f, -np.inf, np.inf)
        with pytest.raises(ValueError):
            integrate_adaptive(f, -1.0, np.inf)
        with pytest.raises(ValueError):
            integrate_adaptive(f, 0.0, np.inf)
        with pytest.raises(ValueError):
            integrate_adaptive(f, np.nan, 1.0)

    @pytest.mark.parametrize("f", [lambda x: 1.0 / x, np.sqrt], ids=["inf", "nan"])
    def test_a_non_finite_estimate_is_an_error_naming_its_limits(self, f):
        # the first panel of (-1, 1) has its middle node at x = 0; sqrt is NaN left of it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureError, match=r"not finite on \(1\.0, -1\.0\)") as info:
                integrate_adaptive(f, np.array([1.0, 1.0]), np.array([2.0, -1.0]))
        assert math.isnan(info.value.best_estimate)


# ----------------------------------------------------------------------
# finite differences
# ----------------------------------------------------------------------

class TestDerivative:
    @pytest.mark.parametrize("x", [0.7, 2.0, -1.3])
    def test_first_derivative(self, x):
        got = derivative(math.exp, x, order=1)
        assert got == pytest.approx(math.exp(x), rel=1e-9)

    @pytest.mark.parametrize("x", [0.4, 1.9])
    def test_second_derivative(self, x):
        got = derivative(math.sin, x, order=2)
        assert got == pytest.approx(-math.sin(x), rel=1e-6, abs=1e-8)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            derivative(math.exp, 1.0, order=3)

    @staticmethod
    def _scalar_reference(f, x, order, step=1e-4):
        """The scalar stencil as first written, on Python floats."""
        h = step * max(1.0, abs(x))
        if order == 1:
            def cd(s):
                return (f(x + s) - f(x - s)) / (2.0 * s)
        else:
            def cd(s):
                return (f(x + s) - 2.0 * f(x) + f(x - s)) / (s * s)
        return (4.0 * cd(0.5 * h) - cd(h)) / 3.0

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("f", [math.exp, math.sin, np.cosh,
                                   lambda r: model.radial_u(r, 3, 1, 0.5)])
    def test_scalar_x_gives_the_reference_float(self, f, order):
        for x in (0.3, 1.0, 2.7, 9.5):
            got = derivative(f, x, order=order)
            assert type(got) is float
            assert got == self._scalar_reference(f, x, order)

    @pytest.mark.parametrize("order", [1, 2])
    def test_array_x_matches_pointwise_scalar_calls(self, order):
        # Plain arithmetic evaluates identically on arrays and on scalars,
        # so only the stencil itself is compared.
        def f(r):
            return (1.0 + r * r * r) / (2.0 + r * r) - 0.3 * r

        x = np.concatenate([-np.geomspace(0.05, 20.0, 9), np.geomspace(0.05, 20.0, 16)])
        got = derivative(f, x, order=order)
        want = np.array([derivative(f, float(v), order=order) for v in x])
        assert isinstance(got, np.ndarray) and got.shape == x.shape
        assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))

    def test_array_x_accepts_a_list(self):
        got = derivative(np.exp, [0.5, 1.5], order=1)
        assert got == pytest.approx(np.exp([0.5, 1.5]), rel=1e-9)


class TestFornberg:
    def test_uniform_central_weights(self):
        xs = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        w = fornberg_weights(0.0, xs, 2)
        np.testing.assert_allclose(w[0], [0, 0, 1, 0, 0], atol=1e-14)
        np.testing.assert_allclose(w[1], np.array([1, -8, 0, 8, -1]) / 12.0, atol=1e-13)
        np.testing.assert_allclose(w[2], np.array([-1, 16, -30, 16, -1]) / 12.0, atol=1e-13)

    def test_polynomial_exactness_on_random_nodes(self):
        # 5 nodes give exact first/second derivatives for degree-4 polynomials
        # regardless of node placement.
        for _ in range(4):
            xs = np.sort(RNG.uniform(0.5, 3.0, size=5))
            z = float(RNG.uniform(xs[1], xs[3]))
            coeffs = RNG.normal(size=5)
            p = np.polynomial.Polynomial(coeffs)
            w = fornberg_weights(z, xs, 2)
            assert w[1] @ p(xs) == pytest.approx(p.deriv(1)(z), rel=1e-9, abs=1e-9)
            assert w[2] @ p(xs) == pytest.approx(p.deriv(2)(z), rel=1e-8, abs=1e-8)

    @staticmethod
    def _reference(z, xs, m):
        # Fornberg's recursion as first written here, with plain nested indexing
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

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_bit_identical_to_the_reference_recursion(self, m, n):
        rng = np.random.default_rng(1000 * m + n)
        for _ in range(20):
            xs = np.sort(rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-3, 3))
            ints = np.sort(rng.choice(np.arange(-40, 40), n, replace=False))
            for nodes in (xs, xs.tolist(), ints.tolist()):
                lo, hi = float(min(nodes)), float(max(nodes))
                for z in (float(rng.uniform(lo, hi)), nodes[int(rng.integers(n))]):
                    got = fornberg_weights(z, nodes, m)
                    assert got.shape == (m + 1, n)
                    ref = self._reference(z, nodes, m)
                    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


class TestGridDerivative:
    def test_quartic_exact_on_log_grid(self):
        grid = np.geomspace(0.5, 5.0, 81)
        p = np.polynomial.Polynomial([0.3, -1.2, 0.7, 0.05, -0.4])
        d1 = grid_derivative(grid, p(grid), order=1)
        d2 = grid_derivative(grid, p(grid), order=2)
        np.testing.assert_allclose(d1, p.deriv(1)(grid), rtol=1e-8, atol=1e-9)
        np.testing.assert_allclose(d2, p.deriv(2)(grid), rtol=1e-7, atol=1e-7)

    def test_trig_convergence(self):
        grid = np.linspace(0.0, math.pi, 2001)
        d = grid_derivative(grid, np.sin(grid), order=1)
        assert np.max(np.abs(d - np.cos(grid))) < 1e-10

    @pytest.mark.parametrize("order", [1, 2])
    def test_matches_per_point_weights(self, order):
        grid = np.geomspace(1e-2, 1e2, 301)
        values = np.sin(np.log(grid)) / grid
        expected = np.empty_like(grid)
        for i in range(len(grid)):
            lo = min(max(i - 2, 0), len(grid) - 5)
            w = fornberg_weights(grid[i], grid[lo:lo + 5], order)
            expected[i] = w[order] @ values[lo:lo + 5]
        got = grid_derivative(grid, values, order=order)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("order", [1, 2])
    def test_stacked_rows_match_single_rows(self, order):
        grid = np.geomspace(1e-2, 1e2, 301)
        rows = np.stack([np.sin(k * np.log(grid)) / grid ** (0.1 * k) for k in range(1, 5)])
        got = grid_derivative(grid, rows, order=order)
        assert got.shape == rows.shape
        for row, expected in zip(got, rows):
            np.testing.assert_array_equal(row, grid_derivative(grid, expected, order=order))

    @pytest.mark.parametrize("m", [1, 9])
    def test_one_weight_set_per_point_for_any_row_count(self, m, monkeypatch):
        calls = []

        def counted(z, xs, order):
            calls.append(z)
            return fornberg_weights(z, xs, order)

        monkeypatch.setattr(numkit, "fornberg_weights", counted)
        grid = np.geomspace(0.1, 10.0, 40)
        grid_derivative(grid, np.ones((m, 40)))
        assert calls == grid.tolist()

    def test_validation(self):
        with pytest.raises(ValueError):
            grid_derivative([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError):
            grid_derivative(np.arange(1.0, 9.0), np.arange(1.0, 8.0))
        with pytest.raises(ValueError):  # rows of the wrong length
            grid_derivative(np.arange(1.0, 9.0), np.ones((3, 7)))
        with pytest.raises(ValueError):  # more than one stacking axis
            grid_derivative(np.arange(1.0, 9.0), np.ones((2, 3, 8)))


# ----------------------------------------------------------------------
# damped Newton in two dimensions
# ----------------------------------------------------------------------

class TestNewton2d:
    def test_circle_hyperbola_intersection(self):
        # x^2 + y^2 = 4 and x y = 1 meet at x = sqrt(2 + sqrt(3)).
        def F(z):
            x, y = z
            return np.array([x * x + y * y - 4.0, x * y - 1.0])

        x, fx, iters = newton2d(F, np.array([1.8, 0.6]))
        assert np.max(np.abs(fx)) < 1e-10
        assert iters >= 2
        assert x[0] == pytest.approx(math.sqrt(2.0 + math.sqrt(3.0)), rel=1e-10)
        assert x[1] == pytest.approx(math.sqrt(2.0 - math.sqrt(3.0)), rel=1e-10)

    def test_singular_jacobian(self):
        F = lambda z: np.array([z[0] + z[1], z[0] + z[1]])  # noqa: E731
        with pytest.raises(ConvergenceError):
            newton2d(F, np.array([1.0, 1.0]))

    def test_no_root(self):
        F = lambda z: np.array([z[0] ** 2 + z[1] ** 2 + 1.0, z[0] - z[1]])  # noqa: E731
        with pytest.raises(ConvergenceError):
            newton2d(F, np.array([0.3, 0.1]), max_iter=25)


# ----------------------------------------------------------------------
# bracketed root search
# ----------------------------------------------------------------------

def _root_tol(x):
    return 1e-14 + 4.0 * np.finfo(float).eps * abs(x)


class TestBracketedRoot:
    def test_known_roots_to_the_tolerance(self):
        # x^2 = a on (0, a + 1) and cos x = x near 0.739
        a = np.array([0.5, 2.0, 9.0, 1e4])
        res = bracketed_root(lambda x, a: x * x - a, np.zeros(4), a + 1.0, args=(a,))
        assert res.status.tolist() == [0, 0, 0, 0]
        for x, root in zip(res.x, np.sqrt(a)):
            assert abs(x - root) <= _root_tol(root)
        np.testing.assert_array_equal(res.f_x, res.x * res.x - a)
        dottie = 0.7390851332151607
        res = bracketed_root(lambda x: np.cos(x) - x, [0.0], [1.0])
        assert abs(res.x[0] - dottie) <= _root_tol(dottie)
        assert 2 < res.nfev[0] < 20

    def test_rows_alone_and_in_a_batch_are_bit_identical(self):
        c = np.array([3.0, 4.0, 5.0, -1.0, 0.25])
        f = lambda x, c: x ** 3 - 2.0 * x - c  # noqa: E731
        lo, hi = np.full(5, -3.0), np.full(5, 3.0)
        batch = bracketed_root(f, lo, hi, args=(c,))
        for i in range(5):
            one = bracketed_root(f, lo[i:i + 1], hi[i:i + 1], args=(c[i:i + 1],))
            for key in ("x", "f_x", "nfev", "f_lo", "f_hi", "status"):
                np.testing.assert_array_equal(getattr(one, key), getattr(batch, key)[i:i + 1])

    def test_reports_a_bracket_without_sign_change(self):
        res = bracketed_root(lambda x: x * x + 1.0, [-1.0, 0.0], [2.0, 3.0])
        assert res.status.tolist() == [-1, -1]
        assert res.f_lo.tolist() == [2.0, 1.0]
        assert res.f_hi.tolist() == [5.0, 10.0]
        assert res.nfev.tolist() == [2, 2]

    def test_reports_a_non_finite_value_and_keeps_the_other_rows(self):
        f = lambda x: np.where(x > 10.0, np.nan, np.where(x > 5.0, np.inf, x - 1.0))  # noqa: E731
        res = bracketed_root(f, [0.0, 0.0, 0.0], [3.0, 20.0, 7.0])
        assert res.status.tolist() == [0, -3, -3]
        assert abs(res.x[0] - 1.0) <= _root_tol(1.0)

    def test_no_brackets_give_empty_results(self):
        res = bracketed_root(lambda x: x, np.zeros(0), np.zeros(0))
        assert res.x.shape == res.status.shape == (0,)

    def test_an_exact_zero_stops_the_search(self):
        res = bracketed_root(lambda x: x - 0.5, [0.0], [1.0])
        assert res.status[0] == 0 and res.x[0] == 0.5 and res.f_x[0] == 0.0
        assert res.nfev[0] == 3


# ----------------------------------------------------------------------
# DOP853
# ----------------------------------------------------------------------

def _oscillator():
    # y'' = -y from (1, 0): y = cos t, y' = -sin t, over ten periods
    return dop853(lambda t, y: [y[1], -y[0]], (0.0, 20.0 * math.pi), [1.0, 0.0],
                  rtol=1e-12, atol=1e-14)


class TestDop853:
    def test_oscillator_over_ten_periods(self):
        sol = _oscillator()
        assert sol.t[0] == 0.0 and sol.t[-1] == 20.0 * math.pi
        assert np.max(np.abs(sol.y[0] - np.cos(sol.t))) < 1e-10
        assert np.max(np.abs(sol.y[1] + np.sin(sol.t))) < 1e-10
        t = np.linspace(0.0, 20.0 * math.pi, 2001)
        y = sol.sol(t)
        assert y.shape == (2, 2001)
        assert np.max(np.abs(y[0] - np.cos(t))) < 1e-10
        assert np.max(np.abs(y[1] + np.sin(t))) < 1e-10
        assert sol.nfev == 2 + 12 * (len(sol.t) - 1) + 3 * (len(sol.t) - 1)  # no rejection

    def test_dense_output_at_step_ends_is_the_step_state(self):
        sol = _oscillator()
        np.testing.assert_array_equal(sol.sol(sol.t), sol.y)
        for k in (0, 1, len(sol.t) // 2, len(sol.t) - 1):
            np.testing.assert_array_equal(sol.sol(sol.t[k]), sol.y[:, k])

    def test_coefficients_match_scipy_table(self):
        coeffs = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
        for ours, theirs in ((numkit._DOP_C, coeffs.C), (numkit._DOP_A, coeffs.A),
                             (numkit._DOP_E, np.stack([coeffs.E5, coeffs.E3])),
                             (numkit._DOP_D, coeffs.D)):
            assert ours.shape == theirs.shape
            np.testing.assert_allclose(ours, theirs, rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(numkit._DOP_A[12, :12], coeffs.B, rtol=1e-15, atol=0.0)

    def test_check_runs_on_each_accepted_step_and_can_stop_it(self):
        seen = []
        dop853(lambda t, y: [1.0], (0.0, 1.0), [0.0], rtol=1e-8, atol=1e-10,
               max_step=0.1, check=lambda t, y: seen.append(t))
        assert len(seen) >= 10 and seen[-1] == 1.0

        class Stop(Exception):
            pass

        def stop(t, y):
            if y[0] > 0.5:
                raise Stop(t)
        with pytest.raises(Stop):
            dop853(lambda t, y: [1.0], (0.0, 1.0), [0.0], rtol=1e-8, atol=1e-10,
                   max_step=0.1, check=stop)

    def test_a_blow_up_stops_with_a_convergence_error(self):
        # y' = y^2 from y(0) = 1 is 1/(1 - t): the steps shrink toward t = 1
        with pytest.raises(ConvergenceError, match="float spacings"):
            dop853(lambda t, y: [y[0] * y[0]], (0.0, 2.0), [1.0], rtol=1e-8, atol=1e-10)
        for rhs, y0 in ((lambda t, y: [math.nan], 0.0), (lambda t, y: [1.0], math.nan)):
            with pytest.raises(ConvergenceError, match="float spacings"):   # a NaN step too
                dop853(rhs, (0.0, 1.0), [y0], rtol=1e-8, atol=1e-10)

    def test_span_must_run_forward(self):
        for span in ((1.0, 1.0), (1.0, 0.0), (0.0, math.nan), (0.0, math.inf)):
            with pytest.raises(ValueError, match="forward"):
                dop853(lambda t, y: [1.0], span, [0.0], rtol=1e-8, atol=1e-10)
