"""Numerical kernel tests: polynomial recurrence, quadrature, stencils, Newton,
bracketed root search and the DOP853 integrator.

Expected values come from closed-form antiderivatives and textbook polynomial
identities, evaluated independently of the code under test.
"""

import functools
import math
import operator
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dosusy import model, numkit, solver
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
    straight_line_rhs,
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

    @pytest.mark.parametrize("p", [1, 2])
    def test_order_past_half_the_float_range_keeps_the_doubled_argument(self, p):
        # 2q overflows here (q = (2l+1)/(2 kappa) + 1/2, at l = 0 for kappa below about 5.6e-309):
        # 2x c must stay (2x) c, finite for |x| < 1/2 and 0 at x = 0, not x (2c) = x inf.
        q, xs = 1e308, np.array([-0.4, -1e-300, 0.0, 0.25, 0.49])
        with np.errstate(over="ignore", invalid="ignore"):
            c_prev, c_cur = 1.0, (2.0 * xs) * q
            for k in range(2, p + 1):
                c_next = (2.0 * xs) * ((k + q - 1.0) / k) * c_cur
                c_prev *= (k + 2.0 * q - 2.0) / k
                c_prev, c_cur = c_cur, c_next - c_prev
            out = gegenbauer_eval(p, q, xs)
        np.testing.assert_array_equal(out, c_cur)
        if p == 1:
            assert np.isfinite(out).all()

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

    def test_stall_reports_best_estimate(self, monkeypatch):
        monkeypatch.setattr(numkit, "_MAX_PANELS", 8)
        with pytest.raises(QuadratureError) as info:
            integrate_adaptive(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0)
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

    def test_a_stalled_integral_stops_the_batch_with_its_own_estimate(self, monkeypatch):
        monkeypatch.setattr(numkit, "_MAX_PANELS", 8)
        f = lambda x: 1.0 / np.sqrt(x)  # noqa: E731
        with pytest.raises(QuadratureError) as single:
            integrate_adaptive(f, 0.0, 1.0)
        with pytest.raises(QuadratureError) as batch:
            integrate_adaptive(f, np.array([0.5, 0.0, 0.25]), 1.0)
        assert batch.value.best_estimate == single.value.best_estimate
        assert batch.value.error_bound == single.value.error_bound
        assert str(batch.value) == str(single.value)

    def test_an_integral_near_the_float_range_needs_no_warning(self):
        # its first estimate and error bound are each finite, their sum is not
        got = integrate_adaptive(np.exp, 0.0, 709.5)
        assert got == pytest.approx(math.expm1(709.5), rel=1e-13)

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

    def test_anchored_integral_over_an_unsorted_2d_array_with_repeats(self):
        # pts on both sides of the anchor, repeated, and equal to it
        pts = np.array([[2.5, 0.3, 1.0], [0.3, 4.0, 1.0]])
        got = numkit._anchored_integral(np.cos, 1.0, pts, math.inf)
        assert got.shape == (2, 3)
        np.testing.assert_allclose(got, np.sin(pts) - math.sin(1.0), rtol=1e-13, atol=1e-15)
        assert got[0, 1] == got[1, 0] and got[0, 2] == got[1, 2] == 0.0

    def test_anchored_integral_at_the_anchor_only(self):
        assert numkit._anchored_integral(np.cos, 1.0, 1.0, math.inf) == 0.0
        assert numkit._anchored_integral(np.cos, 1.0, np.ones(3), math.inf).tolist() == [0.0] * 3

    def test_anchored_integral_sums_outward_from_the_anchor(self):
        # Each point reads only the segments between it and the anchor, never the
        # difference of two sums as large as the farthest segment (here e^56 / 7).
        f = lambda t: np.exp(-7.0 * t)  # noqa: E731
        pts = [-8.0, -0.05, 0.05, 8.0]
        got = numkit._anchored_integral(f, 0.0, pts, math.inf)
        expected = [numkit._anchored_integral(f, 0.0, x, math.inf) for x in pts]
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0.0)

    def test_anchored_integral_cuts_long_segments_at_dyadic_breakpoints(self, monkeypatch):
        # a segment longer than the scale is cut at anchor +- scale 2^k inside it,
        # a shorter one is not: (0.5, 7.5) at 1, 2, 4 and (-0.5, 0) nowhere
        limits = []

        def recorded(f, a, b):
            limits.append((a.tolist(), b.tolist()))
            return integrate_adaptive(f, a, b)

        monkeypatch.setattr(numkit, "integrate_adaptive", recorded)
        got = numkit._anchored_integral(np.cos, 0.0, [-0.5, 0.5, 7.5], 1.0)
        assert limits == [([-0.5, 0.0, 0.5, 1.0, 2.0, 4.0], [0.0, 0.5, 1.0, 2.0, 4.0, 7.5])]
        np.testing.assert_allclose(got, np.sin([-0.5, 0.5, 7.5]), rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("x", [0.2, 1.0, 3.7])
    def test_anchored_integral_at_one_point_is_the_direct_integral(self, x):
        f = lambda r: 1.0 / (1.0 + r * r) + np.cos(3.0 * r)  # noqa: E731
        got = numkit._anchored_integral(f, 1.0, x, math.inf)
        assert type(got) is float
        assert got == integrate_adaptive(f, 1.0, x)

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
        got = derivative(np.exp, x, 1e-4 * max(1.0, abs(x)), 1)
        assert got == pytest.approx(math.exp(x), rel=1e-9)

    @pytest.mark.parametrize("x", [0.4, 1.9])
    def test_second_derivative(self, x):
        got = derivative(np.sin, x, 1e-4 * max(1.0, abs(x)), 2)
        assert got == pytest.approx(-math.sin(x), rel=1e-6, abs=1e-8)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            derivative(np.exp, 1.0, 1e-4, 3)

    @staticmethod
    def _stacked_reference(f, x, h, order):
        """The two Richardson formulas written out on one call of f."""
        fm, fmh, f0, fph, fp = f(x + np.array([-1.0, -0.5, 0.0, 0.5, 1.0]) * h)
        s = h / 2.0
        if order == 1:
            return (8.0 * (fph - fmh) - (fp - fm)) / (12.0 * s)
        fine = (fph - 2.0 * f0 + fmh) / (s * s)
        coarse = (fp - 2.0 * f0 + fm) / (h * h)
        return (4.0 * fine - coarse) / 3.0

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("f", [np.exp, np.sin, np.cosh,
                                   lambda r: model.radial_u(r, 3, 1, 0.5)])
    def test_scalar_x_gives_the_reference_float(self, f, order):
        for x, h in ((0.3, 1e-4), (1.0, 1e-3), (2.7, 2.7e-4), (9.5, 1e-2)):
            got = derivative(f, x, h, order)
            assert type(got) is float
            assert got == self._stacked_reference(f, x, h, order)

    @pytest.mark.parametrize("order", [1, 2])
    def test_f_is_called_once_on_the_stacked_nodes(self, order):
        x = np.geomspace(0.1, 10.0, 7)
        h = 1e-3 * x
        seen = []

        def f(r):
            seen.append(r.copy())
            return np.sin(r)

        derivative(f, x, h, order)
        assert len(seen) == 1
        assert seen[0].shape == (5, 7)
        assert np.array_equal(seen[0][2], x)
        assert np.array_equal(seen[0][[0, 4]], [x - h, x + h])

    @pytest.mark.parametrize("order", [1, 2])
    def test_array_x_matches_pointwise_scalar_calls(self, order):
        # Every operation is elementwise, so a point's value does not depend
        # on which other points share the call.
        def f(r):
            return (1.0 + r * r * r) / (2.0 + r * r) - 0.3 * r

        x = np.concatenate([-np.geomspace(0.05, 20.0, 9), np.geomspace(0.05, 20.0, 16)])
        h = 1e-4 * np.maximum(1.0, np.abs(x))
        got = derivative(f, x, h, order)
        want = np.array([derivative(f, float(v), float(s), order) for v, s in zip(x, h)])
        assert isinstance(got, np.ndarray) and got.shape == x.shape
        assert np.array_equal(got, want)

    def test_array_x_accepts_a_list(self):
        got = derivative(np.exp, [0.5, 1.5], 1e-4, 1)
        assert got == pytest.approx(np.exp([0.5, 1.5]), rel=1e-9)


class TestFornberg:
    def test_uniform_central_weights(self):
        xs = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        w = fornberg_weights(0.0, xs)
        np.testing.assert_allclose(w, np.array([1, -8, 0, 8, -1]) / 12.0, atol=1e-13)

    def test_polynomial_exactness_on_random_nodes(self):
        # 5 nodes give exact first derivatives for degree-4 polynomials
        # regardless of node placement.
        for _ in range(4):
            xs = np.sort(RNG.uniform(0.5, 3.0, size=5))
            z = float(RNG.uniform(xs[1], xs[3]))
            coeffs = RNG.normal(size=5)
            p = np.polynomial.Polynomial(coeffs)
            w = fornberg_weights(z, xs)
            assert np.array(w) @ p(xs) == pytest.approx(p.deriv(1)(z), rel=1e-9, abs=1e-9)

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

    def _assert_reference_bits(self, z, nodes):
        try:
            ref = self._reference(z, nodes, 1)[1]
        except ZeroDivisionError:   # the product of node gaps underflowed to 0
            with pytest.raises(ZeroDivisionError):
                fornberg_weights(z, nodes)
            return
        got = fornberg_weights(z, nodes)
        assert type(got) is tuple and len(got) == 5
        # bit for bit, a NaN by position only: the sign bit of a NaN from the
        # recursion has been seen to depend on interpreter warm-up
        got, nan = np.array(got), np.isnan(ref)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.uint64), ref[~nan].view(np.uint64))

    def test_bit_identical_to_the_reference_recursion(self):
        rng = np.random.default_rng(20261019)
        for _ in range(1000):
            xs = np.sort(rng.uniform(-1.0, 1.0, 5) * 10.0 ** rng.uniform(-3, 3))
            ints = np.sort(rng.choice(np.arange(-40, 40), 5, replace=False))
            for nodes in (xs, xs.tolist(), ints.tolist()):
                lo, hi = float(min(nodes)), float(max(nodes))
                for z in (float(rng.uniform(lo, hi)), nodes[int(rng.integers(5))]):
                    self._assert_reference_bits(z, nodes)
        # log-spaced windows at every scale of the float range, with z on each
        # node as grid_derivative takes them; below about 1e-80 the gap products
        # underflow (ZeroDivisionError) and above about 1e80 overflow (NaN)
        # alike on both sides
        grid = np.geomspace(1e-300, 1e300, 601).tolist()
        for lo in range(len(grid) - 4):
            for z in grid[lo:lo + 5]:
                self._assert_reference_bits(z, grid[lo:lo + 5])

    def test_a_node_count_other_than_five_raises(self):
        for n in (1, 4, 6, 9):
            with pytest.raises(ValueError):
                fornberg_weights(0.5, np.linspace(0.0, 1.0, n).tolist())


class TestGridDerivative:
    def test_quartic_exact_on_log_grid(self):
        grid = np.geomspace(0.5, 5.0, 81)
        p = np.polynomial.Polynomial([0.3, -1.2, 0.7, 0.05, -0.4])
        d1 = grid_derivative(grid, p(grid))
        np.testing.assert_allclose(d1, p.deriv(1)(grid), rtol=1e-8, atol=1e-9)

    def test_trig_convergence(self):
        grid = np.linspace(0.0, math.pi, 2001)
        d = grid_derivative(grid, np.sin(grid))
        assert np.max(np.abs(d - np.cos(grid))) < 1e-10

    def test_matches_per_point_weights(self):
        grid = np.geomspace(1e-2, 1e2, 301)
        values = np.sin(np.log(grid)) / grid
        expected = np.empty_like(grid)
        for i in range(len(grid)):
            lo = min(max(i - 2, 0), len(grid) - 5)
            w = fornberg_weights(grid[i], grid[lo:lo + 5])
            expected[i] = np.array(w) @ values[lo:lo + 5]
        got = grid_derivative(grid, values)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_stacked_rows_match_single_rows(self):
        grid = np.geomspace(1e-2, 1e2, 301)
        rows = np.stack([np.sin(k * np.log(grid)) / grid ** (0.1 * k) for k in range(1, 5)])
        got = grid_derivative(grid, rows)
        assert got.shape == rows.shape
        for row, expected in zip(got, rows):
            np.testing.assert_array_equal(row, grid_derivative(grid, expected))

    @pytest.mark.parametrize("m", [1, 9])
    def test_one_weight_set_per_point_for_any_row_count(self, m, monkeypatch):
        self._check_windows(m, 40, monkeypatch)

    @pytest.mark.parametrize("m, n", [(1, 5), (2, 6)])
    def test_windows_held_inside_a_short_grid(self, m, n, monkeypatch):
        self._check_windows(m, n, monkeypatch)

    @staticmethod
    def _check_windows(m, n, monkeypatch):
        calls = []

        def counted(z, xs):
            calls.append((z, list(xs)))
            return fornberg_weights(z, xs)

        monkeypatch.setattr(numkit, "fornberg_weights", counted)
        nodes = np.geomspace(0.1, 10.0, n).tolist()
        grid_derivative(nodes, np.ones((m, n)))
        # point i's window starts at i - 2, held inside the grid, and reaches the
        # kernel scaled by 2^-e, e the exponent of the window's span
        starts = [min(max(i - 2, 0), n - 5) for i in range(n)]
        scales = [2.0 ** -math.frexp(nodes[lo + 4] - nodes[lo])[1] for lo in starts]
        assert calls == [(z * s, [x * s for x in nodes[lo:lo + 5]])
                         for z, lo, s in zip(nodes, starts, scales)]

    def test_scaled_windows_keep_every_weight_bit_for_bit(self):
        # unit rows read the weight table back exactly: column i of row k is the
        # weight of node k at point i
        grid = np.geomspace(1e-3, 1e3, 301)
        n = len(grid)
        table = grid_derivative(grid, np.eye(n))
        for i in range(n):
            lo = min(max(i - 2, 0), n - 5)
            expected = np.array(fornberg_weights(grid[i], grid[lo:lo + 5].tolist()))
            assert np.array_equal(table[lo:lo + 5, i].view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("m", [None, 3])
    def test_blocks_give_the_per_point_sums_bit_for_bit(self, m):
        # two block boundaries and a remainder: each point's weights from its own
        # scaled window, summed over j = 0..4 in order from 0.0
        n = 2 * numkit._BLOCK + 3
        rng = np.random.default_rng(34)
        grid = np.cumsum(rng.uniform(0.5, 2.0, n)) * 1e-3
        shape = (n,) if m is None else (m, n)
        values = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, shape)
        nodes, rows = grid.tolist(), values.reshape(-1, n).tolist()
        expected = np.empty((len(rows), n))
        for i, z in enumerate(nodes):
            lo = min(max(i - 2, 0), n - 5)
            s = 2.0 ** -math.frexp(nodes[lo + 4] - nodes[lo])[1]
            w = [x * s for x in fornberg_weights(z * s, [x * s for x in nodes[lo:lo + 5]])]
            for k, row in enumerate(rows):
                acc = 0.0
                for j in range(5):
                    acc += w[j] * row[lo + j]
                expected[k, i] = acc
        got = grid_derivative(grid, values)
        assert got.shape == shape
        assert np.array_equal(got.reshape(-1, n).view(np.uint64), expected.view(np.uint64))

    def test_memory_is_the_output_and_one_block(self, monkeypatch):
        # beyond its output, the pass holds one block's windows and weights (as
        # floats and Python lists) at a time, however many points the grid has;
        # a constant kernel stands in, since tracing its temporaries is slow
        monkeypatch.setattr(numkit, "fornberg_weights", lambda z, xs: (1.0, -2.0, 0.5, 3.0, -1.0))
        grid = np.geomspace(1e-3, 1e3, 50_000)
        values = np.sin(np.log(grid))
        tracemalloc.start()
        try:
            out = grid_derivative(grid, values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 1000 * numkit._BLOCK

    @pytest.mark.parametrize("lo, hi", [(1e-100, 10.0), (1e70, 1e100)])
    def test_grids_far_from_unit_scale(self, lo, hi):
        # unscaled, the kernel's product of four node gaps underflows to 0 on the
        # first grid (ZeroDivisionError) and loses the derivative on the second
        grid = np.geomspace(lo, hi, 400)
        np.testing.assert_allclose(grid_derivative(grid, grid ** 2), 2.0 * grid, rtol=1e-13)

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

    def test_no_root(self, monkeypatch):
        monkeypatch.setattr(numkit, "_NEWTON_MAX_ITER", 25)
        F = lambda z: np.array([z[0] ** 2 + z[1] ** 2 + 1.0, z[0] - z[1]])  # noqa: E731
        with pytest.raises(ConvergenceError):
            newton2d(F, np.array([0.3, 0.1]))


    def test_the_iteration_cap_is_named(self, monkeypatch):
        # x0^3 = 1 from x0 = 3 needs more than two damped steps
        monkeypatch.setattr(numkit, "_NEWTON_MAX_ITER", 2)
        F = lambda z: np.array([z[0] ** 3 - 1.0, z[1]])  # noqa: E731
        with pytest.raises(ConvergenceError, match="failed to converge in 2 iterations"):
            newton2d(F, np.array([3.0, 0.0]))

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

_OSCILLATOR = "def f(t, y, v):\n    return v, -y\n"   # y'' = -y
_CONSTANT = "def f(t, y):\n    return 1.0,\n"   # y' = 1


def _calling(g, n):
    """A straight-line right-hand side whose one statement calls the Python
    function ``g(t, [y0, ..., y{n-1}])``: each stage calls it as ``g(t + c h,
    [...])``, so it can count calls or record what it is given."""
    ys, ds = (", ".join(f"{v}{i}" for i in range(n)) for v in "yd")
    return straight_line_rhs(f"def f(t, {ys}):\n    {ds}, = g(t, [{ys}])\n    return {ds},\n", g=g)


def _oscillator():
    # y'' = -y from (1, 0): y = cos t, y' = -sin t, over ten periods
    return dop853(straight_line_rhs(_OSCILLATOR), (0.0, 20.0 * math.pi), [1.0, 0.0],
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
        seen, one = [], straight_line_rhs(_CONSTANT)
        dop853(one, (0.0, 1.0), [0.0], rtol=1e-8, atol=1e-10,
               max_step=0.1, check=lambda t, y: seen.append(t))
        assert len(seen) >= 10 and seen[-1] == 1.0

        class Stop(Exception):
            pass

        def stop(t, y):
            if y[0] > 0.5:
                raise Stop(t)
        with pytest.raises(Stop):
            dop853(one, (0.0, 1.0), [0.0], rtol=1e-8, atol=1e-10, max_step=0.1, check=stop)

    def test_a_blow_up_stops_with_a_convergence_error(self):
        # y' = y^2 from y(0) = 1 is 1/(1 - t): the steps shrink toward t = 1
        with pytest.raises(ConvergenceError, match="float spacings"):
            dop853(straight_line_rhs("def f(t, y):\n    return y * y,\n"), (0.0, 2.0), [1.0],
                   rtol=1e-8, atol=1e-10)
        for rhs, y0 in ((straight_line_rhs("def f(t, y):\n    return nan,\n", nan=math.nan), 0.0),
                        (straight_line_rhs(_CONSTANT), math.nan)):
            with pytest.raises(ConvergenceError, match="float spacings"):   # a NaN step too
                dop853(rhs, (0.0, 1.0), [y0], rtol=1e-8, atol=1e-10)

    def test_span_must_run_forward(self):
        for span in ((1.0, 1.0), (1.0, 0.0), (0.0, math.nan), (0.0, math.inf)):
            with pytest.raises(ValueError, match="forward"):
                dop853(straight_line_rhs(_CONSTANT), span, [0.0], rtol=1e-8, atol=1e-10)


def _reference_dop853(fun, t_span, y0, *, rtol, atol, max_step=math.inf, blas=False):
    """The step loop as first written here: numpy arrays, one table row at a
    time.  With ``blas`` each weighted sum of stages is ``K.T.dot(a)`` and each
    squared norm ``v.dot(v)``, as that loop had them; without, the same sums
    run in table order over the nonzero weights, the order the generated
    kernel uses, so the two agree bit for bit."""
    A, C, E, D = numkit._DOP_A, numkit._DOP_C, numkit._DOP_E, numkit._DOP_D

    def wsum(K, a):   # sum_j a_j K_j
        if blas:
            return K.T.dot(a)
        terms = [a[j] * K[j] for j in np.flatnonzero(a)]
        return functools.reduce(operator.add, terms)

    def sq(v):   # |v|^2
        if blas:
            return math.sqrt(v.dot(v)) ** 2
        return functools.reduce(operator.add, (v * v).tolist(), 0.0)

    t, t_end = float(t_span[0]), float(t_span[1])
    y = np.array(y0, dtype=float)
    n = y.size
    f = np.asarray(fun(t, y.tolist()), dtype=float)
    scale = atol + np.abs(y) * rtol
    d0, d1 = np.linalg.norm(y / scale) / n ** 0.5, np.linalg.norm(f / scale) / n ** 0.5
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end - t)
    d2 = np.linalg.norm((np.asarray(fun(t + h0, (y + h0 * f).tolist())) - f) / scale)
    d2 = d2 / n ** 0.5 / h0
    h1 = max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15 else (0.01 / max(d1, d2)) ** 0.125
    h_abs = min(100 * h0, h1, t_end - t, max_step)
    K = np.empty((16, n))
    ts, ys, blocks, attempts = [t], [y], [], 0
    while t < t_end:
        min_step = 10.0 * (np.nextafter(t, np.inf) - t)
        h_abs, rejected = min(max(h_abs, min_step), max_step), False
        while True:
            if not h_abs >= min_step:
                raise ConvergenceError("float spacings")
            t_new = min(t + h_abs, t_end)
            h = h_abs = t_new - t
            K[0] = f
            for s in range(1, 12):
                K[s] = fun(t + C[s] * h, (y + wsum(K[:s], A[s, :s]) * h).tolist())
            y_new = y + h * wsum(K[:12], A[12, :12])
            K[12] = f_new = np.asarray(fun(t + h, y_new.tolist()), dtype=float)
            attempts += 1
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            e5, e3 = (sq(wsum(K[:13], e) / scale) for e in E)
            err = 0.0 if e5 == 0 and e3 == 0 else h * e5 / np.sqrt((e5 + 0.01 * e3) * n)
            if err < 1:
                factor = 10.0 if err == 0 else min(10.0, 0.9 * err ** -0.125)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.125)
            rejected = True
        for s in range(13, 16):
            K[s] = fun(t + C[s] * h, (y + wsum(K[:s], A[s, :s]) * h).tolist())
        blocks.append(K.copy())
        t, y, f = t_new, y_new, f_new
        ts.append(t)
        ys.append(y)
    T, Y, K = np.array(ts), np.array(ys), np.array(blocks)
    dy = np.diff(Y, axis=0)
    h = np.diff(T)[:, None]
    F = np.concatenate([np.stack([dy, h * K[:, 0] - dy, 2 * dy - h * (K[:, 12] + K[:, 0])], 1),
                        h[..., None] * (D @ K)], axis=1)
    return SimpleNamespace(t=T, y=Y.T, nfev=2 + 12 * attempts + 3 * len(F), F=F)


def _orbit_problem(kappa, w, rho0, direction):
    """(fun, span, y0, options) of the one solve that tracing this orbit makes."""
    calls = []

    def record(fun, t_span, y0, **kwargs):
        calls.append((fun, t_span, y0, {k: v for k, v in kwargs.items() if k != "check"}))
        return dop853(fun, t_span, y0, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "solve_ivp", record)
        solver.classical_trajectory(kappa, w=w, rho0=rho0, direction_deg=direction)
    (problem,) = calls
    return problem


_SCALAR = "def f(t, y):\n    return y * cos(t) - 0.1 * y * y,\n"


def _kernel_problem(case):
    if case == "scalar":
        return (straight_line_rhs(_SCALAR, cos=math.cos), (0.0, 30.0), [0.5],
                dict(rtol=1e-10, atol=1e-12))
    if case == "oscillator":
        return (straight_line_rhs(_OSCILLATOR), (0.0, 20.0 * math.pi), [1.0, 0.0],
                dict(rtol=1e-12, atol=1e-14))
    return _orbit_problem(*case)


# n = 5: the five kappa of the benchmark's trace requests, then the closure suite's orbits
_ORBITS = [(k, 5.0, 1.3, 120.0) for k in ("1", "1/2", "2", "3/2", "2/3")] + [
    ("1", 3.0, 0.5, 63.0), ("1/2", 2.0, 0.5, 63.0), ("1", 12.0, 0.5, 63.0)]


def _case_id(case):
    return case if isinstance(case, str) else "kappa={}-w={}-rho0={}-direction={}".format(*case)


class TestDop853Kernel:
    @pytest.mark.parametrize("case", ["scalar", "oscillator", *_ORBITS], ids=_case_id)
    def test_bit_identical_to_the_loop_in_table_order(self, case):
        fun, span, y0, opts = _kernel_problem(case)
        got, ref = dop853(fun, span, y0, **opts), _reference_dop853(fun, span, y0, **opts)
        assert got.nfev == ref.nfev
        np.testing.assert_array_equal(got.t, ref.t)
        np.testing.assert_array_equal(got.y, ref.y)
        # mid-step dense output: coefficient k weighs u^(k//2 + 1) (1 - u)^((k + 1)//2), u = 1/2
        dense = sum(ref.F[:, k].T * 0.5 ** (k + 1) for k in range(7))
        mid = 0.5 * (ref.t[:-1] + ref.t[1:])
        np.testing.assert_allclose(got.sol(mid), ref.y[:, :-1] + dense, rtol=0.0,
                                   atol=1e-12 * np.max(np.abs(ref.y)))

    def test_dense_output_is_the_horner_loop_bit_for_bit(self):
        # the dense output as first written: F[i, k] gathered once per
        # coefficient and 1 - u formed at each odd k, on the reference's steps
        fun, span, y0, opts = _orbit_problem("1", 3.0, 0.5, 63.0)
        got, ref = dop853(fun, span, y0, **opts), _reference_dop853(fun, span, y0, **opts)
        T, Y, F = ref.t, ref.y.T, ref.F
        x = np.random.default_rng(38).uniform(0.0, T[-1], 1000)
        i = np.clip(np.searchsorted(T, x, side="right") - 1, 0, len(F) - 1)
        u = ((x - T[i]) / (T[i + 1] - T[i]))[..., None]
        out = np.zeros(x.shape + (Y.shape[1],))
        for k in range(6, -1, -1):
            out += F[i, k]
            out *= u if k % 2 == 0 else 1 - u
        expected = np.moveaxis(np.where((x == T[-1])[..., None], Y[-1], out + Y[i]), -1, 0)
        assert np.array_equal(_bits(got.sol(x)), _bits(expected))

    @pytest.mark.parametrize("case", ["oscillator", *_ORBITS], ids=_case_id)
    def test_same_steps_as_the_blas_loop(self, case):
        # BLAS sums round differently.  The error estimates cancel O(1) stage
        # values down to about rtol, so they, and the step sizes set from them,
        # differ from the second step on (up to 0.4 % on the oscillator).  The
        # oscillator and the orbits still take as many steps and rejections;
        # on the scalar problem one rounding turns an accepted attempt into a
        # rejection, so equal counts are not a property of every problem.
        fun, span, y0, opts = _kernel_problem(case)
        got = dop853(fun, span, y0, **opts)
        ref = _reference_dop853(fun, span, y0, blas=True, **opts)
        assert (len(got.t), got.nfev) == (len(ref.t), ref.nfev)
        np.testing.assert_allclose(got.y[:, -1], ref.y[:, -1], rtol=1e-9, atol=1e-10)

    def test_the_kernel_runs_on_python_floats(self):
        # an np.float64 anywhere (the initial step comes from np.linalg.norm)
        # would turn every step into numpy-scalar arithmetic
        fun_args, check_args = [], []

        def g(t, y):
            fun_args.append((type(t), type(y), *map(type, y)))
            return [y[1], -y[0]]

        fun = _calling(g, 2)
        sol = dop853(fun, (0.0, 1.0), np.array([1.0, 0.0]), rtol=1e-10, atol=1e-12,
                     check=lambda t, y: check_args.append((type(t), type(y), *map(type, y))))
        assert len(fun_args) == sol.nfev and len(check_args) == len(sol.t) - 1
        assert set(fun_args) == set(check_args) == {(float, list, float, float)}
        # the generated loop itself, on a source that calls and on an orbit's source
        orbit = solver._angle_rhs(1.0, 5.0, 1.0)
        for n, rhs, y0 in ((2, fun, [1.0, 0.0]), (5, orbit, [1.3, 0.0, 0.0, 1.0, 0.0])):
            seen, rows = [], bytearray()
            attempts = rhs.solve(0.0, 0.5, 0.1, y0, rhs(0.0, y0), 1e-10, 1e-12, math.inf,
                                 lambda t, y: seen.append((type(t), type(y), *map(type, y))),
                                 rows)
            assert type(attempts) is int and attempts >= len(seen) > 0
            assert set(seen) == {(float, list, *[float] * n)}
            assert len(rows) == 8 * (1 + 17 * n) * len(seen)   # t, y and 16 stages a step

    def test_a_huge_finite_error_estimate_rejects_the_step(self):
        # one stage value of 1e160 under a pure absolute tolerance: its error
        # terms are finite, their squares (written p * p, as p ** 2 would raise
        # OverflowError) are inf, and the step is rejected
        def spike_at(call):
            calls = []

            def g(t, y):
                calls.append(t)
                return [1e160 if len(calls) == call else math.cos(t)]
            return _calling(g, 1)

        # the loop from h = 0.1 with the spike at stage 5 of its first attempt:
        # e5 = e3 = inf make the norm NaN, a rejection cut by the factor 0.2
        rows = bytearray()
        attempts = spike_at(5).solve(0.0, 0.1, 0.1, [0.0], [1.0], 0.0, 1e-12, math.inf, None,
                                     rows)
        t = np.frombuffer(rows).reshape(-1, 18)[:, 0]
        assert t[0] == 0.1 * 0.2 and t[-1] == 0.1 and attempts == len(t) + 1
        # the first attempt, 100 h0 = 1e-4, has the spike at call 7 (stage 5)
        # and is cut by the factor 0.2
        clean = dop853(spike_at(0), (0.0, 1.0), [0.0], rtol=0.0, atol=1e-12)
        got = dop853(spike_at(7), (0.0, 1.0), [0.0], rtol=0.0, atol=1e-12)
        assert clean.t[1] == 100 * 1e-6 and got.t[1] == clean.t[1] * 0.2
        assert abs(got.y[0, -1] - math.sin(1.0)) < 1e-10

    def test_a_source_that_reads_the_time_steps_as_the_call(self):
        fun, span, y0, opts = _kernel_problem("scalar")
        # the same arithmetic in a Python function that each stage calls
        call = _calling(lambda t, y: [y[0] * math.cos(t) - 0.1 * y[0] * y[0]], 1)
        got, ref = dop853(fun, span, y0, **opts), dop853(call, span, y0, **opts)
        assert got.nfev == ref.nfev
        for a, b in ((got.t, ref.t), (got.y, ref.y), (got.sol(span[1] / 3), ref.sol(span[1] / 3))):
            assert np.array_equal(_bits(a), _bits(b))

    def test_a_source_is_one_straight_line_function(self):
        for source in ("def f(t, y):\n    if y:\n        z = y\n    return y,\n",
                       "def f(t, y):\n    y = 2.0 * y\n    return y,\n",   # assigns an argument
                       "def f(t, y):\n    return y\n",   # not a tuple
                       "def f(t, x, y):\n    return x,\n",   # two components, one derivative
                       "f = 1.0\n"):
            with pytest.raises(ValueError, match="straight-line"):
                straight_line_rhs(source)
        with pytest.raises(TypeError, match=r"takes the parameters \['c'\], got \['b', 'c'\]"):
            straight_line_rhs("def f(t, y):\n    return c * y,\n", b=1.0, c=2.0)


_KAPPAS = ("1", "1/2", "2", "3/2", "2/3", "1/3")


def _orbit_solve(kappa, w, rho0, direction):
    """(fun, span, y0, options) of the solve that tracing this orbit makes, not
    made; None for a launch so near 0 deg that it has no angular momentum."""
    calls = []
    kappa_f, exact = model.parse_kappa(kappa)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "solve_ivp", lambda *args, **kwargs: calls.append((*args, kwargs)))
        try:
            solver._integrate_orbit(kappa_f, w, rho0, 2.0 * math.pi * exact.denominator,
                                    direction)
        except ValueError:
            return None
    (problem,) = calls
    return problem


def _outcome(fun, span, y0, opts):
    try:
        return dop853(fun, span, y0, **opts)
    except Exception as exc:   # the guards, or the arithmetic of a wild stage
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(kappa=st.sampled_from(_KAPPAS), w=st.floats(1.0, 10.0), rho0=st.floats(0.3, 2.0),
       direction=st.floats(0.0, 360.0, exclude_min=True, exclude_max=True).filter(
           lambda d: d != 180.0))
def test_the_pasted_orbit_source_steps_as_its_callable_bit_for_bit(kappa, w, rho0, direction):
    problem = _orbit_solve(kappa, w, rho0, direction)
    assume(problem is not None)
    fun, span, y0, opts = problem
    got = _outcome(fun, span, y0, opts)
    ref = _outcome(_calling(fun, 5), span, y0, opts)   # each stage calls the orbit's callable
    if isinstance(ref, tuple):
        assert got == ref
        return
    mid = 0.5 * (ref.t[:-1] + ref.t[1:])
    assert got.nfev == ref.nfev
    for a, b in ((got.t, ref.t), (got.y, ref.y), (got.sol(mid), ref.sol(mid))):
        assert np.array_equal(_bits(a), _bits(b))


# ----------------------------------------------------------------------
# sort-based helpers that stand in for np.unique and np.median
# ----------------------------------------------------------------------

def _bits(x):
    return np.atleast_1d(np.asarray(x, dtype=float)).view(np.uint64)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 64, 255, 256])
def test_distinct_and_median_match_numpy_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for trial in range(40):
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-300.0, 300.0)
        if trial % 4 == 0:   # repeats, and zeros of both signs
            x = np.round(x / np.max(np.abs(x)) * 3.0) * rng.choice([-0.0, 0.0, 1.0], n)
        assert np.array_equal(_bits(numkit._distinct(x)), _bits(np.unique(x)))
        assert np.array_equal(_bits(numkit._median(x)), _bits(np.median(x)))
    if n > 2:
        x[n // 2] = math.nan
        assert math.isnan(numkit._median(x))
