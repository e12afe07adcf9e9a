import dataclasses
import math

import numpy as np
import pytest

from sdfem.problem import NoExactSolution, PROBLEMS, ProblemSpec, make_benchmark


def u(p, x, y):
    """Exact solution at (x, y), offsets formed as 1 - x, 1 - y."""
    return p.require_exact().value(x, y, 1.0 - x, 1.0 - y)


def f(p, x, y):
    """Source at (x, y), the sum of its x*y terms, offsets formed as 1 - x, 1 - y."""
    return sum(fx(x, 1.0 - x) * fy(y, 1.0 - y) for fx, fy in p.f_terms)


class TestExactSolution:
    def test_frozen_center_value(self):
        # hand evaluation of 2 sin(0.5)(1-e^{-10}) * 0.25 * (1-e^{-5})
        p = make_benchmark(0.1)
        assert u(p, 0.5, 0.5) == pytest.approx(0.23808678775334285, rel=1e-13)

    def test_boundary_zeros(self):
        p = make_benchmark(1e-3)
        for x, y in ((0.0, 0.3), (1.0, 0.7), (0.4, 0.0), (0.6, 1.0)):
            sx, sy = 1.0 - x, 1.0 - y
            assert abs(float(p.exact.value(x, y, sx, sy))) < 1e-15

    def test_tiny_eps_underflow(self):
        # layer exponentials underflow to zero, factors become exactly 1
        p = make_benchmark(1e-16)
        expected = 2.0 * math.sin(0.5) * 0.25
        assert u(p, 0.5, 0.5) == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(0.239713, abs=5e-7)

    def test_gradient_matches_finite_differences(self):
        # the gradient (g' w, g w') from the factors' derivatives
        p = make_benchmark(0.1)
        exact = p.require_exact()
        rng = np.random.default_rng(7)
        d = 1e-6
        for _ in range(20):
            x, y = rng.uniform(0.1, 0.9, size=2)
            (g, dg), (w, dw) = exact.x_factor(x, 1.0 - x), exact.y_factor(y, 1.0 - y)
            gx, gy = dg * w, g * dw
            fdx = (u(p, x + d, y) - u(p, x - d, y)) / (2 * d)
            fdy = (u(p, x, y + d) - u(p, x, y - d)) / (2 * d)
            assert gx == pytest.approx(fdx, rel=1e-7, abs=1e-7)
            assert gy == pytest.approx(fdy, rel=1e-7, abs=1e-7)


class TestSource:
    def test_source_matches_operator_finite_differences(self):
        # f must equal -eps*Lap(u) + 2 u_x + u_y + u for the manufactured u
        eps = 0.1
        p = make_benchmark(eps)
        rng = np.random.default_rng(0)
        d = 1e-5
        for _ in range(100):
            x, y = rng.uniform(0.05, 0.95, size=2)
            u0 = float(u(p, x, y))
            uxp = float(u(p, x + d, y))
            uxm = float(u(p, x - d, y))
            uyp = float(u(p, x, y + d))
            uym = float(u(p, x, y - d))
            lap = (uxp - 2 * u0 + uxm) / d**2 + (uyp - 2 * u0 + uym) / d**2
            ux = (uxp - uxm) / (2 * d)
            uy = (uyp - uym) / (2 * d)
            lhs = -eps * lap + 2 * ux + uy + u0
            assert abs(float(f(p, x, y)) - lhs) <= 1e-4

    def test_source_on_inflow_boundary(self):
        # u vanishes at x=0 but the source does not in general
        p = make_benchmark(0.1)
        assert float(u(p, 0.0, 0.5)) == 0.0
        assert abs(float(f(p, 0.0, 0.5))) > 0.1

    def test_tiny_eps_smooth_limit(self):
        # away from the layers the exponentials underflow and f collapses to
        # the source of the smooth part 2 sin(x) y^2
        eps = 1e-16
        p = make_benchmark(eps)
        x, y = 0.5, 0.5
        g = 2.0 * math.sin(x)
        gp = 2.0 * math.cos(x)
        gpp = -2.0 * math.sin(x)
        w, wp, wpp = y**2, 2 * y, 2.0
        limit = -eps * (gpp * w + g * wpp) + 2 * gp * w + g * wp + g * w
        assert float(f(p, x, y)) == pytest.approx(limit, abs=1e-12)

    def test_vectorized_evaluation(self):
        p = make_benchmark(1e-8)
        x = np.linspace(0.1, 0.9, 5)
        y = np.linspace(0.1, 0.9, 5)
        out = f(p, x, y)
        assert out.shape == (5,)
        assert np.isfinite(out).all()

    @pytest.mark.parametrize("eps", [1e-2, 1e-8, 1e-16])
    def test_terms_match_high_precision(self, eps):
        # every factor of f = (-eps g'' + 2 g' + g)(x) w(y) + g(x) (-eps w'' + w')(y)
        # against 60-digit values, the derivatives taken by mpmath.diff,
        # also deep in the layers, where the 1/eps parts of g'' and g' cancel
        # and 1 - e is tiny; the value factors g and w hold to a few ulps
        mp = pytest.importorskip("mpmath")
        (gx_op, wy), (gx, wy_op) = make_benchmark(eps).f_terms
        with mp.workdps(60):
            e = mp.mpf(eps)

            def g(x):
                return 2 * mp.sin(x) * (1 - mp.exp(-2 * (1 - x) / e))

            def w(y):
                return y * y * (1 - mp.exp(-(1 - y) / e))

            def g_op(x):
                return -e * mp.diff(g, x, 2) + 2 * mp.diff(g, x) + g(x)

            def w_op(y):
                return -e * mp.diff(w, y, 2) + mp.diff(w, y)

            for s in (0.999, 0.5, 0.05, 3 * eps, eps, 0.3 * eps, 0.01 * eps):
                t = 1 - mp.mpf(s)  # the coordinate whose offset is exactly s
                for factor, reference, bound in ((gx_op, g_op, 1e-14), (wy, w, 1e-15),
                                                 (gx, g, 1e-15), (wy_op, w_op, 1e-14)):
                    ref = reference(t)
                    got = float(factor(np.array([1.0 - s]), np.array([s]))[0])
                    assert abs(got - ref) <= bound * abs(ref), (s, reference.__name__, got, ref)


class TestValidation:
    def test_benchmark_passes(self):
        p = make_benchmark(1e-8)
        assert (p.b1, p.b2, p.c) == (2.0, 1.0, 1.0)

    def test_degenerate_convection_fails(self):
        p = make_benchmark(1e-8)
        for bad in (dict(b1=0.0), dict(b2=-1.0), dict(c=0.0), dict(b1=math.nan)):
            with pytest.raises(ValueError):
                dataclasses.replace(p, **bad)

    def test_missing_exact_solution_raises(self):
        p = make_benchmark(1e-8)
        bare = dataclasses.replace(p, exact=None)
        with pytest.raises(NoExactSolution):
            bare.require_exact()

    def test_registry(self):
        assert "paper-benchmark" in PROBLEMS
        p = PROBLEMS["paper-benchmark"](1e-8)
        assert isinstance(p, ProblemSpec)
        assert len(dataclasses.fields(ProblemSpec)) == 7
