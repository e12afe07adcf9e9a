import dataclasses
import math

import numpy as np
import pytest

from oracles import delta_at
from sdfem.discretization import QuadratureRule, cell_points
from sdfem.mesh import AxisSpec, RegionSel, build_mesh
from sdfem.problem import make_benchmark
from sdfem.stabilization import DeltaField, DeltaVariant, admissible_cstar


def bench(N=8, eps=1e-8):
    p = make_benchmark(eps)
    m = build_mesh(AxisSpec(N=N, epsilon=eps, beta=2.0), AxisSpec(N=N, epsilon=eps, beta=1.0))
    return p, m


def delta_on_omega_s(d, m, x, y):
    """delta at the points (x, y) taken as points of cell (0, 0), which
    lies inside Omega_s."""
    x, y = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (x, y))
    dx, dy = (d.axis_factor(m, axis, np.repeat(v[:, None], m.N, axis=1))[..., 0]
              for axis, v in enumerate((x, y)))
    return np.broadcast_to(dx * dy, x.shape)


def delta_on_cells(d, m, rule):
    """delta at every point of `rule` in every cell, (Qa, Qb, N, N)."""
    p = cell_points(m, rule)
    dx = d.axis_factor(m, 0, p.X[:, 0, 0])
    dy = d.axis_factor(m, 1, p.Y[0, :, :, 0])
    return np.broadcast_to(dx[..., None, None, :] * dy[..., :, None], p.weight.shape)


class TestRamps:
    """Modified delta along the ramp of the last coarse strip, with the
    other coordinate inside OMEGA_S_EPS so its ramp factor is 1."""

    def test_endpoints(self):
        _, m = bench()
        d = DeltaField(DeltaVariant.MODIFIED, 0.5)
        base = 0.5 / m.N
        assert delta_on_omega_s(d, m, m.x_axis.strip_point, 0.1)[0] == base
        x_t, y_t = m.x_axis.transition_point, m.y_axis.transition_point
        assert delta_on_omega_s(d, m, x_t, 0.1)[0] == pytest.approx(0.0, abs=1e-12)
        assert delta_on_omega_s(d, m, 0.1, m.y_axis.strip_point)[0] == base
        assert delta_on_omega_s(d, m, 0.1, y_t)[0] == pytest.approx(0.0, abs=1e-12)

    def test_midpoint_linearity(self):
        _, m = bench()
        d = DeltaField(DeltaVariant.MODIFIED, 0.5)
        base = 0.5 / m.N
        x_mid = m.x_axis.strip_point + m.x_axis.H / 2
        assert delta_on_omega_s(d, m, x_mid, 0.1)[0] == pytest.approx(
            0.5 * base, rel=1e-12)
        y_mid = m.y_axis.strip_point + m.y_axis.H / 2
        assert delta_on_omega_s(d, m, 0.1, y_mid)[0] == pytest.approx(
            0.5 * base, rel=1e-12)


class TestDelta:
    def test_standard_value_in_omega_s(self):
        _, m = bench(N=8)
        d = DeltaField(DeltaVariant.STANDARD, 0.5)
        assert delta_on_omega_s(d, m, 0.5, 0.5)[0] == 0.0625  # c_star / N exactly

    def test_modified_equals_standard_inside_inner_region(self):
        _, m = bench(N=8)
        ds = DeltaField(DeltaVariant.STANDARD, 0.5)
        dm = DeltaField(DeltaVariant.MODIFIED, 0.5)
        x = np.array([0.1, 0.3, m.x_axis.strip_point])
        y = np.array([0.1, 0.3, m.y_axis.strip_point])
        assert np.array_equal(delta_on_omega_s(dm, m, x, y), delta_on_omega_s(ds, m, x, y))

    def test_vanishes_in_layers(self):
        # at eps = 1e-16 the layer abscissae round onto x_t = 1 - lambda or
        # onto 1.0; the cell index, not the coordinate, must switch delta off
        for eps in (1e-8, 1e-16):
            _, m = bench(eps=eps)
            in_omega_s = m.region_mask(RegionSel.OMEGA_S)
            I, J = np.meshgrid(np.arange(m.N), np.arange(m.N))
            assert np.array_equal(in_omega_s, (I < m.N // 2) & (J < m.N // 2))
            for variant in DeltaVariant:
                dvs = delta_on_cells(DeltaField(variant, 0.5), m, QuadratureRule.gauss(3))
                for ia in range(3):
                    for ib in range(3):
                        dv = dvs[ia, ib]
                        assert not dv[~in_omega_s].any()
                        assert dv[in_omega_s].all()

    def test_invalid_cstar(self):
        for c_star in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                DeltaField(DeltaVariant.STANDARD, c_star)


class TestVectorizedEvaluation:
    def test_cellwise_mask_controls_support(self):
        # the same abscissa taken as a point of a coarse and of a fine column
        _, m = bench(N=8)
        d = DeltaField(DeltaVariant.STANDARD, 0.5)
        x = np.full((1, m.N), 0.5)
        dx = np.broadcast_to(d.axis_factor(m, 0, x), x.shape)[0]
        assert dx[0] == 0.0625
        assert dx[m.N - 1] == 0.0

    def test_cellwise_immune_to_sub_ulp_layers(self):
        # at eps = 1e-16 layer cell widths are below one ulp of 1.0, so the
        # quadrature abscissae of the first layer cell round onto x_t; the
        # cell-driven form must still return zero there
        _, m = bench(N=64, eps=1e-16)
        layer = m.N // 2
        X = cell_points(m, QuadratureRule.gauss(3)).X[:, 0, 0]
        # the rounded abscissae of the layer-cell points
        assert np.all(X[:, layer] == m.x_axis.transition_point)
        for variant in DeltaVariant:
            dx = DeltaField(variant, 0.5).axis_factor(m, 0, X)
            assert not np.broadcast_to(dx, X.shape)[:, layer].any()

    def test_matches_pointwise_on_omega_s(self):
        _, m = bench(N=8, eps=1e-4)
        N = m.N
        for variant in DeltaVariant:
            p = cell_points(m, QuadratureRule.gauss(3))
            vecs = delta_on_cells(DeltaField(variant, 0.7), m, QuadratureRule.gauss(3))
            for ia in range(3):
                for ib in range(3):
                    vec = vecs[ia, ib]
                    for j in range(N):
                        for i in range(N):
                            want = delta_at(m, variant, 0.7, i, j, float(p.X[ia, 0, 0, i]),
                                            float(p.Y[0, ib, j, 0]))
                            assert vec[j, i] == pytest.approx(want, rel=1e-12, abs=0.0)


class TestAdmissibleCstar:
    def test_benchmark_cap_is_half_n(self):
        p, m = bench(N=8)
        assert admissible_cstar(p, m) == pytest.approx(4.0, rel=1e-12)
        p16, m16 = bench(N=16)
        assert admissible_cstar(p16, m16) == pytest.approx(8.0, rel=1e-12)

    def test_inverse_in_c(self):
        # cap = N mu0 / (2 c^2) = N / (2c), since mu0 = c for constant b
        p, m = bench(N=8)
        assert admissible_cstar(p, m) == 4.0
        assert admissible_cstar(dataclasses.replace(p, c=2.0), m) == 2.0
