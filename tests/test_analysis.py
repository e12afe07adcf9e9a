import math
import tracemalloc

import numpy as np
import pytest

from oracles import dense_error_components
from sdfem.analysis import (
    DiscreteFunction,
    ErrorComputation,
    NonpositiveError,
    RegionSel,
    interpolant,
    layer_integral_oracle,
    pointwise_error_grid,
    rate,
    sd_norm_discrete,
)
from sdfem.discretization import assemble_system
from sdfem.harness import run_single
from sdfem.mesh import AxisSpec, build_mesh
from sdfem.problem import ExactSolution, ProblemSpec, make_benchmark
from sdfem.solver import SolveMethod, SolverConfig
from sdfem.stabilization import DeltaField, DeltaVariant


def bench(N=8, eps=1e-8):
    p = make_benchmark(eps)
    m = build_mesh(AxisSpec(N=N, epsilon=eps, beta=2.0), AxisSpec(N=N, epsilon=eps, beta=1.0))
    return p, m


def bilinear_problem(eps=1e-2):
    """Problem whose exact solution x*y is reproduced exactly by the space."""

    def identity(t, st):  # the factor t and its derivative
        t = np.asarray(t, dtype=float)
        return t, np.ones_like(t)

    return ProblemSpec(
        epsilon=eps,
        b1=2.0,
        b2=1.0,
        c=1.0,
        f_terms=((lambda x, sx: 0.0 * np.asarray(x), lambda y, sy: 0.0 * np.asarray(y)),),
        exact=ExactSolution(x_factor=identity, y_factor=identity),
        name="bilinear-synthetic",
    )


class TestDiscreteFunction:
    def test_dof_vector_round_trip(self):
        _, m = bench(N=4)
        u = np.arange(9, dtype=float)
        f = DiscreteFunction.from_dof_vector(m, u, np.arange(9))
        assert f.values[1, 1] == 0.0
        assert f.values[2, 1] == 1.0  # x-fastest dof ordering
        assert f.values[1, 2] == 3.0
        assert np.all(f.values[0, :] == 0.0) and np.all(f.values[:, 4] == 0.0)

    def test_system_dofs_placed_at_their_nodes(self):
        # system dof c is natural dof dofs[c], node (1 + dofs[c] % 7, 1 + dofs[c] // 7)
        p, m = bench(N=8)
        dofs = assemble_system(m, p, DeltaField(DeltaVariant.STANDARD, 0.5)).dofs
        f = DiscreteFunction.from_dof_vector(m, np.arange(49, dtype=float), dofs)
        expect = np.zeros((9, 9))
        expect[1 + dofs % 7, 1 + dofs // 7] = np.arange(49)
        assert not np.array_equal(dofs, np.arange(49))
        assert np.array_equal(f.values, expect)

    def test_shape_validation(self):
        _, m = bench(N=4)
        with pytest.raises(ValueError):
            DiscreteFunction(mesh=m, values=np.zeros((3, 3)))


class TestInterpolant:
    def test_nodal_property(self):
        p, m = bench(N=16)
        ui = interpolant(p, m)
        exact = p.require_exact()
        X, Y = np.meshgrid(m.x_axis.nodes, m.y_axis.nodes, indexing="ij")
        SX, SY = np.meshgrid(m.x_axis.node_sigma, m.y_axis.node_sigma, indexing="ij")
        assert np.abs(ui.values - exact.value(X, Y, SX, SY)).max() == 0.0

    def test_sup_norm_regression_on_omega_s(self):
        # sampled sup norm of u - u^I over Omega_s decays like max(N^-2, N^-2.5)
        p, m = bench(N=16)
        ui = interpolant(p, m)
        exact = p.require_exact()
        v00, v10, v11, v01 = ui.corner_values()
        N = m.N
        worst = 0.0
        alphas = (np.arange(5) + 0.5) / 5.0
        for j in range(N // 2):
            for i in range(N // 2):
                x0 = m.x_axis.cell_left[i]
                y0 = m.y_axis.cell_left[j]
                wx = m.x_axis.cell_width[i]
                wy = m.y_axis.cell_width[j]
                for ta in alphas:
                    for tb in alphas:
                        x, y = x0 + ta * wx, y0 + tb * wy
                        uh = (
                            v00[j, i] * (1 - ta) * (1 - tb)
                            + v10[j, i] * ta * (1 - tb)
                            + v11[j, i] * ta * tb
                            + v01[j, i] * (1 - ta) * tb
                        )
                        worst = max(worst, abs(float(exact.value(x, y, 1 - x, 1 - y)) - uh))
        assert worst <= 4.0 * max(16.0**-2, 16.0**-2.5)


class TestErrorNorms:
    def test_zero_function(self):
        p, m = bench(N=8)
        d = DeltaField(DeltaVariant.STANDARD, 0.5)
        zero = DiscreteFunction(mesh=m, values=np.zeros((9, 9)))
        assert sd_norm_discrete(zero, p, d) == 0.0

    def test_bilinear_exact_reproduced(self):
        p = bilinear_problem()
        m = build_mesh(AxisSpec(N=8, epsilon=1e-2, beta=2.0), AxisSpec(N=8, epsilon=1e-2, beta=1.0))
        d = DeltaField(DeltaVariant.MODIFIED, 0.5)
        ui = interpolant(p, m)
        rep = ErrorComputation(ui, d, p).report()
        assert rep.eps_norm <= 1e-13
        assert rep.sd_norm <= 1e-13

    def test_sd_decomposition_identity(self, case_runner):
        case = case_runner(16, 1e-8)
        for region in RegionSel:
            rep = case.report(region)
            eg, ml, st = rep.components
            assert rep.sd_norm**2 == pytest.approx(eg + ml + st, rel=1e-13)
            assert rep.eps_norm**2 == pytest.approx(eg + ml, rel=1e-13)
            assert rep.sd_norm >= rep.eps_norm

    def test_region_norms_bounded_by_global(self, case_runner):
        case = case_runner(16, 1e-8)
        g = case.report(RegionSel.GLOBAL)
        for region in (RegionSel.OMEGA_S, RegionSel.OMEGA_X, RegionSel.OMEGA_Y, RegionSel.OMEGA_XY):
            assert case.report(region).sd_norm <= g.sd_norm + 1e-15

    def test_modified_stab_never_exceeds_standard(self, case_runner):
        # same discrete function, the ramped parameter is pointwise smaller
        case = case_runner(16, 1e-8)
        p, m = bench(N=16)
        ds = DeltaField(DeltaVariant.STANDARD, 0.5)
        dm = DeltaField(DeltaVariant.MODIFIED, 0.5)
        rs = ErrorComputation(case.u_h, ds, p).report(RegionSel.OMEGA_S)
        rm = ErrorComputation(case.u_h, dm, p).report(RegionSel.OMEGA_S)
        assert rm.components[2] <= rs.components[2]

    @pytest.mark.parametrize("use_exact", [True, False])
    @pytest.mark.parametrize("variant", list(DeltaVariant))
    def test_memory_budget(self, variant, use_exact):
        # the parts are summed row by row, so beyond the per-axis tables
        # and the three returned parts only xi's four modal coefficients
        # and one row's products are held
        p, m = bench(N=128, eps=1e-8)
        u = interpolant(p, m).values.copy()
        u[1:-1, 1:-1] += 1e-3 * np.random.default_rng(0).standard_normal((127, 127))
        u_h = DiscreteFunction(mesh=m, values=u)
        tracemalloc.start()
        try:
            comp = ErrorComputation(u_h, DeltaField(variant, 0.5), p, use_exact=use_exact)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        returned = sum(a.nbytes for a in (comp.cell_eps_grad2, comp.cell_mu_l2, comp.cell_stab2))
        assert peak <= 6 * returned, peak / returned


class TestRate:
    def test_halving(self):
        assert rate(0.1, 0.05) == pytest.approx(1.0, rel=1e-12)
        assert rate(0.1, 0.025) == pytest.approx(2.0, rel=1e-12)

    def test_nonpositive_rejected(self):
        with pytest.raises(NonpositiveError):
            rate(0.0, 0.1)
        with pytest.raises(NonpositiveError):
            rate(0.1, -1.0)


class TestLayerIntegrals:
    @pytest.mark.parametrize("eps", [1e-2, 1e-4])
    @pytest.mark.parametrize("N", [8, 16])
    def test_closed_form_matches_quadrature(self, eps, N):
        _, m = bench(N=N, eps=eps)
        ax = m.x_axis
        o = layer_integral_oracle(eps, 2.0, ax.strip_point, ax.transition_point, ax.H)

        def rel(a, b):
            s = max(abs(a), abs(b))
            return abs(a - b) / s if s else 0.0

        assert rel(o.tail_closed, o.tail_quad) <= 1e-12
        assert rel(o.strip_closed, o.strip_quad) <= 1e-12

    @pytest.mark.parametrize("eps", [1e-2, 1e-4])
    @pytest.mark.parametrize("N", [8, 16])
    def test_proof_majorants(self, eps, N):
        # tail <= (eps/2beta) N^{-2 rho}, strip <= (eps/2beta)^2 H^{-1} N^{-2 rho}
        beta = 2.0
        _, m = bench(N=N, eps=eps)
        ax = m.x_axis
        o = layer_integral_oracle(eps, beta, ax.strip_point, ax.transition_point, ax.H)
        scale = N ** (-2 * 2.5)
        assert o.tail_closed <= (eps / (2 * beta)) * scale * (1 + 1e-12)
        assert o.strip_closed <= (eps / (2 * beta)) ** 2 / m.x_axis.H * scale * (1 + 1e-12)

    def test_small_eps_underflows_cleanly(self):
        _, m = bench(N=8, eps=1e-12)
        ax = m.x_axis
        o = layer_integral_oracle(1e-12, 2.0, ax.strip_point, ax.transition_point, ax.H)
        assert o.tail_closed == 0.0 and o.tail_quad == 0.0
        assert math.isfinite(o.strip_closed) and math.isfinite(o.strip_quad)


class TestPointwiseGrid:
    def test_dimensions(self, case_runner):
        case = case_runner(8, 1e-8)
        p, _ = bench(N=8)
        for s in (1, 3):
            grid = pointwise_error_grid(p, case.u_h, samples_per_cell=s)
            assert grid.x.shape == ((8 * s) ** 2,)
            assert grid.abs_error.shape == grid.x.shape
            assert np.all(grid.sigma_x >= 0) and np.all(grid.sigma_y >= 0)

    def test_smooth_region_accuracy(self, case_runner):
        case = case_runner(64, 1e-8)
        p, m = bench(N=64)
        grid = pointwise_error_grid(p, case.u_h, samples_per_cell=2)
        # restrict to the inner part of Omega_s: both offsets beyond the strip
        inner = (grid.x <= m.x_axis.strip_point) & (grid.y <= m.y_axis.strip_point)
        assert inner.any()
        assert float(grid.abs_error[inner].max()) <= 1e-2

    def test_bilinear_exact_gives_zero_grid(self):
        p = bilinear_problem()
        m = build_mesh(AxisSpec(N=8, epsilon=1e-2, beta=2.0), AxisSpec(N=8, epsilon=1e-2, beta=1.0))
        ui = interpolant(p, m)
        grid = pointwise_error_grid(p, ui, samples_per_cell=2)
        assert float(grid.abs_error.max()) <= 1e-14

    def test_invalid_samples(self, case_runner):
        case = case_runner(8, 1e-8)
        p, _ = bench(N=8)
        with pytest.raises(ValueError):
            pointwise_error_grid(p, case.u_h, samples_per_cell=0)


class TestErrorOracle:
    @pytest.mark.parametrize("variant", list(DeltaVariant))
    @pytest.mark.parametrize("eps", [1e-4, 1e-8, 1e-16])
    @pytest.mark.parametrize("N", [8, 16])
    def test_components_match_dense_quadrature(self, N, eps, variant):
        # every region's three components against plain per-cell Gauss
        # loops, for a direct-LU solution, the interpolant plus noise and
        # the norms of that noisy function itself (use_exact=False)
        p, m = bench(N=N, eps=eps)
        d = DeltaField(variant, 0.5)
        lu = run_single("paper-benchmark", N, eps, variant, 0.5,
                        SolverConfig(method=SolveMethod.DIRECT_LU)).u_h
        rng = np.random.default_rng(N)
        noisy = interpolant(p, m).values.copy()
        noisy[1:-1, 1:-1] += 1e-3 * rng.standard_normal((N - 1, N - 1))
        noisy = DiscreteFunction(mesh=m, values=noisy)
        for u_h, use_exact in ((lu, True), (noisy, True), (noisy, False)):
            comp = ErrorComputation(u_h, d, p, use_exact=use_exact)
            ref = dense_error_components(m, p, u_h.values, variant, 0.5, use_exact)
            scale = ref[RegionSel.GLOBAL]
            for region in RegionSel:
                got = comp.report(region).components
                for k in range(3):
                    assert abs(got[k] - ref[region][k]) <= 1e-12 * scale[k], (
                        region, k, use_exact, got[k], ref[region][k])
