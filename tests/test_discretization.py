import dataclasses
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import dense_sdfem_matrix, dense_sdfem_rhs
from sdfem import discretization
from sdfem.analysis import (
    DiscreteFunction,
    ErrorComputation,
    interpolant,
    pointwise_error_grid,
    sd_norm_discrete,
)
from sdfem.discretization import (
    LOCAL_NODES,
    QuadratureOrderTooLow,
    QuadratureRule,
    assemble_system,
    cell_points,
)
from sdfem.mesh import AxisSpec, RegionSel, build_mesh
from sdfem.problem import ExactSolution, make_benchmark
from sdfem.stabilization import DeltaField, DeltaVariant


def bench(N=4, eps=0.1):
    p = make_benchmark(eps)
    m = build_mesh(AxisSpec(N=N, epsilon=eps, beta=2.0), AxisSpec(N=N, epsilon=eps, beta=1.0))
    return p, m


def one_cell_mesh(h):
    """Duck-typed mesh with the single cell [0, h]^2."""
    axis = SimpleNamespace(cell_width=np.array([h]), cell_left=np.array([0.0]),
                           cell_sigma_left=np.array([1.0]))
    return SimpleNamespace(N=1, x_axis=axis, y_axis=axis)


def reference_point(a, b):
    """Basis values and reference derivatives at the reference point (a, b)
    on the unit cell: point [0, 1] of the rule with points (a, b), x
    outermost."""
    rule = QuadratureRule(points=np.array([a, b]), weights=np.ones(2))
    p = cell_points(one_cell_mesh(1.0), rule)
    return SimpleNamespace(**{
        name: tuple(float(np.broadcast_to(v, (2, 2, 1, 1))[0, 1, 0, 0])
                    for v in getattr(p, name))
        for name in ("phi", "dphi_da", "dphi_db")})


class TestShapeFunctions:
    def test_center_values(self):
        assert np.allclose(reference_point(0.5, 0.5).phi, 0.25)

    def test_nodal_property(self):
        for k, (di, dj) in enumerate(LOCAL_NODES):
            p = reference_point(float(di), float(dj))
            assert np.array_equal(p.phi, np.eye(4)[k])

    def test_partition_of_unity(self):
        rng = np.random.default_rng(1)
        for a, b in rng.uniform(0, 1, size=(10, 2)):
            p = reference_point(a, b)
            assert float(np.sum(p.phi)) == pytest.approx(1.0, rel=1e-14)
            assert abs(sum(p.dphi_da)) <= 1e-14 and abs(sum(p.dphi_db)) <= 1e-14

    def test_quadrature_rule(self):
        with pytest.raises(QuadratureOrderTooLow):
            QuadratureRule.gauss(0)
        rule = QuadratureRule.gauss(3)
        assert rule.points.shape == (3,)
        assert np.all((rule.points > 0) & (rule.points < 1))
        assert float(np.sum(rule.weights)) == pytest.approx(1.0, rel=1e-14)

    def test_gauss_rule_cached_read_only(self):
        rule = QuadratureRule.gauss(4)
        assert QuadratureRule.gauss(4) is rule
        for arr in (rule.points, rule.weights):
            with pytest.raises(ValueError):
                arr[0] = 0.5


def galerkin_and_sd(m, p, variant):
    """Assembled (Galerkin, stabilized) matrix pair; their difference is the
    stabilization term alone."""
    gal = assemble_system(m, p, DeltaField(variant, 1e-300)).matrix.toarray()
    sd = assemble_system(m, p, DeltaField(variant, 0.5)).matrix.toarray()
    return gal, sd


def rows_touching(m, mask):
    """Dofs of the interior nodes that are a corner of some cell in `mask`."""
    N = m.N
    return {(c // N + dj - 1) * (N - 1) + (c % N + di - 1)
            for c in np.flatnonzero(mask) for di, dj in LOCAL_NODES
            if 1 <= c % N + di <= N - 1 and 1 <= c // N + dj <= N - 1}


class TestCellPoints:
    def test_broadcast_layout(self):
        # x-axis arrays are (Qa, 1, 1, N), y-axis arrays (1, Qb, R, 1); at
        # eps = 1e-16 the layer-cell offsets come from the exact cell
        # offsets and stay > 0
        _, m = bench(N=8, eps=1e-16)
        N, half = m.N, m.N // 2
        ax, ay = m.x_axis, m.y_axis
        rule = QuadratureRule.gauss(3)
        p = cell_points(m, rule, slice(2, 7))
        assert p.X.shape == p.SX.shape == (3, 1, 1, N)
        assert p.Y.shape == p.SY.shape == (1, 3, 5, 1)
        assert p.WX.shape == (1, N) and p.WY.shape == (5, 1)
        assert p.weight.shape == (3, 3, 5, N)
        assert [v.shape for v in p.nx] == [(3, 1, 1, 1)] * 2
        assert [v.shape for v in p.ny] == [(1, 3, 1, 1)] * 2
        p = cell_points(m, rule)
        for ia, a in enumerate(rule.points):
            for ib, b in enumerate(rule.points):
                sx = ax.cell_sigma_left[half:] - a * ax.cell_width[half:]
                sy = ay.cell_sigma_left[half:] - b * ay.cell_width[half:]
                assert np.array_equal(p.SX[ia, 0, 0, half:], sx) and np.all(sx > 0.0)
                assert np.array_equal(p.SY[0, ib, half:, 0], sy) and np.all(sy > 0.0)


class TestRowStrips:
    @pytest.mark.parametrize("N", [8, 12, 64])
    @pytest.mark.parametrize("eps", [1e-8, 1e-16])
    @pytest.mark.parametrize("variant", list(DeltaVariant))
    def test_strip_height_invariance(self, monkeypatch, N, eps, variant):
        # one row per strip for every rule, one row for 25 points, 5 rows
        # for 25 points (which leaves a remainder) and the whole mesh give
        # the same bytes
        p, m = bench(N=N, eps=eps)
        d = DeltaField(variant, 0.5)
        rng = np.random.default_rng(N)
        values = interpolant(p, m).values.copy()
        values[1:-1, 1:-1] += 1e-3 * rng.standard_normal((N - 1, N - 1))
        u_h = DiscreteFunction(mesh=m, values=values)

        def outputs():
            s = assemble_system(m, p, d)
            out = [s.matrix.indptr, s.matrix.indices, s.matrix.data, s.rhs]
            for use_exact in (True, False):
                c = ErrorComputation(u_h, d, p, use_exact=use_exact)
                out += [c.cell_eps_grad2, c.cell_mu_l2, c.cell_stab2]
            out.append(np.float64(sd_norm_discrete(u_h, p, d)))
            for samples in (1, 3):
                g = pointwise_error_grid(p, u_h, samples)
                out += [g.x, g.y, g.sigma_x, g.sigma_y, g.abs_error]
            return [(a.dtype, a.shape, a.tobytes()) for a in out]

        results = []
        for cells in (N, 25 * N, 125 * N, 25 * N * N):
            monkeypatch.setattr(discretization, "STRIP_CELLS", cells)
            results.append(outputs())
        assert results[0] == results[1] == results[2] == results[3]

    def test_strip_heights(self, monkeypatch):
        def spans(N, points):
            return [(r.start, r.stop) for r in discretization.row_strips(N, points)]

        monkeypatch.setattr(discretization, "STRIP_CELLS", 60)
        assert spans(12, 1) == [(0, 5), (5, 10), (10, 12)]
        assert spans(12, 9) == [(j, j + 1) for j in range(12)]
        monkeypatch.undo()
        # 65536 (cell, point) pairs: 227, 56, 20 and 5 rows
        assert spans(32, 9) == [(0, 32)]
        assert spans(128, 9) == [(0, 56), (56, 112), (112, 128)]
        assert spans(128, 25) == [(j, min(j + 20, 128)) for j in range(0, 128, 20)]
        assert spans(512, 25) == [(j, min(j + 5, 512)) for j in range(0, 512, 5)]


class TestPointBatching:
    def test_point_sum_adds_in_point_order(self):
        # the per-point loop it replaces: zero, then point (ia, ib) in order
        rng = np.random.default_rng(5)
        values = rng.standard_normal((5, 5, 3, 8)) * 10.0 ** rng.uniform(-8, 8, (5, 5, 3, 8))
        expect = np.zeros((3, 8))
        for ia in range(5):
            for ib in range(5):
                expect += values[ia, ib]
        assert np.array_equal(0.0 + discretization.point_sum(values), expect)

    @pytest.mark.parametrize("N", [8, 512])
    def test_fields_evaluated_once_per_strip(self, monkeypatch, N):
        # every field is evaluated once per row strip, never once per point;
        # the matrix evaluates delta's factors twice, on every row and column
        # for the class keys and on its block of class representatives
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        p, m = bench(N=N, eps=1e-8)
        exact = ExactSolution(value=counted("value", p.exact.value),
                              gradient=counted("gradient", p.exact.gradient))
        p = dataclasses.replace(p, f=counted("f", p.f), exact=exact)
        monkeypatch.setattr(DeltaField, "axis_factors",
                            counted("delta", DeltaField.axis_factors))
        d = DeltaField(DeltaVariant.MODIFIED, 0.5)
        u_h = interpolant(p, m)  # one nodal call of exact.value
        matrix_strips = len(discretization.row_strips(N, 9))
        strips = len(discretization.row_strips(N, 25))
        assert (matrix_strips, strips) == ((1, 1) if N == 8 else (37, 103))

        calls.clear()
        assemble_system(m, p, d)
        assert calls == {"f": strips, "delta": 2 + strips}

        calls.clear()
        ErrorComputation(u_h, d, p)
        assert calls == {"value": strips, "gradient": strips, "delta": strips}


def assemble_counting_classes(monkeypatch, m, p, d):
    """The assembled system and the number of cell classes found on the x
    and on the y axis."""
    counts = []

    def spy(*args):
        first, code = classify(*args)
        counts.append(first.size)
        return first, code

    classify = discretization._cell_classes
    monkeypatch.setattr(discretization, "_cell_classes", spy)
    s = assemble_system(m, p, d)
    monkeypatch.undo()
    return s, counts


def nudge_node(m, i, ulps):
    """The mesh with x node i (0 < i < N/2) moved by `ulps` ulps, the two
    adjacent cell widths following it."""
    ax = m.x_axis
    nodes, width = ax.nodes.copy(), ax.cell_width.copy()
    shift = ulps * np.spacing(nodes[i])
    nodes[i] += shift
    width[i - 1] += shift
    width[i] -= shift
    return dataclasses.replace(m, x_axis=dataclasses.replace(ax, nodes=nodes, cell_width=width))


class TestCellClasses:
    @pytest.mark.parametrize("N", [4, 8, 64])
    @pytest.mark.parametrize("eps", [1e-4, 1e-16])
    @pytest.mark.parametrize("variant", list(DeltaVariant))
    def test_shishkin_axis_class_counts(self, monkeypatch, N, eps, variant):
        # coarse and fine; the modified delta splits off the last coarse
        # strip, where its factor ramps down
        p, m = bench(N=N, eps=eps)
        d = DeltaField(variant, 0.5)
        _, counts = assemble_counting_classes(monkeypatch, m, p, d)
        assert counts == ([3, 3] if variant is DeltaVariant.MODIFIED else [2, 2])

    @pytest.mark.parametrize("variant", list(DeltaVariant))
    def test_broken_pattern_gets_more_classes(self, monkeypatch, variant):
        # columns 0 and 1 leave the coarse class, each for a class of its own
        p, m = bench(N=8, eps=1e-4)
        m = nudge_node(m, 1, 4)
        assert len(set(m.x_axis.cell_width[:3])) == 3
        d = DeltaField(variant, 0.5)
        s, counts = assemble_counting_classes(monkeypatch, m, p, d)
        assert counts == ([5, 3] if variant is DeltaVariant.MODIFIED else [4, 2])
        O = dense_sdfem_matrix(m, p, variant, 0.5)
        assert np.abs(s.matrix.toarray() - O).max() <= 1e-12 * np.abs(O).max()

    @pytest.mark.parametrize("N", [8, 64])
    @pytest.mark.parametrize("eps", [1e-8, 1e-16])
    @pytest.mark.parametrize("variant", list(DeltaVariant))
    def test_same_bytes_as_one_class_per_cell(self, monkeypatch, N, eps, variant):
        # a class per cell is the cell-by-cell assembly
        p, m = bench(N=N, eps=eps)
        d = DeltaField(variant, 0.5)
        for mesh in (m, nudge_node(m, N // 4, 2)):
            shared = assemble_system(mesh, p, d).matrix
            monkeypatch.setattr(discretization, "_cell_classes",
                                lambda width, *_: (np.arange(width.size),) * 2)
            alone = assemble_system(mesh, p, d).matrix
            monkeypatch.undo()
            for a, b in ((shared.indptr, alone.indptr), (shared.indices, alone.indices),
                         (shared.data, alone.data)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestElementalMatrices:
    def test_single_cell_laplace_closed_form(self):
        # stiffness of the bilinear element for -Lap on a square cell is
        # h-independent: diagonal 2/3, edge neighbors -1/6, opposite -1/3
        for h in (1.0, 0.25, 1e-3):
            K = np.zeros((4, 4))
            p = cell_points(one_cell_mesh(h), QuadratureRule.gauss(2))
            gx, gy = p.basis_gradients()
            for k in range(4):
                for l in range(4):
                    K[k, l] = np.sum(p.weight * (gx[k] * gx[l] + gy[k] * gy[l]))
            expect = np.array(
                [
                    [2 / 3, -1 / 6, -1 / 3, -1 / 6],
                    [-1 / 6, 2 / 3, -1 / 6, -1 / 3],
                    [-1 / 3, -1 / 6, 2 / 3, -1 / 6],
                    [-1 / 6, -1 / 3, -1 / 6, 2 / 3],
                ]
            )
            assert np.allclose(K, expect, atol=1e-14)

    def test_stab_contribution_zero_on_layer_cells(self):
        # nodes whose four cells all lie in the layers carry no stabilization
        p, m = bench(N=8, eps=1e-4)
        in_s = m.region_mask(RegionSel.OMEGA_S)
        rows = sorted(rows_touching(m, ~in_s) - rows_touching(m, in_s))
        assert rows
        gal, sd = galerkin_and_sd(m, p, DeltaVariant.STANDARD)
        assert np.array_equal(sd[rows], gal[rows])

    def test_stab_inner_cell_variant_agreement(self):
        p, m = bench(N=8, eps=1e-4)
        inner = m.region_mask(RegionSel.OMEGA_S_EPS)
        rows = sorted(rows_touching(m, inner) - rows_touching(m, ~inner))
        assert rows
        ss = assemble_system(m, p, DeltaField(DeltaVariant.STANDARD, 0.5))
        sm = assemble_system(m, p, DeltaField(DeltaVariant.MODIFIED, 0.5))
        assert np.array_equal(ss.matrix.toarray()[rows], sm.matrix.toarray()[rows])
        assert np.array_equal(ss.rhs[rows], sm.rhs[rows])

    def test_stab_strip_cell_modified_smaller(self):
        p, m = bench(N=8, eps=1e-4)
        rows = sorted(rows_touching(m, m.region_mask(RegionSel.OMEGA_S_EPS_COMPLEMENT)))
        gal, sd_std = galerkin_and_sd(m, p, DeltaVariant.STANDARD)
        _, sd_mod = galerkin_and_sd(m, p, DeltaVariant.MODIFIED)
        assert np.linalg.norm((sd_mod - gal)[rows]) < np.linalg.norm((sd_std - gal)[rows])


class TestAssembly:
    def test_galerkin_limit(self):
        # a vanishing stabilization field must reproduce the Galerkin matrix
        p, m = bench(N=4, eps=0.1)
        d = DeltaField(DeltaVariant.STANDARD, 1e-300)
        tiny = assemble_system(m, p, d).matrix.toarray()
        oracle = dense_sdfem_matrix(m, p, DeltaVariant.STANDARD, 1e-300)
        assert np.allclose(tiny, oracle, rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("eps", [0.1, 1e-8, 1e-16])
    @pytest.mark.parametrize("variant", list(DeltaVariant))
    def test_matrix_matches_dense_bruteforce(self, eps, variant):
        for N in (4, 8) if eps < 0.1 else (4,):  # eps = 0.1 admits no mesh at N = 8
            p, m = bench(N=N, eps=eps)
            d = DeltaField(variant, 0.5)
            A = assemble_system(m, p, d).matrix
            assert A.format == "csc"
            assert A.has_canonical_format
            assert A.indices.dtype == A.indptr.dtype == np.int32
            assert A.nnz == (3 * N - 5) ** 2
            O = dense_sdfem_matrix(m, p, variant, 0.5)
            scale = np.abs(O).max()
            assert np.abs(A.toarray() - O).max() <= 1e-12 * scale, N

    @pytest.mark.parametrize("eps", [0.1, 1e-8, 1e-16])
    @pytest.mark.parametrize("variant", list(DeltaVariant))
    def test_rhs_matches_dense_bruteforce(self, eps, variant):
        for N in (4, 8) if eps < 0.1 else (4,):  # eps = 0.1 admits no mesh at N = 8
            p, m = bench(N=N, eps=eps)
            d = DeltaField(variant, 0.5)
            F = assemble_system(m, p, d).rhs
            O = dense_sdfem_rhs(m, p, variant, 0.5)
            assert np.abs(F - O).max() <= 1e-12 * np.abs(O).max(), N

    def test_memory_budget(self):
        # the stencils are summed once per class pair and gathered straight
        # into CSC, so assembly holds neither per-cell element blocks nor
        # COO triplets of every (k, l) block
        p, m = bench(N=128, eps=1e-8)
        d = DeltaField(DeltaVariant.MODIFIED, 0.5)
        tracemalloc.start()
        try:
            s = assemble_system(m, p, d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        A = s.matrix
        returned = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes + s.rhs.nbytes
        assert peak <= 7 * returned, peak / returned

    def test_one_field_on_two_meshes(self):
        # the field reads N, x_t, y_t and H from the mesh it is used on
        d = DeltaField(DeltaVariant.MODIFIED, 0.5)
        for N in (4, 8):
            p, m = bench(N=N, eps=1e-4)
            A = assemble_system(m, p, d).matrix.toarray()
            O = dense_sdfem_matrix(m, p, d.variant, d.c_star)
            assert np.abs(A - O).max() <= 1e-12 * np.abs(O).max(), N

    def test_reproducible_assembly(self):
        p, m = bench(N=8, eps=1e-8)
        d = DeltaField(DeltaVariant.MODIFIED, 0.5)
        s1 = assemble_system(m, p, d)
        s2 = assemble_system(m, p, d)
        assert (s1.matrix != s2.matrix).nnz == 0
        assert np.array_equal(s1.rhs, s2.rhs)

    def test_dimension(self):
        p, m = bench(N=8, eps=1e-8)
        d = DeltaField(DeltaVariant.STANDARD, 0.5)
        assert assemble_system(m, p, d).matrix.shape == (49, 49)
