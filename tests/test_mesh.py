import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import OutOfDomain, classify_point
from sdfem.mesh import AxisSpec, InvalidSpec, RegionSel, build_axis, build_mesh, dump_mesh

PARTITION = (RegionSel.OMEGA_S_EPS, RegionSel.OMEGA_S_EPS_COMPLEMENT,
             RegionSel.OMEGA_X, RegionSel.OMEGA_Y, RegionSel.OMEGA_XY)


def bench_mesh(N=8, eps=1e-8):
    return build_mesh(AxisSpec(N=N, epsilon=eps, beta=2.0), AxisSpec(N=N, epsilon=eps, beta=1.0))


class TestAxisSpec:
    def test_frozen_geometry_values(self):
        # hand-evaluated lambda = 2.5*(eps/beta)*ln N and the two step sizes
        spec = AxisSpec(N=8, epsilon=1e-2, beta=2.0)
        lam = 2.5 * (1e-2 / 2.0) * math.log(8)
        assert spec.transition_width == pytest.approx(0.0259930, abs=5e-8)
        assert spec.transition_width == pytest.approx(lam, rel=1e-15)
        axis = build_axis(spec)
        assert axis.H == pytest.approx(0.2435017, abs=5e-8)
        h = axis.cell_width[-1]
        assert h == pytest.approx(0.0064983, abs=5e-8)
        assert axis.H == pytest.approx((1.0 - lam) / 4.0, rel=1e-15)
        assert h == pytest.approx(lam / 4.0, rel=1e-15)

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpec):
            AxisSpec(N=4, epsilon=0.0, beta=2.0)
        with pytest.raises(InvalidSpec):
            AxisSpec(N=7, epsilon=1e-4, beta=2.0)  # odd
        with pytest.raises(InvalidSpec):
            AxisSpec(N=2, epsilon=1e-4, beta=2.0)  # too small
        with pytest.raises(InvalidSpec):
            AxisSpec(N=8, epsilon=0.5, beta=2.0)  # eps > 1/N
        with pytest.raises(InvalidSpec):
            AxisSpec(N=8, epsilon=1e-4, beta=-1.0)

    def test_tiny_eps_offsets_distinct(self):
        # absolute coordinates 1 - sigma_i collide in double precision,
        # the offsets themselves must stay exact and strictly decreasing
        axis = build_axis(AxisSpec(N=8, epsilon=1e-16, beta=2.0))
        h, fine_offsets = axis.cell_width[-1], axis.node_sigma[4:]
        assert h == pytest.approx(fine_offsets[0] / 4.0, rel=1e-15)
        assert h < 1e-16
        assert np.all(np.diff(fine_offsets) < 0)
        assert np.all(fine_offsets[:-1] > 0)  # last offset is x = 1 itself
        assert np.all(axis.cell_width > 0)


class TestAxis1D:
    def test_breakpoint_structure(self):
        axis = build_axis(AxisSpec(N=8, epsilon=1e-4, beta=2.0))
        coarse_points = axis.nodes[:5]
        assert coarse_points[0] == 0.0
        assert axis.transition_point == coarse_points[-1]
        assert axis.strip_point == coarse_points[-2]
        assert axis.transition_point - axis.strip_point == pytest.approx(axis.H, rel=1e-12)
        # widths partition [0, 1]
        assert float(np.sum(axis.cell_width)) == pytest.approx(1.0, abs=1e-13)
        assert len(axis.nodes) == 9

    @settings(max_examples=25, deadline=None)
    @given(
        N=st.sampled_from([4, 8, 16, 32, 64]),
        loge=st.integers(min_value=-16, max_value=-2),
        beta=st.sampled_from([0.5, 1.0, 2.0]),
    )
    def test_axis_invariants(self, N, loge, beta):
        eps = 10.0**loge
        if eps > 1.0 / N:
            eps = 1.0 / N
        spec = AxisSpec(N=N, epsilon=eps, beta=beta)
        axis = build_axis(spec)
        assert np.all(np.diff(axis.nodes[: N // 2 + 1]) > 0)
        assert np.all(np.diff(axis.node_sigma[N // 2 :]) < 0)
        assert axis.cell_width.shape == (N,)
        assert float(np.sum(axis.cell_width)) == pytest.approx(1.0, abs=1e-12)
        # coarse widths all H, fine widths all h
        assert np.allclose(axis.cell_width[: N // 2], axis.H, rtol=1e-12)
        assert np.allclose(axis.cell_width[N // 2 :], axis.lam / (N // 2), rtol=1e-12)


class TestMesh2D:
    def test_region_counts(self):
        mesh = bench_mesh(N=8)
        codes = {reg: int(mesh.region_mask(reg).sum()) for reg in PARTITION}
        assert codes == {
            RegionSel.OMEGA_S_EPS: 9,
            RegionSel.OMEGA_S_EPS_COMPLEMENT: 7,
            RegionSel.OMEGA_X: 16,
            RegionSel.OMEGA_Y: 16,
            RegionSel.OMEGA_XY: 16,
        }

    def test_region_masks_partition(self):
        mesh = bench_mesh(N=16)
        masks = [
            mesh.region_mask(RegionSel.OMEGA_S),
            mesh.region_mask(RegionSel.OMEGA_X),
            mesh.region_mask(RegionSel.OMEGA_Y),
            mesh.region_mask(RegionSel.OMEGA_XY),
        ]
        assert np.array_equal(sum(m.astype(int) for m in masks), np.ones((16, 16), dtype=int))
        assert int(mesh.region_mask(RegionSel.GLOBAL).sum()) == 16 * 16
        inner = mesh.region_mask(RegionSel.OMEGA_S_EPS)
        strip = mesh.region_mask(RegionSel.OMEGA_S_EPS_COMPLEMENT)
        assert not (inner & strip).any()
        assert np.array_equal(inner | strip, masks[0])

    def test_strip_is_last_coarse_row_and_column(self):
        mesh = bench_mesh(N=8, eps=1e-4)
        ax = mesh.x_axis
        assert ax.transition_point - ax.strip_point == pytest.approx(ax.H, rel=1e-12)
        J, I = np.nonzero(mesh.region_mask(RegionSel.OMEGA_S_EPS_COMPLEMENT))
        strip_cells = set(zip(I.tolist(), J.tolist()))
        expected = {(i, 3) for i in range(4)} | {(3, j) for j in range(4)}
        assert strip_cells == expected

    def test_cell_areas_sum_to_one(self):
        mesh = bench_mesh(N=32, eps=1e-10)
        wx = mesh.x_axis.cell_width
        wy = mesh.y_axis.cell_width
        area = float(np.sum(np.outer(wy, wx)))
        assert area == pytest.approx(1.0, abs=1e-13)


class TestClassifyPoint:
    def test_center_and_layers(self):
        mesh = bench_mesh()
        assert classify_point(mesh, 0.5, 0.5) is RegionSel.OMEGA_S_EPS
        lam_x = mesh.x_axis.lam
        assert classify_point(mesh, 1.0 - lam_x / 2, 0.5, as_offsets=False) is RegionSel.OMEGA_X
        # offset form is exact for layer points
        assert classify_point(mesh, lam_x / 2, 0.5, as_offsets=True) is RegionSel.OMEGA_X
        assert classify_point(mesh, lam_x / 2, mesh.y_axis.lam / 2, as_offsets=True) is RegionSel.OMEGA_XY

    def test_transition_corner_tie_breaks_into_omega_s(self):
        mesh = bench_mesh()
        corner_t = (mesh.x_axis.transition_point, mesh.y_axis.transition_point)
        assert classify_point(mesh, *corner_t) is RegionSel.OMEGA_S_EPS_COMPLEMENT
        corner = (mesh.x_axis.strip_point, mesh.y_axis.strip_point)
        assert classify_point(mesh, *corner) is RegionSel.OMEGA_S_EPS

    @pytest.mark.parametrize("eps", [1e-4, 1e-16])
    def test_region_mask_agrees_at_cell_midpoints(self, eps):
        # layer-cell midpoints in offset form, which stays exact at eps=1e-16;
        # at N = 4 and 6 the interior of Omega_s is 1x1 and 2x2 cells
        for N in (4, 6, 16):
            mesh = bench_mesh(N=N, eps=eps)
            ax, ay = mesh.x_axis, mesh.y_axis
            half = N // 2
            masks = {reg: mesh.region_mask(reg) for reg in PARTITION}
            for j in range(N):
                for i in range(N):
                    if i < half and j < half:
                        x = ax.cell_left[i] + 0.5 * ax.cell_width[i]
                        y = ay.cell_left[j] + 0.5 * ay.cell_width[j]
                        got = classify_point(mesh, x, y)
                    else:
                        sx = ax.cell_sigma_left[i] - 0.5 * ax.cell_width[i]
                        sy = ay.cell_sigma_left[j] - 0.5 * ay.cell_width[j]
                        got = classify_point(mesh, sx, sy, as_offsets=True)
                    assert [reg for reg in PARTITION if masks[reg][j, i]] == [got], (N, i, j)

    def test_out_of_domain(self):
        mesh = bench_mesh()
        with pytest.raises(OutOfDomain):
            classify_point(mesh, -0.1, 0.5)
        with pytest.raises(OutOfDomain):
            classify_point(mesh, 0.5, 1.5)


class TestDump:
    def test_dump_round_trips_offsets(self):
        mesh = bench_mesh(N=8, eps=1e-16)
        text = dump_mesh(mesh)
        lines = text.strip().splitlines()
        assert len(lines) == 2 * 9
        offs = [float(l.split()[-1]) for l in lines if l.split()[2] == "offset" and l.startswith("x")]
        assert offs == sorted(offs, reverse=True)
        assert offs[-1] == 0.0
