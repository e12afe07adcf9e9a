"""Independent brute-force oracles used by the unit and acceptance tests.

Everything here is written from first principles on purpose: plain nested
loops, dense matrices and high-order Gauss quadrature, sharing no code with
the vectorized assembly and error norms under test.
"""
import math

import numpy as np

from sdfem.mesh import RegionSel
from sdfem.stabilization import DeltaVariant

CORNERS = ((0, 0), (1, 0), (1, 1), (0, 1))


class OutOfDomain(ValueError):
    """Point lies outside the closed unit square."""


def classify_point(mesh, x, y, as_offsets=False):
    """Partitioning region containing the point (x, y), decided by comparing
    coordinates with the mesh's breakpoints; ties on interfaces resolve
    toward Omega_s and, inside it, toward OMEGA_S_EPS.

    With as_offsets=True the inputs are (1-x, 1-y), which is the exact
    representation for layer-region points.
    """
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise OutOfDomain(f"point outside the unit square: ({x}, {y}), offsets={as_offsets}")
    if as_offsets:
        # exact offset comparisons against the exact layer widths
        in_sx = x >= mesh.x_axis.lam
        in_sy = y >= mesh.y_axis.lam
        inner = (x >= mesh.x_axis.lam + mesh.x_axis.H
                 and y >= mesh.y_axis.lam + mesh.y_axis.H)
    else:
        # compare against the stored breakpoints so x = x_t ties exactly
        in_sx = x <= mesh.x_axis.transition_point
        in_sy = y <= mesh.y_axis.transition_point
        inner = x <= mesh.x_axis.strip_point and y <= mesh.y_axis.strip_point
    if in_sx and in_sy:
        return RegionSel.OMEGA_S_EPS if inner else RegionSel.OMEGA_S_EPS_COMPLEMENT
    if in_sy:
        return RegionSel.OMEGA_X
    if in_sx:
        return RegionSel.OMEGA_Y
    return RegionSel.OMEGA_XY


def delta_at(mesh, variant, c_star, i, j, x, y):
    """Stabilization parameter at (x, y) inside cell (i, j): C*/N on the
    coarse cells, ramped by (x_t - x)/H and (y_t - y)/H across the last
    coarse strip for the modified variant, 0 on the layer cells."""
    N = mesh.N
    if not (i < N // 2 and j < N // 2):
        return 0.0
    base = c_star / N
    if variant is DeltaVariant.STANDARD:
        return base
    ax, ay = mesh.x_axis, mesh.y_axis
    xi = 1.0 if x <= ax.strip_point else (ax.transition_point - x) / ax.H
    eta = 1.0 if y <= ay.strip_point else (ay.transition_point - y) / ay.H
    return base * xi * eta


def _interior_dof(N, i, j):
    if 1 <= i <= N - 1 and 1 <= j <= N - 1:
        return (j - 1) * (N - 1) + (i - 1)
    return None


def _bilinear_basis(ta, tb, wx, wy):
    """Values and physical gradients of the four corner basis functions at
    the relative position (ta, tb) in [0, 1]^2 of a wx x wy cell."""
    nx = (1.0 - ta, ta)
    ny = (1.0 - tb, tb)
    dnx = (-1.0 / wx, 1.0 / wx)
    dny = (-1.0 / wy, 1.0 / wy)
    phi = [nx[di] * ny[dj] for di, dj in CORNERS]
    gx = [dnx[di] * ny[dj] for di, dj in CORNERS]
    gy = [nx[di] * dny[dj] for di, dj in CORNERS]
    return phi, gx, gy


def dense_sdfem_matrix(mesh, problem, variant, c_star, quad_order=10):
    """Dense stiffness matrix of the stabilized bilinear form by per-cell
    tensor Gauss quadrature over all interior basis pairs."""
    N = mesh.N
    eps = problem.epsilon
    # cell geometry from the mesh's exact representation: absolute node
    # differences lose ~1e-8 relative accuracy in the layer for small eps
    left_x, width_x = mesh.x_axis.cell_left, mesh.x_axis.cell_width
    left_y, width_y = mesh.y_axis.cell_left, mesh.y_axis.cell_width
    p1, w1 = np.polynomial.legendre.leggauss(quad_order)

    ndofs = (N - 1) ** 2
    A = np.zeros((ndofs, ndofs))
    for j in range(N):
        for i in range(N):
            x0, y0 = left_x[i], left_y[j]
            wx, wy = width_x[i], width_y[j]
            loc = np.zeros((4, 4))
            for a in range(quad_order):
                for b in range(quad_order):
                    ta = 0.5 * (1.0 + p1[a])
                    tb = 0.5 * (1.0 + p1[b])
                    x = x0 + ta * wx
                    y = y0 + tb * wy
                    wq = w1[a] * w1[b] * wx * wy / 4.0
                    b1v, b2v, cv = problem.b1, problem.b2, problem.c
                    dv = delta_at(mesh, variant, c_star, i, j, x, y)
                    phi, gx, gy = _bilinear_basis(ta, tb, wx, wy)
                    for k in range(4):
                        conv_k = b1v * gx[k] + b2v * gy[k]
                        for l in range(4):
                            conv_l = b1v * gx[l] + b2v * gy[l]
                            resid_l = conv_l + cv * phi[l]
                            loc[k, l] += wq * (
                                eps * (gx[l] * gx[k] + gy[l] * gy[k])
                                + resid_l * phi[k]
                                + resid_l * dv * conv_k
                            )
            for k, (di, dj) in enumerate(CORNERS):
                row = _interior_dof(N, i + di, j + dj)
                if row is None:
                    continue
                for l, (dl, dm) in enumerate(CORNERS):
                    col = _interior_dof(N, i + dl, j + dm)
                    if col is not None:
                        A[row, col] += loc[k, l]
    return A


def dense_sdfem_rhs(mesh, problem, variant, c_star, quad_order=5):
    """Right-hand side (f, v + delta b.grad v) by per-cell tensor Gauss
    quadrature. The source is evaluated with the exact offsets 1 - x, 1 - y
    taken from the cells' left offsets, as the layer exponentials need."""
    N = mesh.N
    left_x, width_x = mesh.x_axis.cell_left, mesh.x_axis.cell_width
    left_y, width_y = mesh.y_axis.cell_left, mesh.y_axis.cell_width
    sigma_x, sigma_y = mesh.x_axis.cell_sigma_left, mesh.y_axis.cell_sigma_left
    p1, w1 = np.polynomial.legendre.leggauss(quad_order)

    F = np.zeros((N - 1) ** 2)
    for j in range(N):
        for i in range(N):
            wx, wy = width_x[i], width_y[j]
            loc = np.zeros(4)
            for a in range(quad_order):
                for b in range(quad_order):
                    ta = 0.5 * (1.0 + p1[a])
                    tb = 0.5 * (1.0 + p1[b])
                    x = left_x[i] + ta * wx
                    y = left_y[j] + tb * wy
                    sx = sigma_x[i] - ta * wx
                    sy = sigma_y[j] - tb * wy
                    wq = w1[a] * w1[b] * wx * wy / 4.0
                    b1v, b2v = problem.b1, problem.b2
                    fv = float(sum(fx(x, sx) * fy(y, sy) for fx, fy in problem.f_terms))
                    dv = delta_at(mesh, variant, c_star, i, j, x, y)
                    phi, gx, gy = _bilinear_basis(ta, tb, wx, wy)
                    for k in range(4):
                        loc[k] += wq * fv * (phi[k] + dv * (b1v * gx[k] + b2v * gy[k]))
            for k, (di, dj) in enumerate(CORNERS):
                row = _interior_dof(N, i + di, j + dj)
                if row is not None:
                    F[row] += loc[k]
    return F


def _benchmark_solution(x, y, sx, sy, eps):
    """u = 2 sin(x) (1 - exp(-2 sx/eps)) * y^2 (1 - exp(-sy/eps)) and its
    gradient at (x, y), with the offsets sx = 1 - x and sy = 1 - y given
    exactly."""
    ex, ey = math.exp(-2.0 * sx / eps), math.exp(-sy / eps)
    mx, my = -math.expm1(-2.0 * sx / eps), -math.expm1(-sy / eps)
    g = 2.0 * math.sin(x) * mx
    dg = 2.0 * math.cos(x) * mx - 4.0 / eps * math.sin(x) * ex
    w = y * y * my
    dw = 2.0 * y * my - y * y / eps * ey
    return g * w, dg * w, g * dw


# the regions that partition the cells, and those that are unions of them
_PARTITION = (RegionSel.OMEGA_S_EPS, RegionSel.OMEGA_S_EPS_COMPLEMENT,
              RegionSel.OMEGA_X, RegionSel.OMEGA_Y, RegionSel.OMEGA_XY)
_UNIONS = {RegionSel.GLOBAL: _PARTITION, RegionSel.OMEGA_S: _PARTITION[:2]}


def dense_error_components(mesh, problem, values, variant, c_star, use_exact=True,
                           quad_order=5):
    """Error-norm components (eps*|e|_1^2, c*||e||^2, ||delta^(1/2) b.grad e||^2)
    of e = u - u_h on every region, by per-cell tensor Gauss quadrature.

    u is the benchmark solution (written out here from its formula, in
    offsets), or 0 with use_exact=False, which gives the norms of u_h
    itself; u_h is bilinear with nodal values values[i, j] at (x_i, y_j).
    Each cell goes to the region of its midpoint, in offsets. Returns
    {RegionSel: (eg, ml, st)} for every region."""
    N = mesh.N
    ax, ay = mesh.x_axis, mesh.y_axis
    p1, w1 = np.polynomial.legendre.leggauss(quad_order)
    parts = {r: np.zeros(3) for r in _PARTITION}
    for j in range(N):
        for i in range(N):
            wx, wy = ax.cell_width[i], ay.cell_width[j]
            corners = [values[i + di, j + dj] for di, dj in CORNERS]
            eg = ml = st = 0.0
            for a in range(quad_order):
                for b in range(quad_order):
                    ta = 0.5 * (1.0 + p1[a])
                    tb = 0.5 * (1.0 + p1[b])
                    x = ax.cell_left[i] + ta * wx
                    y = ay.cell_left[j] + tb * wy
                    sx = ax.cell_sigma_left[i] - ta * wx
                    sy = ay.cell_sigma_left[j] - tb * wy
                    u, ux, uy = (_benchmark_solution(x, y, sx, sy, problem.epsilon)
                                 if use_exact else (0.0, 0.0, 0.0))
                    phi, gx, gy = _bilinear_basis(ta, tb, wx, wy)
                    e = u - sum(c * f for c, f in zip(corners, phi))
                    ex = ux - sum(c * f for c, f in zip(corners, gx))
                    ey = uy - sum(c * f for c, f in zip(corners, gy))
                    wq = w1[a] * w1[b] * wx * wy / 4.0
                    dv = delta_at(mesh, variant, c_star, i, j, x, y)
                    conv = problem.b1 * ex + problem.b2 * ey
                    eg += wq * (ex * ex + ey * ey)
                    ml += wq * e * e
                    st += wq * dv * conv * conv
            region = classify_point(mesh, ax.cell_sigma_left[i] - 0.5 * wx,
                                    ay.cell_sigma_left[j] - 0.5 * wy, as_offsets=True)
            parts[region] += (problem.epsilon * eg, problem.c * ml, st)
    for union, members in _UNIONS.items():
        parts[union] = sum(parts[r] for r in members)
    return {r: tuple(parts[r]) for r in RegionSel}
