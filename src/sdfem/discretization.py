"""Q1 finite element machinery: the cell-point kernel (geometry and basis
at reference points of every cell), Gauss quadrature and assembly of the
stabilized system.

Assembly is vectorized over cells; the accumulation order is fixed, so the
assembled system is bit-reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import RegionSel, ShishkinMesh2D
from .problem import ProblemSpec
from .stabilization import DeltaField

# local node order: (0,0), (1,0), (1,1), (0,1) in cell-corner coordinates
LOCAL_NODES = ((0, 0), (1, 0), (1, 1), (0, 1))


class QuadratureOrderTooLow(ValueError):
    pass


class MeshProblemMismatch(ValueError):
    pass


@dataclass(frozen=True)
class QuadratureRule:
    """One-dimensional quadrature rule on the reference interval [0, 1]."""

    points: np.ndarray
    weights: np.ndarray

    @classmethod
    def gauss(cls, order: int) -> "QuadratureRule":
        if order < 1:
            raise QuadratureOrderTooLow(f"quadrature order must be >= 1, got {order}")
        p, w = np.polynomial.legendre.leggauss(order)
        return cls(points=0.5 * (1.0 + p), weights=0.5 * w)


@dataclass(frozen=True)
class SparseSystem:
    matrix: sp.csr_matrix
    rhs: np.ndarray

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class CellPoint:
    """One reference point (a, b) of [0, 1]^2 mapped into every cell.

    Cell (i, j) sits at index [j, i] of an (N, N) array. The x-axis arrays
    X, SX and WX have shape (1, N) and the y-axis arrays Y, SY and WY shape
    (N, 1), so a field of (X, Y) is evaluated on N abscissae per axis and
    broadcast to (N, N); weight is (N, N). The basis function of corner
    LOCAL_NODES[k] = (di, dj) is nx[di] * ny[dj]; its physical gradient is
    (dphi_da[k] / WX, dphi_db[k] / WY).
    """

    X: np.ndarray
    Y: np.ndarray
    SX: np.ndarray  # exact offsets 1 - X
    SY: np.ndarray
    WX: np.ndarray  # cell widths, the scaling of the reference derivatives
    WY: np.ndarray
    weight: np.ndarray  # quadrature weight times cell area
    nx: tuple  # 1-D factors (1 - a, a)
    ny: tuple  # 1-D factors (1 - b, b)

    @property
    def phi(self) -> tuple:
        return tuple(self.nx[di] * self.ny[dj] for di, dj in LOCAL_NODES)

    @property
    def dphi_da(self) -> tuple:
        return tuple((-1.0, 1.0)[di] * self.ny[dj] for di, dj in LOCAL_NODES)

    @property
    def dphi_db(self) -> tuple:
        return tuple(self.nx[di] * (-1.0, 1.0)[dj] for di, dj in LOCAL_NODES)

    def basis_gradients(self):
        """Physical gradients (gx, gy) of the four basis functions."""
        return [d / self.WX for d in self.dphi_da], [d / self.WY for d in self.dphi_db]

    def value(self, c):
        """Value of the Q1 function with per-cell corner values c
        (LOCAL_NODES order)."""
        nx, ny = self.nx, self.ny
        return (c[0] * nx[0] * ny[0] + c[1] * nx[1] * ny[0]
                + c[2] * nx[1] * ny[1] + c[3] * nx[0] * ny[1])

    def gradient(self, c):
        """Physical gradient of the same function. Corner differences are
        taken first; they are exact for nearby values, the layer case."""
        nx, ny = self.nx, self.ny
        gx = ((c[1] - c[0]) * ny[0] + (c[2] - c[3]) * ny[1]) / self.WX
        gy = ((c[3] - c[0]) * nx[0] + (c[2] - c[1]) * nx[1]) / self.WY
        return gx, gy


def cell_points(mesh: ShishkinMesh2D, rule: QuadratureRule):
    """Map the tensor points of `rule` into every cell, one CellPoint per
    point pair, the x reference coordinate outermost.

    Offsets come from the exact cell offsets, not from 1 - X, so layer-cell
    points stay distinct down to eps = 1e-16.
    """
    ax, ay = mesh.x_axis, mesh.y_axis
    WX = ax.cell_width[None, :]
    WY = ay.cell_width[:, None]
    LX, SLX = ax.cell_left[None, :], ax.cell_sigma_left[None, :]
    LY, SLY = ay.cell_left[:, None], ay.cell_sigma_left[:, None]
    area = WX * WY
    # coordinates depend on one reference coordinate only
    ys = [(LY + b * WY, SLY - b * WY) for b in rule.points]
    for a, wa in zip(rule.points, rule.weights):
        X, SX = LX + a * WX, SLX - a * WX
        for b, wb, (Y, SY) in zip(rule.points, rule.weights, ys):
            yield CellPoint(
                X=X,
                Y=Y,
                SX=SX,
                SY=SY,
                WX=WX,
                WY=WY,
                weight=wa * wb * area,
                nx=(1.0 - a, a),
                ny=(1.0 - b, b),
            )


def assemble_system(
    mesh: ShishkinMesh2D,
    problem: ProblemSpec,
    delta_field: DeltaField,
    quad_order: int = 3,
    rhs_quad_order: int = 5,
) -> SparseSystem:
    """Assemble matrix and right-hand side of the stabilized bilinear form.

    Entry (k, l) is a_SD(phi_l, phi_k) with the -eps*Lap term dropped from
    the stabilization residual (it vanishes for Q1 on rectangles). The
    right-hand side uses a higher default order because the source carries
    layer exponentials. Dirichlet rows/columns are eliminated.
    """
    if quad_order < 2:
        raise QuadratureOrderTooLow(f"quad_order must be >= 2, got {quad_order}")
    if not delta_field.matches(mesh):
        raise MeshProblemMismatch("delta field was built on a different mesh")

    N = mesh.N
    eps = problem.epsilon
    in_omega_s = mesh.region_mask(RegionSel.OMEGA_S)

    # dof of node (i, j) at [j, i]; -1 on the Dirichlet boundary
    node_dof = np.full((N + 1, N + 1), -1, dtype=np.int64)
    node_dof[1:N, 1:N] = np.arange((N - 1) ** 2).reshape(N - 1, N - 1)
    dof = np.stack([node_dof[dj:dj + N, di:di + N] for di, dj in LOCAL_NODES])
    interior = dof >= 0

    # matrix
    Aloc = np.zeros((4, 4, N, N))
    for p in cell_points(mesh, QuadratureRule.gauss(quad_order)):
        phi = p.phi
        gx, gy = p.basis_gradients()
        b1v = problem.b1(p.X, p.Y)
        b2v = problem.b2(p.X, p.Y)
        cv = problem.c(p.X, p.Y)
        dv = delta_field.evaluate_cells(in_omega_s, p.X, p.Y)
        conv = [b1v * gx[l] + b2v * gy[l] for l in range(4)]
        resid = [conv[l] + cv * phi[l] for l in range(4)]
        for k in range(4):
            for l in range(4):
                Aloc[k, l] += p.weight * (
                    eps * (gx[l] * gx[k] + gy[l] * gy[k])
                    + resid[l] * phi[k]
                    + resid[l] * dv * conv[k]
                )

    # right-hand side
    Floc = np.zeros((4, N, N))
    for p in cell_points(mesh, QuadratureRule.gauss(max(rhs_quad_order, quad_order))):
        phi = p.phi
        gx, gy = p.basis_gradients()
        b1v = problem.b1(p.X, p.Y)
        b2v = problem.b2(p.X, p.Y)
        dv = delta_field.evaluate_cells(in_omega_s, p.X, p.Y)
        fv = problem.f(p.X, p.Y, p.SX, p.SY)
        for k in range(4):
            Floc[k] += p.weight * fv * (phi[k] + dv * (b1v * gx[k] + b2v * gy[k]))

    ndofs = (N - 1) ** 2
    rows, cols, data = [], [], []
    for k in range(4):
        for l in range(4):
            mask = interior[k] & interior[l]
            rows.append(dof[k][mask])
            cols.append(dof[l][mask])
            data.append(Aloc[k, l][mask])
    A = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(ndofs, ndofs),
    ).tocsr()
    A.sum_duplicates()
    A.sort_indices()

    F = np.zeros(ndofs)
    for k in range(4):
        m = interior[k]
        np.add.at(F, dof[k][m], Floc[k][m])

    return SparseSystem(matrix=A, rhs=F)

