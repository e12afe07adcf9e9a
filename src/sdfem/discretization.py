"""Q1 finite element machinery: the cell-point kernel (geometry and basis
at reference points of a block of cell rows and columns), Gauss quadrature
and assembly of the stabilized system.

The matrix is built from a table of cell classes. The coefficients are
constants, so a cell's element matrix depends only on its two widths and on
delta at its quadrature points, and delta is a product of an x and a y
factor. On each axis, the cells whose width and delta factor at the
quadrature abscissae are bit-equal form one class: on a Shishkin mesh
coarse and fine for the standard delta, and for the modified one also the
last coarse strip, where the factor ramps down; more on a mesh that breaks
that pattern. The element matrices are computed once, on
one representative cell per pair of a row class and a column class. An
interior node's nine-point stencil depends only on the class pairs of the
columns left and right of it and of the rows below and above it, so it is
summed once per pair that occurs, and CSC data is one gather from those
stencils. Every entry goes through the floating-point operations, in the
order, of a cell-by-cell assembly, so the matrix is bit-identical to one.

The right-hand side depends on position through f. It is vectorized over
all quadrature points and cells of one row strip at a time, so each field
is evaluated once per strip and its temporaries stay small. The
accumulation order is fixed, so the assembled system is bit-reproducible
and does not depend on the strip height.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import sliding_window_view

from .mesh import ShishkinMesh2D
from .problem import ProblemSpec
from .stabilization import DeltaField

# local node order: (0,0), (1,0), (1,1), (0,1) in cell-corner coordinates
LOCAL_NODES = ((0, 0), (1, 0), (1, 1), (0, 1))

# Gauss orders of the matrix and the right-hand side; the source carries
# layer exponentials, so the right-hand side takes the higher one
MATRIX_ORDER, RHS_ORDER = 3, 5

# (cell, point) pairs per row strip of the quadrature loops: a strip's
# float64 temporaries take 512 KiB each
STRIP_CELLS = 65536


class QuadratureOrderTooLow(ValueError):
    pass


@dataclass(frozen=True)
class QuadratureRule:
    """One-dimensional quadrature rule on the reference interval [0, 1]."""

    points: np.ndarray
    weights: np.ndarray

    @classmethod
    @functools.cache
    def gauss(cls, order: int) -> "QuadratureRule":
        """Gauss-Legendre rule of `order` points, memoized per order; its
        arrays are read-only."""
        if order < 1:
            raise QuadratureOrderTooLow(f"quadrature order must be >= 1, got {order}")
        p, w = np.polynomial.legendre.leggauss(order)
        points, weights = 0.5 * (1.0 + p), 0.5 * w
        points.setflags(write=False)
        weights.setflags(write=False)
        return cls(points=points, weights=weights)


@dataclass(frozen=True)
class SparseSystem:
    matrix: sp.csc_matrix
    rhs: np.ndarray


@dataclass(frozen=True)
class CellPoint:
    """Every point (a, b) of a tensor rule on [0, 1]^2 mapped into every
    cell of a block of R cell rows and C cell columns (R = C = N for the
    whole mesh).

    Point (ia, ib) of the cell in the block's row r and column s sits at
    index [ia, ib, r, s] of a (Qa, Qb, R, C) array. The x-axis arrays X
    and SX have shape (Qa, 1, 1, C), the y-axis arrays Y and SY shape
    (1, Qb, R, 1), so a field of (X, Y) is evaluated on Qa*C + Qb*R
    abscissae and broadcast; WX is (1, C), WY (R, 1) and weight
    (Qa, Qb, R, C). The basis function of corner LOCAL_NODES[k] = (di, dj)
    is nx[di] * ny[dj], nx holding (Qa, 1, 1, 1) and ny (1, Qb, 1, 1)
    arrays; its physical gradient is (dphi_da[k] / WX, dphi_db[k] / WY).
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


def point_sum(values: np.ndarray) -> np.ndarray:
    """Sum a (Qa, Qb, R, C) array over its points, one after the other in
    CellPoint order (ia outermost), as a per-point loop would. numpy adds
    along the leading axis in order whenever R * C > 1, which every mesh
    strip (N >= 4) and every block of class representatives (at least two
    classes per axis) has."""
    return np.add.reduce(values.reshape(-1, *values.shape[2:]), axis=0)


def row_strips(N: int, points: int):
    """Slices of consecutive cell rows covering rows 0..N-1, each of
    STRIP_CELLS // (points * N) rows (at least one), so that a strip holds
    about STRIP_CELLS (cell, point) pairs of a rule with `points` points."""
    height = max(1, STRIP_CELLS // (points * N))
    return [slice(j, min(j + height, N)) for j in range(0, N, height)]


def cell_points(mesh: ShishkinMesh2D, rule: QuadratureRule,
                rows=slice(None), cols=slice(None)) -> CellPoint:
    """Map the tensor points of `rule` into every cell of the cell rows
    `rows` and columns `cols` (slices or index arrays), all points of the
    block in one CellPoint.

    Only the per-axis arrays are indexed, so every cell gets the same
    elementwise operations whatever block it falls in. Offsets come from
    the exact cell offsets, not from 1 - X, so layer-cell points stay
    distinct down to eps = 1e-16.
    """
    ax, ay = mesh.x_axis, mesh.y_axis
    WX = ax.cell_width[None, cols]
    WY = ay.cell_width[rows, None]
    a = rule.points[:, None, None, None]
    b = rule.points[None, :, None, None]
    return CellPoint(
        X=ax.cell_left[cols] + a * WX,
        Y=ay.cell_left[rows, None] + b * WY,
        SX=ax.cell_sigma_left[cols] - a * WX,
        SY=ay.cell_sigma_left[rows, None] - b * WY,
        WX=WX,
        WY=WY,
        weight=np.multiply.outer(rule.weights, rule.weights)[:, :, None, None] * (WX * WY),
        nx=(1.0 - a, a),
        ny=(1.0 - b, b),
    )


def _stencil_pattern(N: int):
    """Structure of the nine-point stencil on the (N-1)^2 interior dofs, dof
    (j-1)(N-1) + (i-1) for node (i, j); it is symmetric, so CSC and CSR alike.

    Returns (keep, indptr, indices): keep[j-1, i-1, oj+1, oi+1] tells
    whether node (i, j) couples to its neighbour (i+oi, j+oj), i.e. whether
    that neighbour is interior. Row-major order of keep is sorted index
    order.
    """
    n = N - 1
    offsets = np.arange(-1, 2)
    near = np.arange(n)[:, None] + offsets
    inside = (near >= 0) & (near < n)
    keep = inside[:, None, :, None] & inside[None, :, None, :]
    shift = (offsets[:, None] * n + offsets[None, :]).ravel().astype(np.int32)
    indices = (np.arange(n * n, dtype=np.int32)[:, None] + shift)[keep.reshape(n * n, 9)]
    indptr = np.zeros(n * n + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=(2, 3)).ravel(), out=indptr[1:])
    return keep, indptr, indices


def _cell_classes(width: np.ndarray, factor: np.ndarray):
    """Classes of the N cells along one axis: cells whose width and delta
    factor at each of the Q abscissae (factor is (Q, N), or (1, N) where it
    is constant on a cell) are bit-equal share a class. Returns (first,
    code): the first cell of each class and the class of every cell."""
    key = np.ascontiguousarray(np.column_stack((width, factor.T)))
    # each cell's key as one byte string, so that equal means bit-equal
    key = key.view(np.dtype((np.void, key.itemsize * key.shape[1]))).ravel()
    _, first, code = np.unique(key, return_index=True, return_inverse=True)
    return first, code


def _node_pairs(code: np.ndarray):
    """The class pairs (before, after) of the cells on either side of the
    N-1 interior nodes of one axis, each pair that occurs once. Returns
    ((before, after), pair): two arrays over the pairs, and every node's
    pair."""
    n = code.max() + 1
    pairs, pair = np.unique(code[:-1] * n + code[1:], return_inverse=True)
    return np.divmod(pairs, n), pair


def assemble_system(
    mesh: ShishkinMesh2D,
    problem: ProblemSpec,
    delta_field: DeltaField,
) -> SparseSystem:
    """Assemble matrix and right-hand side of the stabilized bilinear form
    with Gauss rules of MATRIX_ORDER and RHS_ORDER points per axis.

    Entry (k, l) is a_SD(phi_l, phi_k) with the -eps*Lap term dropped from
    the stabilization residual (it vanishes for Q1 on rectangles).
    Dirichlet rows/columns are eliminated. The matrix comes from the table
    of cell classes (module docstring), bit-identical to a cell-by-cell
    assembly; the right-hand side from a loop over row strips.
    """
    N = mesh.N
    eps, b1, b2, c = problem.epsilon, problem.b1, problem.b2, problem.c

    # matrix: the classes, from the abscissae of every column and every row
    # (blocks without rows or columns carry no weights)
    rule = QuadratureRule.gauss(MATRIX_ORDER)
    dx, dy = delta_field.axis_factors(mesh, slice(None), slice(None),
                                      cell_points(mesh, rule, rows=slice(0)).X,
                                      cell_points(mesh, rule, cols=slice(0)).Y)
    rep_cols, col_class = _cell_classes(mesh.x_axis.cell_width, dx.reshape(-1, N))
    rep_rows, row_class = _cell_classes(mesh.y_axis.cell_width, dy.reshape(-1, N))

    # element matrices of one representative cell per (row, column) class
    Aloc = np.zeros((4, 4, rep_rows.size, rep_cols.size))
    p = cell_points(mesh, rule, rep_rows, rep_cols)
    phi = p.phi
    gx, gy = p.basis_gradients()
    dx, dy = delta_field.axis_factors(mesh, rep_rows, rep_cols, p.X, p.Y)
    dv = dx * dy
    conv = [b1 * gx[l] + b2 * gy[l] for l in range(4)]
    resid = [conv[l] + c * phi[l] for l in range(4)]
    for k in range(4):
        for l in range(4):
            Aloc[k, l] += point_sum(p.weight * (
                eps * (gx[l] * gx[k] + gy[l] * gy[k])
                + resid[l] * phi[k]
                + resid[l] * dv * conv[k]
            ))

    # Node (i, j) is corner k = (di, dj) of cell (i - di, j - dj): of the
    # cell after it (di = 0) or before it (di = 1) on the x axis, likewise
    # on the y axis. Block (k, l) couples node k to its neighbour at offset
    # (di_l - di_k, dj_l - dj_k); diagonals sum their four blocks in k
    # order, every other offset sums at most two. Nodes with the same row
    # pair and column pair share their stencil, so it is summed once for
    # them all.
    row_sides, row_pair = _node_pairs(row_class)
    col_sides, col_pair = _node_pairs(col_class)
    # [row pair, column pair, oj+1, oi+1]
    stencil = np.empty((row_pair.max() + 1, col_pair.max() + 1, 3, 3))
    filled = set()
    for k, (dik, djk) in enumerate(LOCAL_NODES):
        blocks = Aloc[k][:, row_sides[1 - djk][:, None], col_sides[1 - dik]]
        for l, (dil, djl) in enumerate(LOCAL_NODES):
            offset = (..., djl - djk + 1, dil - dik + 1)
            if offset in filled:
                stencil[offset] += blocks[l]
            else:
                stencil[offset] = blocks[l]
                filled.add(offset)
    # column (i, j) holds row (i+oi, j+oj)'s stencil entry at (-oi, -oj)
    rows = sliding_window_view(np.pad(row_pair, 1), 3)[:, None, :, None]
    cols = sliding_window_view(np.pad(col_pair, 1), 3)[None, :, None, :]
    keep, indptr, indices = _stencil_pattern(N)
    data = stencil[rows, cols, 2 - np.arange(3)[:, None], 2 - np.arange(3)][keep]
    n = N - 1
    A = sp.csc_matrix((data, indices, indptr), shape=(n * n, n * n))

    # right-hand side
    Floc = np.zeros((4, N, N))
    rule = QuadratureRule.gauss(RHS_ORDER)
    for rows in row_strips(N, RHS_ORDER**2):
        F_rows = Floc[:, rows]
        p = cell_points(mesh, rule, rows)
        phi = p.phi
        gx, gy = p.basis_gradients()
        dx, dy = delta_field.axis_factors(mesh, rows, slice(None), p.X, p.Y)
        dv = dx * dy
        fv = problem.f(p.X, p.Y, p.SX, p.SY)
        for k in range(4):
            F_rows[k] += point_sum(p.weight * fv * (phi[k] + dv * (b1 * gx[k] + b2 * gy[k])))

    # the interior nodes' corner-k entries are the [1-dj:N-dj, 1-di:N-di]
    # slice of a per-cell array
    F = np.zeros((n, n))
    for k, (di, dj) in enumerate(LOCAL_NODES):
        F += Floc[k, 1 - dj:N - dj, 1 - di:N - di]

    return SparseSystem(matrix=A, rhs=F.ravel())
