"""Q1 finite element machinery: the per-axis quadrature kernel and
assembly of the stabilized system.

The matrix is built from a table of cell classes. The coefficients are
constants, so a cell's element matrix depends only on its two widths and on
delta at its quadrature points, and delta is a product of an x and a y
factor. On each axis, the cells whose width and delta factor at the
quadrature abscissae are bit-equal form one class: on a Shishkin mesh
coarse and fine for the standard delta, and for the modified one also the
last coarse strip, where the factor ramps down; more on a mesh that breaks
that pattern. The element matrices are computed once, on one
representative cell per pair of a row class and a column class, all in
one expression (_element_matrices) from the per-axis layouts that key the
classes: the cell widths and delta's factors, with the hat function's
halves along each axis. Each interior node's column of the matrix is
summed from the element matrices of its four cells' classes, and the CSC
matrix is gathered from those columns. Every entry goes through the
floating-point operations, in the order, of a cell-by-cell assembly, so
the matrix is bit-identical to one.

The dofs are numbered in nested-dissection order (nested_dissection), a
fill-reducing order, so that both factorizations of the solver read the
matrix in place as it is assembled; SparseSystem.dofs maps them to nodes.

The right-hand side is sum-factorized (Orszag, J. Comput. Phys. 37, 1980).
The source is a sum of x*y terms (ProblemSpec.f_terms), and the basis
functions, their gradients and delta are x*y products too, so the 5x5
Gauss sum of each term against a test function factors into 5-point sums
along each axis, and so does the sum over the four cells of a node. Each
source factor is evaluated once, on the abscissae of every cell of its
axis, and AxisQuadrature.sums adds its products with the hat function's
halves and derivative over the points in order. Every node's load is then
a sum of six products of an x and a y sum, added in a fixed order; neither
step uses BLAS, so the assembled system is bit-reproducible.
"""
from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import ShishkinMesh2D
from .problem import ProblemSpec
from .stabilization import DeltaField

# local node order: (0,0), (1,0), (1,1), (0,1) in cell-corner coordinates
LOCAL_NODES = ((0, 0), (1, 0), (1, 1), (0, 1))

# Gauss orders of the matrix and the right-hand side; the source carries
# layer exponentials, so the right-hand side takes the higher one
MATRIX_ORDER, RHS_ORDER = 3, 5

# matrix entries per block of the gather: a block's float64 temporaries
# take 512 KiB each
GATHER_BLOCK = 65536


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
    """The assembled system. Its dof c is the natural interior dof dofs[c];
    dof (j-1)(N-1) + (i-1) is node (i, j)."""

    matrix: sp.csc_matrix
    rhs: np.ndarray
    dofs: np.ndarray
    rhs_time: float | None = None  # wall time of assemble_system's right-hand side stage


def point_sum(values: np.ndarray) -> np.ndarray:
    """Sum a (Qa, Qb, ...) array over its points, one after the other (ia
    outermost), as a per-point loop would. In C order (a copy where it is
    not) the points are the outermost axis, and with more than one entry
    behind each point (the element matrices' k and l alone hold 16) numpy
    adds along it in order, never pairwise."""
    values = np.ascontiguousarray(values)
    return np.add.reduce(values.reshape(-1, *values.shape[2:]), axis=0)


def axis_abscissae(axis, points: np.ndarray):
    """The reference points `points` of [0, 1] mapped into every cell of a
    mesh axis: the abscissae and their exact offsets 1 - x, each [point,
    cell]. Offsets come from the exact cell offsets, not from 1 - x, so
    layer-cell points stay distinct down to eps = 1e-16."""
    step = points[:, None] * axis.cell_width
    return axis.cell_left + step, axis.cell_sigma_left - step


class AxisQuadrature:
    """A 1-D rule in every cell of the mesh axis `line` (axis 0 for x, 1 for
    y): the abscissae X and exact offsets S [point, cell] (axis_abscissae),
    the cell widths and delta's factor there (DeltaField.axis_factor)."""

    def __init__(self, mesh: ShishkinMesh2D, axis: int, rule: QuadratureRule,
                 delta_field: DeltaField):
        self.line = line = (mesh.x_axis, mesh.y_axis)[axis]
        self.rule = rule
        self.X, self.S = axis_abscissae(line, rule.points)
        self.width = line.cell_width
        self.delta = delta_field.axis_factor(mesh, axis, self.X)

    def sums(self, fun: np.ndarray, plain_pairs, weighted_pairs):
        """The Gauss sums over every cell of the products fun[:, m] *
        fun[:, k] of per-axis functions at the abscissae, fun [point,
        function, cell]: plain for (m, k) in `plain_pairs` and weighted by
        delta's factor for (m, k) in `weighted_pairs`, two [pair, cell]
        arrays of sums on the reference cell (times the cell width,
        integrals). Each is (w * F)[* delta] * G added over the points in
        order, without BLAS, so its bits do not depend on the BLAS build."""
        wf = self.rule.weights[:, None, None] * fun
        (m, k), (wm, wk) = np.transpose(plain_pairs), np.transpose(weighted_pairs)
        return (np.add.reduce(wf[:, m] * fun[:, k], axis=0),
                np.add.reduce(wf[:, wm] * self.delta[..., None, :] * fun[:, wk], axis=0))


def _element_matrices(rule: QuadratureRule, wx: np.ndarray, wy: np.ndarray, dv,
                      eps: float, b1: float, b2: float, c: float) -> np.ndarray:
    """The element matrices [k, l, row, column] of the cells of widths
    wx[column] by wy[row], with delta dv at the points of `rule` (dv
    broadcast to [point a, point b, k, l, row, column]); entry (k, l) is
    a_SD(phi_l, phi_k). The basis function of corner LOCAL_NODES[k] =
    (di, dj) is the product of the hat halves (1 - t, t)[di] along x and
    [dj] along y, its gradient the slope -1 or +1 of a half over the width.
    The form is evaluated once, with k and l broadcast, and its points are
    added in order (point_sum), each entry's sum to zero, as a loop over
    (k, l) would."""
    t, w = rule.points, rule.weights
    di, dj = np.transpose(LOCAL_NODES)
    halves, slopes = np.array([1.0 - t, t]), np.array([-1.0, 1.0])
    # function k laid out along axis 2; swapping axes 2 and 3 lays it out as l
    nx = halves[di].T[:, None, :, None, None, None]
    ny = halves[dj].T[None, :, :, None, None, None]
    slope_x, slope_y = (s[:, None, None, None] for s in (slopes[di], slopes[dj]))
    phi = nx * ny
    gx, gy = slope_x * ny / wx, nx * slope_y / wy[:, None]
    conv = b1 * gx + b2 * gy
    resid = (conv + c * phi).swapaxes(2, 3)
    weight = np.multiply.outer(w, w)[:, :, None, None, None, None] * (wx * wy[:, None])
    return 0.0 + point_sum(weight * (
        eps * (gx.swapaxes(2, 3) * gx + gy.swapaxes(2, 3) * gy)
        + resid * phi
        + resid * dv * conv
    ))


@functools.cache
def nested_dissection(m: int) -> np.ndarray:
    """Nested-dissection order of the dofs 0..m-1 (m >= 1), laid out
    row-major on a grid of c = ceil(sqrt(m)) columns and ceil(m/c) rows; for
    an assembled system that is the (N-1) x (N-1) dof grid (George, SIAM J.
    Numer. Anal. 10, 1973). Indices >= m are dropped.

    Each box is cut at the middle line of its longer side (a column on a
    tie), and both halves are ordered before that separator line, down to
    single dofs. Returns perm, with perm[k] the dof placed k-th, as a
    read-only int32 array memoized per m.
    """
    c = math.isqrt(m - 1) + 1
    rows = -(-m // c)
    perm = np.empty(rows * c, dtype=np.int32)
    # the boxes of one bisection level: rows [r0, r1) x columns [c0, c1),
    # ordered into perm[start:start + area]
    r0, r1, c0, c1, start = (np.array([v]) for v in (0, rows, 0, c, 0))
    while r0.size:
        h, w = r1 - r0, c1 - c0
        cut_column = w >= h
        mid_r, mid_c = r0 + h // 2, c0 + w // 2
        # first half [r0, a_r1) x [c0, a_c1), second half [b_r0, r1) x [b_c0, c1)
        a_r1 = np.where(cut_column, r1, mid_r)
        a_c1 = np.where(cut_column, mid_c, c1)
        b_r0 = np.where(cut_column, r0, mid_r + 1)
        b_c0 = np.where(cut_column, mid_c + 1, c0)
        a_area = (a_r1 - r0) * (a_c1 - c0)
        b_area = (r1 - b_r0) * (c1 - b_c0)

        # the separator line, dof first + k * stride for k < length
        length = np.where(cut_column, h, w)
        first = np.where(cut_column, r0 * c + mid_c, mid_r * c + c0)
        stride = np.where(cut_column, c, 1)
        box = np.repeat(np.arange(r0.size), length)
        k = np.arange(box.size) - (np.cumsum(length) - length)[box]
        perm[start[box] + a_area[box] + b_area[box] + k] = first[box] + k * stride[box]

        halves = np.concatenate([a_area, b_area]) > 0
        r0, r1, c0, c1, start = (np.concatenate(pair)[halves] for pair in (
            (r0, b_r0), (a_r1, r1), (c0, b_c0), (a_c1, c1), (start, start + a_area)))
    perm = perm[perm < m]
    perm.setflags(write=False)
    return perm


def _cell_classes(width: np.ndarray, factor: np.ndarray):
    """Classes of the N cells along one axis: cells whose width and delta
    factor at each of the Q abscissae (factor is (Q, N), or (N,) where it
    is constant on a cell) are bit-equal share a class. Returns (first,
    code): the first cell of each class and the class of every cell."""
    key = np.ascontiguousarray(np.column_stack((width, factor.T)))
    # each cell's key as one byte string, so that equal means bit-equal
    key = key.view(np.dtype((np.void, key.itemsize * key.shape[1]))).ravel()
    _, first, code = np.unique(key, return_index=True, return_inverse=True)
    return first, code


def assemble_system(
    mesh: ShishkinMesh2D,
    problem: ProblemSpec,
    delta_field: DeltaField,
) -> SparseSystem:
    """Assemble matrix and right-hand side of the stabilized bilinear form
    with Gauss rules of MATRIX_ORDER and RHS_ORDER points per axis.

    Entry (k, l) is a_SD(phi_l, phi_k) with the -eps*Lap term dropped from
    the stabilization residual (it vanishes for Q1 on rectangles).
    Dirichlet rows/columns are eliminated, and the interior dofs come in
    nested-dissection order (SparseSystem.dofs). The matrix comes from the
    table of cell classes (module docstring), bit-identical to a
    cell-by-cell assembly; the right-hand side from per-axis Gauss sums
    of the source's terms (module docstring). SparseSystem.rhs_time is
    the wall time of the right-hand side stage.
    """
    N = mesh.N
    eps, b1, b2, c = problem.epsilon, problem.b1, problem.b2, problem.c

    # matrix: the classes, from the abscissae of every column and every row
    rule = QuadratureRule.gauss(MATRIX_ORDER)
    xq, yq = (AxisQuadrature(mesh, axis, rule, delta_field) for axis in (0, 1))
    (rep_cols, col_class), (rep_rows, row_class) = (_cell_classes(q.width, q.delta)
                                                    for q in (xq, yq))

    # element matrices of one representative cell per (row, column) class,
    # delta laid out as [point a, point b, k, l, row class, column class]
    dv = (xq.delta[..., None, None, None, None, rep_cols]
          * yq.delta[..., None, None, rep_rows, None])
    Aloc = _element_matrices(rule, xq.width[rep_cols], yq.width[rep_rows], dv, eps, b1, b2, c)

    # Node (i, j) is corner l = (di, dj) of cell (i - di, j - dj), so the
    # corner-l cells of the interior nodes are the [1-dj:N-dj, 1-di:N-di]
    # slice. Block (k, l) of those cells goes into the column of node
    # (i, j) at the row of its neighbour (i+oi, j+oj), offset (oi, oj) =
    # (di_k - di_l, dj_k - dj_l): column[oj+1, oi+1, j-1, i-1]. Diagonals
    # sum their four blocks in k order, every other entry at most two;
    # -0.0 is the exact additive identity, so the sums are those of a
    # cell-by-cell assembly.
    n = N - 1
    m = n * n
    column = np.full((3, 3, n, n), -0.0)
    for l, (dil, djl) in enumerate(LOCAL_NODES):
        rows, cols = row_class[1 - djl:N - djl], col_class[1 - dil:N - dil]
        for k, (dik, djk) in enumerate(LOCAL_NODES):
            column[djk - djl + 1, dik - dil + 1] += Aloc[k, l][rows][:, cols]
    column = column.reshape(9, m)
    # a neighbour is present unless it is a boundary node
    line = np.arange(n) + np.arange(-1, 2)[:, None]
    inside = (line >= 0) & (line < n)
    present = (inside[:, None, :, None] & inside[None, :, None, :]).reshape(9, m)
    # System dof c is the node of natural dof dofs[c] = (j-1)(N-1) + (i-1);
    # its column goes in the rows of its neighbours' system dofs. Blocks of
    # columns of about GATHER_BLOCK entries are gathered at a time, so no
    # temporary outgrows a block.
    dofs = nested_dissection(m)
    indptr = np.zeros(m + 1, dtype=np.int32)
    np.cumsum(present.sum(axis=0)[dofs], out=indptr[1:])
    data, indices = np.empty(indptr[-1]), np.empty(indptr[-1], dtype=np.int32)
    position = np.empty_like(dofs)
    position[dofs] = np.arange(m, dtype=np.int32)
    offsets = np.arange(-1, 2, dtype=np.int32)
    shift = (offsets[:, None] * n + offsets).ravel()
    width = max(1, GATHER_BLOCK // 9)
    for start in range(0, m, width):
        block = dofs[start:start + width]
        keep = present[:, block].T
        entries = slice(indptr[start], indptr[start + block.size])
        data[entries] = column[:, block].T[keep]
        indices[entries] = position[(block[:, None] + shift)[keep]]
    del column, present  # 81 bytes a node; free them before the right-hand side
    A = sp.csc_matrix((data, indices, indptr), shape=(m, m))
    A.sort_indices()  # canonical CSC, which splu would sort in place

    # right-hand side: a term fx*fy of f loads a node by three products of
    # an x and a y Gauss sum, for the test function's mass, b1*delta*d/dx
    # and b2*delta*d/dy parts
    started = time.perf_counter()
    rule = QuadratureRule.gauss(RHS_ORDER)
    t = rule.points[:, None]
    loads = []
    for axis, factors in enumerate(zip(*problem.f_terms)):
        q = AxisQuadrature(mesh, axis, rule, delta_field)
        # each factor against the hat's halves 1 - t and t and, weighted,
        # its derivative, whose 1/width cancels the cell's width
        T = len(factors)
        fun = np.empty((t.size, T + 3, N))
        fun[:, T], fun[:, T + 1], fun[:, T + 2] = 1.0 - t, t, 1.0
        for i, f in enumerate(factors):
            fun[:, i] = f(q.X, q.S)
        plain, weighted = q.sums(fun, [(i, T + h) for i in range(T) for h in range(2)],
                                 [(i, T + h) for i in range(T) for h in range(3)])
        plain, weighted = plain.reshape(T, 2, N), weighted.reshape(T, 3, N)
        mass, dmass = plain * q.width, weighted[:, :2] * q.width
        slope = weighted[:, 2]
        # node i is the right corner of cell i - 1 and the left one of cell i
        loads.append((mass[:, 1, :-1] + mass[:, 0, 1:], dmass[:, 1, :-1] + dmass[:, 0, 1:],
                      (b1, b2)[axis] * (slope[:, :-1] - slope[:, 1:])))
    (mass, dmass, slope), (y_mass, y_dmass, y_slope) = loads
    # summed in a fixed order, without BLAS, so the bits do not depend on its build
    F = np.einsum("qj,qi->ji", np.concatenate([y_mass, y_dmass, y_slope]),
                  np.concatenate([mass, slope, dmass]), optimize=False)
    rhs_time = time.perf_counter() - started

    return SparseSystem(matrix=A, rhs=F.ravel()[dofs], dofs=dofs, rhs_time=rhs_time)
