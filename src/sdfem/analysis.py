"""Error analysis: energy and streamline-diffusion norms (global and
region-restricted), bilinear interpolation, closed-form layer integrals and
convergence rates.

All region boundaries are mesh lines, so region restriction is cell-aligned
and cells are never split.

The error norms follow the split the paper's analysis uses, u - u_h =
eta + xi, with eta = u - u^I, xi = u^I - u_h and u^I the nodal interpolant
(see also Stynes & Tobiska, SIAM J. Numer. Anal. 41, 2003). The exact
solution is a product gx(x) * gy(y) (problem.ExactSolution), so on a cell
eta = (gx - I gx)(x) gy(y) + (I gx)(x) (gy - I gy)(y), while xi is
bilinear: four modal coefficients times products of Legendre polynomials in
x and in y. The error, its two derivatives and its streamline derivative
are thus sums of x*y terms, and the integral over a cell of the product of
two terms, weighted by delta = dx(x) * dy(y), is a Gauss sum along x times
one along y. ErrorComputation evaluates each factor of u once, on the
abscissae and the nodes of its axis together, and takes the Gauss sums of
the products of two per-axis functions that the norms need in every cell
from the per-axis kernel of discretization (AxisQuadrature.sums), which
adds over the points in order, without BLAS. Each part of the norms is
then a list of rows, one per feature of xi that its pairs of terms carry
(1, a modal coefficient or the product of two): a row's sum over its
pairs of an x sum times a y sum, one matrix product over every cell,
times its feature, added into the part. With the same Gauss rule per axis
that is the cell's tensor Gauss rule, up to rounding.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .discretization import AxisQuadrature, QuadratureRule, axis_abscissae
from .mesh import RegionSel, ShishkinMesh2D
from .problem import ProblemSpec
from .stabilization import DeltaField


class NonpositiveError(ValueError):
    pass


@dataclass(frozen=True)
class DiscreteFunction:
    """Piecewise bilinear function given by nodal values on the mesh.

    values[i, j] is the value at node (x_i, y_j), boundary included.
    """

    mesh: ShishkinMesh2D
    values: np.ndarray

    def __post_init__(self):
        n = self.mesh.N + 1
        if self.values.shape != (n, n):
            raise ValueError(f"nodal values must have shape {(n, n)}")

    @classmethod
    def from_dof_vector(cls, mesh: ShishkinMesh2D, u: np.ndarray,
                        dofs: np.ndarray) -> "DiscreteFunction":
        """The function with value u[c] at the interior node of natural dof
        dofs[c] (SparseSystem.dofs) and zero on the boundary."""
        N = mesh.N
        natural = np.empty((N - 1) ** 2)
        natural[dofs] = u
        vals = np.zeros((N + 1, N + 1))
        vals[1:N, 1:N] = natural.reshape(N - 1, N - 1).T
        return cls(mesh=mesh, values=vals)

    def corner_values(self):
        """Per-cell corner arrays (v00, v10, v11, v01), each an (N, N) view
        of `values` holding cell (i, j) at [j, i]."""
        v = self.values
        return v[:-1, :-1].T, v[1:, :-1].T, v[1:, 1:].T, v[:-1, 1:].T


def interpolant(problem: ProblemSpec, mesh: ShishkinMesh2D) -> DiscreteFunction:
    """Nodal interpolant of the exact solution (layer nodes via offsets)."""
    exact = problem.require_exact()
    ax, ay = mesh.x_axis, mesh.y_axis
    return DiscreteFunction(mesh=mesh, values=np.multiply.outer(
        exact.x_factor(ax.nodes, ax.node_sigma)[0], exact.y_factor(ay.nodes, ay.node_sigma)[0]))


@dataclass(frozen=True)
class ErrorReport:
    region: RegionSel
    eps_norm: float
    sd_norm: float
    components: tuple[float, float, float]  # (eps*|.|_1^2, c*||.||^2, stab^2)


# The functions along one axis that make up the error on a cell of width h,
# t in [0, 1] across it: the factor f of u, the interpolation error f - If,
# the linear interpolant If and the Legendre polynomial t - 1/2 (halved),
# each followed by its derivative, and the halved constant polynomial 1/2
_F, _DF, _R, _DR, _I, _DI, _P1, _DP1, _P0 = range(9)
_CONSTANT = (_P0, _DI, _DP1)  # constant on a cell, so orthogonal to _P1

# xi on a cell is the sum of C[k] * P_kx(x) * P_ky(y) over the modal
# coefficients k = (kx, ky), with the halved Legendre polynomials above
_C00, _C10, _C01, _C11 = range(4)

# Gauss points per axis of the error norms
ERROR_ORDER = 5

# e, e_x and e_y on a cell as x*y terms (x function, y function, weight);
# the weight is the modal coefficient of xi the term carries, None for eta
_E = ((_R, _F, None), (_I, _R, None), (_P0, _P0, _C00), (_P1, _P0, _C10),
      (_P0, _P1, _C01), (_P1, _P1, _C11))
_E_X = ((_DR, _F, None), (_DI, _R, None), (_DP1, _P0, _C10), (_DP1, _P1, _C11))
_E_Y = ((_R, _DF, None), (_I, _DR, None), (_P0, _DP1, _C01), (_P1, _DP1, _C11))


@functools.lru_cache(maxsize=8)
def _parts(use_exact: bool, b1: float, b2: float):
    """The pairs (m, k), m <= k, of per-axis functions whose Gauss sums the
    norms need, as [axis][weighted] lists (the x and the y axis, each plain
    and weighted by delta), and the gradient, L2 and streamline parts of
    the norms. Each part is the sum of the squares of some fields, each a
    sum of weighted terms (b1 for e_x's and b2 for e_y's in the streamline
    derivative, else 1), expanded into pairs of terms, each pair as
    (multiplicity times its terms' weights, x pair, y pair), an axis's pair
    by its position in the list of the axis and of the part's weighting,
    and grouped into rows by the feature of xi a pair carries: () for two
    of eta's terms, (k,) for one of eta's and xi's term k, (k, l) with
    k <= l for xi's terms k and l. Pairs whose plain integral vanishes by
    orthogonality are left out; without the exact solution the fields keep
    only xi's terms. A part is whether delta weights it, the multiplicities,
    x and y pair positions of its pairs, row after row, and its rows as
    (feature, slice of pairs)."""
    def field(*sums):  # the kept terms of (terms, weight) sums, each with its weight
        return tuple((*t, w) for terms, w in sums for t in terms if use_exact or t[2] is not None)

    x_pairs, y_pairs = ({}, {}), ({}, {})  # plain and weighted
    parts = []
    for fields, weighted in (((field((_E_X, 1.0)), field((_E_Y, 1.0))), False),
                             ((field((_E, 1.0)),), False),
                             ((field((_E_X, b1), (_E_Y, b2)),), True)):
        groups = {}
        for terms in fields:
            for k, (x1, y1, c1, w1) in enumerate(terms):
                for m, (x2, y2, c2, w2) in enumerate(terms[k:]):
                    if not weighted and any(
                            (a in _CONSTANT and b == _P1) or (b in _CONSTANT and a == _P1)
                            for a, b in ((x1, x2), (y1, y2))):
                        continue
                    feature = tuple(sorted(c for c in (c1, c2) if c is not None))
                    x, y = (pairs.setdefault(tuple(sorted(pair)), len(pairs)) for pairs, pair
                            in ((x_pairs[weighted], (x1, x2)), (y_pairs[weighted], (y1, y2))))
                    groups.setdefault(feature, []).append(((2 if m else 1) * w1 * w2, x, y))
        ends = np.cumsum([len(pairs) for pairs in groups.values()])
        rows = [(feature, slice(end - len(pairs), end))
                for (feature, pairs), end in zip(groups.items(), ends)]
        mult, x, y = map(np.array, zip(*sum(groups.values(), [])))
        parts.append((weighted, mult, x, y, rows))
    return [[np.array(list(pairs)) for pairs in lists] for lists in (x_pairs, y_pairs)], parts


def _axis_sums(mesh: ShishkinMesh2D, axis: int, delta_field: DeltaField, factor,
               plain_pairs, weighted_pairs):
    """The Gauss sums over every cell of axis `axis` (0 for x, 1 for y) of
    the products of pairs of per-axis functions (_F ... _P0), [pair, cell],
    plain for `plain_pairs` and weighted by delta's factor for
    `weighted_pairs`, and the factor of u at the nodes. Without the exact
    solution's factor (None) those functions and nodal values stay zero."""
    q = AxisQuadrature(mesh, axis, QuadratureRule.gauss(ERROR_ORDER), delta_field)
    t, h = q.rule.points[:, None], q.width
    fun = np.zeros((t.size, 9, h.size))
    nodal = np.zeros(h.size + 1)
    if factor is not None:
        # one call on the abscissae and the nodes together
        f, df = factor(np.concatenate((q.X.ravel(), q.line.nodes)),
                       np.concatenate((q.S.ravel(), q.line.node_sigma)))
        fun[:, _F], fun[:, _DF] = (v[:q.X.size].reshape(q.X.shape) for v in (f, df))
        nodal = f[q.X.size:]
        rise = nodal[1:] - nodal[:-1]
        fun[:, _I] = nodal[:-1] + t * rise
        fun[:, _DI] = rise / h
        np.subtract(fun[:, _F:_R], fun[:, _I:_P1], out=fun[:, _R:_I])
    fun[:, _P1] = t - 0.5
    fun[:, _DP1] = 1.0 / h
    fun[:, _P0] = 0.5
    plain, weighted = q.sums(fun, plain_pairs, weighted_pairs)
    return (plain * h, weighted * h), nodal


def _cell_part(part, scale: float, tables, modal: np.ndarray, n: int) -> np.ndarray:
    """scale times one part of the norms (of _parts) on every cell, from the
    x and y Gauss-sum tables [pair, cell] and the modal coefficients of xi,
    row by row: the Gauss-sum products of the row's pairs on every cell, one
    n x T by T x n matrix product, times its feature of xi, so that beside
    the part only one row's products are held. Only the first n rows and
    columns of cells are summed: delta vanishes outside Omega_s, the first
    N/2 of each, so the streamline part is summed there alone."""
    mult, x, y, rows = part
    N = modal.shape[-1]
    x_table, y_table = tables
    # the pairs' x and y sums on every cell, [pair, cell]
    X = x_table[x, :n] * (scale * mult)[:, None]
    Y = y_table[y, :n]
    whole = np.zeros((N, N))
    block = whole[:n, :n]
    for feature, pairs in rows:
        H = Y[pairs].T @ X[pairs]
        for k in feature:
            H *= modal[k, :n, :n]
        block += H
    return whole


class ErrorComputation:
    """Per-cell norm contributions of u - u_h, computed once and aggregated
    over any region afterwards. With use_exact=False the norms of u_h itself
    are computed (used for coercivity checks on discrete functions): xi
    alone, with u_h in place of u^I - u_h.

    The contributions come from the interpolation split (module docstring)
    with a Gauss rule of ERROR_ORDER points per axis; xi's own terms are
    polynomials that any rule of two or more points sums exactly."""

    def __init__(self, u_h: DiscreteFunction, delta_field: DeltaField, problem: ProblemSpec,
                 use_exact: bool = True):
        mesh = u_h.mesh
        self.mesh = mesh
        N = mesh.N
        exact = problem.require_exact() if use_exact else None

        axis_pairs, parts = _parts(use_exact, problem.b1, problem.b2)
        factors = (None, None) if exact is None else (exact.x_factor, exact.y_factor)
        (x_sums, nodal_x), (y_sums, nodal_y) = (
            _axis_sums(mesh, axis, delta_field, factor, *pairs)
            for axis, (factor, pairs) in enumerate(zip(factors, axis_pairs)))

        # xi at the nodes, node (i, j) at [j, i] (-u_h without u, which the
        # norms cannot tell from u_h), and on every cell its modal
        # coefficients
        d = np.multiply.outer(nodal_y, nodal_x) - u_h.values.T
        modal = np.empty((4, N, N))
        s, t = d[:, 1:] + d[:, :-1], d[:, 1:] - d[:, :-1]
        np.add(s[1:], s[:-1], out=modal[_C00])
        np.add(t[1:], t[:-1], out=modal[_C10])
        np.subtract(s[1:], s[:-1], out=modal[_C01])
        np.subtract(t[1:], t[:-1], out=modal[_C11])
        del d, s, t

        self.cell_eps_grad2, self.cell_mu_l2, self.cell_stab2 = (
            _cell_part(part, scale, (x_sums[weighted], y_sums[weighted]), modal,
                       N // 2 if weighted else N)
            for (weighted, *part), scale in zip(parts, (problem.epsilon, problem.c, 1.0)))

    def report(self, region: RegionSel = RegionSel.GLOBAL) -> ErrorReport:
        mask = self.mesh.region_mask(region)
        eg = float(np.sum(self.cell_eps_grad2[mask]))
        ml = float(np.sum(self.cell_mu_l2[mask]))
        st = float(np.sum(self.cell_stab2[mask]))
        eps_norm = math.sqrt(eg + ml)
        sd_norm = math.sqrt(eg + ml + st)
        return ErrorReport(
            region=region,
            eps_norm=eps_norm,
            sd_norm=sd_norm,
            components=(eg, ml, st),
        )


def sd_norm_discrete(u_h: DiscreteFunction, problem: ProblemSpec,
                     delta_field: DeltaField) -> float:
    """SD norm of a discrete function itself (no exact solution involved)."""
    return ErrorComputation(u_h, delta_field, problem, use_exact=False).report().sd_norm


def rate(e_coarse: float, e_fine: float) -> float:
    """Convergence rate log2(e_coarse / e_fine) between N and 2N."""
    if e_coarse <= 0.0 or e_fine <= 0.0:
        raise NonpositiveError("rates require strictly positive errors")
    return (math.log(e_coarse) - math.log(e_fine)) / math.log(2.0)


@dataclass(frozen=True)
class LayerIntegrals:
    """Closed-form vs composite-quadrature values of the layer integrals

        tail  = int_0^{x_s} exp(-2*beta*(1-x)/eps) dx
        strip = int_{x_s}^{x_t} exp(-2*beta*(1-x)/eps) * (x_t-x)/H dx
    """

    tail_closed: float
    tail_quad: float
    strip_closed: float
    strip_quad: float


def _composite_gauss(fn, lo: float, hi: float, panels: int = 50, order: int = 10) -> float:
    p, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    total = 0.0
    for k in range(panels):
        a, b = edges[k], edges[k + 1]
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        total += half * float(np.sum(w * fn(mid + half * p)))
    return total


def layer_integral_oracle(
    epsilon: float, beta: float, x_s: float, x_t: float, H: float
) -> LayerIntegrals:
    """Exact antiderivative values and composite quadrature, both in offset
    coordinates. The quadrature truncates the exponential tail at 60/a
    (relative truncation error below 1e-26)."""
    if not 0.0 < x_s < x_t <= 1.0:
        raise ValueError("need 0 < x_s < x_t <= 1")
    a = 2.0 * beta / epsilon
    lam = 1.0 - x_t
    sigma_s = 1.0 - x_s

    tail_closed = (math.exp(-a * sigma_s) - math.exp(-a)) / a
    cut = min(1.0 - sigma_s, 60.0 / a)
    tail_quad = _composite_gauss(
        lambda s: np.exp(-a * (sigma_s + s)), 0.0, cut
    ) if cut > 0 else 0.0

    aH = a * H
    scale = math.exp(-a * lam)
    strip_closed = scale / (H * a * a) * (1.0 - math.exp(-aH) * (1.0 + aH))
    cut = min(H, 60.0 / a)
    strip_quad = scale / H * _composite_gauss(lambda t: np.exp(-a * t) * t, 0.0, cut)

    return LayerIntegrals(
        tail_closed=tail_closed,
        tail_quad=tail_quad,
        strip_closed=strip_closed,
        strip_quad=strip_quad,
    )


@dataclass(frozen=True)
class ErrorGrid:
    """Row-major pointwise |u - u_h| samples, layer points in offset form."""

    x: np.ndarray
    y: np.ndarray
    sigma_x: np.ndarray
    sigma_y: np.ndarray
    abs_error: np.ndarray


def pointwise_error_grid(
    problem: ProblemSpec, u_h: DiscreteFunction, samples_per_cell: int = 1
) -> ErrorGrid:
    """Sample |u - u_h| on an s x s subgrid of every cell (cell midpoints
    for s = 1); layer cells are sampled in offset coordinates."""
    if samples_per_cell < 1:
        raise ValueError("samples_per_cell must be >= 1")
    exact = problem.require_exact()
    mesh, c = u_h.mesh, u_h.corner_values()
    # centres of an s x s split of each cell (the composite midpoint rule),
    # laid out [sub-point b, sub-point a, j, i]: sub-points x fastest
    points = (np.arange(samples_per_cell) + 0.5) / samples_per_cell
    (X, SX), (Y, SY) = (axis_abscissae(axis, points) for axis in (mesh.x_axis, mesh.y_axis))
    X, SX, Y, SY = X[None, :, None], SX[None, :, None], Y[:, None, :, None], SY[:, None, :, None]
    a, b = points[:, None, None], points[:, None, None, None]
    nx, ny = (1.0 - a, a), (1.0 - b, b)
    value = (c[0] * nx[0] * ny[0] + c[1] * nx[1] * ny[0]
             + c[2] * nx[1] * ny[1] + c[3] * nx[0] * ny[1])

    def flat(v):
        return np.broadcast_to(v, value.shape).ravel()

    return ErrorGrid(x=flat(X), y=flat(Y), sigma_x=flat(SX), sigma_y=flat(SY),
                     abs_error=flat(np.abs(np.asarray(exact.value(X, Y, SX, SY)) - value)))
