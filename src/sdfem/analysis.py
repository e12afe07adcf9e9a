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
abscissae and the nodes of its axis together; takes the Gauss sums of every
product of two per-axis functions in every cell; and sums each cell's
norms as products of an x and a y sum, weighted by 1, by a modal
coefficient or by the product of two. With the same Gauss rule per axis
that is the cell's tensor Gauss rule, up to rounding.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discretization import QuadratureRule, cell_points
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

# The features of xi the norms weight, as ErrorComputation stacks them: the
# modal coefficients, their squares and products of two. With u, each part
# of the norms weights one run of them (_Square.features): the L2 part the
# first eight, the gradient part the six from the third on, the streamline
# part all from the third on
_STACK = ((_C00,), (_C00, _C00), (_C10,), (_C01,), (_C11,), (_C10, _C10), (_C01, _C01),
          (_C11, _C11), (_C10, _C01), (_C10, _C11), (_C01, _C11))
_MODAL = [_STACK.index((k,)) for k in range(4)]
_PRODUCTS = [(k, _MODAL[f[0]], _MODAL[f[1]]) for k, f in enumerate(_STACK) if len(f) == 2]

# e, e_x and e_y on a cell as x*y terms (x function, y function, weight);
# the weight is the modal coefficient of xi the term carries, None for eta
_E = ((_R, _F, None), (_I, _R, None), (_P0, _P0, _C00), (_P1, _P0, _C10),
      (_P0, _P1, _C01), (_P1, _P1, _C11))
_E_X = ((_DR, _F, None), (_DI, _R, None), (_DP1, _P0, _C10), (_DP1, _P1, _C11))
_E_Y = ((_R, _DF, None), (_I, _DR, None), (_P0, _DP1, _C01), (_P1, _DP1, _C11))


@dataclass(frozen=True)
class _Square:
    """One norm component: the sum over some fields of each field's square,
    integrated over every cell (against delta when weighted), as rows of
    Gauss-sum products. Row r of a cell is a feature of xi (1 for row 0
    when `one`, else one of _STACK) times the sum over t of mult[r, t] *
    Sx[x[r, t]] * Sy[y[r, t]], Sx and Sy the tables of _axis_sums;
    `features` indexes the rows' features in _STACK, as a slice where they
    are one run."""

    weighted: bool
    one: bool
    features: slice | np.ndarray
    x: np.ndarray
    y: np.ndarray
    mult: np.ndarray


def _pairs(fields, weighted: bool) -> dict:
    """The squares of `fields` expanded into pairs of terms and grouped by
    the feature of xi a pair carries: () for two of eta's terms, (k,) for
    one of eta's and xi's term k, (k, l) with k <= l for xi's terms k and
    l; each pair as (multiplicity, x sum index, y sum index). Pairs whose
    plain integral vanishes by orthogonality are left out."""
    rows = {}
    for terms in fields:
        for k, (x1, y1, c1) in enumerate(terms):
            for m, (x2, y2, c2) in enumerate(terms[k:]):
                if not weighted and any(
                        (a in _CONSTANT and b == _P1) or (b in _CONSTANT and a == _P1)
                        for a, b in ((x1, x2), (y1, y2))):
                    continue
                feature = tuple(sorted(c for c in (c1, c2) if c is not None))
                rows.setdefault(feature, []).append((2 if m else 1, 9 * x1 + x2, 9 * y1 + y2))
    return rows


def _squares(use_exact: bool):
    """The gradient, L2 and streamline parts of the norms; without the exact
    solution the fields keep only xi's terms."""
    e, e_x, e_y = (tuple(t for t in terms if use_exact or t[2] is not None)
                   for terms in (_E, _E_X, _E_Y))
    squares = []
    for fields, weighted in (((e_x, e_y), False), ((e,), False), ((e_x + e_y,), True)):
        rows = _pairs(fields, weighted)
        order = sorted(rows, key=lambda f: -1 if f == () else _STACK.index(f))
        table = np.zeros((3, len(order), max(map(len, rows.values()))))
        for r, f in enumerate(order):
            table[:, r, :len(rows[f])] = np.transpose(rows[f])
        index = [_STACK.index(f) for f in order if f]
        run = slice(index[0], index[-1] + 1)
        squares.append(_Square(weighted=weighted, one=order[0] == (),
                               features=run if index == list(range(run.start, run.stop))
                               else np.array(index),
                               x=table[1].astype(int), y=table[2].astype(int), mult=table[0]))
    return squares


_SQUARES = {use_exact: _squares(use_exact) for use_exact in (True, False)}


def _axis_sums(rule: QuadratureRule, mesh: ShishkinMesh2D, delta_field: DeltaField,
               b: tuple, factors):
    """Gauss sums over every cell of each axis of the products of two of the
    per-axis functions (_F ... _P0), and the factors of u at the nodes.

    The sums are two (2, N, 81) tables, [a, n, 9*m + k] holding the sum
    over cell n of axis a (0 for x, 1 for y) of function m times function
    k: one plain, one weighted by the axis's delta factor with every
    derivative scaled by the axis's convection b[a]. The nodal values are
    (2, N+1). Without the exact solution's factors (None) the functions of
    u stay zero, and so do the nodal values."""
    axes = (mesh.x_axis, mesh.y_axis)
    N = mesh.N
    t = rule.points
    h = np.array([a.cell_width for a in axes])[:, :, None]
    # the rule's abscissae in every cell, [axis, cell, point], computed as
    # cell_points computes them, and their exact offsets
    th = t * h
    X = np.array([a.cell_left for a in axes])[:, :, None] + th
    S = np.array([a.cell_sigma_left for a in axes])[:, :, None] - th
    fun = np.zeros((2, N, 9, t.size))
    nodal = np.zeros((2, N + 1))
    if factors is not None:
        for a, (axis, factor) in enumerate(zip(axes, factors)):
            # one call on the abscissae and the nodes together
            f, df = factor(np.concatenate((X[a].ravel(), axis.nodes)),
                           np.concatenate((S[a].ravel(), axis.node_sigma)))
            fun[a, :, _F], fun[a, :, _DF] = f[:X[a].size].reshape(N, -1), df[:X[a].size].reshape(N, -1)
            nodal[a] = f[X[a].size:]
        rise = (nodal[:, 1:] - nodal[:, :-1])[:, :, None]
        np.add(nodal[:, :-1, None], t * rise, out=fun[:, :, _I])
        np.divide(rise, h, out=fun[:, :, _DI])
        np.subtract(fun[:, :, _F:_R], fun[:, :, _I:_P1], out=fun[:, :, _R:_I])
    np.subtract(t, 0.5, out=fun[:, :, _P1])
    np.divide(1.0, h, out=fun[:, :, _DP1])
    fun[:, :, _P0] = 0.5
    # delta's factors take cell_points' layout, [point, cell]
    dx, dy = delta_field.axis_factors(mesh, slice(None), slice(None), X[0].T, X[1].T[:, :, None])
    w = rule.weights * h
    by_point = fun.transpose(0, 1, 3, 2)
    plain = np.matmul(fun * w[:, :, None], by_point)
    fun[:, :, _DF:_P0:2] *= np.reshape(b, (2, 1, 1, 1))  # the derivatives
    w *= np.array([dx.reshape(-1, N).T, dy.reshape(-1, N).T])
    weighted = np.matmul(fun * w[:, :, None], by_point)
    return (plain.reshape(2, N, 81), weighted.reshape(2, N, 81)), nodal


def _cell_part(sq: _Square, scale: float, sums, features: np.ndarray) -> np.ndarray:
    """scale times one part of the norms on every cell, from the x and y
    Gauss-sum tables `sums` and the stacked features of xi. delta vanishes
    outside Omega_s, the first N/2 rows and columns of cells, so the
    streamline part is summed there alone."""
    N = features.shape[-1]
    n = N // 2 if sq.weighted else N
    x_sums, y_sums = sums
    H = np.matmul(y_sums[:n, sq.y].transpose(1, 0, 2),
                  (x_sums[:n, sq.x] * (scale * sq.mult)).transpose(1, 2, 0))
    part = np.einsum("kji,kji->ji", H[sq.one:], features[sq.features, :n, :n])
    if sq.one:
        part += H[0]
    if n == N:
        return part
    whole = np.zeros((N, N))
    whole[:n, :n] = part
    return whole


class ErrorComputation:
    """Per-cell norm contributions of u - u_h, computed once and aggregated
    over any region afterwards. With use_exact=False the norms of u_h itself
    are computed (used for coercivity checks on discrete functions): xi
    alone, with u_h in place of u^I - u_h.

    The contributions come from the interpolation split (module docstring)
    with a Gauss rule of quad_order points per axis; xi's own terms are
    polynomials that any rule of two or more points sums exactly."""

    def __init__(
        self,
        u_h: DiscreteFunction,
        delta_field: DeltaField,
        problem: ProblemSpec,
        use_exact: bool = True,
        quad_order: int = 5,
    ):
        if quad_order < 2:
            raise ValueError("quad_order must be >= 2")
        mesh = u_h.mesh
        self.mesh = mesh
        N = mesh.N
        exact = problem.require_exact() if use_exact else None

        sums, nodal = _axis_sums(QuadratureRule.gauss(quad_order), mesh, delta_field,
                                 (problem.b1, problem.b2),
                                 None if exact is None else (exact.x_factor, exact.y_factor))

        # xi at the nodes, node (i, j) at [j, i] (-u_h without u, which the
        # norms cannot tell from u_h), and on every cell its modal
        # coefficients, then their products
        d = np.multiply.outer(nodal[1], nodal[0]) - u_h.values.T
        features = np.empty((len(_STACK), N, N))
        s, t = d[:, 1:] + d[:, :-1], d[:, 1:] - d[:, :-1]
        c00, c10, c01, c11 = (features[k] for k in _MODAL)
        np.add(s[1:], s[:-1], out=c00)
        np.add(t[1:], t[:-1], out=c10)
        np.subtract(s[1:], s[:-1], out=c01)
        np.subtract(t[1:], t[:-1], out=c11)
        del d, s, t
        for k, a, b in _PRODUCTS:
            np.multiply(features[a], features[b], out=features[k])

        self.cell_eps_grad2, self.cell_mu_l2, self.cell_stab2 = (
            _cell_part(sq, scale, sums[int(sq.weighted)], features)
            for sq, scale in zip(_SQUARES[use_exact], (problem.epsilon, problem.c, 1.0)))

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
    s = samples_per_cell
    corners = u_h.corner_values()
    # centres of an s x s split of each cell: the composite midpoint rule
    midpoints = QuadratureRule(points=(np.arange(s) + 0.5) / s, weights=np.full(s, 1.0 / s))
    p = cell_points(u_h.mesh, midpoints)
    shape = p.weight.shape

    def flat(a):
        # [ia, ib, j, i] -> [ib, ia, j, i]: sub-points x fastest
        return np.broadcast_to(a, shape).transpose(1, 0, 2, 3).ravel()

    return ErrorGrid(
        x=flat(p.X),
        y=flat(p.Y),
        sigma_x=flat(p.SX),
        sigma_y=flat(p.SY),
        abs_error=flat(np.abs(np.asarray(exact.value(p.X, p.Y, p.SX, p.SY))
                              - p.value(corners))),
    )
