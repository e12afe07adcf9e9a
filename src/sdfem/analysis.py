"""Error analysis: energy and streamline-diffusion norms (global and
region-restricted), bilinear interpolation, closed-form layer integrals and
convergence rates.

All region boundaries are mesh lines, so region restriction is cell-aligned
and cells are never split.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discretization import QuadratureRule, cell_points, point_sum, row_strips
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
    return DiscreteFunction(mesh=mesh, values=_nodal_exact(problem.require_exact(), mesh))


def _nodal_exact(exact, mesh: ShishkinMesh2D) -> np.ndarray:
    """Exact solution at every node, [i, j] for (x_i, y_j); layer nodes
    via their offsets."""
    ax, ay = mesh.x_axis, mesh.y_axis
    return np.asarray(exact.value(ax.nodes[:, None], ay.nodes[None, :],
                                  ax.node_sigma[:, None], ay.node_sigma[None, :]))


@dataclass(frozen=True)
class ErrorReport:
    region: RegionSel
    eps_norm: float
    sd_norm: float
    components: tuple[float, float, float]  # (eps*|.|_1^2, c*||.||^2, stab^2)


class ErrorComputation:
    """Per-cell norm contributions of u - u_h, computed once and aggregated
    over any region afterwards. With use_exact=False the norms of u_h itself
    are computed (used for coercivity checks on discrete functions).

    The quadrature runs over row strips of cells (discretization.row_strips);
    each cell's sums take the same operations in the same order whatever
    the strip height."""

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
        exact = problem.require_exact() if use_exact else None

        corners = u_h.corner_values()

        shape = (mesh.N, mesh.N)
        grad2 = np.zeros(shape)
        l2 = np.zeros(shape)
        stab = np.zeros(shape)
        rule = QuadratureRule.gauss(quad_order)
        for rows in row_strips(mesh.N, quad_order**2):
            c = [v[rows] for v in corners]
            p = cell_points(mesh, rule, rows)
            uh = p.value(c)
            uh_x, uh_y = p.gradient(c)
            if exact is not None:
                e = np.asarray(exact.value(p.X, p.Y, p.SX, p.SY)) - uh
                gx_ex, gy_ex = exact.gradient(p.X, p.Y, p.SX, p.SY)
                ex = np.asarray(gx_ex) - uh_x
                ey = np.asarray(gy_ex) - uh_y
            else:
                e, ex, ey = uh, uh_x, uh_y
            grad2[rows] += point_sum(p.weight * (ex * ex + ey * ey))
            l2[rows] += point_sum(p.weight * e * e)
            conv = problem.b1 * ex + problem.b2 * ey
            dx, dy = delta_field.axis_factors(mesh, rows, slice(None), p.X, p.Y)
            stab[rows] += point_sum(p.weight * (dx * dy) * conv * conv)

        self.cell_eps_grad2 = problem.epsilon * grad2
        self.cell_mu_l2 = problem.c * l2
        self.cell_stab2 = stab

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
    """SD norm of a discrete function itself (no exact solution involved),
    with a 4-point Gauss rule per axis."""
    comp = ErrorComputation(u_h, delta_field, problem, use_exact=False, quad_order=4)
    r = comp.report(RegionSel.GLOBAL)
    return r.sd_norm


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
