"""Tensor-product Shishkin meshes on the unit square.

The mesh is piecewise uniform per axis: N/2 coarse cells on [0, 1-lambda]
and N/2 fine cells on [1-lambda, 1], with lambda = RHO*(eps/beta)*ln(N).
Breakpoints are also stored as exact offsets sigma = 1 - x so that layer
geometry stays exact down to eps = 1e-16, where the absolute coordinates
collide in double precision. The regions are products of per-axis cell
kinds, and a cell's kind comes from its index, never from a coordinate.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np


class InvalidSpec(ValueError):
    """Axis parameters violate the mesh construction assumptions."""


# the transition parameter rho of lambda
RHO = 2.5

# per-axis cell kinds stored in Axis1D.cell_kind: coarse, the last coarse
# cell (the strip where the modified delta ramps down) and fine
COARSE, STRIP, FINE = range(3)

# per-cell region codes, and the code of a cell by the kinds of its row (y)
# and its column (x)
_S_INNER, _S_STRIP, _X, _Y, _XY = range(5)
_REGION_CODES = np.array([[_S_INNER, _S_STRIP, _X],
                          [_S_STRIP, _S_STRIP, _X],
                          [_Y, _Y, _XY]])


class RegionSel(enum.Enum):
    """Cell-aligned regions of the mesh, each valued by the codes of the
    cells it covers.

    OMEGA_S_EPS (the eps-safe interior of Omega_s), OMEGA_S_EPS_COMPLEMENT
    (the last coarse row and column of Omega_s), OMEGA_X, OMEGA_Y and
    OMEGA_XY partition the cells; OMEGA_S and GLOBAL are unions of them.
    """

    GLOBAL = (_S_INNER, _S_STRIP, _X, _Y, _XY)
    OMEGA_S = (_S_INNER, _S_STRIP)
    OMEGA_S_EPS = (_S_INNER,)
    OMEGA_S_EPS_COMPLEMENT = (_S_STRIP,)
    OMEGA_X = (_X,)
    OMEGA_Y = (_Y,)
    OMEGA_XY = (_XY,)


@dataclass(frozen=True)
class AxisSpec:
    """Parameters of one axis of the Shishkin mesh."""

    N: int
    epsilon: float
    beta: float

    def __post_init__(self):
        if self.N < 4 or self.N % 2 != 0:
            raise InvalidSpec(f"N must be even and >= 4, got {self.N}")
        if not self.epsilon > 0.0:
            raise InvalidSpec(f"epsilon must be positive, got {self.epsilon}")
        if not self.beta > 0.0:
            raise InvalidSpec(f"beta must be positive, got {self.beta}")
        if self.epsilon > 1.0 / self.N:
            raise InvalidSpec(
                f"epsilon={self.epsilon} violates epsilon <= 1/N with N={self.N}"
            )
        lam = self.transition_width
        if not 0.0 < lam < 0.5:
            raise InvalidSpec(f"transition width lambda={lam} not in (0, 1/2)")

    @property
    def transition_width(self) -> float:
        """lambda = RHO*(eps/beta)*ln(N)."""
        return RHO * (self.epsilon / self.beta) * math.log(self.N)


@dataclass(frozen=True)
class Axis1D:
    """Breakpoints of one axis, as absolute coordinates and as exact
    offsets, and the width and kind of every cell."""

    spec: AxisSpec
    lam: float
    H: float  # coarse step (1-lam)/(N/2)
    nodes: np.ndarray = field(repr=False)  # N+1 absolute coords, lossy in the layer
    node_sigma: np.ndarray = field(repr=False)  # N+1 exact offsets sigma_i = 1-x_i
    cell_width: np.ndarray = field(repr=False)  # N
    cell_kind: np.ndarray = field(repr=False)  # N of COARSE, STRIP, FINE

    @property
    def N(self) -> int:
        return self.spec.N

    @property
    def cell_left(self) -> np.ndarray:
        return self.nodes[:-1]

    @property
    def cell_sigma_left(self) -> np.ndarray:
        return self.node_sigma[:-1]

    @property
    def transition_point(self) -> float:
        """x_t = 1 - lambda."""
        return self.nodes[self.N // 2]

    @property
    def strip_point(self) -> float:
        """x_s = x_t - H, the left edge of the last coarse cell."""
        return self.nodes[self.N // 2 - 1]


def build_axis(spec: AxisSpec) -> Axis1D:
    """Construct the 1D Shishkin breakpoint sets for one axis."""
    N = spec.N
    half = N // 2
    lam = spec.transition_width
    H = (1.0 - lam) / half

    # x_i = 2*i*(1-lam)/N for i = 0..N/2
    coarse = 2.0 * np.arange(half + 1) * (1.0 - lam) / N
    coarse[-1] = 1.0 - lam  # exact transition point in the generating arithmetic
    # sigma_i = 2*(N-i)*lam/N for i = N/2..N, strictly decreasing to 0
    fine_offsets = 2.0 * np.arange(half, -1, -1) * lam / N
    fine_offsets[0] = lam
    # exact offsets of the coarse nodes via x_t - x (no near-1 subtraction)
    coarse_sigma = (coarse[-1] - coarse) + lam

    return Axis1D(
        spec=spec,
        lam=lam,
        H=H,
        nodes=np.concatenate([coarse[:-1], 1.0 - fine_offsets]),
        node_sigma=np.concatenate([coarse_sigma[:-1], fine_offsets]),
        cell_width=np.concatenate([np.full(half, H), np.full(half, lam / half)]),
        cell_kind=np.repeat([COARSE, STRIP, FINE], [half - 1, 1, half]),
    )


@dataclass(frozen=True)
class ShishkinMesh2D:
    """Tensor-product Shishkin mesh; its regions are products of the axes'
    cell kinds.

    Cells are indexed (i, j) for [x_i, x_{i+1}] x [y_j, y_{j+1}]; per-cell
    arrays have shape (N, N) and hold cell (i, j) at [j, i], so their
    row-major flat index is j*N + i. Immutable after construction.
    """

    x_axis: Axis1D
    y_axis: Axis1D

    @property
    def N(self) -> int:
        return self.x_axis.N

    def region_mask(self, region: RegionSel) -> np.ndarray:
        """Boolean (N, N) mask over the cells, cell (i, j) at [j, i]."""
        member = np.zeros(len(RegionSel.GLOBAL.value), dtype=bool)
        member[list(region.value)] = True
        return member[_REGION_CODES][self.y_axis.cell_kind[:, None], self.x_axis.cell_kind]


def build_mesh(x_spec: AxisSpec, y_spec: AxisSpec) -> ShishkinMesh2D:
    """Construct the 2D tensor-product mesh."""
    if x_spec.N != y_spec.N:
        raise InvalidSpec("both axes must use the same N")
    return ShishkinMesh2D(x_axis=build_axis(x_spec), y_axis=build_axis(y_spec))


def dump_mesh(mesh: ShishkinMesh2D) -> str:
    """Line-oriented text dump: axis, index, kind (abs|offset), value."""
    lines = []
    for name, axis in (("x", mesh.x_axis), ("y", mesh.y_axis)):
        half = axis.N // 2
        for idx in range(half):
            lines.append(f"{name} {idx} abs {axis.nodes[idx]:.17g}")
        for idx in range(half, axis.N + 1):
            lines.append(f"{name} {idx} offset {axis.node_sigma[idx]:.17g}")
    return "\n".join(lines) + "\n"
