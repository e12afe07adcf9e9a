"""Tensor-product Shishkin meshes on the unit square.

The mesh is piecewise uniform per axis: N/2 coarse cells on [0, 1-lambda]
and N/2 fine cells on [1-lambda, 1], with lambda = rho*(eps/beta)*ln(N).
Fine breakpoints are stored as offsets sigma = 1 - x so that layer geometry
stays exact down to eps = 1e-16, where the absolute coordinates collide in
double precision.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np


class InvalidSpec(ValueError):
    """Axis parameters violate the mesh construction assumptions."""


# per-cell region codes stored in ShishkinMesh2D.cell_codes
_S_INNER, _S_STRIP, _X, _Y, _XY = range(5)


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
    rho: float = 2.5

    def __post_init__(self):
        if self.N < 4 or self.N % 2 != 0:
            raise InvalidSpec(f"N must be even and >= 4, got {self.N}")
        if not self.epsilon > 0.0:
            raise InvalidSpec(f"epsilon must be positive, got {self.epsilon}")
        if not self.beta > 0.0:
            raise InvalidSpec(f"beta must be positive, got {self.beta}")
        if not self.rho > 0.0:
            raise InvalidSpec(f"rho must be positive, got {self.rho}")
        if self.epsilon > 1.0 / self.N:
            raise InvalidSpec(
                f"epsilon={self.epsilon} violates epsilon <= 1/N with N={self.N}"
            )
        lam = self.transition_width
        if not 0.0 < lam < 0.5:
            raise InvalidSpec(f"transition width lambda={lam} not in (0, 1/2)")

    @property
    def transition_width(self) -> float:
        """lambda = rho*(eps/beta)*ln(N)."""
        return self.rho * (self.epsilon / self.beta) * math.log(self.N)


@dataclass(frozen=True)
class Axis1D:
    """Breakpoints of one axis, coarse part absolute, fine part as offsets."""

    spec: AxisSpec
    lam: float
    H: float  # coarse step (1-lam)/(N/2)
    h: float  # fine step lam/(N/2)
    coarse_points: np.ndarray  # N/2+1 absolute coords in [0, 1-lam]
    fine_offsets: np.ndarray  # N/2+1 offsets sigma_i = 1-x_i, i = N/2..N

    # derived per-cell arrays (length N), filled in build_axis
    cell_width: np.ndarray = field(repr=False, default=None)
    cell_left: np.ndarray = field(repr=False, default=None)  # absolute, lossy in layer
    cell_sigma_left: np.ndarray = field(repr=False, default=None)  # exact offsets
    node_sigma: np.ndarray = field(repr=False, default=None)  # N+1 exact offsets

    @property
    def N(self) -> int:
        return self.spec.N

    @property
    def transition_point(self) -> float:
        """x_t = 1 - lambda."""
        return self.coarse_points[-1]

    @property
    def strip_point(self) -> float:
        """x_s = x_t - H, the left edge of the last coarse cell."""
        return self.coarse_points[-2]

    @property
    def nodes(self) -> np.ndarray:
        """All N+1 breakpoints as absolute coordinates (lossy in the layer)."""
        return np.concatenate([self.coarse_points[:-1], 1.0 - self.fine_offsets])


def build_axis(spec: AxisSpec) -> Axis1D:
    """Construct the 1D Shishkin breakpoint sets for one axis."""
    N = spec.N
    half = N // 2
    lam = spec.transition_width
    H = (1.0 - lam) / half
    h = lam / half

    i = np.arange(half + 1)
    coarse = 2.0 * i * (1.0 - lam) / N
    coarse[-1] = 1.0 - lam  # exact transition point in the generating arithmetic

    # sigma_i = 2*(N-i)*lam/N for i = N/2..N, strictly decreasing to 0
    k = np.arange(half, -1, -1)  # N-i
    fine_offsets = 2.0 * k * lam / N
    fine_offsets[0] = lam

    cell_width = np.concatenate([np.full(half, H), np.full(half, h)])
    cell_left = np.concatenate([coarse[:-1], 1.0 - fine_offsets[:-1]])
    # exact offsets of every node: coarse ones via x_t - x (no near-1 subtraction)
    coarse_sigma = (coarse[-1] - coarse) + lam
    node_sigma = np.concatenate([coarse_sigma[:-1], fine_offsets])
    cell_sigma_left = node_sigma[:-1].copy()

    return Axis1D(
        spec=spec,
        lam=lam,
        H=H,
        h=h,
        coarse_points=coarse,
        fine_offsets=fine_offsets,
        cell_width=cell_width,
        cell_left=cell_left,
        cell_sigma_left=cell_sigma_left,
        node_sigma=node_sigma,
    )


@dataclass(frozen=True)
class ShishkinMesh2D:
    """Tensor-product Shishkin mesh with per-cell region tags.

    Cells are indexed (i, j) for [x_i, x_{i+1}] x [y_j, y_{j+1}]; per-cell
    arrays have shape (N, N) and hold cell (i, j) at [j, i], so their
    row-major flat index is j*N + i. Immutable after construction.
    """

    x_axis: Axis1D
    y_axis: Axis1D
    cell_codes: np.ndarray = field(repr=False, default=None)  # (N, N) uint8, [j, i]

    @property
    def N(self) -> int:
        return self.x_axis.N

    @property
    def x_t(self) -> float:
        return self.x_axis.transition_point

    @property
    def y_t(self) -> float:
        return self.y_axis.transition_point

    def region_mask(self, region: RegionSel) -> np.ndarray:
        """Boolean (N, N) mask over the cells, cell (i, j) at [j, i]."""
        member = np.zeros(len(RegionSel.GLOBAL.value), dtype=bool)
        member[list(region.value)] = True
        return member[self.cell_codes]


def build_mesh(x_spec: AxisSpec, y_spec: AxisSpec) -> ShishkinMesh2D:
    """Construct the 2D tensor-product mesh with region classification."""
    if x_spec.N != y_spec.N:
        raise InvalidSpec("both axes must use the same N")
    ax = build_axis(x_spec)
    ay = build_axis(y_spec)
    N = x_spec.N
    half = N // 2

    i = np.arange(N)
    j = np.arange(N)
    I, J = np.meshgrid(i, j)  # shape (N, N), cell (i, j) at [j, i]
    codes = np.empty((N, N), dtype=np.uint8)
    coarse_i = I < half
    coarse_j = J < half
    codes[coarse_i & coarse_j] = _S_INNER
    strip = coarse_i & coarse_j & ((I == half - 1) | (J == half - 1))
    codes[strip] = _S_STRIP
    codes[~coarse_i & coarse_j] = _X
    codes[coarse_i & ~coarse_j] = _Y
    codes[~coarse_i & ~coarse_j] = _XY

    return ShishkinMesh2D(x_axis=ax, y_axis=ay, cell_codes=codes)


def dump_mesh(mesh: ShishkinMesh2D) -> str:
    """Line-oriented text dump: axis, index, kind (abs|offset), value."""
    lines = []
    for name, axis in (("x", mesh.x_axis), ("y", mesh.y_axis)):
        half = axis.N // 2
        for idx in range(half):
            lines.append(f"{name} {idx} abs {axis.coarse_points[idx]:.17g}")
        for idx in range(half, axis.N + 1):
            lines.append(f"{name} {idx} offset {axis.fine_offsets[idx - half]:.17g}")
    return "\n".join(lines) + "\n"
