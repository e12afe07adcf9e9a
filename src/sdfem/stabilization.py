"""Stabilization parameter field delta(x, y) for the SDFEM.

Two variants: the standard constant delta = C*/N on Omega_s, and the
modified one C*/N * xi(x) * eta(y), xi(x) = min(1, (x_t - x)/H_x) and eta
likewise, that ramps linearly to zero across the last coarse cell strip of
Omega_s. Both vanish on the layer regions. Either is a product of an x and
a y factor, evaluated on the mesh at hand.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .mesh import FINE, ShishkinMesh2D


class DeltaVariant(enum.Enum):
    STANDARD = "standard"
    MODIFIED = "modified"


@dataclass(frozen=True)
class DeltaField:
    variant: DeltaVariant
    c_star: float

    def __post_init__(self):
        if not 0.0 < self.c_star < math.inf:
            raise ValueError(f"c_star must be finite and positive, got {self.c_star}")

    def axis_factors(self, mesh: ShishkinMesh2D, rows, cols, X: np.ndarray,
                     Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The x and y factors (dx, dy) of delta = dx * dy on the cells of
        the rows `rows` and columns `cols` of `mesh`, at that block's
        cell_points abscissae X and Y: dx broadcasts like X, dy like Y.

        Omega_s membership comes from each axis's cell kinds, never from a
        coordinate. For very small eps the layer cell widths drop below one
        ulp of 1.0, so quadrature abscissae in the first layer cell round
        onto the transition point and a coordinate test would switch the
        stabilization on inside the layer.
        """
        ax, ay = mesh.x_axis, mesh.y_axis
        col_in_s = ax.cell_kind[cols] != FINE
        row_in_s = ay.cell_kind[rows, None] != FINE
        base = self.c_star / mesh.N
        if self.variant is DeltaVariant.STANDARD:
            return np.where(col_in_s, base, 0.0), np.where(row_in_s, 1.0, 0.0)
        xi = np.clip((ax.transition_point - X) / ax.H, 0.0, 1.0)
        eta = np.clip((ay.transition_point - Y) / ay.H, 0.0, 1.0)
        return np.where(col_in_s, base * xi, 0.0), np.where(row_in_s, eta, 0.0)


def admissible_cstar(problem, mesh: ShishkinMesh2D) -> float:
    """Largest C* for which the sufficient coercivity condition holds.

    With bilinear elements the stabilization residual has no -eps*Lap term,
    and delta <= mu0 / (2 * c^2) guarantees a_SD(v, v) >= 0.5*||v||_SD^2.
    Since delta <= C*/N and mu0 = c for constant coefficients, the cap on C*
    is N / (2 * c).
    """
    return mesh.N / (2 * problem.c)
