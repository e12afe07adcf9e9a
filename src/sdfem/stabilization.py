"""Stabilization parameter field delta(x, y) for the SDFEM.

Two variants: the standard constant delta = C*/N on Omega_s, and the
modified one C*/N * xi(x) * eta(y), xi(x) = min(1, (x_t - x)/H_x) and eta
likewise, that ramps linearly to zero across the last coarse cell strip of
Omega_s. Both vanish on the layer regions.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .mesh import ShishkinMesh2D


class DeltaVariant(enum.Enum):
    STANDARD = "standard"
    MODIFIED = "modified"


@dataclass(frozen=True)
class DeltaField:
    variant: DeltaVariant
    c_star: float
    N: int
    x_t: float
    y_t: float
    H_x: float
    H_y: float

    def __post_init__(self):
        if self.c_star <= 0.0:
            raise ValueError(f"c_star must be positive, got {self.c_star}")

    @classmethod
    def from_mesh(cls, mesh: ShishkinMesh2D, variant: DeltaVariant, c_star: float) -> "DeltaField":
        return cls(
            variant=variant,
            c_star=c_star,
            N=mesh.N,
            x_t=mesh.x_t,
            y_t=mesh.y_t,
            H_x=mesh.x_axis.H,
            H_y=mesh.y_axis.H,
        )

    def matches(self, mesh: ShishkinMesh2D) -> bool:
        return (self.N == mesh.N and self.x_t == mesh.x_t and self.y_t == mesh.y_t)

    def evaluate_cells(self, in_omega_s: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Vectorized delta for quadrature points grouped by cell; x and y
        broadcast against in_omega_s, as the (Qa, 1, 1, N) and
        (1, Qb, R, 1) coordinates of cell_points on a strip of R cell rows
        do against that strip's (R, N) rows of the cell mask.

        Cell membership comes from the mesh indices instead of comparing
        absolute coordinates against x_t/y_t. For very small eps the layer
        cell widths drop below one ulp of 1.0, so quadrature abscissae in the
        first layer cell round onto the transition point and a coordinate
        test would switch the stabilization on inside the layer.
        """
        base = self.c_star / self.N
        if self.variant is DeltaVariant.STANDARD:
            return np.where(in_omega_s, base, 0.0)
        xi, eta = self.ramps(x, y)
        return np.where(in_omega_s, base * xi * eta, 0.0)

    def ramps(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The modified variant's factors xi(x) = clip((x_t - x)/H_x, 0, 1)
        and eta(y) likewise, elementwise."""
        xi = np.clip((self.x_t - np.asarray(x, dtype=float)) / self.H_x, 0.0, 1.0)
        eta = np.clip((self.y_t - np.asarray(y, dtype=float)) / self.H_y, 0.0, 1.0)
        return xi, eta


def admissible_cstar(problem, mesh: ShishkinMesh2D) -> float:
    """Largest C* for which the sufficient coercivity condition holds.

    With bilinear elements the stabilization residual has no -eps*Lap term,
    and delta <= mu0 / (2 * c^2) guarantees a_SD(v, v) >= 0.5*||v||_SD^2.
    Since delta <= C*/N and mu0 = c for constant coefficients, the cap on C*
    is N / (2 * c).
    """
    return mesh.N / (2 * problem.c)
