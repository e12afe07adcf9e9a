"""Continuous problem data: constant coefficients, the source and exact
solutions.

The source f is carried as x*y terms, f(x, y) = sum_t fx_t(x) * fy_t(y),
so that the right-hand side assembly integrates each factor along its own
axis (discretization.assemble_system); a user that needs f at a point adds
the products itself. An exact solution is carried the same way, as the
product of an x and a y factor, so that the error norms integrate along
each axis too (analysis.ErrorComputation). Every factor is a vectorized
callable that takes the boundary offset (sx = 1-x or sy = 1-y) as a
first-class argument, so layer-cell quadrature never forms 1-x by
subtracting near-1 doubles.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


class NoExactSolution(ValueError):
    """The problem carries no exact solution."""


@dataclass(frozen=True)
class ExactSolution:
    """A separable exact solution u(x, y) = gx(x) * gy(y), each factor given
    with its first derivative."""

    x_factor: Callable  # (x, sx) -> (gx, gx')
    y_factor: Callable  # (y, sy) -> (gy, gy')

    def value(self, x, y, sx, sy):
        """u at (x, y), given the offsets sx = 1-x and sy = 1-y."""
        return self.x_factor(x, sx)[0] * self.y_factor(y, sy)[0]


@dataclass(frozen=True)
class ProblemSpec:
    """-eps*Lap(u) + b.grad(u) + c*u = f on (0,1)^2, u = 0 on the boundary,
    with constant b = (b1, b2) and c."""

    epsilon: float
    b1: float
    b2: float
    c: float
    f_terms: tuple  # ((fx, fy), ...): f(x, y) = sum of fx(x, sx) * fy(y, sy)
    exact: ExactSolution | None = None
    name: str = "custom"

    def __post_init__(self):
        if not (self.b1 > 0.0 and self.b2 > 0.0 and self.c > 0.0):
            raise ValueError(f"need b1, b2, c > 0, got ({self.b1}, {self.b2}, {self.c})")

    def require_exact(self) -> ExactSolution:
        if self.exact is None:
            raise NoExactSolution(f"problem {self.name!r} has no exact solution")
        return self.exact


def make_benchmark(epsilon: float) -> ProblemSpec:
    """-eps*Lap(u) + 2 u_x + u_y + u = f with the manufactured solution
    u(x, y) = g(x) w(y),

        g(x) = 2 sin(x) (1 - e_x),  e_x = exp(-2(1-x)/eps),
        w(y) = y^2 (1 - e_y),       e_y = exp(-(1-y)/eps),

    and f = (-eps g'' + 2 g' + g)(x) w(y) + g(x) (-eps w'' + w')(y), where

        -eps g'' + 2 g' + g = (2 + 2 eps) sin(x) (1 - e_x) + 4 cos(x) (1 + e_x),
        -eps w'' + w'       = 2 y (1 + e_y) - 2 eps (1 - e_y).

    These closed forms carry no 1/eps term, so nothing cancels in the layers
    at any eps; a high-precision oracle in the test suite guards them.
    """
    eps = float(epsilon)

    # each factor from its coordinate and exact offset, as its value and first
    # derivative, and separately its part of the operator. A layer
    # exponential that underflows to 0 is correct; 1 - e comes from expm1,
    # which keeps it to an ulp where e is close to 1, deep in the layer
    def x_parts(x, sx):  # sin x, cos x, e_x and 1 - e_x
        t = -2.0 * np.asarray(sx, dtype=float) / eps
        return np.sin(x), np.cos(x), np.exp(t), -np.expm1(t)

    def y_parts(sy):  # e_y and 1 - e_y
        t = -np.asarray(sy, dtype=float) / eps
        return np.exp(t), -np.expm1(t)

    def g(x, sx):
        sinx, cosx, ex, om = x_parts(x, sx)
        return 2.0 * sinx * om, 2.0 * cosx * om - (4.0 / eps) * sinx * ex

    def g_operator(x, sx):
        sinx, cosx, ex, om = x_parts(x, sx)
        return (2.0 + 2.0 * eps) * sinx * om + 4.0 * cosx * (1.0 + ex)

    def w(y, sy):
        ey, om = y_parts(sy)
        return y * y * om, 2.0 * y * om - (y * y / eps) * ey

    def w_operator(y, sy):
        ey, om = y_parts(sy)
        return 2.0 * y * (1.0 + ey) - 2.0 * eps * om

    return ProblemSpec(
        epsilon=eps,
        b1=2.0,
        b2=1.0,
        c=1.0,
        f_terms=((g_operator, lambda y, sy: w(y, sy)[0]),
                 (lambda x, sx: g(x, sx)[0], w_operator)),
        exact=ExactSolution(x_factor=g, y_factor=w),
        name="paper-benchmark",
    )


PROBLEMS: dict[str, Callable[[float], ProblemSpec]] = {
    "paper-benchmark": make_benchmark,
}
