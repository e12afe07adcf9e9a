"""Continuous problem data: constant coefficients, the source and exact
solutions.

The source f is carried as x*y terms, f(x, y) = sum_t fx_t(x) * fy_t(y),
so that the right-hand side assembly integrates each factor along its own
axis (discretization.assemble_system); a user that needs f at a point adds
the products itself. Each factor and the exact solution are vectorized
callables that take the boundary offsets (sx, sy) = (1-x, 1-y) as
first-class arguments, so layer-cell quadrature never forms 1-x by
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
    value: Callable  # (x, y, sx, sy) -> u
    gradient: Callable  # (x, y, sx, sy) -> (u_x, u_y)


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

    # each factor from its coordinate and exact offset: its value, its first
    # derivative and its part of the operator. A layer exponential that
    # underflows to 0 is correct
    def g(x, sx):
        ex = np.exp(-2.0 * np.asarray(sx, dtype=float) / eps)
        sinx, cosx = np.sin(x), np.cos(x)
        return (2.0 * sinx * (1.0 - ex),
                2.0 * cosx * (1.0 - ex) - (4.0 / eps) * sinx * ex,
                (2.0 + 2.0 * eps) * sinx * (1.0 - ex) + 4.0 * cosx * (1.0 + ex))

    def w(y, sy):
        ey = np.exp(-np.asarray(sy, dtype=float) / eps)
        return (y * y * (1.0 - ey),
                2.0 * y * (1.0 - ey) - (y * y / eps) * ey,
                2.0 * y * (1.0 + ey) - 2.0 * eps * (1.0 - ey))

    def value(x, y, sx, sy):
        return g(x, sx)[0] * w(y, sy)[0]

    def gradient(x, y, sx, sy):
        gx, dgx, _ = g(x, sx)
        wy, dwy, _ = w(y, sy)
        return dgx * wy, gx * dwy

    return ProblemSpec(
        epsilon=eps,
        b1=2.0,
        b2=1.0,
        c=1.0,
        f_terms=((lambda x, sx: g(x, sx)[2], lambda y, sy: w(y, sy)[0]),
                 (lambda x, sx: g(x, sx)[0], lambda y, sy: w(y, sy)[2])),
        exact=ExactSolution(value=value, gradient=gradient),
        name="paper-benchmark",
    )


PROBLEMS: dict[str, Callable[[float], ProblemSpec]] = {
    "paper-benchmark": make_benchmark,
}
