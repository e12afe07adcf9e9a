"""Continuous problem data: coefficients, source, exact solutions.

The coefficients b = (b1, b2) and c are constants. The source and the exact
solution are vectorized callables that take the boundary offsets
(sx, sy) = (1-x, 1-y) as first-class arguments so layer-cell quadrature
never forms 1-x by subtracting near-1 doubles.
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
    f: Callable  # (x, y, sx, sy) -> field
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

        u(x,y) = 2 sin(x) (1 - exp(-2(1-x)/eps)) * y^2 (1 - exp(-(1-y)/eps)).

    f is hand-derived in closed form; a finite-difference oracle in the test
    suite guards the derivation.
    """
    eps = float(epsilon)

    def _parts(x, y, sx, sy):
        # layer exponentials from exact offsets; underflow to 0 is correct
        ex = np.exp(-2.0 * np.asarray(sx, dtype=float) / eps)
        ey = np.exp(-np.asarray(sy, dtype=float) / eps)
        return ex, ey

    def value(x, y, sx, sy):
        ex, ey = _parts(x, y, sx, sy)
        return 2.0 * np.sin(x) * (1.0 - ex) * y * y * (1.0 - ey)

    def gradient(x, y, sx, sy):
        ex, ey = _parts(x, y, sx, sy)
        g = 2.0 * np.sin(x) * (1.0 - ex)
        gp = 2.0 * np.cos(x) * (1.0 - ex) - (4.0 / eps) * np.sin(x) * ex
        w = y * y * (1.0 - ey)
        wp = 2.0 * y * (1.0 - ey) - (y * y / eps) * ey
        return gp * w, g * wp

    def source(x, y, sx, sy):
        ex, ey = _parts(x, y, sx, sy)
        sinx, cosx = np.sin(x), np.cos(x)
        g = 2.0 * sinx * (1.0 - ex)
        gp = 2.0 * cosx * (1.0 - ex) - (4.0 / eps) * sinx * ex
        gpp = (-2.0 * sinx * (1.0 - ex)
               - (8.0 / eps) * cosx * ex
               - (8.0 / (eps * eps)) * sinx * ex)
        w = y * y * (1.0 - ey)
        wp = 2.0 * y * (1.0 - ey) - (y * y / eps) * ey
        wpp = 2.0 * (1.0 - ey) - (4.0 * y / eps) * ey - (y * y / (eps * eps)) * ey
        return (-eps * (gpp * w + g * wpp)
                + 2.0 * gp * w + g * wp + g * w)

    return ProblemSpec(
        epsilon=eps,
        b1=2.0,
        b2=1.0,
        c=1.0,
        f=source,
        exact=ExactSolution(value=value, gradient=gradient),
        name="paper-benchmark",
    )


PROBLEMS: dict[str, Callable[[float], ProblemSpec]] = {
    "paper-benchmark": make_benchmark,
}
