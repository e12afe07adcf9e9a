"""Continuous problem data: coefficients, source, exact solutions.

The coefficients b = (b1, b2) and c are constants. The source is a sum of
x*y products, f(x, y) = sum_t fx_t(x) * fy_t(y), carried as its factors, so
that its integrals against the Q1 test functions factor into sums along
each axis. The factors and the exact solution are vectorized callables
that take the boundary offsets (sx, sy) = (1-x, 1-y) as first-class
arguments, so layer-cell quadrature never forms 1-x by subtracting near-1
doubles.
"""
from __future__ import annotations

import functools
import operator
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
    f_terms: tuple  # ((fx, fy), ...): f = sum of fx(x, sx) * fy(y, sy)
    exact: ExactSolution | None = None
    name: str = "custom"

    def __post_init__(self):
        if not (self.b1 > 0.0 and self.b2 > 0.0 and self.c > 0.0):
            raise ValueError(f"need b1, b2, c > 0, got ({self.b1}, {self.b2}, {self.c})")

    def f(self, x, y, sx, sy):
        """The source at (x, y) with offsets (sx, sy), its terms added in order."""
        return functools.reduce(operator.add, (fx(x, sx) * fy(y, sy) for fx, fy in self.f_terms))

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

    def value(x, y, sx, sy):
        # layer exponentials from exact offsets; underflow to 0 is correct.
        # The product is formed left to right, which rounds unlike g * w
        ex = np.exp(-2.0 * np.asarray(sx, dtype=float) / eps)
        ey = np.exp(-np.asarray(sy, dtype=float) / eps)
        return 2.0 * np.sin(x) * (1.0 - ex) * y * y * (1.0 - ey)

    # u = g(x) w(y); the derivatives of each factor up to `order`, from its
    # coordinate and its offset, with the layer exponential evaluated once
    def g_jet(x, sx, order):
        ex = np.exp(-2.0 * np.asarray(sx, dtype=float) / eps)
        sinx = np.sin(x)
        jet = [2.0 * sinx * (1.0 - ex)]
        if order >= 1:
            cosx = np.cos(x)
            jet.append(2.0 * cosx * (1.0 - ex) - (4.0 / eps) * sinx * ex)
        if order >= 2:
            jet.append(-2.0 * sinx * (1.0 - ex)
                       - (8.0 / eps) * cosx * ex
                       - (8.0 / (eps * eps)) * sinx * ex)
        return jet

    def w_jet(y, sy, order):
        ey = np.exp(-np.asarray(sy, dtype=float) / eps)
        jet = [y * y * (1.0 - ey)]
        if order >= 1:
            jet.append(2.0 * y * (1.0 - ey) - (y * y / eps) * ey)
        if order >= 2:
            jet.append(2.0 * (1.0 - ey) - (4.0 * y / eps) * ey - (y * y / (eps * eps)) * ey)
        return jet

    def gradient(x, y, sx, sy):
        g, gp = g_jet(x, sx, 1)
        w, wp = w_jet(y, sy, 1)
        return gp * w, g * wp

    # f = (-eps g'' + 2 g' + g)(x) w(y) + g(x) (-eps w'' + w')(y)
    def g_operator(x, sx):
        g, gp, gpp = g_jet(x, sx, 2)
        return -eps * gpp + 2.0 * gp + g

    def w_operator(y, sy):
        _, wp, wpp = w_jet(y, sy, 2)
        return -eps * wpp + wp

    def g(x, sx):
        return g_jet(x, sx, 0)[0]

    def w(y, sy):
        return w_jet(y, sy, 0)[0]

    return ProblemSpec(
        epsilon=eps,
        b1=2.0,
        b2=1.0,
        c=1.0,
        f_terms=((g_operator, w), (g, w_operator)),
        exact=ExactSolution(value=value, gradient=gradient),
        name="paper-benchmark",
    )


PROBLEMS: dict[str, Callable[[float], ProblemSpec]] = {
    "paper-benchmark": make_benchmark,
}
