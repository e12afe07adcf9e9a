"""Sparse linear solvers: restarted GMRES preconditioned by ILUT (SuperLU's
threshold incomplete LU) or Jacobi, and a direct sparse LU used for small
systems and cross-validation.

Direct LU orders the dofs by nested dissection of their grid (George, SIAM
J. Numer. Anal. 10, 1973) and factors the symmetrically permuted matrix in
that order. ILUT orders by minimum degree on the pattern of Aᵀ+A, the Q1
stencil on a tensor mesh giving A a symmetric pattern. Nested dissection
would also serve ILUT (at N=512: fill 4.09 -> 3.92, the same 8 GMRES
iterations), but it changes the GMRES iterates, so ILUT keeps minimum
degree for now. Whether it shortens the ILUT setup is unresolved: single
runs at N=512 read 1.38 and 1.28 s with it against 1.08 and 1.44 s
without, and settling it takes at least 10 alternating pairs. Both
factorizations use a SuperLU panel of 4 columns.

The reported residual is always recomputed from a fresh matrix-vector
product, never taken from the Krylov estimate.
"""
from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .discretization import SparseSystem

# SuperLU column ordering for spilu; splu gets a nested-dissection order
PERMC_SPEC = "MMD_AT_PLUS_A"
# SuperLU panel width (columns) for spilu and splu
PANEL_SIZE = 4
# GMRES runs at most ceil(MAX_KRYLOV_STEPS / restart) restart cycles, so the
# cap is rounded up to whole cycles: up to restart - 1 steps beyond it
MAX_KRYLOV_STEPS = 10000


class Breakdown(RuntimeError):
    pass


class SingularFactor(RuntimeError):
    pass


class SolveMethod(enum.Enum):
    GMRES_RESTARTED = "gmres"
    DIRECT_LU = "direct"


class Preconditioner(enum.Enum):
    NONE = "none"
    JACOBI = "jacobi"
    ILUT = "ilut"


@dataclass(frozen=True)
class SolverConfig:
    method: SolveMethod = SolveMethod.GMRES_RESTARTED
    restart: int = 60
    rel_residual_tol: float = 1e-10
    preconditioner: Preconditioner = Preconditioner.ILUT

    def __post_init__(self):
        if self.restart < 1:
            raise ValueError("restart must be >= 1")
        if not 0.0 < self.rel_residual_tol < 1e-2:
            raise ValueError("rel_residual_tol must lie in (0, 1e-2)")


@dataclass
class SolveStats:
    iterations: int
    residual: float  # recomputed ||F - A u|| / ||F||
    wall_time: float
    method: str
    converged: bool
    setup_time: float  # preconditioner setup or LU factorization time
    fill: float | None  # stored entries of L and U / nnz(A); None without a factor
    fallback: str | None = None  # why the requested preconditioner was replaced
    residual_history: list[float] = field(default_factory=list, repr=False)


def _fill(factor, A: sp.spmatrix) -> float:
    # SuperLU's own count of the entries it stores for L and U, explicit
    # zeros in supernodes included. Reading factor.L or factor.U instead
    # would copy the whole factor (about 320 MiB for LU at N=512).
    return factor.nnz / A.nnz


def nested_dissection(m: int) -> np.ndarray:
    """Nested-dissection order of the dofs 0..m-1 (m >= 1), laid out
    row-major on a grid of c = ceil(sqrt(m)) columns and ceil(m/c) rows; for
    an assembled system that is the (N-1) x (N-1) dof grid. Indices >= m
    are dropped.

    Each box is cut at the middle line of its longer side (a column on a
    tie), and both halves are ordered before that separator line, down to
    single dofs. Returns perm, with perm[k] the dof placed k-th.
    """
    c = math.isqrt(m - 1) + 1
    rows = -(-m // c)
    perm = np.empty(rows * c, dtype=np.intp)
    # the boxes of one bisection level: rows [r0, r1) x columns [c0, c1),
    # ordered into perm[start:start + area]
    r0, r1, c0, c1, start = (np.array([v]) for v in (0, rows, 0, c, 0))
    while r0.size:
        h, w = r1 - r0, c1 - c0
        cut_column = w >= h
        mid_r, mid_c = r0 + h // 2, c0 + w // 2
        # first half [r0, a_r1) x [c0, a_c1), second half [b_r0, r1) x [b_c0, c1)
        a_r1 = np.where(cut_column, r1, mid_r)
        a_c1 = np.where(cut_column, mid_c, c1)
        b_r0 = np.where(cut_column, r0, mid_r + 1)
        b_c0 = np.where(cut_column, mid_c + 1, c0)
        a_area = (a_r1 - r0) * (a_c1 - c0)
        b_area = (r1 - b_r0) * (c1 - b_c0)

        # the separator line, dof first + k * stride for k < length
        length = np.where(cut_column, h, w)
        first = np.where(cut_column, r0 * c + mid_c, mid_r * c + c0)
        stride = np.where(cut_column, c, 1)
        box = np.repeat(np.arange(r0.size), length)
        k = np.arange(box.size) - (np.cumsum(length) - length)[box]
        perm[start[box] + a_area[box] + b_area[box] + k] = first[box] + k * stride[box]

        halves = np.concatenate([a_area, b_area]) > 0
        r0, r1, c0, c1, start = (np.concatenate(pair)[halves] for pair in (
            (r0, b_r0), (a_r1, r1), (c0, b_c0), (a_c1, c1), (start, start + a_area)))
    return perm[perm < m]


def _make_preconditioner(A: sp.csr_matrix, kind: Preconditioner):
    """Returns (operator or None, name of the preconditioner used, fill,
    why the requested one was replaced or None)."""
    if kind is Preconditioner.NONE:
        return None, "none", None, None
    failed = []
    if kind is Preconditioner.ILUT:
        try:
            ilu = spla.spilu(A.tocsc(), drop_tol=1e-4, fill_factor=10,
                             permc_spec=PERMC_SPEC, panel_size=PANEL_SIZE)
            return spla.LinearOperator(A.shape, ilu.solve), "ilut", _fill(ilu, A), None
        except RuntimeError as exc:
            failed.append(f"ilut failed: {exc}")  # zero pivot: fall back to Jacobi
    d = A.diagonal()
    if np.any(d == 0.0):
        failed.append("jacobi failed: zero on the diagonal")
        return None, "none", None, "; ".join(failed + ["used none"])
    inv = 1.0 / d
    fallback = "; ".join(failed + ["used jacobi"]) if failed else None
    return spla.LinearOperator(A.shape, lambda v: inv * v), "jacobi", None, fallback


def solve(system: SparseSystem, config: SolverConfig = SolverConfig()):
    """Solve the assembled system; returns (solution, SolveStats).

    Both methods report converged only when the recomputed residual meets
    config.rel_residual_tol. GMRES starts from the zero vector for
    determinism; on stagnation the best iterate is returned with
    stats.converged = False.
    """
    A, F = system.matrix, system.rhs
    if A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise ValueError("system must be square with dimension >= 1")
    norm_f = np.linalg.norm(F)
    t0 = time.perf_counter()

    if config.method is SolveMethod.DIRECT_LU:
        perm = nested_dissection(A.shape[0])
        try:
            lu = spla.splu(A[perm][:, perm].tocsc(), permc_spec="NATURAL",
                           panel_size=PANEL_SIZE)
        except RuntimeError as exc:
            raise SingularFactor(f"LU factorization failed: {exc}") from exc
        setup_time = time.perf_counter() - t0
        u = np.empty_like(F)
        u[perm] = lu.solve(F[perm])
        res = np.linalg.norm(F - A @ u) / norm_f if norm_f > 0 else 0.0
        return u, SolveStats(
            iterations=1,
            residual=res,
            wall_time=time.perf_counter() - t0,
            method="direct",
            converged=bool(np.isfinite(u).all() and res <= config.rel_residual_tol),
            setup_time=setup_time,
            fill=_fill(lu, A),
        )

    M, prec_name, fill, fallback = _make_preconditioner(A, config.preconditioner)
    setup_time = time.perf_counter() - t0
    history: list[float] = []
    u, info = spla.gmres(
        A,
        F,
        x0=np.zeros_like(F),
        rtol=config.rel_residual_tol,
        atol=0.0,
        restart=config.restart,
        maxiter=math.ceil(MAX_KRYLOV_STEPS / config.restart),
        M=M,
        callback=lambda r: history.append(float(r)),
        callback_type="pr_norm",
    )
    if info < 0:
        raise Breakdown(f"GMRES illegal input or breakdown (info={info})")
    res = np.linalg.norm(F - A @ u) / norm_f if norm_f > 0 else 0.0
    return u, SolveStats(
        iterations=len(history),
        residual=res,
        wall_time=time.perf_counter() - t0,
        method=f"gmres({config.restart})+{prec_name}",
        converged=(res <= config.rel_residual_tol),
        setup_time=setup_time,
        fill=fill,
        fallback=fallback,
        residual_history=history,
    )
