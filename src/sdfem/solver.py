"""Sparse linear solvers: restarted GMRES preconditioned by ILUT (SuperLU's
threshold incomplete LU) or Jacobi, and a direct sparse LU used for small
systems and cross-validation.

Both factorizations read the system's CSC matrix in place, with no copy
and no ordering step: SuperLU factors it in the system's own dof order,
which for an assembled system is the fill-reducing nested-dissection
order of its dof grid (discretization.assemble_system). The solution comes
back in that order. Both use a SuperLU panel of 4 columns.

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


def _make_preconditioner(A: sp.csc_matrix, kind: Preconditioner):
    """Returns (operator or None, name of the preconditioner used, fill,
    why the requested one was replaced or None). Each operator is given its
    dtype, which spares LinearOperator a probing solve."""
    if kind is Preconditioner.NONE:
        return None, "none", None, None
    failed = []
    if kind is Preconditioner.ILUT:
        try:
            ilu = spla.spilu(A, drop_tol=1e-4, fill_factor=10,
                             permc_spec="NATURAL", panel_size=PANEL_SIZE)
            return (spla.LinearOperator(A.shape, ilu.solve, dtype=A.dtype), "ilut",
                    _fill(ilu, A), None)
        except RuntimeError as exc:
            failed.append(f"ilut failed: {exc}")  # zero pivot: fall back to Jacobi
    d = A.diagonal()
    if np.any(d == 0.0):
        failed.append("jacobi failed: zero on the diagonal")
        return None, "none", None, "; ".join(failed + ["used none"])
    inv = 1.0 / d
    fallback = "; ".join(failed + ["used jacobi"]) if failed else None
    return (spla.LinearOperator(A.shape, lambda v: inv * v, dtype=A.dtype), "jacobi",
            None, fallback)


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
        try:
            lu = spla.splu(A, permc_spec="NATURAL", panel_size=PANEL_SIZE)
        except RuntimeError as exc:
            raise SingularFactor(f"LU factorization failed: {exc}") from exc
        setup_time = time.perf_counter() - t0
        u = lu.solve(F)
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
