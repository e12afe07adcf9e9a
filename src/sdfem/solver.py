"""Sparse linear solvers: restarted GMRES preconditioned by ILUT (SuperLU's
threshold incomplete LU) or Jacobi, and a direct sparse LU used for small
systems and cross-validation.

SolveMethod.AUTO, the CLI's default, factors a system of at most
DIRECT_MAX_DOFS = 2^10 dofs (N <= 32) by LU and solves a larger one by GMRES
with the configured preconditioner and restart; SolveStats.method names the
method that ran. SolverConfig() itself stays GMRES with ILUT.

Both factorizations read the system's CSC matrix in place, with no copy
and no ordering step: SuperLU factors it in the system's own dof order,
which for an assembled system is the fill-reducing nested-dissection
order of its dof grid (discretization.assemble_system). The solution comes
back in that order. Both use a SuperLU panel of 4 columns.

GMRES is a port of scipy's left-preconditioned restarted GMRES (modified
Gram-Schmidt, Givens rotations, the same tolerance adaptation between
restart cycles) that grows its Krylov basis one vector at a time instead of
reserving a (restart + 1) x n block, and solves M^-1 F once for both the
tolerance scale and the first basis vector (Saad & Schultz, SIAM J. Sci.
Stat. Comput. 7 (1986); Saad, Iterative Methods for Sparse Linear Systems,
2003, ch. 9).

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
from scipy.linalg import get_lapack_funcs

from .discretization import SparseSystem

# SuperLU panel width (columns) for spilu and splu
PANEL_SIZE = 4
# GMRES runs at most ceil(MAX_KRYLOV_STEPS / restart) restart cycles, so the
# cap is rounded up to whole cycles: up to restart - 1 steps beyond it
MAX_KRYLOV_STEPS = 10000
# SolveMethod.AUTO factors systems of at most this many dofs (N <= 32) by
# direct LU, which there takes half the time of ILUT+GMRES. LU keeps up to
# N=256, but its factor grows to 1.9-2.7 times ILUT's from N=64 on (12 MiB
# against 6 at N=128); up to 2^10 dofs it stays under 0.5 MiB, so a sweep
# that goes on to large N keeps its peak memory
DIRECT_MAX_DOFS = 2**10


class Breakdown(RuntimeError):
    pass


class SingularFactor(RuntimeError):
    pass


class SolveMethod(enum.Enum):
    GMRES_RESTARTED = "gmres"
    DIRECT_LU = "direct"
    AUTO = "auto"  # DIRECT_LU up to DIRECT_MAX_DOFS dofs, GMRES_RESTARTED above


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
    """Returns (v -> M^-1 v or None, name of the preconditioner used, fill,
    why the requested one was replaced or None)."""
    if kind is Preconditioner.NONE:
        return None, "none", None, None
    failed = []
    if kind is Preconditioner.ILUT:
        try:
            ilu = spla.spilu(A, drop_tol=1e-4, fill_factor=10,
                             permc_spec="NATURAL", panel_size=PANEL_SIZE)
            return ilu.solve, "ilut", _fill(ilu, A), None
        except RuntimeError as exc:
            failed.append(f"ilut failed: {exc}")  # zero pivot: fall back to Jacobi
    d = A.diagonal()
    if np.any(d == 0.0):
        failed.append("jacobi failed: zero on the diagonal")
        return None, "none", None, "; ".join(failed + ["used none"])
    inv = 1.0 / d
    fallback = "; ".join(failed + ["used jacobi"]) if failed else None
    return (lambda v: inv * v), "jacobi", None, fallback


def _gmres(A, F, psolve, restart: int, rtol: float, max_cycles: int,
           history: list[float]) -> np.ndarray:
    """Left-preconditioned restarted GMRES from the zero vector; returns the
    last iterate and appends the preconditioned residual norm / ||F|| after
    every step to `history`.

    `psolve` maps v to M^-1 v in a new array; None stands for M = I. A cycle
    stops after `restart` steps, when its preconditioned residual meets the
    cycle's tolerance, or at an exact solution; the run stops when the true
    residual meets rtol ||F||, at an exact solution or after `max_cycles`
    cycles. Raises Breakdown at the first Arnoldi step whose new basis
    vector is not finite, which a non-finite residual also leads to.
    """
    x = np.zeros_like(F)
    norm_f = np.linalg.norm(F)
    if norm_f == 0:
        return x
    atol = rtol * norm_f
    eps = np.finfo(F.dtype).eps
    restart = min(restart, F.size)
    lartg = get_lapack_funcs("lartg", dtype=F.dtype)
    psolve = psolve or np.copy
    h = np.zeros((restart, restart + 1))
    givens = np.zeros((restart, 2))

    # M^-1 F, solved once: the tolerance scale and the first basis vector
    z = psolve(F)
    beta = np.linalg.norm(z)
    ptol_max_factor = 1.0
    ptol = beta * min(ptol_max_factor, atol / norm_f)
    for _ in range(max_cycles):
        z *= 1 / beta
        basis = [z]
        S = np.zeros(restart + 1)
        S[0] = beta
        for col in range(restart):
            w = psolve(A @ basis[col])
            # modified Gram-Schmidt
            h0 = np.linalg.norm(w)
            for k in range(col + 1):
                tmp = np.dot(basis[k], w)
                h[col, k] = tmp
                w -= tmp * basis[k]
            h1 = np.linalg.norm(w)
            if not math.isfinite(h1):
                raise Breakdown(f"GMRES breakdown: Arnoldi value {h1} at "
                                f"iteration {len(history) + 1}")
            breakdown = h1 <= eps * h0  # an exact solution
            if breakdown:
                h1 = 0.0
            else:
                w *= 1 / h1
            h[col, col + 1] = h1
            basis.append(w)

            # apply the past Givens rotations to the new column of h, then its own
            for k in range(col):
                c, s = givens[k]
                n0, n1 = h[col, k], h[col, k + 1]
                h[col, k], h[col, k + 1] = c * n0 + s * n1, -s * n0 + c * n1
            c, s, mag = lartg(h[col, col], h[col, col + 1])
            givens[col] = c, s
            h[col, col], h[col, col + 1] = mag, 0
            tmp = -s * S[col]
            S[col], S[col + 1] = c * S[col], tmp
            presid = abs(tmp)
            history.append(float(presid / norm_f))
            if presid <= ptol or breakdown:
                break

        # back substitution on the triangular h, which lets a zero last
        # diagonal through as a pseudo-solve
        if h[col, col] == 0:
            S[col] = 0
        y = S[:col + 1]
        for k in range(col, 0, -1):
            if y[k] != 0:
                y[k] /= h[k, k]
                y[:k] -= y[k] * h[k, :k]
        if y[0] != 0:
            y[0] /= h[0, 0]
        for k in range(col + 1):
            x += y[k] * basis[k]

        r = F - A @ x
        rnorm = np.linalg.norm(r)
        if rnorm <= atol or breakdown:
            break
        if presid <= ptol:  # the cycle met its tolerance, the true residual did not
            ptol_max_factor = max(eps, 0.25 * ptol_max_factor)
        else:
            ptol_max_factor = min(1.0, 1.5 * ptol_max_factor)
        ptol = presid * min(ptol_max_factor, atol / rnorm)
        z = psolve(r)
        beta = np.linalg.norm(z)
    return x


def solve(system: SparseSystem, config: SolverConfig = SolverConfig()):
    """Solve the assembled system; returns (solution, SolveStats).

    AUTO runs DIRECT_LU on systems of at most DIRECT_MAX_DOFS dofs and
    GMRES_RESTARTED on larger ones. Both methods report converged only when
    the recomputed residual meets config.rel_residual_tol. GMRES starts from
    the zero vector for determinism; on stagnation the last iterate is
    returned with stats.converged = False.
    """
    A, F = system.matrix, system.rhs
    if A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise ValueError("system must be square with dimension >= 1")
    norm_f = np.linalg.norm(F)
    t0 = time.perf_counter()
    method = config.method
    if method is SolveMethod.AUTO:
        method = (SolveMethod.DIRECT_LU if A.shape[0] <= DIRECT_MAX_DOFS
                  else SolveMethod.GMRES_RESTARTED)

    if method is SolveMethod.DIRECT_LU:
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

    psolve, prec_name, fill, fallback = _make_preconditioner(A, config.preconditioner)
    setup_time = time.perf_counter() - t0
    history: list[float] = []
    u = _gmres(A, F, psolve, config.restart, config.rel_residual_tol,
               math.ceil(MAX_KRYLOV_STEPS / config.restart), history)
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
