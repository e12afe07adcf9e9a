import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from sdfem import solver
from sdfem.discretization import SparseSystem, assemble_system
from sdfem.mesh import AxisSpec, build_mesh
from sdfem.problem import make_benchmark
from sdfem.solver import (
    Breakdown,
    Preconditioner,
    SingularFactor,
    SolveMethod,
    SolverConfig,
    solve,
)
from sdfem.stabilization import DeltaField, DeltaVariant


def system_of(A, F):
    F = np.asarray(F, dtype=float)
    return SparseSystem(matrix=sp.csc_matrix(A), rhs=F, dofs=np.arange(F.size))


def bench_system(N, eps=1e-8, variant=DeltaVariant.STANDARD):
    p = make_benchmark(eps)
    m = build_mesh(AxisSpec(N=N, epsilon=eps, beta=2.0), AxisSpec(N=N, epsilon=eps, beta=1.0))
    d = DeltaField(variant, 0.5)
    return assemble_system(m, p, d)


class TestSmallSystems:
    def test_identity(self):
        u, stats = solve(system_of(np.eye(3), [1.0, 2.0, 3.0]))
        assert np.allclose(u, [1.0, 2.0, 3.0], atol=1e-12)
        assert stats.converged
        assert stats.iterations <= 3

    def test_upper_triangular_2x2(self):
        u, stats = solve(system_of([[2.0, 1.0], [0.0, 1.0]], [3.0, 1.0]))
        assert np.allclose(u, [1.0, 1.0], atol=1e-10)
        assert stats.converged

    def test_direct_method(self):
        u, stats = solve(
            system_of([[2.0, 1.0], [0.0, 1.0]], [3.0, 1.0]),
            SolverConfig(method=SolveMethod.DIRECT_LU),
        )
        assert np.allclose(u, [1.0, 1.0], atol=1e-14)
        assert stats.method == "direct"
        assert stats.converged

    def test_direct_method_unconverged_on_residual(self):
        # Hilbert matrix of order 12 (condition ~1e16): LU returns a finite
        # solution whose recomputed residual is far above the tolerance
        i = np.arange(12)
        hilbert = 1.0 / (i[:, None] + i[None, :] + 1.0)
        u, stats = solve(system_of(hilbert, np.ones(12)),
                         SolverConfig(method=SolveMethod.DIRECT_LU))
        assert np.isfinite(u).all()
        assert stats.residual > 1e-10
        assert not stats.converged

    def test_singular_matrix_raises(self):
        singular = [[1.0, 1.0], [1.0, 1.0]]
        with pytest.raises(SingularFactor):
            solve(system_of(singular, [1.0, 1.0]), SolverConfig(method=SolveMethod.DIRECT_LU))

    def test_jacobi_fallback_recorded(self):
        # a zero on the diagonal leaves Jacobi nothing to invert
        u, stats = solve(system_of([[0.0, 1.0], [1.0, 0.0]], [2.0, 3.0]),
                         SolverConfig(preconditioner=Preconditioner.JACOBI))
        assert np.allclose(u, [3.0, 2.0], atol=1e-12)
        assert stats.method == "gmres(60)+none"
        assert stats.fallback == "jacobi failed: zero on the diagonal; used none"

    def test_shape_validation(self):
        bad = SparseSystem(matrix=sp.csc_matrix(np.ones((2, 3))), rhs=np.ones(2),
                           dofs=np.arange(2))
        with pytest.raises(ValueError):
            solve(bad)


class TestFactorInput:
    """Both factorizations read the assembled CSC matrix itself, in the
    order it is assembled in: no copy, no conversion, no ordering step."""

    @pytest.mark.parametrize("name, config", [
        ("spilu", SolverConfig()),
        ("splu", SolverConfig(method=SolveMethod.DIRECT_LU)),
    ])
    def test_factors_system_matrix(self, monkeypatch, name, config):
        system = bench_system(8)
        seen = []
        factor = getattr(solver.spla, name)

        def spy(A, **kwargs):
            seen.append((A, kwargs["permc_spec"]))
            return factor(A, **kwargs)

        monkeypatch.setattr(solver.spla, name, spy)
        _, stats = solve(system, config)
        assert stats.converged
        ((A, permc_spec),) = seen
        assert np.shares_memory(A.data, system.matrix.data)
        assert permc_spec == "NATURAL"


class TestGmres:
    """solver._gmres against scipy's gmres, the algorithm it ports. Its
    iterate is summed one basis vector at a time where scipy's is one
    matrix-vector product, so the two agree to rounding, not in every bit."""

    @pytest.mark.parametrize("restart", [60, 2])
    @pytest.mark.parametrize("kind", list(Preconditioner))
    @pytest.mark.parametrize("variant", list(DeltaVariant))
    @pytest.mark.parametrize("N", [8, 16, 32])
    def test_matches_scipy_gmres(self, N, variant, kind, restart):
        system = bench_system(N, variant=variant)
        A, F = system.matrix, system.rhs
        psolve, *_ = solver._make_preconditioner(A, kind)
        if psolve is None:
            # unpreconditioned GMRES stagnates from N=16 on, where that
            # rounding grows with every cycle (1e-11 relative in the iterate
            # after two 60-step cycles at N=16), so these runs stop at 60 steps
            cycles = 60 // restart
        else:
            cycles = math.ceil(solver.MAX_KRYLOV_STEPS / restart)
        history, expected = [], []
        u = solver._gmres(A, F, psolve, restart, 1e-10, cycles, history)
        M = None if psolve is None else spla.LinearOperator(A.shape, psolve, dtype=A.dtype)
        u_ref, _ = spla.gmres(A, F, rtol=1e-10, atol=0.0, restart=restart, maxiter=cycles,
                              M=M, callback=expected.append, callback_type="pr_norm")
        assert len(history) == len(expected)
        assert np.abs(np.subtract(history, expected)).max() <= 1e-12
        assert np.linalg.norm(u - u_ref) <= 1e-12 * np.linalg.norm(u_ref)

    @pytest.mark.parametrize("restart", [60, 2])
    def test_one_preconditioner_solve_per_step_and_cycle(self, restart):
        # each cycle solves M^-1 r once to start its basis, and each step
        # once more; the first cycle's M^-1 F also sets the tolerance scale
        system = bench_system(16)
        jacobi, *_ = solver._make_preconditioner(system.matrix, Preconditioner.JACOBI)
        solves, products = [], []

        class CountedMatrix:
            def __matmul__(self, v):
                products.append(v)
                return system.matrix @ v

        history = []
        solver._gmres(CountedMatrix(), system.rhs,
                      lambda v: solves.append(v) or jacobi(v), restart, 1e-10,
                      math.ceil(solver.MAX_KRYLOV_STEPS / restart), history)
        # a cycle's products are one per step and one for its residual
        cycles = len(products) - len(history)
        assert cycles > 1
        assert len(solves) == len(history) + cycles

    def test_nan_preconditioner_breaks_down_at_once(self, monkeypatch):
        # a NaN from the factor stops the solve after its first step, not
        # after every restart cycle has run
        solves = []

        def nan_ilu(A, **kwargs):
            return SimpleNamespace(nnz=A.nnz,
                                   solve=lambda v: solves.append(v) or np.full_like(v, np.nan))

        monkeypatch.setattr(solver.spla, "spilu", nan_ilu)
        with pytest.raises(Breakdown, match="^GMRES breakdown: Arnoldi value nan at iteration 1$"):
            solve(bench_system(8))
        assert len(solves) == 2


class TestAutoMethod:
    """AUTO factors a system of at most DIRECT_MAX_DOFS dofs by LU and hands
    a larger one to GMRES with the configured preconditioner; the stats name
    what ran."""

    @pytest.mark.parametrize("extra, preconditioner, method", [
        (0, Preconditioner.ILUT, "direct"),
        (1, Preconditioner.ILUT, "gmres(60)+ilut"),
        (1, Preconditioner.JACOBI, "gmres(60)+jacobi"),
    ])
    def test_picks_by_size(self, extra, preconditioner, method):
        n = solver.DIRECT_MAX_DOFS + extra
        A = sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(n, n))
        u, stats = solve(system_of(A, np.ones(n)),
                         SolverConfig(method=SolveMethod.AUTO, preconditioner=preconditioner))
        assert stats.method == method
        assert stats.converged
        assert np.linalg.norm(A @ u - 1.0) <= 1e-10 * math.sqrt(n)
        if method == "direct":
            assert stats.iterations == 1 and stats.residual_history == []


class TestConfig:
    def test_invalid_restart(self):
        with pytest.raises(ValueError):
            SolverConfig(restart=0)

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError):
            SolverConfig(rel_residual_tol=0.5)
        with pytest.raises(ValueError):
            SolverConfig(rel_residual_tol=0.0)


class TestBenchmarkSystems:
    @pytest.mark.parametrize("N", [8, 16, 32])
    def test_gmres_agrees_with_direct(self, N):
        system = bench_system(N)
        u_it, stats = solve(system)
        u_lu, _ = solve(system, SolverConfig(method=SolveMethod.DIRECT_LU))
        assert stats.converged
        assert stats.residual <= 1e-10
        assert np.abs(u_it - u_lu).max() <= 1e-8

    def test_residual_is_recomputed(self):
        system = bench_system(16)
        _, stats = solve(system)
        # the recomputed residual must hold with the true matrix, not only
        # the preconditioned Krylov estimate
        assert stats.residual <= 1e-10
        assert stats.residual >= 0.0
        assert stats.wall_time >= 0.0

    def test_history_decreases(self):
        system = bench_system(16)
        _, stats = solve(system, SolverConfig(preconditioner=Preconditioner.JACOBI))
        h = stats.residual_history
        assert len(h) >= 1
        assert h[-1] < h[0] or len(h) == 1

    def test_preconditioner_fallbacks(self):
        system = bench_system(8)
        for pc in Preconditioner:
            u, stats = solve(system, SolverConfig(preconditioner=pc))
            assert stats.converged, pc
            assert stats.residual <= 1e-10

    def test_factor_cost_recorded(self):
        system = bench_system(16)
        _, stats = solve(system)
        assert stats.method == "gmres(60)+ilut"
        assert stats.fill > 1.0
        assert 0.0 <= stats.setup_time <= stats.wall_time
        assert stats.fallback is None
        _, stats = solve(system, SolverConfig(preconditioner=Preconditioner.JACOBI))
        assert stats.method == "gmres(60)+jacobi"
        assert stats.fill is None and stats.setup_time >= 0.0

    def test_fill_reducing_ordering(self):
        # stored factor entries / nnz(A) at N=64 read LU 9.39 and ILUT 3.78
        # under SuperLU's default COLAMD, and 6.18 and 3.16 under MMD on the
        # pattern of A'+A; LU in nested-dissection order reads 5.69
        system = bench_system(64)
        _, lu = solve(system, SolverConfig(method=SolveMethod.DIRECT_LU))
        _, ilu = solve(system)
        assert lu.fill <= 7.5
        assert lu.fill <= 6.0
        assert ilu.fill <= 3.4

    def test_tiny_eps_system_solvable(self):
        system = bench_system(16, eps=1e-16)
        u, stats = solve(system)
        assert stats.converged
        assert np.isfinite(u).all()
