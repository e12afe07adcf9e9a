import numpy as np
import pytest
import scipy.sparse as sp

from sdfem import solver
from sdfem.discretization import SparseSystem, assemble_system
from sdfem.mesh import AxisSpec, build_mesh
from sdfem.problem import make_benchmark
from sdfem.solver import (
    Preconditioner,
    SingularFactor,
    SolveMethod,
    SolverConfig,
    nested_dissection,
    solve,
)
from sdfem.stabilization import DeltaField, DeltaVariant


def system_of(A, F):
    return SparseSystem(matrix=sp.csc_matrix(A), rhs=np.asarray(F, dtype=float))


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
        bad = SparseSystem(matrix=sp.csc_matrix(np.ones((2, 3))), rhs=np.ones(2))
        with pytest.raises(ValueError):
            solve(bad)


class TestFactorInput:
    """Both factorizations read the assembled CSC matrix without a
    conversion."""

    def test_ilut_factors_assembled_arrays(self, monkeypatch):
        system = bench_system(8)
        seen = []
        spla_spilu = solver.spla.spilu

        def spilu(A, **kwargs):
            seen.append(A)
            return spla_spilu(A, **kwargs)

        monkeypatch.setattr(solver.spla, "spilu", spilu)
        _, stats = solve(system)
        assert stats.method == "gmres(60)+ilut"
        (A,) = seen
        assert all(np.shares_memory(getattr(A, name), getattr(system.matrix, name))
                   for name in ("data", "indices", "indptr"))

    def test_direct_factors_permuted_matrix(self, monkeypatch):
        system = bench_system(8)
        seen = []
        spla_splu = solver.spla.splu

        def splu(A, **kwargs):
            # splu sorts its input in place, so look before it runs
            seen.append((A, A.format, A.has_sorted_indices))
            return spla_splu(A, **kwargs)

        monkeypatch.setattr(solver.spla, "splu", splu)
        solve(system, SolverConfig(method=SolveMethod.DIRECT_LU))
        ((B, fmt, is_sorted),) = seen
        perm = nested_dissection(system.matrix.shape[0])
        assert fmt == "csc" and is_sorted
        assert np.array_equal(B.toarray(), system.matrix.toarray()[perm][:, perm])


class TestNestedDissection:
    @pytest.mark.parametrize("m", [1, 2, 3, 12, 63**2, 511**2])
    def test_is_permutation(self, m):
        perm = nested_dissection(m)
        assert np.array_equal(np.sort(perm), np.arange(m))

    def test_first_separator_last(self):
        # the middle column of the 63 x 63 dof grid separates the rest
        perm = nested_dissection(63**2)
        assert np.array_equal(perm[-63:], 31 + 63 * np.arange(63))


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
