"""Experiment driver: sweep (N, eps, delta-variant), run
assemble -> solve -> analyze, and emit convergence tables and pointwise
error grids."""
from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .analysis import (
    DiscreteFunction,
    ErrorComputation,
    ErrorGrid,
    RegionSel,
    interpolant,
    layer_integral_oracle,
    pointwise_error_grid,
    rate,
    sd_norm_discrete,
)
from .discretization import assemble_system
from .mesh import AxisSpec, InvalidSpec, ShishkinMesh2D, build_mesh
from .problem import PROBLEMS, ProblemSpec
from .solver import SolveStats, SolverConfig, solve
from .stabilization import DeltaField, DeltaVariant


class ConfigError(ValueError):
    pass


class Unconverged(RuntimeError):
    pass


def _unconverged(stats: SolveStats, tol: float) -> Unconverged:
    return Unconverged(f"solve did not converge: {stats.iterations} iterations, "
                       f"residual {stats.residual:.3e} > tol {tol:.3e}")


def _failure(N: int, exc: Exception) -> dict:
    return {"N": N, "error": f"{type(exc).__name__}: {exc}"}


def _solver_entry(case: CaseResult) -> dict:
    """What the assembly and solve of a case did and cost; "fallback" only
    when its preconditioner fell back."""
    stats = case.stats
    entry = {"N": case.N, "iters": stats.iterations, "method": stats.method,
             "setup_time": stats.setup_time, "fill": stats.fill,
             "ndofs": case.ndofs, "nnz": case.nnz, "assemble_time": case.assemble_time,
             "solve_time": stats.wall_time, "error_time": case.error_time}
    if stats.fallback:
        entry["fallback"] = stats.fallback
    return entry


@dataclass(frozen=True)
class ExperimentConfig:
    problem: str = "paper-benchmark"
    N_list: tuple[int, ...] = (8, 16, 32, 64, 128, 256, 512)
    eps_list: tuple[float, ...] = (1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14, 1e-16)
    variants: tuple[DeltaVariant, ...] = (DeltaVariant.STANDARD,)
    c_star: float = 0.5
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        """Checks that every case's mesh and delta field can be built, with
        the checks of AxisSpec and DeltaField themselves."""
        if self.problem not in PROBLEMS:
            raise ConfigError(f"unknown problem {self.problem!r}")
        if not self.N_list:
            raise ConfigError("N list must not be empty")
        if list(self.N_list) != sorted(set(self.N_list)):
            raise ConfigError("N list must be strictly increasing")
        for eps in self.eps_list:
            problem = PROBLEMS[self.problem](eps)
            for N in self.N_list:
                try:
                    for beta in (problem.b1, problem.b2):
                        AxisSpec(N=N, epsilon=eps, beta=beta)
                except InvalidSpec as exc:
                    raise ConfigError(f"no mesh for N={N} eps={eps:g}: {exc}") from exc
        try:
            for variant in self.variants:
                DeltaField(variant, self.c_star)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


@dataclass
class CaseResult:
    N: int
    problem: ProblemSpec
    delta: DeltaField
    u_h: DiscreteFunction
    stats: SolveStats
    ndofs: int
    nnz: int
    assemble_time: float  # wall time of assemble_system
    error_time: float | None = None  # wall time of comp; None until it is computed

    @functools.cached_property
    def comp(self) -> ErrorComputation:
        """The error norms of u_h, computed on first use."""
        start = time.perf_counter()
        comp = ErrorComputation(self.u_h, self.delta, self.problem)
        self.error_time = time.perf_counter() - start
        return comp

    def report(self, region: RegionSel):
        return self.comp.report(region)


def build_case(problem_name: str, N: int, eps: float) -> tuple[ProblemSpec, ShishkinMesh2D]:
    problem = PROBLEMS[problem_name](eps)
    mesh = build_mesh(
        AxisSpec(N=N, epsilon=eps, beta=problem.b1),
        AxisSpec(N=N, epsilon=eps, beta=problem.b2),
    )
    return problem, mesh


def run_single(
    problem_name: str,
    N: int,
    eps: float,
    variant: DeltaVariant,
    c_star: float,
    solver_config: SolverConfig | None = None,
) -> CaseResult:
    """Assemble and solve one (N, eps, variant) case; its error norms are
    computed on the first report()."""
    problem, mesh = build_case(problem_name, N, eps)
    delta = DeltaField(variant, c_star)
    start = time.perf_counter()
    system = assemble_system(mesh, problem, delta)
    assemble_time = time.perf_counter() - start
    u, stats = solve(system, solver_config or SolverConfig())
    u_h = DiscreteFunction.from_dof_vector(mesh, u)
    return CaseResult(N=N, problem=problem, delta=delta, u_h=u_h, stats=stats,
                      ndofs=system.matrix.shape[0], nnz=system.matrix.nnz,
                      assemble_time=assemble_time)


@dataclass
class ConvergenceRecord:
    N: int
    e_eps_global: float | None = None
    e_sd_global: float | None = None
    e_eps_omegas: float | None = None
    e_sd_omegas: float | None = None
    rate_eps_global: float | None = None
    rate_sd_global: float | None = None
    rate_eps_omegas: float | None = None
    rate_sd_omegas: float | None = None
    solver_iters: int = 0
    residual: float | None = None
    failed: bool = False


@dataclass
class TableArtifact:
    eps: float
    variant: DeltaVariant
    c_star: float
    records: list[ConvergenceRecord]
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "eps": self.eps,
            "variant": self.variant.value,
            "cstar": self.c_star,
            "metadata": self.metadata,
            "records": [vars(r).copy() for r in self.records],
        }


def _fill_rates(records: list[ConvergenceRecord]) -> None:
    """Rate on row N is computed from rows N and 2N only; the last row (and
    rows without a 2N partner) keep empty rate cells."""
    by_n = {r.N: r for r in records}
    for r in records:
        nxt = by_n.get(2 * r.N)
        if nxt is None or r.failed or nxt.failed:
            continue
        for name in ("eps_global", "sd_global", "eps_omegas", "sd_omegas"):
            e0 = getattr(r, f"e_{name}")
            e1 = getattr(nxt, f"e_{name}")
            if e0 and e1 and e0 > 0 and e1 > 0:
                setattr(r, f"rate_{name}", rate(e0, e1))


def run_experiment(config: ExperimentConfig) -> list[TableArtifact]:
    """One table per (eps, variant) over the configured N list.

    A failed case (an exception or an unconverged solve) marks its row
    failed instead of aborting the sweep; metadata["failures"] then lists
    {"N", "error"} per failed row. Every row whose case was assembled and
    solved, failed or not, has a metadata["solver"] entry; one whose
    preconditioner fell back carries the reason there as "fallback".
    """
    artifacts = []
    for eps in config.eps_list:
        for variant in config.variants:
            records = []
            stats_summary = []
            failures = []
            for N in config.N_list:
                rec = ConvergenceRecord(N=N)
                records.append(rec)
                case = None
                try:
                    case = run_single(config.problem, N, eps, variant, config.c_star,
                                      config.solver)
                    if not case.stats.converged:
                        raise _unconverged(case.stats, config.solver.rel_residual_tol)
                    g = case.report(RegionSel.GLOBAL)
                    s = case.report(RegionSel.OMEGA_S)
                    rec.e_eps_global = g.eps_norm
                    rec.e_sd_global = g.sd_norm
                    rec.e_eps_omegas = s.eps_norm
                    rec.e_sd_omegas = s.sd_norm
                except Exception as exc:
                    rec.failed = True
                    failures.append(_failure(N, exc))
                if case is not None:
                    rec.solver_iters = case.stats.iterations
                    rec.residual = case.stats.residual
                    stats_summary.append(_solver_entry(case))
            _fill_rates(records)
            metadata = {"problem": config.problem, "solver": stats_summary}
            if failures:
                metadata["failures"] = failures
            artifacts.append(TableArtifact(
                eps=eps,
                variant=variant,
                c_star=config.c_star,
                records=records,
                metadata=metadata,
            ))
    return artifacts


CSV_HEADER = ("N,eps,variant,cstar,e_eps_global,rate_eps_global,"
              "e_sd_global,rate_sd_global,e_eps_omegas,rate_eps_omegas,"
              "e_sd_omegas,rate_sd_omegas,solver_iters,residual")

_ERROR_FIELDS = ("e_eps_global", "rate_eps_global", "e_sd_global", "rate_sd_global",
                 "e_eps_omegas", "rate_eps_omegas", "e_sd_omegas", "rate_sd_omegas")


def _sci(v: float | None) -> str:
    return "" if v is None else f"{v:.5e}"


def render_table(artifact: TableArtifact, fmt: str) -> str:
    if fmt == "csv":
        lines = [CSV_HEADER]
        for r in artifact.records:
            cells = [str(r.N), f"{artifact.eps:.5e}", artifact.variant.value,
                     f"{artifact.c_star:.5e}"]
            cells += [_sci(getattr(r, f)) for f in _ERROR_FIELDS]
            cells += [str(r.solver_iters), _sci(r.residual)]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"
    if fmt == "markdown":
        head = ("| N | e_eps_global | Rate | e_sd_global | Rate "
                "| e_eps_omega_s | Rate | e_sd_omega_s | Rate |")
        sep = "|" + "---|" * 9
        lines = [f"eps = {artifact.eps:.0e}, delta = {artifact.variant.value}, "
                 f"C* = {artifact.c_star:g}", "", head, sep]
        for r in artifact.records:
            def err(v):
                return "---" if v is None else f"{v:.2e}"

            def rt(v):
                return "---" if v is None else f"{v:.2f}"

            lines.append(
                f"| {r.N} | {err(r.e_eps_global)} | {rt(r.rate_eps_global)} "
                f"| {err(r.e_sd_global)} | {rt(r.rate_sd_global)} "
                f"| {err(r.e_eps_omegas)} | {rt(r.rate_eps_omegas)} "
                f"| {err(r.e_sd_omegas)} | {rt(r.rate_sd_omegas)} |"
            )
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return json.dumps(artifact.to_dict(), indent=2) + "\n"
    raise ConfigError(f"unknown format {fmt!r}")


def emit_table(artifact: TableArtifact, fmt: str, path: str) -> None:
    text = render_table(artifact, fmt)
    with open(path, "w") as fh:
        fh.write(text)


def emit_error_grid(
    problem_name: str,
    N: int,
    eps: float,
    variant: DeltaVariant,
    c_star: float,
    samples_per_cell: int,
    path: str,
    solver_config: SolverConfig | None = None,
) -> tuple[ErrorGrid, SolveStats]:
    """Solve one case and dump the pointwise error grid as JSON. Layer
    points carry the exact offsets alongside the lossy absolute coords; the
    head's "solver" entry records the case's size, assembly and solve as
    run_experiment does. Returns the grid and the solve's stats.

    Raises ConfigError for samples_per_cell < 1 before any work, and
    Unconverged, writing nothing, when the solve misses its residual
    tolerance."""
    if samples_per_cell < 1:
        raise ConfigError("samples_per_cell must be >= 1")
    solver_config = solver_config or SolverConfig()
    case = run_single(problem_name, N, eps, variant, c_star, solver_config)
    if not case.stats.converged:
        raise _unconverged(case.stats, solver_config.rel_residual_tol)
    grid = pointwise_error_grid(case.problem, case.u_h, samples_per_cell)
    head = {
        "N": N,
        "eps": eps,
        "variant": variant.value,
        "cstar": c_star,
        "samples_per_cell": samples_per_cell,
        "point_fields": ["x", "y", "sigma_x", "sigma_y", "abs_error"],
        "solver": _solver_entry(case),
    }
    text = _with_points_json(head, grid, N, samples_per_cell)
    with open(path, "w") as fh:
        fh.write(text)
    return grid, case.stats


def _json_floats(values: np.ndarray) -> list[str]:
    """Each value spelled as json.dumps spells it (repr when finite)."""
    return json.dumps(values.tolist())[1:-1].split(", ")


def _with_points_json(head: dict, grid: ErrorGrid, N: int, s: int) -> str:
    """The bytes of json.dumps({**head, "points": [[x, y, sigma_x, sigma_y,
    abs_error], ...]}), with each coordinate spelled once per axis value.

    pointwise_error_grid orders the points by sub-point row b, sub-point
    column a, cell row j and cell column i, so x and sigma_x depend on (a, i)
    only and y and sigma_y on (b, j) only.
    """
    by_axis = (s, s, N, N)
    x, sigma_x = (_json_floats(v.reshape(by_axis)[0, :, 0, :].ravel())
                  for v in (grid.x, grid.sigma_x))
    y, sigma_y = (_json_floats(v.reshape(by_axis)[:, 0, :, 0].ravel())
                  for v in (grid.y, grid.sigma_y))
    errors = _json_floats(grid.abs_error)
    rows = []
    for b in range(s):
        for a in range(s):
            xa, sxa = x[a * N:(a + 1) * N], sigma_x[a * N:(a + 1) * N]
            for j in range(N):
                yb, syb = y[b * N + j], sigma_y[b * N + j]
                k = ((b * s + a) * N + j) * N
                rows.append(", ".join([f"[{xi}, {yb}, {sxi}, {syb}, {e}]" for xi, sxi, e
                                       in zip(xa, sxa, errors[k:k + N])]))
    return json.dumps(head)[:-1] + ', "points": [' + ", ".join(rows) + "]}"


# Property checks shared by `sdfem verify` and the acceptance tests; the
# callers choose the N lists, eps values and random streams.

def layer_integral_errors(N: int, eps: float) -> tuple[float, float]:
    """Worst relative gap between the closed-form layer integrals and
    composite quadrature on the x and the y axis of the benchmark mesh."""
    problem, mesh = build_case("paper-benchmark", N, eps)
    worst = []
    for beta, axis in ((problem.b1, mesh.x_axis), (problem.b2, mesh.y_axis)):
        o = layer_integral_oracle(eps, beta, axis.strip_point, axis.transition_point, axis.H)
        gaps = [0.0]
        for a, b in ((o.tail_closed, o.tail_quad), (o.strip_closed, o.strip_quad)):
            scale = max(abs(a), abs(b))
            if scale:
                gaps.append(abs(a - b) / scale)
        worst.append(max(gaps))
    return worst[0], worst[1]


def min_coercivity_ratio(N: int, variant: DeltaVariant, rng: np.random.Generator) -> float:
    """min v'Av / ||v||_SD^2 over 100 random vectors from `rng`, on the
    benchmark at eps = 1e-8 with C* = 0.5."""
    problem, mesh = build_case("paper-benchmark", N, 1e-8)
    delta = DeltaField(variant, 0.5)
    A = assemble_system(mesh, problem, delta).matrix
    worst = math.inf
    for _ in range(100):
        v = rng.standard_normal(A.shape[0])
        quad = float(v @ (A @ v))
        nrm = sd_norm_discrete(DiscreteFunction.from_dof_vector(mesh, v), problem, delta)
        worst = min(worst, quad / nrm**2)
    return worst


def interpolation_spreads(N_list) -> tuple[float, float]:
    """max/min over N of the interpolant's SD-norm error scaled by its
    expected order: N^-1 ln N globally and N^-1.5 on Omega_s (benchmark,
    eps = 1e-8, modified delta, C* = 0.5)."""
    ratios_global, ratios_local = [], []
    for N in N_list:
        problem, mesh = build_case("paper-benchmark", N, 1e-8)
        delta = DeltaField(DeltaVariant.MODIFIED, 0.5)
        comp = ErrorComputation(interpolant(problem, mesh), delta, problem)
        ratios_global.append(comp.report(RegionSel.GLOBAL).sd_norm / (math.log(N) / N))
        ratios_local.append(comp.report(RegionSel.OMEGA_S).sd_norm / N**-1.5)
    return (max(ratios_global) / min(ratios_global),
            max(ratios_local) / min(ratios_local))
