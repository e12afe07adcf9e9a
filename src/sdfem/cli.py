"""Command line interface.

Subcommands:
  run     sweep (N, eps, variant) and write convergence tables
  grid    solve one case and dump a pointwise error grid (JSON)
  verify  run the built-in property suites (oracles, coercivity, regressions)
  mesh    dump the 1D breakpoint sets of a Shishkin mesh

Exit codes: 0 success, 1 failed row, failed check, or a grid solve that
did not converge, broke down or ran out of memory, 2 configuration error.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .discretization import assemble_system
from .harness import (
    ConfigError,
    ExperimentConfig,
    Unconverged,
    build_case,
    emit_error_grid,
    emit_table,
    interpolation_spreads,
    layer_integral_errors,
    min_coercivity_ratio,
    run_experiment,
)
from .mesh import InvalidSpec, dump_mesh
from .problem import PROBLEMS
from .solver import (
    DIRECT_MAX_DOFS,
    Breakdown,
    Preconditioner,
    SingularFactor,
    SolveMethod,
    SolverConfig,
)
from .stabilization import DeltaField, DeltaVariant


def _parse_variants(value: str) -> tuple[DeltaVariant, ...]:
    if value == "both":
        return (DeltaVariant.STANDARD, DeltaVariant.MODIFIED)
    return (DeltaVariant(value),)


def _solver_config(args) -> SolverConfig:
    return SolverConfig(
        method=SolveMethod(args.solver),
        restart=args.restart,
        rel_residual_tol=args.tol,
        preconditioner=Preconditioner(args.precond),
    )


def _add_solver_flags(p):
    p.add_argument("--solver", choices=[m.value for m in SolveMethod], default="auto",
                   help="gmres: restarted GMRES; direct: sparse LU; auto (default): "
                        f"direct LU up to {DIRECT_MAX_DOFS} dofs (N <= 32), where it is "
                        "faster than GMRES+ILUT, and GMRES above. Each row's method "
                        "and iters show which ran")
    p.add_argument("--restart", type=int, default=60,
                   help="GMRES restart length (unused by direct-LU rows)")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--precond", choices=[m.value for m in Preconditioner], default="ilut",
                   help="GMRES preconditioner (unused by direct-LU rows)")


def _table_paths(config: ExperimentConfig, out: str) -> list[str]:
    """Each table's path in run_experiment's (eps, variant) order: `out` for
    a lone table, else `out` named per case. ConfigError when two coincide."""
    cases = [(eps, variant) for eps in config.eps_list for variant in config.variants]
    base, ext = os.path.splitext(out)
    paths = {}
    for eps, variant in cases:
        path = f"{base}_eps{eps:.0e}_{variant.value}{ext}" if len(cases) > 1 else out
        if path in paths:
            raise ConfigError(f"eps={paths[path]:g} and eps={eps:g} would both write {path}")
        paths[path] = eps
    return list(paths)


def cmd_run(args) -> int:
    config = ExperimentConfig(
        problem=args.problem,
        N_list=tuple(int(v) for v in args.N.split(",")),
        eps_list=tuple(float(v) for v in args.eps.split(",")),
        variants=_parse_variants(args.delta),
        c_star=args.cstar,
        solver=_solver_config(args),
    )
    paths = _table_paths(config, args.out)
    artifacts = run_experiment(config)
    for art, path in zip(artifacts, paths):
        emit_table(art, args.format, path)
        print(f"wrote {path}")
        case = f"eps={art.eps:.0e} {art.variant.value}"
        for entry in art.metadata["solver"]:
            if "fallback" in entry:
                print(f"fallback: N={entry['N']} {case}: {entry['fallback']}", file=sys.stderr)
        for f in art.metadata.get("failures", ()):
            print(f"failed: N={f['N']} {case}: {f['error']}", file=sys.stderr)
    if args.dump_matrix:
        problem, mesh = build_case(args.problem, config.N_list[0], config.eps_list[0])
        delta = DeltaField(config.variants[0], config.c_star)
        system = assemble_system(mesh, problem, delta)
        # natural dof numbers, row-major lines
        coo = system.matrix.tocoo()
        rows, cols = system.dofs[coo.row], system.dofs[coo.col]
        order = np.lexsort((cols, rows))
        with open(args.dump_matrix, "w") as fh:
            for r, c, v in zip(rows[order], cols[order], coo.data[order]):
                fh.write(f"{r} {c} {v:.17g}\n")
        print(f"wrote {args.dump_matrix}")
    failed = any(r.failed for a in artifacts for r in a.records)
    return 1 if failed else 0


def cmd_grid(args) -> int:
    try:
        _, stats = emit_error_grid(
            args.problem,
            args.N,
            args.eps,
            DeltaVariant(args.delta),
            args.cstar,
            args.samples,
            args.out,
            _solver_config(args),
        )
    except (Unconverged, Breakdown, SingularFactor) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1
    if stats.fallback:
        print(f"fallback: N={args.N} eps={args.eps:.0e} {args.delta}: {stats.fallback}",
              file=sys.stderr)
    print(f"wrote {args.out}")
    return 0


def cmd_mesh(args) -> int:
    problem, mesh = build_case(args.problem, args.N, args.eps)
    text = dump_mesh(mesh)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args) -> int:
    """Quick property suites; the full set lives in the pytest suite."""
    ok = True

    def check(name: str, passed: bool, detail: str = ""):
        nonlocal ok
        ok = ok and passed
        status = "PASS" if passed else "FAIL"
        print(f"[{status}] {name}" + (f"  ({detail})" if detail else ""))

    for eps in (1e-2, 1e-4):
        for N in (8, 16):
            err = layer_integral_errors(N, eps)[0]
            check(f"layer integrals eps={eps:g} N={N}", err <= 1e-12, f"rel err {err:.2e}")

    rng = np.random.default_rng(0)
    for variant in (DeltaVariant.STANDARD, DeltaVariant.MODIFIED):
        worst = min_coercivity_ratio(8, variant, rng)
        check(f"coercivity {variant.value}", worst >= 0.5, f"min ratio {worst:.3f}")

    spreads = interpolation_spreads((8, 16, 32, 64))
    for name, spread in zip(("global", "omega_s"), spreads):
        check(f"interpolation regression {name}", spread <= 3.0, f"spread {spread:.2f}")

    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdfem",
        description="SDFEM on Shishkin meshes: solver and experiment harness",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a convergence sweep")
    p.add_argument("--problem", choices=sorted(PROBLEMS), default="paper-benchmark")
    p.add_argument("--N", default="8,16,32,64,128,256")
    p.add_argument("--eps", default="1e-8")
    p.add_argument("--delta", choices=["standard", "modified", "both"], default="standard")
    p.add_argument("--cstar", type=float, default=0.5)
    _add_solver_flags(p)
    p.add_argument("--out", default="table.csv")
    p.add_argument("--format", choices=["csv", "markdown", "json"], default="csv")
    p.add_argument("--dump-matrix", default=None,
                   help="also dump the first case's matrix in coordinate text format")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("grid", help="dump a pointwise error grid")
    p.add_argument("--problem", choices=sorted(PROBLEMS), default="paper-benchmark")
    p.add_argument("--N", type=int, default=64)
    p.add_argument("--eps", type=float, default=1e-8)
    p.add_argument("--delta", choices=["standard", "modified"], default="standard")
    p.add_argument("--cstar", type=float, default=0.5)
    p.add_argument("--samples", type=int, default=3)
    _add_solver_flags(p)
    p.add_argument("--out", default="grid.json")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("mesh", help="dump the Shishkin breakpoints")
    p.add_argument("--problem", choices=sorted(PROBLEMS), default="paper-benchmark")
    p.add_argument("--N", type=int, default=8)
    p.add_argument("--eps", type=float, default=1e-8)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_mesh)

    p = sub.add_parser("verify", help="run the built-in property suites")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InvalidSpec, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
