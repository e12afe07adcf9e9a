"""Print one sha256 line per output of a fixed set of `sdfem` CLI calls,
or compare two such listings.

    python3 tools/same_outputs.py > outputs.txt
    python3 tools/same_outputs.py --compare old.txt new.txt

Run it from any directory; it imports `sdfem` from the `src/` and the
benchmark's workloads from the `perfbench/` of the checkout it lives in.
The calls are:

- every CLI call of the benchmark's workloads (`perfbench/workloads.calls`,
  seed 0, full sizes), whose JSON outputs are hashed with the wall times
  `setup_time`, `assemble_time`, `rhs_time`, `solve_time` and `error_time`
  dropped;
- a CSV run, a JSON run with `--solver gmres` (GMRES+ILUT at N = 8…64,
  where the default `--solver auto` factors N <= 32 by LU), a JSON run with
  `--solver direct` (LU at N = 8…512, eps 1e-8 and 1e-16, both deltas, so
  that its norms move only with the discretization, never with a solver
  tolerance), `--dump-matrix` at N=8 and, with eps=1e-16, at N=64 for each
  delta, `sdfem grid` at N=64, eps=1e-16 with 3 samples per cell for each
  delta (the benchmark's grid takes 1), `sdfem mesh` and `sdfem verify`
  (by its stdout), all hashed as written (the JSON runs and grids with
  their wall times dropped);
- `assemble_system` on every N of 4, 8, ..., 512 with every eps of 1e-2,
  1e-4, 1e-8 and 1e-16 that admits a mesh, both deltas and C* of 0.5 and 4
  (116 cases), each as two lines: one hashing the matrix's `data`,
  `indices` and `indptr` with the dof order, one hashing the right-hand
  side, so that any change to either shows up down to the last bit;
- `ErrorComputation` on the interpolant plus seeded noise (1e-3 times a
  standard normal at every interior node, seeded by N), with `use_exact`
  True and False, on every N of 8, 64 and 512, eps of 1e-4, 1e-8 and
  1e-16, and delta (C* = 0.5): one line per case with the three
  components of every region, so that the regions the tables do not print
  are checked too.

Each output line reads `<sha256>  <call> -> <output> (exit <code>)`. The
line of a `run` table is followed by one line per table row, `norms  <call>
-> <output> N=<N>: <e_eps_global> <e_sd_global> <e_eps_omegas>
<e_sd_omegas> iters=<solver_iters>`, each norm by its repr from a JSON
table and as written (six digits) from a CSV one. Two checkouts give the
same outputs when their sha256 lines are identical; when they differ only
by rounding, the norm lines show by how much, to check against the 1e-12
relative agreement that counts as the same result. An assembly case's
lines read `<sha256>  matrix N=<N> eps=<eps> delta=<delta> cstar=<C*>`
and the same with `rhs` for `matrix`, so a diff shows a matrix change
apart from a right-hand side change. A region line reads `regions N=<N>
eps=<eps> delta=<delta> exact=<use_exact>:` followed by `<region>=(<eg>,
<ml>, <st>)` for every region, each component by its repr, to check
against the same relative agreement. The whole set takes about 20 s and
384 MiB of peak RSS on a 2-core host.

`--compare OLD NEW` reads two listings without running anything and
prints how they differ: the matrix and RHS lines that differ, the table
rows whose `iters=` changed, the worst relative gap of the norm lines of
rows solved by LU (`iters=1`) and, apart, of GMRES rows, the worst
relative gap of any region component, and any other sha256 line that
differs or is in one listing only. The sha256 line of a run table is left
out, since its norm lines cover it. It exits 1 on any such difference, or
where a gap passes the bounds that count as the same result: 1e-12 for LU
rows and regions, and 1e-10 for GMRES rows, whose norms move with the
solver's tolerance.
"""
import argparse
import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

WALL_TIMES = ("setup_time", "assemble_time", "rhs_time", "solve_time", "error_time")
NORMS = ("e_eps_global", "e_sd_global", "e_eps_omegas", "e_sd_omegas")
# the largest relative gaps that count as the same result, by kind of line
BOUNDS = {"LU rows": 1e-12, "GMRES rows": 1e-10, "regions": 1e-12}

# calls beyond the benchmark's; DIR stands for the output directory
EXTRA_CALLS = (
    ("run", "--N", "8,16,32,64", "--eps", "1e-4,1e-16", "--delta", "both",
     "--out", "DIR/table.csv"),
    # GMRES+ILUT on the small systems that --solver auto factors by LU
    ("run", "--N", "8,16,32,64", "--eps", "1e-4,1e-16", "--delta", "both",
     "--solver", "gmres", "--format", "json", "--out", "DIR/table.json"),
    # LU on every size, so that the norms move only with the discretization
    ("run", "--N", "8,16,32,64,128,256,512", "--eps", "1e-8,1e-16", "--delta", "both",
     "--solver", "direct", "--format", "json", "--out", "DIR/table.json"),
    ("run", "--N", "8", "--eps", "1e-8", "--dump-matrix", "DIR/matrix.txt",
     "--out", "DIR/table.csv"),
    ("run", "--N", "64", "--eps", "1e-16", "--delta", "standard",
     "--dump-matrix", "DIR/matrix.txt", "--out", "DIR/table.csv"),
    ("run", "--N", "64", "--eps", "1e-16", "--delta", "modified",
     "--dump-matrix", "DIR/matrix.txt", "--out", "DIR/table.csv"),
    # the grid's sub-sampled path (--samples 3 is the CLI default)
    ("grid", "--N", "64", "--eps", "1e-16", "--delta", "standard", "--samples", "3",
     "--out", "DIR/grid.json"),
    ("grid", "--N", "64", "--eps", "1e-16", "--delta", "modified", "--samples", "3",
     "--out", "DIR/grid.json"),
    ("mesh", "--N", "16", "--eps", "1e-16", "--out", "DIR/mesh.txt"),
    ("verify",),
)


def without_wall_times(value):
    if isinstance(value, dict):
        return {k: without_wall_times(v) for k, v in value.items() if k not in WALL_TIMES}
    if isinstance(value, list):
        return [without_wall_times(v) for v in value]
    return value


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.suffix == ".json":
        data = json.dumps(without_wall_times(json.loads(data))).encode()
    return hashlib.sha256(data).hexdigest()


def table_rows(path: Path) -> list[dict]:
    """The rows of a run table (JSON or CSV), or none for any other output."""
    if path.suffix == ".json":
        return json.loads(path.read_text()).get("records", [])
    if path.suffix == ".csv":
        return list(csv.DictReader(path.read_text().splitlines()))
    return []


def run(argv) -> list[str]:
    """Run one CLI call in a fresh directory; one line per output file, and
    one for stdout when the call writes no file. Each line of a run table is
    followed by one line per table row."""
    from sdfem import cli

    label = " ".join(argv)
    with tempfile.TemporaryDirectory() as tmp:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([arg.replace("DIR", tmp) for arg in argv])
        outputs = sorted(Path(tmp).iterdir())
        lines = []
        for p in outputs:
            lines.append(f"{digest(p)}  {label} -> {p.name} (exit {code})")
            if argv[0] == "run":
                spell = repr if p.suffix == ".json" else str
                lines += [f"norms  {label} -> {p.name} N={row['N']}: "
                          + " ".join(spell(row[k]) for k in NORMS)
                          + f" iters={row['solver_iters']}" for row in table_rows(p)]
    if not outputs:
        text = stdout.getvalue().encode()
        lines.append(f"{hashlib.sha256(text).hexdigest()}  {label} -> stdout (exit {code})")
    return lines


def assembly_lines() -> list[str]:
    """Two lines per assemble_system case, hashing the system's matrix
    with its dof order and its right-hand side; a case is taken where its
    eps admits a mesh at its N."""
    from sdfem.discretization import assemble_system
    from sdfem.mesh import AxisSpec, InvalidSpec, build_mesh
    from sdfem.problem import make_benchmark
    from sdfem.stabilization import DeltaField, DeltaVariant

    lines = []
    for N, eps, variant, c_star in itertools.product(
            (4, 8, 16, 32, 64, 128, 256, 512), (1e-2, 1e-4, 1e-8, 1e-16),
            DeltaVariant, (0.5, 4.0)):
        problem = make_benchmark(eps)
        try:
            mesh = build_mesh(AxisSpec(N=N, epsilon=eps, beta=problem.b1),
                              AxisSpec(N=N, epsilon=eps, beta=problem.b2))
        except InvalidSpec:
            continue
        s = assemble_system(mesh, problem, DeltaField(variant, c_star))
        case = f"N={N} eps={eps:g} delta={variant.value} cstar={c_star:g}"
        for name, arrays in (("matrix", (s.matrix.data, s.matrix.indices,
                                         s.matrix.indptr, s.dofs)),
                             ("rhs", (s.rhs,))):
            h = hashlib.sha256()
            for array in arrays:
                h.update(array.tobytes())
            lines.append(f"{h.hexdigest()}  {name} {case}")
    return lines


def region_lines() -> list[str]:
    """One line per ErrorComputation case on a noisy interpolant: the three
    components of every region, by repr."""
    import numpy as np

    from sdfem.analysis import DiscreteFunction, ErrorComputation, interpolant
    from sdfem.mesh import AxisSpec, RegionSel, build_mesh
    from sdfem.problem import make_benchmark
    from sdfem.stabilization import DeltaField, DeltaVariant

    lines = []
    for N, eps, variant, use_exact in itertools.product(
            (8, 64, 512), (1e-4, 1e-8, 1e-16), DeltaVariant, (True, False)):
        problem = make_benchmark(eps)
        mesh = build_mesh(AxisSpec(N=N, epsilon=eps, beta=problem.b1),
                          AxisSpec(N=N, epsilon=eps, beta=problem.b2))
        values = interpolant(problem, mesh).values.copy()
        values[1:-1, 1:-1] += 1e-3 * np.random.default_rng(N).standard_normal((N - 1, N - 1))
        comp = ErrorComputation(DiscreteFunction(mesh=mesh, values=values),
                                DeltaField(variant, 0.5), problem, use_exact=use_exact)
        lines.append(f"regions N={N} eps={eps:g} delta={variant.value} exact={use_exact}: "
                     + " ".join(f"{r.name}={comp.report(r).components!r}" for r in RegionSel))
    return lines


def read_listing(path) -> dict:
    """A listing's lines by key: a norm or region line's value is the text
    after its first ': ', a sha256 line's value is its digest."""
    lines = {}
    for line in Path(path).read_text().splitlines():
        if line.startswith(("norms  ", "regions ")):
            key, _, value = line.partition(": ")
        else:
            value, _, key = line.partition("  ")
        lines[key] = value
    return lines


def relative_gap(old, new) -> float:
    """The worst relative gap between two lists of numbers; inf where their
    lengths differ, an old value is zero or not finite, or a gap is not."""
    if len(old) != len(new):
        return math.inf
    worst = 0.0
    for a, b in zip(map(float, old), map(float, new)):
        if a != b:
            worst = max(worst, abs(a - b) / abs(a) if a and math.isfinite(a - b) else math.inf)
    return worst


def compare(old_path, new_path) -> int:
    """Print how two listings differ; 1 on any difference past the bounds."""
    old, new = read_listing(old_path), read_listing(new_path)
    # a run table's sha256 key is its norm lines' key up to the row's N
    tables = {key.removeprefix("norms  ").rpartition(" N=")[0]
              for key in old.keys() | new.keys() if key.startswith("norms  ")}
    worst = dict.fromkeys(BOUNDS, 0.0)
    counts = dict.fromkeys(BOUNDS, 0)
    differ, hashed = [], 0
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        if a is None or b is None:
            differ.append(f"only in {'NEW' if a is None else 'OLD'}: {key}")
        elif key.startswith("norms  "):
            *norms_a, iters_a = a.split()
            *norms_b, iters_b = b.split()
            if iters_a != iters_b:
                differ.append(f"{iters_a} -> {iters_b}: {key}")
            kind = "LU rows" if iters_a == "iters=1" else "GMRES rows"
            worst[kind] = max(worst[kind], relative_gap(norms_a, norms_b))
            counts[kind] += 1
        elif key.startswith("regions "):
            worst["regions"] = max(worst["regions"], relative_gap(
                *(re.findall(r"[^(), ]+(?=[,)])", v) for v in (a, b))))
            counts["regions"] += 1
        elif key.rpartition(" (exit ")[0] not in tables:
            hashed += 1
            if a != b:
                differ.append(f"differs: {key}")
    print(f"sha256 lines: {hashed} compared, run tables left out")
    for kind, bound in BOUNDS.items():
        print(f"{kind}: worst relative gap {worst[kind]:.2g} over {counts[kind]} lines "
              f"(bound {bound:g})")
    for line in differ:
        print(line)
    same = not differ and all(worst[kind] <= bound for kind, bound in BOUNDS.items())
    print("same" if same else "NOT the same")
    return 0 if same else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Hash sdfem's outputs, or compare two listings.")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two listings instead of writing one")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    # one BLAS thread, as the benchmark runs, set before numpy is first
    # imported; sdfem and the workloads from this checkout
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from workloads import WORKLOADS, calls

    argvs = [(*call.argv, "--out", f"DIR/{call.kind}.json")
             for workload in WORKLOADS for call in calls(workload, seed=0)]
    for argv in argvs + list(EXTRA_CALLS):
        for line in run(argv):
            print(line, flush=True)
    for line in assembly_lines() + region_lines():
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
