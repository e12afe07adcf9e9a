"""Print one sha256 line per output of a fixed set of `sdfem` CLI calls.

    python3 tools/same_outputs.py > outputs.txt

Run it from any directory; it imports `sdfem` from the `src/` and the
benchmark's workloads from the `perfbench/` of the checkout it lives in.
The calls are:

- every CLI call of the benchmark's workloads (`perfbench/workloads.calls`,
  seed 0, full sizes), whose JSON outputs are hashed with the wall times
  `setup_time`, `assemble_time`, `solve_time` and `error_time` dropped;
- a CSV run, a JSON run with `--solver gmres` (GMRES+ILUT at N = 8…64,
  where the default `--solver auto` factors N <= 32 by LU),
  `--dump-matrix` at N=8 and, with eps=1e-16, at N=64 for each delta,
  `sdfem mesh` and `sdfem verify` (by its stdout), all hashed as written
  (the JSON run with its wall times dropped);
- `assemble_system` on every N of 4, 8, ..., 512 with every eps of 1e-2,
  1e-4, 1e-8 and 1e-16 that admits a mesh, both deltas and C* of 0.5 and 4
  (116 cases), each hashed over the matrix's `data`, `indices` and
  `indptr`, the right-hand side and the dof order, so that any change to
  assembly shows up as one line, down to the last bit.

Each output line reads `<sha256>  <call> -> <output> (exit <code>)`. The
line of a `run` table is followed by one line per table row, `norms  <call>
-> <output> N=<N>: <e_eps_global> <e_sd_global> <e_eps_omegas>
<e_sd_omegas> iters=<solver_iters>`, each norm by its repr from a JSON
table and as written (six digits) from a CSV one. Two checkouts give the
same outputs when their sha256 lines are identical; when they differ only
by rounding, the norm lines show by how much, to check against the 1e-12
relative agreement that counts as the same result. An assembly line reads
`<sha256>  assemble N=<N> eps=<eps> delta=<delta> cstar=<C*>`. The whole
set takes 13–21 s and 380 MiB of peak RSS on a 2-core host.
"""
import os

# one BLAS thread, as the benchmark runs; set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from sdfem import cli  # noqa: E402
from sdfem.discretization import assemble_system  # noqa: E402
from sdfem.mesh import AxisSpec, InvalidSpec, build_mesh  # noqa: E402
from sdfem.problem import make_benchmark  # noqa: E402
from sdfem.stabilization import DeltaField, DeltaVariant  # noqa: E402
from workloads import WORKLOADS, calls  # noqa: E402

WALL_TIMES = ("setup_time", "assemble_time", "solve_time", "error_time")
NORMS = ("e_eps_global", "e_sd_global", "e_eps_omegas", "e_sd_omegas")

# calls beyond the benchmark's; DIR stands for the output directory
EXTRA_CALLS = (
    ("run", "--N", "8,16,32,64", "--eps", "1e-4,1e-16", "--delta", "both",
     "--out", "DIR/table.csv"),
    # GMRES+ILUT on the small systems that --solver auto factors by LU
    ("run", "--N", "8,16,32,64", "--eps", "1e-4,1e-16", "--delta", "both",
     "--solver", "gmres", "--format", "json", "--out", "DIR/table.json"),
    ("run", "--N", "8", "--eps", "1e-8", "--dump-matrix", "DIR/matrix.txt",
     "--out", "DIR/table.csv"),
    ("run", "--N", "64", "--eps", "1e-16", "--delta", "standard",
     "--dump-matrix", "DIR/matrix.txt", "--out", "DIR/table.csv"),
    ("run", "--N", "64", "--eps", "1e-16", "--delta", "modified",
     "--dump-matrix", "DIR/matrix.txt", "--out", "DIR/table.csv"),
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
    """One line per assemble_system case, hashing the system's arrays;
    a case is taken where its eps admits a mesh at its N."""
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
        h = hashlib.sha256()
        for array in (s.matrix.data, s.matrix.indices, s.matrix.indptr, s.rhs, s.dofs):
            h.update(array.tobytes())
        lines.append(f"{h.hexdigest()}  assemble N={N} eps={eps:g} "
                     f"delta={variant.value} cstar={c_star:g}")
    return lines


def main() -> int:
    argvs = [(*call.argv, "--out", f"DIR/{call.kind}.json")
             for workload in WORKLOADS for call in calls(workload, seed=0)]
    for argv in argvs + list(EXTRA_CALLS):
        for line in run(argv):
            print(line, flush=True)
    for line in assembly_lines():
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
