"""Print one sha256 line per output of a fixed set of `sdfem` CLI calls.

    python3 tools/same_outputs.py > outputs.txt

Run it from any directory; it imports `sdfem` from the `src/` and the
benchmark's workloads from the `perfbench/` of the checkout it lives in.
The calls are:

- every CLI call of the benchmark's workloads (`perfbench/workloads.calls`,
  seed 0, full sizes), whose JSON outputs are hashed with the wall times
  `setup_time`, `assemble_time`, `solve_time` and `error_time` dropped;
- a CSV run, `--dump-matrix` at N=8 and, with eps=1e-16, at N=64 for
  each delta, `sdfem mesh` and `sdfem verify` (by its stdout), all hashed
  as written.

Each line reads `<sha256>  <call> -> <output> (exit <code>)`. Two checkouts
give the same outputs when their listings are identical. The whole set takes
about 20 s and 410 MiB of peak RSS on a 2-core host.
"""
import os

# one BLAS thread, as the benchmark runs; set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from sdfem import cli  # noqa: E402
from workloads import WORKLOADS, calls  # noqa: E402

WALL_TIMES = ("setup_time", "assemble_time", "solve_time", "error_time")

# calls beyond the benchmark's; DIR stands for the output directory
EXTRA_CALLS = (
    ("run", "--N", "8,16,32,64", "--eps", "1e-4,1e-16", "--delta", "both",
     "--out", "DIR/table.csv"),
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


def run(argv) -> list[str]:
    """Run one CLI call in a fresh directory; one line per output file, and
    one for stdout when the call writes no file."""
    label = " ".join(argv)
    with tempfile.TemporaryDirectory() as tmp:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([arg.replace("DIR", tmp) for arg in argv])
        outputs = sorted(Path(tmp).iterdir())
        lines = [f"{digest(p)}  {label} -> {p.name} (exit {code})" for p in outputs]
    if not outputs:
        text = stdout.getvalue().encode()
        lines.append(f"{hashlib.sha256(text).hexdigest()}  {label} -> stdout (exit {code})")
    return lines


def main() -> int:
    argvs = [(*call.argv, "--out", f"DIR/{call.kind}.json")
             for workload in WORKLOADS for call in calls(workload, seed=0)]
    for argv in argvs + list(EXTRA_CALLS):
        for line in run(argv):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
