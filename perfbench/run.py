"""sdfem benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root: it imports `sdfem` from `src/` and calls
`sdfem.cli.main` in this process, once per CLI call of the workload (see
workloads.py). It repeats whole passes of the workload while the next one
still fits in S seconds (at least one pass), checks every output against
reference.json, and prints one summary line per metric and, last, one JSON
object with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured with
tracing off. --trace 1 alternates untraced and traced passes and reports
the per-layer metrics; `trace.overhead_s` is the traced minus the untraced
median wall time. --smoke shrinks every size, for the benchmark's tests.

Spans, per-pass figures and the run environment go to
perfbench/out/<workload>-seed<seed>-trace<t>.json.
"""
import os

# One BLAS thread: SuperLU and the sparse products are single-threaded, and
# a second BLAS thread only adds noise on a shared two-core host. Set before
# numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from check import check_call_output, load_reference, output_name  # noqa: E402
from workloads import WORKLOADS, calls  # noqa: E402

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def _git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, check=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    return lines[1] if len(lines) == 2 and Path(lines[0]) == ROOT else None


def environment(args) -> dict:
    import numpy
    import scipy

    cpuinfo = _read("/proc/cpuinfo") or ""
    cpu = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                if line.startswith("model name")), platform.processor())
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sdfem").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    loadavg = _read("/proc/loadavg")
    return {
        "host": platform.node(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "loadavg_start": loadavg.split()[:3] if loadavg else None,
    }


def measure_setup(workdir: Path) -> list[float]:
    """Wall times of fresh interpreters that import sdfem.cli and finish one
    N=8 case; the first one (which may compile bytecode) is not kept."""
    times = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"),
                               str(workdir / f"setup{i}.json")],
                              cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=SETUP_TIMEOUT_S)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}: "
                               f"{proc.stderr.decode(errors='replace')[-500:]}")
        if i:
            times.append(elapsed)
    return times


def run_pass(pass_calls, reference, workdir: Path):
    """Run every call once. Returns (wall seconds of the CLI calls, cases
    attempted, {failed case: reason})."""
    from sdfem import cli

    wall = 0.0
    attempted = 0
    failures = {}
    for i, call in enumerate(pass_calls):
        out_dir = workdir / f"call{i}"
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        argv = [*call.argv, "--out", str(out_dir / output_name(call))]
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.main(argv)
        except Exception as exc:  # a crash fails the call's cases; the run goes on
            rc = f"raised {exc!r}"
        wall += time.perf_counter() - t0
        attempted += len(call.cases)
        if rc != 0:
            failures.update(dict.fromkeys(call.cases, f"exit {rc}: {sink.getvalue()[-300:]}"))
        else:
            failures.update(check_call_output(call, out_dir, reference))
    return wall, attempted, failures


def peak_rss_mib() -> float:
    """Peak resident memory of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(pass_calls, reference, workdir: Path, seconds: float, trace: bool):
    """Whole passes while the next one fits in `seconds`; with trace,
    untraced and traced passes alternate and at least one of each runs."""
    from spans import Tracer, traced

    kinds = (False, True) if trace else (False,)
    passes = []
    start = time.perf_counter()
    while True:
        is_traced = kinds[len(passes) % len(kinds)]
        tracer = Tracer() if is_traced else None
        gc.collect()  # start every pass with the same heap
        t0 = time.perf_counter()
        with traced(tracer) if is_traced else contextlib.nullcontext():
            wall, attempted, failures = run_pass(pass_calls, reference, workdir)
        cost = time.perf_counter() - t0
        passes.append({"traced": is_traced, "wall_s": wall, "attempted": attempted,
                       "failures": failures, "tracer": tracer, "peak_rss_mib": peak_rss_mib()})
        if len(passes) >= len(kinds) and time.perf_counter() - start + cost > seconds:
            return passes


def load_units() -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sdfem" / "__init__.py").is_file():
        print(f"error: no sdfem sources under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    units = load_units()
    reference = load_reference()
    env = environment(args)
    pass_calls = calls(args.workload, args.seed, args.smoke)
    print("env " + json.dumps(env))

    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        from sdfem import cli

        with contextlib.redirect_stdout(io.StringIO()):  # lazy imports, first-call set-up
            cli.main(["run", "--N", "8", "--eps", "1e-8", "--format", "json",
                      "--out", str(workdir / "warmup.json")])
        setup = [] if args.trace else measure_setup(workdir)
        passes = measure(pass_calls, reference, workdir, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failures = {k: v for p in passes for k, v in p["failures"].items()}
    failed = sum(len(p["failures"]) for p in passes)
    plain = [p["wall_s"] for p in passes if not p["traced"]]
    if args.trace:
        from spans import layer_metrics

        tracers = [p["tracer"] for p in passes if p["traced"]]
        per_pass = [layer_metrics(t) for t in tracers]
        values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        traced_walls = [p["wall_s"] for p in passes if p["traced"]]
        values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain)
    else:
        values = {
            "wall_s": statistics.median(plain),
            "setup_s": statistics.median(setup),
            # Through the first pass only: the heap a pass leaves behind
            # raises the next pass's peak, so later passes would make the
            # figure depend on how many passes fit in the run.
            "peak_rss_mib": passes[0]["peak_rss_mib"],
            "ok_share": 1.0 - failed / attempted,
        }

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(plain)} untraced and {len(passes) - len(plain)} traced passes, "
          f"untraced wall times {', '.join(f'{w:.3f}' for w in plain)} s")
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  failed_share = {failed / attempted:.6g} ratio ({failed} of {attempted} cases)")
    for key, reason in list(failures.items())[:10]:
        print(f"  FAILED {key}: {reason}", file=sys.stderr)

    record = {
        "env": env,
        "setup_s": setup,
        "passes": [{"traced": p["traced"], "wall_s": p["wall_s"],
                    "attempted": p["attempted"], "failures": p["failures"],
                    "peak_rss_mib": p["peak_rss_mib"],
                    "spans": None if p["tracer"] is None else
                    [[s.name, s.start, s.end, s.parent, s.case, s.attrs]
                     for s in p["tracer"].spans]}
                   for p in passes],
        "metrics": values,
    }
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
