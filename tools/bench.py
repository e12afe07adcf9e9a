"""Write BENCH_<n>.json: medians and quartiles of the benchmark's end-to-end
metrics and of the north-star measures over repeated runs.

    python3 tools/bench.py --n 10 --seeds 1,2,3,4,5 [--root DIR]

For every workload of BENCHMARK.json and every seed it runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

in DIR (default: the current directory, a repository root), T being
BENCHMARK.json's `run_seconds`. It reads the `env` line and the final JSON
line of each run and writes, per workload, the median and quartiles
(inclusive method) of every end-to-end metric with the per-seed values,
plus the seeds, host, CPU, Python, numpy and scipy versions and the git
commit, to DIR/BENCH_<n>.json. A run that exits non-zero, prints no
result or reports wrong outputs stops the script with exit code 1 and
writes nothing.

Once per seed it then measures, under the key `north_star`, with
PYTHONPATH=DIR/src and one BLAS thread:

- the tier-1 suite, `python3 -m pytest -q --continue-on-collection-errors`:
  its wall time and pytest's passed and failed counts. Exit code 1 (some
  tests failed) is expected; any other non-zero code, or no count line,
  stops the script as above;
- one `sdfem run --N 1024 --eps 1e-8 --format json` case in a fresh
  interpreter: its wall time, its peak RSS and the stage times of its
  table row (`assemble_time`, `rhs_time`, `setup_time`, `solve_time` and
  `error_time` of the table's `solver` entry). A non-zero exit stops the
  script.

Each of the two runs as the only child of a small interpreter that times
it and reads its peak RSS from getrusage(RUSAGE_CHILDREN).
"""
from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ENV_KEYS = ("host", "cpu", "nproc", "affinity", "python", "numpy", "scipy",
            "git_commit", "src_sha256", "threads")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
CASE_1024 = ["-m", "sdfem.cli", "run", "--N", "1024", "--eps", "1e-8", "--format", "json"]
STAGES = ("assemble_time", "rhs_time", "setup_time", "solve_time", "error_time")

# Runs the command in argv[1:] as its only child; its last stdout line is
# the child's exit code, wall time and peak RSS.
MEASURE = """\
import json, resource, subprocess, sys, time
t0 = time.perf_counter()
code = subprocess.run(sys.argv[1:]).returncode
wall = time.perf_counter() - t0
rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(json.dumps({"returncode": code, "wall_s": wall, "peak_rss_kib": rss}))
"""


class RunFailed(RuntimeError):
    pass


def run_once(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One benchmark run: its `env` record and its final JSON result."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    if proc.returncode != 0 or env is None or not lines or not lines[-1].startswith("{"):
        raise RunFailed(f"{' '.join(argv[1:])} exited {proc.returncode}: "
                        f"{proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RunFailed(f"{workload} seed {seed}: {result['failed']} of "
                        f"{result['attempted']} cases wrong: {proc.stderr.strip()[-500:]}")
    return env, result


def measure(root: Path, args: list[str]) -> tuple[dict, list[str]]:
    """Run `python3 *args` in root under MEASURE: its measures and the
    lines it printed."""
    env = {**os.environ, **dict.fromkeys(THREAD_VARS, "1"), "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-c", MEASURE, sys.executable, *args],
                          cwd=root, capture_output=True, text=True, env=env)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        raise RunFailed(f"measuring {' '.join(args)} exited {proc.returncode}: "
                        f"{proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1]), lines[:-1]


def tier1_once(root: Path) -> dict:
    """Wall time and passed/failed counts of one tier-1 run."""
    m, lines = measure(root, TIER1)
    pattern = re.compile(r"(\d+) (passed|failed)")
    summary = next((line for line in reversed(lines) if pattern.search(line)), None)
    if m["returncode"] not in (0, 1) or summary is None:
        raise RunFailed(f"tier-1 tests exited {m['returncode']}: {' '.join(lines[-3:])}")
    counts = {kind: int(n) for n, kind in pattern.findall(summary)}
    return {"wall_s": m["wall_s"], "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0)}


def case_1024_once(root: Path) -> dict:
    """Wall time, peak RSS and stage times of one N=1024 case in a fresh
    interpreter."""
    with tempfile.TemporaryDirectory() as tmp:
        table = Path(tmp) / "table.json"
        m, _ = measure(root, [*CASE_1024, "--out", str(table)])
        if m["returncode"] != 0:
            raise RunFailed(f"sdfem {' '.join(CASE_1024[2:])} exited {m['returncode']}")
        entry = json.loads(table.read_text())["metadata"]["solver"][0]
    return {"wall_s": m["wall_s"], "peak_rss_mib": m["peak_rss_kib"] / 1024,
            **{stage: entry[stage] for stage in STAGES}}


def summarize(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, required=True, help="number of the BENCH file")
    parser.add_argument("--seeds", required=True, help="comma-separated workload seeds")
    parser.add_argument("--root", type=Path, default=Path("."), help="repository root to run")
    args = parser.parse_args(argv)

    root = args.root.resolve()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = float(spec["run_seconds"])
    metric_names = [m["name"] for m in spec["end_to_end"]]

    envs, summary = [], {}
    try:
        for workload in workloads:
            results = []
            for seed in seeds:
                env, result = run_once(root, workload, seed, seconds)
                if envs and env["src_sha256"] != envs[0]["src_sha256"]:
                    raise RunFailed(f"the sources under {root / 'src'} changed during the runs")
                envs.append(env)
                results.append(result)
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{name} {result['metrics'][name]['value']:.6g}" for name in metric_names),
                    file=sys.stderr)
            summary[workload] = {
                name: {"unit": results[0]["metrics"][name]["unit"],
                       **summarize([r["metrics"][name]["value"] for r in results])}
                for name in metric_names}
        tier1, case_1024 = [], []
        for seed in seeds:
            tier1.append(tier1_once(root))
            case_1024.append(case_1024_once(root))
            print(f"north star run {seed}: tier-1 {tier1[-1]}, N=1024 {case_1024[-1]}",
                  file=sys.stderr)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record = {
        "bench": args.n,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "seeds": seeds,
        **{key: envs[0].get(key) for key in ENV_KEYS},
        "loadavg_start": [env.get("loadavg_start") for env in envs],
        "workloads": summary,
        "north_star": {
            "tier1": {
                "command": "python3 " + " ".join(TIER1),
                "wall_s": {"unit": "s", **summarize([r["wall_s"] for r in tier1])},
                "passed": [r["passed"] for r in tier1],
                "failed": [r["failed"] for r in tier1],
            },
            "case_1024": {
                "command": "python3 " + " ".join(CASE_1024),
                "wall_s": {"unit": "s", **summarize([r["wall_s"] for r in case_1024])},
                "peak_rss_mib": {"unit": "MiB",
                                 **summarize([r["peak_rss_mib"] for r in case_1024])},
                **{stage: {"unit": "s", **summarize([r[stage] for r in case_1024])}
                   for stage in STAGES},
            },
        },
    }
    out = root / f"BENCH_{args.n}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
