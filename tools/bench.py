"""Write BENCH_<n>.json: medians and quartiles of the benchmark's end-to-end
metrics over repeated runs.

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
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ENV_KEYS = ("host", "cpu", "nproc", "affinity", "python", "numpy", "scipy",
            "git_commit", "src_sha256", "threads")


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
    }
    out = root / f"BENCH_{args.n}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
