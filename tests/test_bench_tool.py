"""tools/bench.py on canned perfbench/run.py output."""
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)

ENV = {"host": "h", "cpu": "c", "nproc": 2, "affinity": 2, "python": "3", "numpy": "2",
       "scipy": "1", "git_commit": "abc", "src_sha256": "s", "threads": {},
       "loadavg_start": ["0.1", "0.2", "0.3"]}


def fake_run(walls, correct=True):
    """subprocess.run stand-in printing what perfbench/run.py prints; the
    wall time of each call comes from `walls` in turn."""
    walls = iter(walls)

    def run(argv, cwd, capture_output, text):
        assert argv[1:3] == ["perfbench/run.py", "--workload"] and argv[-2:] == ["--trace", "0"]
        metrics = {"wall_s": (next(walls), "s"), "setup_s": (0.5, "s"),
                   "peak_rss_mib": (64.0, "MiB"), "ok_share": (1.0 if correct else 0.5, "ratio")}
        result = {"correct": correct, "attempted": 2, "failed": 0 if correct else 1,
                  "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
        out = f"env {json.dumps(ENV)}\nworkload ...\n{json.dumps(result)}\n"
        return subprocess.CompletedProcess(argv, 0, out, "")

    return run


@pytest.fixture
def root(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    return tmp_path


def test_medians_and_quartiles(monkeypatch, root):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    n_workloads = len(spec["workloads"])
    monkeypatch.setattr(bench.subprocess, "run", fake_run([4.0, 1.0, 3.0, 2.0, 5.0] * n_workloads))
    assert bench.main(["--n", "7", "--seeds", "1,2,3,4,5", "--root", str(root)]) == 0
    record = json.loads((root / "BENCH_7.json").read_text())
    assert record["seeds"] == [1, 2, 3, 4, 5] and record["git_commit"] == "abc"
    assert record["numpy"] == "2" and record["scipy"] == "1" and record["python"] == "3"
    assert list(record["workloads"]) == [w["name"] for w in spec["workloads"]]
    wall = record["workloads"]["param-scan"]["wall_s"]
    assert (wall["median"], wall["q1"], wall["q3"], wall["unit"]) == (3.0, 2.0, 4.0, "s")
    assert record["workloads"]["grid-direct"]["ok_share"]["values"] == [1.0] * 5


def test_wrong_outputs_write_nothing(monkeypatch, root):
    monkeypatch.setattr(bench.subprocess, "run", fake_run([1.0] * 9, correct=False))
    assert bench.main(["--n", "7", "--seeds", "1", "--root", str(root)]) == 1
    assert not (root / "BENCH_7.json").exists()
