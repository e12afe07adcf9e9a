"""tools/bench.py on canned perfbench/run.py, tier-1 and N=1024 output."""
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


def fake_run(walls, correct=True, tier1_code=1, case_code=0):
    """subprocess.run stand-in printing what perfbench/run.py prints, or
    what bench.MEASURE prints around the tier-1 suite or the N=1024 case,
    whose table it writes with stage times of k/10, ..., k/10 + 0.4 s for
    its k-th run; the wall time of each call comes from `walls` in turn."""
    walls = iter(walls)
    cases = iter(range(1, 100))

    def run(argv, cwd, capture_output, text, env=None):
        if argv[1] == "-c":
            assert argv[2] == bench.MEASURE and env["PYTHONPATH"] == str(cwd / "src")
            if argv[4:6] == ["-m", "pytest"]:
                out, code = "...F.\n3 failed, 173 passed in 17.10s\n", tier1_code
            else:
                assert argv[4:-2] == bench.CASE_1024 and argv[-2] == "--out"
                k = next(cases)
                entry = {stage: k / 10 + i / 10 for i, stage in enumerate(bench.STAGES)}
                Path(argv[-1]).write_text(json.dumps({"metadata": {"solver": [entry]}}))
                out, code = "wrote table.json\n", case_code
            m = {"returncode": code, "wall_s": next(walls), "peak_rss_kib": 870400}
            return subprocess.CompletedProcess(argv, 0, out + json.dumps(m) + "\n", "")
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
    # five runs of each workload, then the tier-1 and N=1024 runs alternate
    walls = [4.0, 1.0, 3.0, 2.0, 5.0] * n_workloads + [17.0, 12.0, 19.0, 11.0, 18.0, 13.0,
                                                       16.0, 10.0, 20.0, 14.0]
    monkeypatch.setattr(bench.subprocess, "run", fake_run(walls))
    assert bench.main(["--n", "7", "--seeds", "1,2,3,4,5", "--root", str(root)]) == 0
    record = json.loads((root / "BENCH_7.json").read_text())
    assert record["seeds"] == [1, 2, 3, 4, 5] and record["git_commit"] == "abc"
    assert record["numpy"] == "2" and record["scipy"] == "1" and record["python"] == "3"
    assert list(record["workloads"]) == [w["name"] for w in spec["workloads"]]
    wall = record["workloads"]["param-scan"]["wall_s"]
    assert (wall["median"], wall["q1"], wall["q3"], wall["unit"]) == (3.0, 2.0, 4.0, "s")
    assert record["workloads"]["grid-direct"]["ok_share"]["values"] == [1.0] * 5

    tier1 = record["north_star"]["tier1"]
    assert (tier1["wall_s"]["median"], tier1["wall_s"]["q1"], tier1["wall_s"]["q3"]) == (
        18.0, 17.0, 19.0)
    assert tier1["passed"] == [173] * 5 and tier1["failed"] == [3] * 5
    case = record["north_star"]["case_1024"]
    assert case["wall_s"]["values"] == [12.0, 11.0, 13.0, 10.0, 14.0]
    assert case["wall_s"]["median"] == 12.0
    assert case["peak_rss_mib"]["median"] == 850.0 and case["peak_rss_mib"]["unit"] == "MiB"
    # the row's stage times, k/10 + i/10 for stage i of run k = 1..5
    for i, stage in enumerate(bench.STAGES):
        assert case[stage]["unit"] == "s"
        assert case[stage]["values"] == pytest.approx([k / 10 + i / 10 for k in range(1, 6)])
        assert case[stage]["median"] == pytest.approx(0.3 + i / 10)


def test_wrong_outputs_write_nothing(monkeypatch, root):
    monkeypatch.setattr(bench.subprocess, "run", fake_run([1.0] * 9, correct=False))
    assert bench.main(["--n", "7", "--seeds", "1", "--root", str(root)]) == 1
    assert not (root / "BENCH_7.json").exists()


@pytest.mark.parametrize("tier1_code, case_code", [(2, 0), (1, 1)])
def test_failed_north_star_run_writes_nothing(monkeypatch, root, tier1_code, case_code):
    # pytest's exit code 1 means failed tests, which the tier-1 suite has;
    # any other error code, or a failed N=1024 case, stops the script
    monkeypatch.setattr(bench.subprocess, "run",
                        fake_run([1.0] * 9, tier1_code=tier1_code, case_code=case_code))
    assert bench.main(["--n", "7", "--seeds", "1", "--root", str(root)]) == 1
    assert not (root / "BENCH_7.json").exists()
