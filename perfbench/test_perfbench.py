"""Tests of the benchmark itself: smoke runs of every workload, the output
checker, the tracer and the shape of BENCHMARK.json.

    python3 -m pytest perfbench
"""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, layer_metrics, traced  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = check.load_reference()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = run_bench("--workload", "param-scan", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _outputs(call, out_dir):
    """Run one call in-process into out_dir; returns its exit code."""
    from sdfem.cli import main

    out_dir.mkdir()
    return main([*call.argv, "--out", str(out_dir / check.output_name(call))])


def _perturbed(path, rel):
    ref = json.loads(json.dumps(REFERENCE))
    node = ref
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] *= 1.0 + rel
    return ref


def test_checker_flags_perturbed_row_reference(tmp_path, capsys):
    (call,) = workloads.calls("paper-column", 0, smoke=True)
    out_dir = tmp_path / "out"
    assert _outputs(call, out_dir) == 0
    assert check.check_call_output(call, out_dir, REFERENCE) == {}
    key = call.cases[3]
    for norm in check.NORMS:
        bad = check.check_call_output(call, out_dir, _perturbed(("rows", key, norm), 1e-6))
        assert list(bad) == [key]


def test_checker_flags_perturbed_grid_reference(tmp_path, capsys):
    (call,) = workloads.calls("grid-direct", 0, smoke=True)
    out_dir = tmp_path / "out"
    assert _outputs(call, out_dir) == 0
    assert check.check_call_output(call, out_dir, REFERENCE) == {}
    for field in ("max_abs_error", "sum_abs_error"):
        ref = _perturbed(("grids", call.cases[0], field), 1e-6)
        assert list(check.check_call_output(call, out_dir, ref)) == list(call.cases)


def test_checker_flags_unconverged_grid_despite_exit_0(tmp_path, capsys):
    converged = workloads.grid_call(64, "1e-8", "standard", 3)
    assert _outputs(converged, tmp_path / "converged") == 0
    with open(tmp_path / "converged" / "grid.json") as fh:
        ref = {"grids": {converged.cases[0]: check.summarize_grid(json.load(fh))}}

    stalled = workloads.grid_call(64, "1e-8", "standard", 3,
                                  ("--restart", "1", "--precond", "none", "--tol", "1e-9"))
    assert stalled.cases == converged.cases
    rc = _outputs(stalled, tmp_path / "stalled")
    if rc == 0:  # the CLI does not report the stalled solve, so the checker must
        failed = check.check_call_output(stalled, tmp_path / "stalled", ref)
        assert list(failed) == list(stalled.cases)
    else:
        assert rc == 1


def _traced_pass(tmp_path):
    tracer = Tracer()
    with traced(tracer):
        _, _, failures = run.run_pass(workloads.calls("paper-column", 0, smoke=True),
                                      REFERENCE, tmp_path)
    assert failures == {}
    return tracer


def test_layer_counts_repeat_and_self_times_add_up(tmp_path, capsys):
    from sdfem import cli, harness, solver

    first, second = _traced_pass(tmp_path), _traced_pass(tmp_path)
    assert harness.solve is solver.solve and cli.run_experiment is harness.run_experiment

    m1, m2 = layer_metrics(first), layer_metrics(second)
    counts = [n for n in m1 if not n.endswith("_s") and n != "solver.residual_max"]
    assert {n: m1[n] for n in counts} == {n: m2[n] for n in counts}
    assert m1["harness.cases"] == m1["solver.calls"] == 6
    assert m1["analysis.report_calls"] == 12

    own = first.self_times()
    roots = [s for s in first.spans if s.parent is None]
    assert [s.name for s in roots] == ["cli.main"]
    assert sum(own) == pytest.approx(sum(s.end - s.start for s in roots), abs=1e-9)
    for span in first.spans:
        if span.name == "harness.run_single":
            case_own = sum(o for o, s in zip(own, first.spans) if s.case == span.case)
            assert case_own == pytest.approx(span.end - span.start, abs=1e-9)


def test_seed_only_reorders_param_scan():
    a, b = workloads.calls("param-scan", 1), workloads.calls("param-scan", 2)
    assert a != b and sorted(a, key=str) == sorted(b, key=str)
    assert a == workloads.calls("param-scan", 1)
    assert len({k for c in a for k in c.cases}) == 336
    assert all(k in REFERENCE["rows"] for c in a for k in c.cases)


def test_benchmark_json_follows_the_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert BENCH["paths"] == ["perfbench"]
    assert isinstance(BENCH["run_seconds"], int) and 1 <= BENCH["run_seconds"] <= 60
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in BENCH["workloads"])
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    e2e = {m["name"]: m for m in BENCH["end_to_end"]}
    assert all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               for m in e2e.values())
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert all(set(m) == {"name", "unit", "better"} for m in BENCH["per_layer"])
