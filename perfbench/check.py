"""Output checker for the benchmark, and the recorder of its reference values.

Exit code 0 from the CLI is not trusted: `sdfem grid` exits 0 after an
unconverged solve, so every output is read back and compared with values
recorded from a known-good version of the code.

Record the reference (only from a commit whose numbers are known good):

    python3 perfbench/check.py --record
"""
from __future__ import annotations

import json
import math
from pathlib import Path

from workloads import DEFAULT_TOL, WORKLOADS, calls, row_key

REFERENCE = Path(__file__).with_name("reference.json")

# GMRES and direct LU differ by up to 2e-10 relative in the local eps-norm
# at N=256, so a valid solver change passes; a change of C* or of the
# discretization moves the norms by far more.
REL_TOL = 1e-8

NORMS = ("e_eps_global", "e_sd_global", "e_eps_omegas", "e_sd_omegas")


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def _close(value, ref: float) -> bool:
    return (isinstance(value, (int, float)) and math.isfinite(value)
            and abs(value - ref) <= REL_TOL * abs(ref))


def read_rows(out_dir: Path) -> dict[str, dict]:
    """Every row of every JSON table `sdfem run` wrote into out_dir."""
    rows = {}
    for path in sorted(out_dir.glob("*.json")):
        with open(path) as fh:
            table = json.load(fh)
        for rec in table["records"]:
            key = row_key(table["cstar"], table["eps"], table["variant"], rec["N"])
            rows[key] = rec
    return rows


def check_rows(rows: dict[str, dict], expected, reference: dict) -> dict[str, str]:
    """Map each failed case key to the reason. A case fails if its row is
    missing or marked failed, its recomputed residual exceeds the solver
    tolerance, or any of the four table norms is off the reference by more
    than REL_TOL."""
    ref_rows = reference["rows"]
    failures = {}
    for key in expected:
        rec = rows.get(key)
        if rec is None:
            failures[key] = "row missing"
        elif rec["failed"]:
            failures[key] = "row marked failed"
        elif rec["residual"] is None or not rec["residual"] <= DEFAULT_TOL:
            failures[key] = f"residual {rec['residual']} above {DEFAULT_TOL:g}"
        else:
            bad = [n for n in NORMS if not _close(rec[n], ref_rows[key][n])]
            if bad:
                failures[key] = "norms off the reference: " + ", ".join(
                    f"{n}={rec[n]!r} (ref {ref_rows[key][n]!r})" for n in bad)
    for key in rows.keys() - set(expected):
        failures[key] = "unexpected row"
    return failures


def summarize_grid(payload: dict) -> dict:
    """The figures of an error grid that the reference pins down."""
    pts = payload["points"]
    errs = [p[4] for p in pts]
    summary = {
        "points": len(pts),
        "max_abs_error": max(errs),
        "sum_abs_error": math.fsum(errs),
    }
    # eps=1e-16 layer points whose absolute coordinate rounds to 1.0 must
    # still be told apart by their exact offsets sigma = 1 - x.
    for axis, col, scol in (("x", 0, 2), ("y", 1, 3)):
        sig = [p[scol] for p in pts if p[col] == 1.0]
        summary[f"collapsed_{axis}"] = len(sig)
        summary[f"distinct_sigma_{axis}"] = len(set(sig))
    return summary


def check_grid(payload: dict, key: str, reference: dict) -> str | None:
    """Reason the grid output fails the check, or None if it passes."""
    ref = reference["grids"][key]
    pts = payload["points"]
    if payload["point_fields"] != ["x", "y", "sigma_x", "sigma_y", "abs_error"]:
        return f"unexpected point fields {payload['point_fields']}"
    if not all(math.isfinite(v) for p in pts for v in p):
        return "non-finite value in the grid"
    for axis, col, scol in (("x", 0, 2), ("y", 1, 3)):
        if any(p[scol] <= 0.0 for p in pts if p[col] == 1.0):
            return f"collapsed layer point without positive sigma_{axis}"
    got = summarize_grid(payload)
    for name, want in ref.items():
        ok = _close(got[name], want) if isinstance(want, float) else got[name] == want
        if not ok:
            return f"{name} = {got[name]!r}, reference {want!r}"
    return None


def check_call_output(call, out_dir: Path, reference: dict) -> dict[str, str]:
    """Check what one CLI call wrote into out_dir; returns failed cases."""
    if call.kind == "run":
        return check_rows(read_rows(out_dir), call.cases, reference)
    (key,) = call.cases
    with open(out_dir / "grid.json") as fh:
        reason = check_grid(json.load(fh), key, reference)
    return {} if reason is None else {key: reason}


def output_name(call) -> str:
    return "table.json" if call.kind == "run" else "grid.json"


def record() -> dict:
    """Run every call of every workload once, full size and smoke size, and
    store the figures the checker compares against."""
    import io
    import tempfile
    from contextlib import redirect_stdout

    from sdfem.cli import main

    reference = {"rows": {}, "grids": {}}
    seen = set()
    with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as tmp:
        for smoke in (True, False):
            for workload in WORKLOADS:
                for call in calls(workload, 0, smoke):
                    if call.argv in seen:
                        continue
                    seen.add(call.argv)
                    out_dir = Path(tempfile.mkdtemp(dir=tmp))
                    out = out_dir / output_name(call)
                    with redirect_stdout(io.StringIO()):
                        rc = main([*call.argv, "--out", str(out)])
                    if rc != 0:
                        raise SystemExit(f"{call.argv} exited {rc}; nothing recorded")
                    if call.kind == "run":
                        rows = read_rows(out_dir)
                        for key in call.cases:
                            rec = rows[key]
                            if rec["failed"] or not rec["residual"] <= DEFAULT_TOL:
                                raise SystemExit(f"case {key} did not converge")
                            reference["rows"][key] = {n: rec[n] for n in NORMS}
                    else:
                        with open(out) as fh:
                            reference["grids"][call.cases[0]] = summarize_grid(json.load(fh))
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return reference


if __name__ == "__main__":
    import sys

    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    sys.path.insert(0, str(Path.cwd() / "src"))
    ref = record()
    print(f"recorded {len(ref['rows'])} rows and {len(ref['grids'])} grids in {REFERENCE}")
