"""tools/same_outputs.py --compare on small synthetic listings."""
import importlib.util
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

TABLE = "run --N 8,16 --format json --out DIR/run.json -> run.json"
OLD = f"""\
{'a' * 64}  {TABLE} (exit 0)
norms  {TABLE} N=8: 0.5 0.25 0.125 0.0625 iters=1
norms  {TABLE} N=16: 0.5 0.25 0.125 0.0625 iters=7
{'b' * 64}  run --N 8 --dump-matrix DIR/matrix.txt --out DIR/table.csv -> matrix.txt (exit 0)
{'c' * 64}  matrix N=8 eps=1e-08 delta=standard cstar=0.5
{'d' * 64}  rhs N=8 eps=1e-08 delta=standard cstar=0.5
regions N=8 eps=1e-08 delta=standard exact=True: GLOBAL=(0.5, 0.25, 0.125) OMEGA_S=(0.1, 0.2, 0.0)
"""

# (old text, new text) edits of OLD, each alone past the same-result bounds
BREAKS = {
    "lu gap": ("N=8: 0.5 0.25", "N=8: 0.5 0.2500000000025"),
    "gmres gap": ("N=16: 0.5", "N=16: 0.5000000001"),
    "iterations": ("iters=7", "iters=8"),
    "region gap": ("OMEGA_S=(0.1,", "OMEGA_S=(0.1000000000002,"),
    "region zero": ("0.2, 0.0)", "0.2, 1e-300)"),
    "region nan": ("GLOBAL=(0.5,", "GLOBAL=(nan,"),
    "matrix": ("c" * 64, "e" * 64),
    "rhs": ("d" * 64, "e" * 64),
    "dump": ("b" * 64, "e" * 64),
    "missing row": (f"norms  {TABLE} N=16: 0.5 0.25 0.125 0.0625 iters=7\n", ""),
    "exit code": (f"{TABLE} (exit 0)", f"{TABLE} (exit 1)"),
}


def load():
    spec = importlib.util.spec_from_file_location("same_outputs",
                                                  ROOT / "tools" / "same_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def same_outputs():
    return load()


def test_import_leaves_threads_and_path_alone():
    # only the listing sets its BLAS threads and import path
    environ, path = dict(os.environ), list(sys.path)
    load()
    assert dict(os.environ) == environ and sys.path == path


def compare(same_outputs, tmp_path, new):
    (tmp_path / "old.txt").write_text(OLD)
    (tmp_path / "new.txt").write_text(new)
    return same_outputs.main(["--compare", str(tmp_path / "old.txt"), str(tmp_path / "new.txt")])


def test_rounding_within_bounds_is_the_same(same_outputs, tmp_path, capsys):
    # a run table's own hash is covered by its norm lines
    new = (OLD.replace("a" * 64, "f" * 64)
           .replace("N=8: 0.5 0.25", "N=8: 0.5 0.2500000000001")
           .replace("N=16: 0.5", "N=16: 0.50000000001")
           .replace("OMEGA_S=(0.1,", "OMEGA_S=(0.10000000000005,"))
    assert compare(same_outputs, tmp_path, new) == 0
    out = capsys.readouterr().out
    assert "LU rows: worst relative gap 4e-13 over 1 lines" in out
    assert "GMRES rows: worst relative gap 2e-11 over 1 lines" in out
    assert "regions: worst relative gap 5e-13 over 1 lines" in out
    assert "sha256 lines: 3 compared" in out
    assert out.endswith("same\n") and "NOT" not in out


@pytest.mark.parametrize("name", BREAKS)
def test_each_difference_fails(same_outputs, tmp_path, capsys, name):
    old_text, new_text = BREAKS[name]
    assert old_text in OLD
    assert compare(same_outputs, tmp_path, OLD.replace(old_text, new_text)) == 1
    assert capsys.readouterr().out.endswith("NOT the same\n")
