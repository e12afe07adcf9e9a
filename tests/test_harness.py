import itertools
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from sdfem import harness, solver
from sdfem.cli import main
from sdfem.harness import (
    CSV_HEADER,
    ConfigError,
    ConvergenceRecord,
    ExperimentConfig,
    emit_error_grid,
    emit_table,
    render_table,
    run_experiment,
)
from sdfem.solver import SolverConfig
from sdfem.stabilization import DeltaVariant

SMALL = dict(N_list=(8, 16), eps_list=(1e-8,), variants=(DeltaVariant.STANDARD,))


class TestConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.problem == "paper-benchmark"
        assert cfg.c_star == 0.5

    def test_rejects_unknown_problem(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(problem="no-such-problem")

    def test_rejects_bad_n_lists(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(N_list=())
        with pytest.raises(ConfigError):
            ExperimentConfig(N_list=(8, 7))
        with pytest.raises(ConfigError):
            ExperimentConfig(N_list=(16, 8))

    def test_rejects_bad_eps(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(N_list=(8, 16), eps_list=(0.5,))
        with pytest.raises(ConfigError):
            ExperimentConfig(eps_list=(0.0,))

    def test_rejects_bad_cstar(self):
        for c_star in (-1.0, math.nan, math.inf):
            with pytest.raises(ConfigError):
                ExperimentConfig(c_star=c_star)

    def test_rejects_unbuildable_mesh(self):
        # eps <= 1/N holds, but lambda >= 1/2 on the y axis (beta = 1) at N = 8
        with pytest.raises(ConfigError):
            ExperimentConfig(N_list=(4, 8), eps_list=(0.1,))


@pytest.fixture(scope="module")
def artifact():
    (art,) = run_experiment(ExperimentConfig(**SMALL))
    return art


class TestRunExperiment:

    def test_table_structure(self, artifact):
        assert len(artifact.records) == 2
        r8, r16 = artifact.records
        assert (r8.N, r16.N) == (8, 16)
        # rate lives on the coarse row, the last row has empty rate cells
        assert r8.rate_eps_global is not None
        assert r16.rate_eps_global is None
        assert not r8.failed and not r16.failed

    def test_solver_columns_populated(self, artifact):
        for r in artifact.records:
            assert r.solver_iters >= 1
            assert r.residual is not None and r.residual <= 1e-10

    def test_csv_rendering(self, artifact):
        text = render_table(artifact, "csv")
        lines = text.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        cells = lines[2].split(",")
        assert cells[0] == "16"
        assert cells[5] == ""  # no rate on the last row

    def test_markdown_rendering(self, artifact):
        text = render_table(artifact, "markdown")
        assert "| N |" in text
        assert "| --- |" in text.replace("|---|", "| --- |")
        # empty rate cells use the --- convention
        assert text.strip().splitlines()[-1].count("---") >= 4

    def test_json_round_trip(self, artifact):
        payload = json.loads(render_table(artifact, "json"))
        assert payload == artifact.to_dict()
        assert payload["eps"] == artifact.eps
        assert payload["variant"] == artifact.variant.value
        assert [ConvergenceRecord(**r) for r in payload["records"]] == artifact.records

    def test_unknown_format_rejected(self, artifact):
        with pytest.raises(ConfigError):
            render_table(artifact, "yaml")

    def test_reproducible(self, artifact):
        (again,) = run_experiment(ExperimentConfig(**SMALL))
        assert render_table(again, "csv") == render_table(artifact, "csv")

    def test_solver_metadata(self, artifact):
        entries = artifact.metadata["solver"]
        assert [e["N"] for e in entries] == [8, 16]
        for e in entries:
            assert e["method"] == "gmres(60)+ilut"
            assert e["setup_time"] >= 0.0
            assert e["fill"] > 1.0
            assert "fallback" not in e
        assert "failures" not in artifact.metadata

    def test_solver_entry_sizes_and_times(self, artifact, tmp_path):
        # each case records its system size, its assembly and its solve
        out = tmp_path / "grid.json"
        main(["grid", "--N", "12", "--eps", "1e-8", "--samples", "1", "--out", str(out)])
        entries = artifact.metadata["solver"] + [json.loads(out.read_text())["solver"]]
        assert [e["N"] for e in entries] == [8, 16, 12]
        for e in entries:
            N = e["N"]
            assert (e["ndofs"], e["nnz"]) == ((N - 1) ** 2, (3 * N - 5) ** 2)
            assert e["assemble_time"] > 0.0 and e["solve_time"] > 0.0
        # the norms are timed where they are computed; a grid computes none
        assert all(e["error_time"] > 0.0 for e in entries[:2])
        assert entries[2]["error_time"] is None

    def test_failed_row_keeps_reason(self, monkeypatch, tmp_path, capsys):
        def boom(system, config):
            raise RuntimeError(f"boom at {system.matrix.shape[0]} dofs")

        monkeypatch.setattr(harness, "solve", boom)
        out = tmp_path / "t.json"
        code = main(["run", "--N", "8,16", "--eps", "1e-8", "--solver", "gmres",
                     "--format", "json", "--out", str(out)])
        assert code == 1
        payload = json.loads(out.read_text())
        assert all(r["failed"] for r in payload["records"])
        assert payload["metadata"]["failures"] == [
            {"N": 8, "error": "RuntimeError: boom at 49 dofs"},
            {"N": 16, "error": "RuntimeError: boom at 225 dofs"},
        ]
        err = capsys.readouterr().err.splitlines()
        assert err == ["failed: N=8 eps=1e-08 standard: RuntimeError: boom at 49 dofs",
                       "failed: N=16 eps=1e-08 standard: RuntimeError: boom at 225 dofs"]

    def test_unconverged_row_keeps_solver_entry(self, monkeypatch):
        # the size and cost of a solved but unconverged case stay in the table
        solve = harness.solve

        def unconverged(system, config):
            u, stats = solve(system, config)
            stats.converged = False
            return u, stats

        monkeypatch.setattr(harness, "solve", unconverged)
        (art,) = run_experiment(ExperimentConfig(**SMALL))
        assert all(r.failed and r.solver_iters > 0 and r.residual is not None
                   for r in art.records)
        entries = art.metadata["solver"]
        assert [(e["N"], e["ndofs"], e["iters"]) for e in entries] == [
            (r.N, (r.N - 1) ** 2, r.solver_iters) for r in art.records]
        assert [f["N"] for f in art.metadata["failures"]] == [8, 16]
        assert all("Unconverged: solve did not converge" in f["error"]
                   for f in art.metadata["failures"])

    def test_preconditioner_fallback_reported(self, monkeypatch, tmp_path, capsys):
        def zero_pivot(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(solver.spla, "spilu", zero_pivot)
        out = tmp_path / "t.json"
        code = main(["run", "--N", "8", "--eps", "1e-8", "--solver", "gmres",
                     "--format", "json", "--out", str(out)])
        assert code == 0
        (entry,) = json.loads(out.read_text())["metadata"]["solver"]
        assert entry["method"] == "gmres(60)+jacobi"
        assert entry["fallback"] == "ilut failed: Factor is exactly singular; used jacobi"
        err = capsys.readouterr().err.splitlines()
        assert err == ["fallback: N=8 eps=1e-08 standard: "
                       "ilut failed: Factor is exactly singular; used jacobi"]

    def test_emit_table(self, artifact, tmp_path):
        path = tmp_path / "t.csv"
        emit_table(artifact, "csv", str(path))
        assert path.read_text() == render_table(artifact, "csv")

    def test_both_variants_two_tables(self):
        arts = run_experiment(
            ExperimentConfig(
                N_list=(8,),
                eps_list=(1e-8,),
                variants=(DeltaVariant.STANDARD, DeltaVariant.MODIFIED),
            )
        )
        assert [a.variant for a in arts] == [DeltaVariant.STANDARD, DeltaVariant.MODIFIED]


class TestCli:
    def test_run_writes_csv(self, tmp_path):
        out = tmp_path / "table.csv"
        code = main(
            [
                "run",
                "--N",
                "8,16",
                "--eps",
                "1e-8",
                "--delta",
                "standard",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.read_text().startswith(CSV_HEADER)

    def test_run_multi_table_suffixes(self, tmp_path):
        out = tmp_path / "t.csv"
        code = main(
            ["run", "--N", "8", "--eps", "1e-8", "--delta", "both", "--out", str(out)]
        )
        assert code == 0
        assert (tmp_path / "t_eps1e-08_standard.csv").exists()
        assert (tmp_path / "t_eps1e-08_modified.csv").exists()

    def test_run_multi_table_dotted_directory(self, tmp_path):
        # the suffix goes before the file's extension, not a directory's
        outdir = tmp_path / "res.v1"
        outdir.mkdir()
        code = main(["run", "--N", "8", "--eps", "1e-8", "--delta", "both",
                     "--out", str(outdir / "table")])
        assert code == 0
        assert sorted(p.name for p in outdir.iterdir()) == [
            "table_eps1e-08_modified", "table_eps1e-08_standard"]

    def test_grid_writes_json(self, tmp_path):
        out = tmp_path / "grid.json"
        code = main(
            ["grid", "--N", "8", "--eps", "1e-8", "--samples", "2", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["point_fields"] == ["x", "y", "sigma_x", "sigma_y", "abs_error"]
        assert len(payload["points"]) == (8 * 2) ** 2

    def test_grid_bytes_match_json_dump(self, tmp_path):
        out = tmp_path / "grid.json"
        for N, eps, s in itertools.product((8, 12), (1e-8, 1e-16), (1, 2, 3)):
            grid, stats = emit_error_grid("paper-benchmark", N, eps, DeltaVariant.MODIFIED,
                                          0.5, s, str(out))
            payload = {
                "N": N,
                "eps": eps,
                "variant": "modified",
                "cstar": 0.5,
                "samples_per_cell": s,
                "point_fields": ["x", "y", "sigma_x", "sigma_y", "abs_error"],
                "solver": {"N": N, "iters": stats.iterations, "residual": stats.residual,
                           "method": stats.method,
                           "setup_time": stats.setup_time, "fill": stats.fill,
                           "ndofs": (N - 1) ** 2, "nnz": (3 * N - 5) ** 2,
                           # the one figure stats does not carry
                           "assemble_time": json.loads(out.read_text())["solver"][
                               "assemble_time"],
                           "solve_time": stats.wall_time, "error_time": None},
                "points": np.column_stack(
                    [grid.x, grid.y, grid.sigma_x, grid.sigma_y, grid.abs_error]
                ).tolist(),
            }
            assert out.read_bytes() == json.dumps(payload).encode(), (N, eps, s)

    def test_grid_rejects_samples_before_solving(self, monkeypatch, tmp_path, capsys):
        def assemble(*args, **kwargs):
            raise AssertionError("assemble_system called")

        monkeypatch.setattr(harness, "assemble_system", assemble)
        out = tmp_path / "grid.json"
        assert main(["grid", "--N", "8", "--samples", "0", "--out", str(out)]) == 2
        assert "samples_per_cell must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_unconverged_fails(self, tmp_path, capsys):
        out = tmp_path / "grid.json"
        code = main(["grid", "--N", "64", "--eps", "1e-8", "--restart", "1",
                     "--precond", "none", "--tol", "1e-9", "--out", str(out)])
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "did not converge" in err and "iterations" in err and "1.000e-09" in err

    def test_grid_singular_factor_fails(self, monkeypatch, tmp_path, capsys):
        def singular(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(solver.spla, "splu", singular)
        out = tmp_path / "grid.json"
        code = main(["grid", "--N", "8", "--eps", "1e-8", "--solver", "direct",
                     "--out", str(out)])
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == "error: LU factorization failed: Factor is exactly singular\n"

    def test_grid_out_of_memory_fails(self, monkeypatch, tmp_path, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError("SUPERLU_MALLOC fails for buf in LUMemInit()")

        monkeypatch.setattr(solver.spla, "splu", exhausted)
        out = tmp_path / "grid.json"
        code = main(["grid", "--N", "8", "--eps", "1e-8", "--solver", "direct",
                     "--out", str(out)])
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == "error: out of memory: SUPERLU_MALLOC fails for buf in LUMemInit()\n"

    def test_grid_breakdown_fails(self, monkeypatch, tmp_path, capsys):
        def nan_ilu(A, **kwargs):
            return SimpleNamespace(nnz=A.nnz, solve=lambda v: np.full_like(v, np.nan))

        monkeypatch.setattr(solver.spla, "spilu", nan_ilu)
        out = tmp_path / "grid.json"
        code = main(["grid", "--N", "8", "--eps", "1e-8", "--solver", "gmres",
                     "--out", str(out)])
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == "error: GMRES breakdown: Arnoldi value nan at iteration 1\n"

    def test_run_breakdown_row_has_no_solver_entry(self, monkeypatch, tmp_path):
        # a solve that raises returns no stats, so only its failure is kept
        def nan_ilu(A, **kwargs):
            return SimpleNamespace(nnz=A.nnz, solve=lambda v: np.full_like(v, np.nan))

        monkeypatch.setattr(solver.spla, "spilu", nan_ilu)
        out = tmp_path / "t.json"
        code = main(["run", "--N", "8", "--eps", "1e-8", "--solver", "gmres",
                     "--format", "json", "--out", str(out)])
        assert code == 1
        payload = json.loads(out.read_text())
        assert payload["records"][0]["failed"]
        assert payload["metadata"]["solver"] == []
        assert payload["metadata"]["failures"] == [
            {"N": 8, "error": "Breakdown: GMRES breakdown: Arnoldi value nan at iteration 1"}]

    def test_grid_spells_no_non_finite_value(self):
        assert harness._json_floats(np.array([0.1, 1e-300])) == ["0.1", "1e-300"]
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="not finite"):
                harness._json_floats(np.array([0.5, bad]))

    def test_grid_fallback_reported(self, monkeypatch, tmp_path, capsys):
        def zero_pivot(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(solver.spla, "spilu", zero_pivot)
        out = tmp_path / "grid.json"
        code = main(["grid", "--N", "8", "--eps", "1e-8", "--solver", "gmres",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["points"]) == (8 * 3) ** 2
        assert payload["solver"]["method"] == "gmres(60)+jacobi"
        assert payload["solver"]["fallback"] == ("ilut failed: Factor is exactly singular; "
                                                 "used jacobi")
        err = capsys.readouterr().err.splitlines()
        assert err == ["fallback: N=8 eps=1e-08 standard: "
                       "ilut failed: Factor is exactly singular; used jacobi"]

    def test_precond_choices(self, tmp_path):
        out = tmp_path / "t.json"
        code = main(["run", "--N", "8", "--eps", "1e-8", "--solver", "gmres",
                     "--precond", "ilut", "--format", "json", "--out", str(out)])
        assert code == 0
        (entry,) = json.loads(out.read_text())["metadata"]["solver"]
        assert entry["method"] == "gmres(60)+ilut"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--N", "8", "--precond", "ilu0", "--out", str(out)])
        assert exc.value.code == 2

    def test_auto_solver_by_size(self, tmp_path):
        # by default N=8 (49 dofs) is factored by LU and N=64 (3969 dofs) goes
        # to GMRES; an explicit --solver gmres keeps N=8 on GMRES
        out = tmp_path / "t.json"
        assert main(["run", "--N", "8,64", "--eps", "1e-8", "--format", "json",
                     "--out", str(out)]) == 0
        entries = json.loads(out.read_text())["metadata"]["solver"]
        assert [(e["N"], e["method"]) for e in entries] == [
            (8, "direct"), (64, "gmres(60)+ilut")]
        assert entries[0]["iters"] == 1
        assert main(["run", "--N", "8", "--eps", "1e-8", "--solver", "gmres",
                     "--format", "json", "--out", str(out)]) == 0
        (entry,) = json.loads(out.read_text())["metadata"]["solver"]
        assert entry["method"] == "gmres(60)+ilut"

    def test_mesh_dump(self, tmp_path):
        out = tmp_path / "mesh.txt"
        assert main(["mesh", "--N", "8", "--eps", "1e-8", "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 18

    def test_config_error_exit_code(self):
        assert main(["run", "--N", "7", "--eps", "1e-8"]) == 2
        assert main(["run", "--N", "8", "--eps", "0.9"]) == 2

    def test_unbuildable_mesh_exit_code(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main(["run", "--N", "4,8", "--eps", "0.1", "--out", str(out)]) == 2
        assert not out.exists()
        assert "N=8" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["1e-8,1.4e-8", "1e-8,1e-8"])
    def test_colliding_table_paths_exit_code(self, eps, tmp_path, capsys):
        # both eps spell 1e-08 in the table name; nothing is run or written
        out = tmp_path / "t.csv"
        assert main(["run", "--N", "8,16", "--eps", eps, "--out", str(out)]) == 2
        assert list(tmp_path.iterdir()) == []
        assert "eps=1e-08 and eps=" in capsys.readouterr().err

    def test_io_error_exit_code(self, tmp_path):
        missing = tmp_path / "no" / "such" / "dir" / "t.csv"
        assert main(["run", "--N", "8", "--eps", "1e-8", "--out", str(missing)]) == 1

    def test_dump_matrix(self, tmp_path):
        out = tmp_path / "t.csv"
        mat = tmp_path / "A.txt"
        code = main(
            [
                "run",
                "--N",
                "8",
                "--eps",
                "1e-8",
                "--out",
                str(out),
                "--dump-matrix",
                str(mat),
            ]
        )
        assert code == 0
        lines = [line.split() for line in mat.read_text().splitlines()]
        assert all(len(fields) == 3 for fields in lines)
        assert len(lines) == (3 * 8 - 5) ** 2  # one line per stored entry
        keys = [(int(r), int(c)) for r, c, _ in lines]
        assert keys == sorted(set(keys))  # row-major, sorted, no duplicates
        float(lines[0][2])
