import json

import numpy as np
import pytest
import scipy.io

from glt_stokes.cli import (ExperimentConfig, emit_adherence_data,
                            example1_conformity, main, rhs_for_case,
                            run_group_table, run_solve_cell)
from glt_stokes import precond
from glt_stokes.mesh import build_mesh
from glt_stokes.precond import panel_workers


def test_mesh_info_command(capsys, tmp_path):
    dump = tmp_path / "mesh.txt"
    assert main(["mesh-info", "-n", "8", "--dump", str(dump)]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["saddle_dimension"] == 1107
    assert info["velocity_dofs_per_component"] == 481
    assert dump.exists()
    assert dump.read_text().startswith("v 0 0 32")


def test_symbol_command(capsys):
    assert main(["symbol", "--name", "stiffness",
                 "--theta1", "0", "--theta2", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["re"][0][0] == pytest.approx(16 / 3)
    assert np.abs(np.array(out["im"])).max() < 1e-14


def test_symbol_dump(capsys):
    assert main(["symbol", "--dump"]) == 0
    tables = json.loads(capsys.readouterr().out)
    assert set(tables) >= {"stiffness", "div_x", "g0", "g1"}


def test_assemble_export(tmp_path, capsys):
    prefix = tmp_path / "blocks"
    assert main(["assemble", "-n", "2", "--export", str(prefix)]) == 0
    A = scipy.io.mmread(str(prefix) + "_A.mtx")
    assert A.shape == (25, 25)
    full = scipy.io.mmread(str(prefix) + "_full.mtx")
    assert full.shape == (63, 63)
    with open(str(prefix) + "_A.mtx") as fh:
        header = fh.readline()
    assert "MatrixMarket" in header and "symmetric" in header


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(n=0).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(group=5).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(group=3).validate()  # gamma missing
    with pytest.raises(ValueError):
        ExperimentConfig(case="z").validate()
    with pytest.raises(ValueError):
        ExperimentConfig(strategy="magic").validate()


def test_rhs_cases_deterministic():
    mesh = build_mesh(2)
    dim = 63
    a = rhs_for_case("a", mesh, dim)
    assert np.all(a == 1.0)
    b = rhs_for_case("b", mesh, dim)
    vc = mesh.velocity_coords()
    assert b[0] == pytest.approx(vc[0, 0] * vc[0, 1])
    c1 = rhs_for_case("c", mesh, dim, seed=42)
    c2 = rhs_for_case("c", mesh, dim, seed=42)
    assert np.array_equal(c1, c2)
    assert not np.array_equal(c1, rhs_for_case("c", mesh, dim, seed=7))


def test_run_solve_cell_smoke():
    row = run_solve_cell(ExperimentConfig(n=4, group=1, case="a"))
    assert row["converged"]
    assert row["dim"] == 267
    assert 0 < row["iterations"] < 200


def test_run_group_table_empty_and_rows(tmp_path):
    out = tmp_path / "results.csv"
    rows = run_group_table([], out)
    assert rows == []
    text = out.read_text()
    assert "group,case,n" in text

    cfgs = [ExperimentConfig(n=2, group=1, case="a"),
            ExperimentConfig(n=2, group=1, case="c")]
    rows = run_group_table(cfgs, out)
    assert len(rows) == 2
    assert all(r["converged"] for r in rows)
    body = out.read_text()
    assert body.count("\n") >= 4


def test_table_reproducible(tmp_path):
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    cfgs = [ExperimentConfig(n=2, group=3, gamma=10.0, case="c")]
    run_group_table(cfgs, out1)
    run_group_table([ExperimentConfig(n=2, group=3, gamma=10.0, case="c")],
                    out2)
    assert out1.read_text() == out2.read_text()


def test_table_records_invalid_cells(tmp_path):
    # a group-3 config without gamma, and one with n = 0, whose failed-row
    # labels once raised inside the handler and aborted the table
    cfgs = [ExperimentConfig(n=2, group=3, case="a"), ExperimentConfig(n=0)]
    messages = []
    for cfg in cfgs:
        with pytest.raises(ValueError) as info:
            cfg.validate()
        messages.append(str(info.value))
    out = tmp_path / "results.csv"
    rows = run_group_table(cfgs, out)
    assert [row["error"] for row in rows] == messages
    assert [row["group"] for row in rows] == ["3(gamma=None)", 1]
    assert [row["dim"] for row in rows] == [63, ""]
    assert all(row["converged"] is False and row["iterations"] == -1
               for row in rows)
    records = json.loads((tmp_path / "results.csv.json").read_text())
    assert [r["error"] for r in records] == messages


def test_table_json_sidecar(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    out = tmp_path / "results.csv"
    cfgs = [ExperimentConfig(n=2, group=1, case="a"),
            ExperimentConfig(n=2, group=3, gamma=10.0, case="c"),
            ExperimentConfig(n=2, group=1, case="z")]
    rows = run_group_table(cfgs, out)
    body = out.read_text()
    records = json.loads((tmp_path / "results.csv.json").read_text())
    assert [(r["group"], r["case"], r["n"]) for r in records] == \
        [(1, "a", 2), ("3(gamma=10)", "c", 2), (1, "z", 2)]
    for rec, row in zip(records[:2], rows):
        assert rec["error"] is None
        assert rec["stop_reason"] == row["stop_reason"]
        assert rec["cycles"] == row["cycles"] >= 1
        assert set(rec["phase_seconds"]) == {"velocity", "schur_panels",
                                             "inverse"}
        assert rec["velocity_min_pivot"] > 0
        assert 0.0 <= rec["schur_symmetry_defect"] <= 1e-10
        assert rec["schur_workers"] == 1  # cells run off the main thread
        assert rec["apply_workers"] == 1
        assert rec["blas_threads"] == 3
        assert rec["gmres_wall_s"] == float(row["wall_time_s"])
        assert rec["cell_wall_s"] >= rec["gmres_wall_s"]
    failed = records[2]
    assert "case must be one of" in failed["error"]
    assert failed["stop_reason"] is None and failed["gmres_wall_s"] is None
    assert failed["apply_workers"] is None and failed["blas_threads"] == 3
    assert failed["cell_wall_s"] >= 0
    # the diagnostics stay out of the CSV
    assert body.splitlines()[2] == ("group,case,n,dim,strategy,iterations,"
                                    "final_residual,converged,seed,"
                                    "published,iterations_per_n")


@pytest.mark.parametrize("openblas,omp,expected", [
    (None, None, None), ("2", "4", 2), ("abc", "4", 4), ("0", None, None)])
def test_table_sidecar_blas_threads(tmp_path, monkeypatch, openblas, omp,
                                    expected):
    for name, value in (("OPENBLAS_NUM_THREADS", openblas),
                        ("OMP_NUM_THREADS", omp)):
        if value is None:
            monkeypatch.delenv(name, raising=False)
        else:
            monkeypatch.setenv(name, value)
    out = tmp_path / "results.csv"
    run_group_table([ExperimentConfig(n=1, group=1, case="a")], out)
    records = json.loads((tmp_path / "results.csv.json").read_text())
    assert records[0]["blas_threads"] == expected


def test_example1_conformity_errors():
    with pytest.raises(ValueError, match="multiple"):
        example1_conformity(7, 0.1, 0.0)
    example1_conformity(20, 0.1, 0.0)  # fine
    with pytest.raises(ValueError, match="delta"):
        example1_conformity(20, 0.1, 0.1)  # element size >= delta/2
    example1_conformity(60, 0.1, 0.1)


def test_example1_json_sidecar(tmp_path, capsys):
    out = tmp_path / "ex1.csv"
    assert main(["example1", "--mu1", "1,100", "--w", "0.5", "--sizes", "4",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[3] == ("mu0,mu1,w,delta,n,dim,lambda_max,lambda_min_nonzero,"
                        "condition_number,minres_iterations,minres_converged,"
                        "minres_residual")
    assert len(lines) == 4 + 2
    records = json.loads((tmp_path / "ex1.csv.json").read_text())
    assert [(r["mu1"], r["delta"], r["n"]) for r in records] == \
        [(1.0, 0.0, 4), (100.0, 0.0, 4)]
    for rec in records:
        # the strip field keeps both reflections: four classes
        assert rec["pencil_classes"] == {"pressure": [13, 10, 10, 8],
                                         "velocity": [32, 28, 28, 25]}
        assert rec["pencil_s"] > 0 and rec["minres_s"] >= 0
        assert rec["stop_reason"] == "converged"


def test_emit_adherence_counts(tmp_path):
    out = tmp_path / "adh.csv"
    cfg = ExperimentConfig(n=4, group=1, grid=(4, 4, 12, 12))
    ks = emit_adherence_data("A", cfg, out)
    lines = [l for l in out.read_text().splitlines()
             if l and not l.startswith("#")]
    assert len(lines) == 1 + (8 * 16 - 16 + 1)  # header + velocity dofs
    assert 0 <= ks <= 1
    ks_b = emit_adherence_data("Bx", cfg, tmp_path / "adh_bx.csv")
    lines = [l for l in (tmp_path / "adh_bx.csv").read_text().splitlines()
             if l and not l.startswith("#")]
    assert len(lines) == 1 + 41
    assert 0 <= ks_b <= 1


def test_solve_command_appends(tmp_path, capsys):
    out = "cells.csv"
    assert main(["solve", "-n", "2", "--group", "1", "--case", "a",
                 "--output-dir", str(tmp_path), "--out", out]) == 0
    assert main(["solve", "-n", "2", "--group", "1", "--case", "c",
                 "--output-dir", str(tmp_path), "--out", out]) == 0
    lines = (tmp_path / out).read_text().strip().splitlines()
    assert len(lines) == 3  # header + 2 rows
    assert lines[0] == ("group,case,n,dim,strategy,iterations,"
                        "final_residual,converged,seed,wall_time_s")
    assert lines[1].startswith("1,a,2,63,tau_block,")
    assert all(len(ln.split(",")) == 10 for ln in lines)


def test_config_file_and_override(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": 2, "group": 1, "case": "a"}))
    assert main(["solve", "--config", str(cfg_path), "--case", "c",
                 "--output-dir", str(tmp_path)]) == 0
    row = json.loads(capsys.readouterr().out)
    assert row["case"] == "c" and row["n"] == 2
    # the printout carries the stop reason and the build diagnostics that
    # the CSV leaves out
    assert row["stop_reason"] in ("converged", "stagnation", "breakdown",
                                  "maxit")
    assert row["cycles"] >= 1
    assert set(row["phase_seconds"]) == {"velocity", "schur_panels", "inverse"}
    assert row["velocity_min_pivot"] > 0
    assert 0.0 <= row["schur_symmetry_defect"] <= 1e-10
    assert row["schur_workers"] == panel_workers()
    assert row["apply_workers"] == 1  # npres = 13 < OVERLAP_PRESSURE


def test_thread_pool_env(monkeypatch):
    from glt_stokes.cli import thread_pool_size
    monkeypatch.setattr(precond.os, "sched_getaffinity",
                        lambda pid: {0, 1, 2, 5, 7, 9}, raising=False)
    monkeypatch.delenv("GLT_STOKES_THREADS", raising=False)
    assert thread_pool_size() == 4  # six usable CPUs, at most four
    # anything but a positive integer counts as unset
    for value, size in (("2", 2), ("3", 3), ("abc", 4), ("0", 4),
                        ("-2", 4), ("2.5", 4), ("", 4)):
        monkeypatch.setenv("GLT_STOKES_THREADS", value)
        assert thread_pool_size() == size, value
    monkeypatch.setattr(precond.os, "sched_getaffinity",
                        lambda pid: {3}, raising=False)
    monkeypatch.delenv("GLT_STOKES_THREADS")
    assert thread_pool_size() == 1


def test_symbol_json_schema():
    from glt_stokes.symbols import default_symbol_set
    data = default_symbol_set().div_y.to_json()
    assert set(data) == {"s1", "s2", "levels", "hermitian", "coeffs"}
    entry = data["coeffs"][0]
    assert {"k", "re", "im"} <= set(entry)
    assert len(entry["re"]) == 8 and len(entry["re"][0]) == 2
    assert all(v == 0.0 for row in entry["im"] for v in row)
