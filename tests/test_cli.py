import csv
import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

from glt_stokes import cli, precond
from glt_stokes.assembly import ViscosityField, assemble_saddle
from glt_stokes.cli import (ExperimentConfig, emit_adherence_data,
                            example1_conformity, main, rhs_for_case,
                            run_group_table, run_solve_cell)
from glt_stokes.mesh import build_mesh
from glt_stokes.precond import SPDSolver, workers


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


@pytest.mark.parametrize("name,entry,scaled", [
    ("A", 16 / 3, True), ("a", 16 / 3, True), ("Stiffness", 16 / 3, True),
    ("stiffness-pre", 8 / 3, True), ("g0", 8 / 3, True), ("g1", -4 / 3, True),
    ("Bx", -1 / 6, False)])
def test_symbol_command_viscosity_scaling(capsys, name, entry, scaled):
    # every alias of the two stiffness symbols, and the slices g0, g1 of
    # stiffness_pre, are weighted by the group 2 viscosity x y + e^(x + y)
    # at the default point (1/2, 1/2); `entry` is the first nonzero of row 0
    assert main(["symbol", "--name", name, "--group", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    weight = 0.25 + np.exp(1.0) if scaled else 1.0
    first = next(v for v in out["re"][0] if v != 0)
    assert first == pytest.approx(weight * entry, rel=1e-14)


# SHA-256 of the `symbol --dump` printout, as the typed tables of the
# stiffness stencil and the divergence symbols give it
SYMBOL_DUMP_SHA256 = ("252e571ae78e7e035ecb1bbfd40f6f26"
                      "c5e135b3d57641121400fbec6060721a")


def test_symbol_dump(capsys):
    assert main(["symbol", "--dump"]) == 0
    out = capsys.readouterr().out
    assert list(json.loads(out)) == [
        "stiffness", "stiffness_pre", "g0", "g1", "div_x", "div_y",
        "div_x0", "div_x1", "div_y0", "div_y1"]
    assert hashlib.sha256(out.encode()).hexdigest() == SYMBOL_DUMP_SHA256


def _symbol_value(capsys, name, theta1, theta2):
    assert main(["symbol", "--name", name, "--theta1", str(theta1),
                 "--theta2", str(theta2)]) == 0
    out = json.loads(capsys.readouterr().out)
    return np.array(out["re"]) + 1j * np.array(out["im"])


def test_symbol_command_slices_take_their_own_angle(capsys):
    # stiffness_pre(t1, t2) = g0(t2) + g1(t2) e^{i t1} + g1(t2)* e^{-i t1}
    # and Gx(t1, t2) = gx0(t1) + gx1(t1) e^{-i t2}, read off the printouts
    t1, t2 = 0.7, -1.3
    g0, g1 = (_symbol_value(capsys, name, t1, t2) for name in ("g0", "g1"))
    pre = _symbol_value(capsys, "stiffness_pre", t1, t2)
    split = g0 + g1 * np.exp(1j * t1) + g1.conj().T * np.exp(-1j * t1)
    assert np.abs(pre - split).max() < 1e-14
    for full in ("div_x", "div_y"):
        u0, u1 = (_symbol_value(capsys, full + k, t1, t2) for k in "01")
        both = _symbol_value(capsys, full, t1, t2)
        assert np.abs(both - (u0 + u1 * np.exp(-1j * t2))).max() < 1e-14
    # a divergence slice ignores theta2, a stiffness slice theta1
    assert np.array_equal(_symbol_value(capsys, "div_x0", t1, 0.0),
                          _symbol_value(capsys, "div_x0", t1, 2.0))
    assert np.array_equal(_symbol_value(capsys, "g1", 0.0, t2),
                          _symbol_value(capsys, "g1", 2.0, t2))


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
    for gamma in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(ValueError, match="gamma"):
            ExperimentConfig(group=3, gamma=gamma).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(case="z").validate()
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig(seed=-1).validate()
    with pytest.raises(TypeError):
        ExperimentConfig(strategy="magic")


@pytest.mark.parametrize("field,value", [("restart", 0), ("restart", -3),
                                         ("maxit", -1), ("tol", 0.0),
                                         ("tol", -1.0)])
def test_config_rejects_bad_solver_settings(field, value):
    with pytest.raises(ValueError, match=field):
        ExperimentConfig(**{field: value}).validate()


@pytest.mark.parametrize("gamma", ["nan", "inf", "0", "-1"])
def test_bad_gamma_refused_before_any_cell(tmp_path, gamma):
    # a bad gamma once ran the table and wrote an error row, and made
    # `symbol` print NaN
    with pytest.raises(ValueError, match="gamma"):
        main(["table", "--groups", "3", "--gammas", gamma, "--cases", "a",
              "--sizes", "4", "--output-dir", str(tmp_path)])
    assert not list(tmp_path.iterdir())
    # the divergence symbols carry no viscosity, and once printed their
    # table whatever --gamma read
    for name in ("g0", "div_x"):
        with pytest.raises(ValueError, match="gamma"):
            main(["symbol", "--name", name, "--group", "3", "--gamma", gamma])


def test_unknown_group_refused_before_any_work(tmp_path):
    # the group rule is `viscosity_for_group`'s alone
    with pytest.raises(ValueError, match="group"):
        main(["table", "--groups", "1,5", "--cases", "a", "--sizes", "4",
              "--output-dir", str(tmp_path)])
    assert not list(tmp_path.iterdir())
    with pytest.raises(ValueError, match="group"):
        main(["symbol", "--name", "div_x", "--group", "5"])


@pytest.mark.parametrize("argv", [
    ["solve", "-n", "4", "--case", "c"],
    ["table", "--groups", "1", "--cases", "a,c", "--sizes", "4"],
], ids=["solve", "table"])
def test_negative_seed_refused_before_any_work(argv, tmp_path, monkeypatch):
    # a negative seed once built the system and died in numpy without
    # naming the seed, and made the table write an error row for case c
    def no_assembly(*args, **kwargs):
        raise AssertionError("assembled before the seed was checked")

    monkeypatch.setattr(cli, "assemble_saddle", no_assembly)
    with pytest.raises(ValueError, match="seed"):
        main(argv + ["--seed", "-1", "--output-dir", str(tmp_path)])
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv,option", [
    (["table", "--sizes", "8,x"], "--sizes"),
    (["table", "--gammas", "1,,10"], "--gammas"),
    (["example1", "--mu1", "1,y"], "--mu1"),
    (["example1", "--sizes", "20.5"], "--sizes"),
])
def test_list_options_are_usage_errors_naming_the_option(argv, option, capsys,
                                                         tmp_path,
                                                         monkeypatch):
    # the lists were split after parsing, so a bad item raised a bare
    # ValueError that named no option
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert f"argument {option}: invalid" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv,message", [
    (["--w", "nan", "--sizes", "4", "--mu1", "10"], r"\bw must be finite"),
    (["--mu1", "1,-5", "--sizes", "20"], "mu1 must be finite"),
    (["--sizes", "0", "--delta", "0.1"], "grid parameter must be >= 1"),
    (["--sizes", "20,7"], "multiple"),
    (["--sizes", "20", "--mu1", "10", "--tol", "0"], "tol must be positive"),
])
def test_example1_checks_every_input_before_any_work(argv, message, tmp_path,
                                                     monkeypatch):
    # w = nan reached round() in the conformity check, n = 0 divided by
    # zero there, and tol = 0 ran MINRES into "preconditioner lost positive
    # definiteness"; now every input is checked before the first assembly
    def assemble(*args):
        raise AssertionError("example1 started work on a bad input")

    monkeypatch.setattr(cli, "assemble_saddle", assemble)
    with pytest.raises(ValueError, match=message):
        main(["example1", *argv, "--out", str(tmp_path / "ex1.csv")])
    assert not list(tmp_path.iterdir())


def test_solve_command_rejects_negative_tol(tmp_path):
    # a negative tol used to run quietly to maxit
    with pytest.raises(ValueError, match="tol"):
        main(["solve", "-n", "3", "--tol", "-1", "--output-dir",
              str(tmp_path)])
    assert not list(tmp_path.iterdir())


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

    cfgs = [ExperimentConfig(n=3, group=1, case="a"),
            ExperimentConfig(n=3, group=1, case="c")]
    rows = run_group_table(cfgs, out)
    assert len(rows) == 2
    assert all(r["converged"] for r in rows)
    body = out.read_text()
    assert body.count("\n") >= 4


def test_table_reproducible(tmp_path):
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    cfgs = [ExperimentConfig(n=3, group=3, gamma=10.0, case="c")]
    run_group_table(cfgs, out1)
    run_group_table([ExperimentConfig(n=3, group=3, gamma=10.0, case="c")],
                    out2)
    assert out1.read_text() == out2.read_text()


def test_table_records_invalid_cells(tmp_path):
    # a group-3 config without gamma, and one with n = 0, whose failed-row
    # labels once raised inside the handler and aborted the table, and a
    # tau cell at n = 2, refused by the tau solver's builder
    cfgs = [ExperimentConfig(n=2, group=3, case="a"), ExperimentConfig(n=0),
            ExperimentConfig(n=2)]
    messages = []
    for cfg in cfgs:
        with pytest.raises(ValueError) as info:
            run_solve_cell(cfg)
        messages.append(str(info.value))
    out = tmp_path / "results.csv"
    rows = run_group_table(cfgs, out)
    assert [row["error"] for row in rows] == messages
    assert "n = 2" in messages[2]
    assert [row["group"] for row in rows] == ["3(gamma=None)", 1, 1]
    assert [row["dim"] for row in rows] == [63, "", 63]
    assert all(row["converged"] is False and row["iterations"] == -1
               for row in rows)
    records = json.loads((tmp_path / "results.csv.json").read_text())
    assert [r["error"] for r in records] == messages


def test_failed_cell_row_reads_back_as_one_row(tmp_path):
    # the n = 2 cell's error text holds a comma; the row is quoted so a
    # CSV reader sees the header's 11 fields, and the n = 3 row is unquoted
    assert main(["table", "--sizes", "2,3", "--groups", "1", "--cases", "a",
                 "--output-dir", str(tmp_path), "--out", "results.csv"]) == 0
    text = (tmp_path / "results.csv").read_text()
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    header, failed, solved = csv.reader(lines)
    assert len(header) == 11 and len(failed) == 11 and len(solved) == 11
    row = dict(zip(header, failed))
    assert (row["n"], row["iterations"], row["converged"]) == ("2", "-1", "False")
    assert row["final_residual"] == ("error: the DST-I tau solver needs "
                                     "n >= 3, got n = 2")
    assert '"' not in lines[2] and lines[2] == ",".join(solved)
    assert dict(zip(header, solved))["converged"] == "True"


def test_table_json_sidecar(tmp_path, monkeypatch):
    # the environment is not read: the sidecar reports the pinned count
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    out = tmp_path / "results.csv"
    cfgs = [ExperimentConfig(n=3, group=1, case="a"),
            ExperimentConfig(n=3, group=3, gamma=10.0, case="c"),
            ExperimentConfig(n=3, group=1, case="z")]
    rows = run_group_table(cfgs, out)
    body = out.read_text()
    records = json.loads((tmp_path / "results.csv.json").read_text())
    assert [(r["group"], r["case"], r["n"]) for r in records] == \
        [(1, "a", 3), ("3(gamma=10)", "c", 3), (1, "z", 3)]
    for rec, row in zip(records[:2], rows):
        assert rec["error"] is None
        assert rec["stop_reason"] == row["stop_reason"]
        assert rec["cycles"] == row["cycles"] >= 1
        assert set(rec["phase_seconds"]) == {
            "velocity_core", "velocity_factor", "schur_panels", "inverse"}
        assert "velocity_path" not in rec
        assert rec["velocity_min_pivot"] > 0
        assert 0.0 <= rec["schur_symmetry_defect"] <= 1e-10
        # a cell runs inline with one worker or on a pool thread, where
        # workers() is 1
        assert rec["schur_workers"] == 1
        assert rec["apply_workers"] == 1
        assert rec["blas_threads"] == 1
        assert rec["gmres_wall_s"] == float(row["wall_time_s"])
        assert rec["cell_wall_s"] >= rec["gmres_wall_s"]
    failed = records[2]
    assert "case must be one of" in failed["error"]
    assert failed["stop_reason"] is None and failed["gmres_wall_s"] is None
    assert failed["apply_workers"] is None and failed["blas_threads"] == 1
    assert failed["cell_wall_s"] >= 0
    # the diagnostics stay out of the CSV
    assert body.splitlines()[2] == ("group,case,n,dim,strategy,iterations,"
                                    "final_residual,converged,seed,"
                                    "published,iterations_per_n")


@pytest.mark.parametrize("pinned,expected", [(True, 1), (False, None)])
def test_table_sidecar_blas_threads(tmp_path, monkeypatch, pinned, expected):
    # the count in force in scipy's OpenBLAS copy, null where it has no
    # thread setter and is left unpinned
    if not pinned:
        monkeypatch.setattr(precond, "_BLAS_GETTERS",
                            (precond._BLAS_GETTERS[0], None))
    out = tmp_path / "results.csv"
    run_group_table([ExperimentConfig(n=3, group=1, case="a")], out)
    records = json.loads((tmp_path / "results.csv.json").read_text())
    assert records[0]["blas_threads"] == expected


_THREE_COMMANDS = """
from glt_stokes.cli import main
main(["table", "--groups", "2", "--cases", "a,c", "--sizes", "8,16",
      "--out", "table.csv"])
main(["spectrum", "-n", "8", "--group", "3", "--gamma", "100",
      "--target", "M", "--out", "spectrum.csv"])
main(["precond-spectrum", "-n", "8", "--group", "2", "--out", "psv.csv"])
"""


def test_csvs_independent_of_blas_thread_variables(tmp_path):
    # the package pins BLAS to one thread at import, so no thread variable
    # moves a byte of a CSV; the BLAS thread count is fixed at start-up,
    # hence one interpreter per setting
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in (None, "1", "2"):
        env = {key: value for key, value in os.environ.items()
               if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        cwd = tmp_path / str(threads)
        cwd.mkdir()
        run = subprocess.run([sys.executable, "-c", _THREE_COMMANDS], cwd=cwd,
                             env=env, capture_output=True, text=True,
                             timeout=600)
        assert run.returncode == 0, run.stderr
        outputs.append({name: (cwd / name).read_bytes()
                        for name in ("table.csv", "spectrum.csv", "psv.csv")})
    assert outputs[0] == outputs[1] == outputs[2]


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
        # the definiteness certificate of the MINRES preconditioner
        # diag(A, A, W): its smallest LDL^T pivot, at most its smallest
        # diagonal entry
        system = assemble_saddle(build_mesh(4), ViscosityField.example1(
            1.0, rec["mu1"], 0.5, 0.0))
        A, W = system.stiffness, system.pressure_mass
        P = sp.block_diag([A, A, W]).tocsc()
        assert rec["mass_min_pivot"] == SPDSolver(P).min_pivot
        assert 0 < rec["mass_min_pivot"] <= P.diagonal().min()


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


@pytest.mark.parametrize("target,pool_size,solved", [
    ("A", 16 * 20 * 8, 10), ("Bx", 16 * 20 * 2, 160), ("M", 16 * 20 * 18, 10)])
def test_emit_adherence_sidecar(tmp_path, target, pool_size, solved):
    # grid (4, 4, 5, 4): 16 physical and 20 frequency points; the Bx pool
    # folds the physical points into 320 frequencies
    cfg = ExperimentConfig(n=4, group=3, gamma=100.0, grid=(4, 4, 5, 4))
    out = tmp_path / "adh.csv"
    ks = emit_adherence_data(target, cfg, out)
    side = json.loads((tmp_path / "adh.csv.json").read_text())
    assert sorted(side) == ["frequency_points_solved", "ks_s",
                            "matrix_classes", "matrix_spectrum_s",
                            "matrix_workers", "pool_size", "symbol_pool_s"]
    assert (side["pool_size"], side["frequency_points_solved"]) == \
        (pool_size, solved)
    # A and M split into the two x <-> y mirror halves (113 and 267 rows)
    assert side["matrix_classes"] == {"A": [64, 49], "Bx": [41],
                                      "M": [138, 129]}[target]
    assert side["matrix_workers"] == workers()
    assert min(side["matrix_spectrum_s"], side["symbol_pool_s"],
               side["ks_s"]) >= 0
    # the CSV holds the rank-aligned values and np.quantile of the pool
    values, _, sampler, grid = cli.target_spectrum(target, build_mesh(4),
                                                   cfg.viscosity(), cfg.grid)
    assert grid == {"Bx": (1, 1, 20, 16)}.get(target, cfg.grid)
    ranks = (np.arange(len(values)) + 0.5) / len(values)
    quantiles = np.quantile(sampler(), ranks)
    assert out.read_text().splitlines()[2:] == [
        f"# target: {target}", f"# ks_distance={ks:.6f}",
        "index,matrix_value,symbol_quantile"] + [
        f"{i},{v:.12e},{q:.12e}" for i, (v, q) in enumerate(zip(values,
                                                                 quantiles))]


def test_solve_command_appends(tmp_path, capsys):
    out = "cells.csv"
    assert main(["solve", "-n", "3", "--group", "1", "--case", "a",
                 "--output-dir", str(tmp_path), "--out", out]) == 0
    assert main(["solve", "-n", "3", "--group", "1", "--case", "c",
                 "--output-dir", str(tmp_path), "--out", out]) == 0
    lines = (tmp_path / out).read_text().strip().splitlines()
    assert len(lines) == 3  # header + 2 rows
    assert lines[0] == ("group,case,n,dim,strategy,iterations,"
                        "final_residual,converged,seed,wall_time_s")
    assert lines[1].startswith("1,a,3,147,tau_block,")
    assert all(len(ln.split(",")) == 10 for ln in lines)


def test_solve_command_refuses_a_table_file(tmp_path, capsys):
    # a table CSV at solve's default path; solve used to append its
    # 10-field row under the table's 11-column header
    assert main(["table", "--groups", "1", "--cases", "a", "--sizes", "3",
                 "--output-dir", str(tmp_path), "--out", "results.csv"]) == 0
    out = tmp_path / "results.csv"
    before = out.read_text()
    with pytest.raises(SystemExit, match="results.csv"):
        main(["solve", "-n", "3", "--group", "1", "--case", "a",
              "--output-dir", str(tmp_path)])
    assert out.read_text() == before


def test_table_default_keeps_the_solve_rows(tmp_path, monkeypatch, capsys):
    # table once defaulted to solve's results.csv and rewrote the rows
    # that solve runs had appended there
    monkeypatch.chdir(tmp_path)
    for case in ("a", "c"):
        assert main(["solve", "-n", "3", "--group", "1", "--case", case]) == 0
    before = (tmp_path / "results.csv").read_text()
    assert len(before.splitlines()) == 3
    assert main(["table", "--groups", "1", "--cases", "a",
                 "--sizes", "3"]) == 0
    assert (tmp_path / "results.csv").read_text() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "results.csv", "table.csv", "table.csv.json"]


# the ExperimentConfig fields `solve` takes an option for
SOLVE_KEYS = ("n", "group", "gamma", "case", "tol", "restart", "maxit",
              "seed", "output_dir")


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    # every field `solve` reads is a config key of its file, and a key that
    # is no field, such as the strategy of an older file, is named
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {key: getattr(ExperimentConfig(), key) for key in SOLVE_KEYS}
        | {"n": 3, "output_dir": str(tmp_path)}))
    assert main(["solve", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "results.csv").exists()
    for extra in ({"strategy": "frozen_sparse"}, {"velocity_path": "lu",
                                                  "zeta": 1}):
        cfg_path.write_text(json.dumps({"n": 3, **extra}))
        with pytest.raises(ValueError, match=repr(sorted(extra))[1:-1]):
            main(["solve", "--config", str(cfg_path),
                  "--output-dir", str(tmp_path)])


@pytest.mark.parametrize("command,key,value", [
    # spectrum reads no solver setting, so a bad tol is not validated but
    # refused as a key it never reads
    (["spectrum", "-n", "4"], "tol", -1),
    (["solve", "-n", "3"], "grid", [4, 4, 8, 8]),
    (["table", "--groups", "1", "--cases", "a", "--sizes", "3"], "n", 4),
], ids=["spectrum-tol", "solve-grid", "table-n"])
def test_config_file_rejects_keys_the_command_does_not_read(
        command, key, value, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({key: value}))
    with pytest.raises(ValueError, match=rf"{command[0]} does not read "
                                         rf"config keys \['{key}'\]"):
        main(command + ["--config", str(cfg_path)])
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("command,key,value", [
    ("solve", "n", True),
    ("compare", "grid", [6.5, 6, 6, 6]),
    ("spectrum", "n", 8.0),
    ("solve", "tol", "1e-5"),
    ("solve", "maxit", 10.5),
], ids=["n-bool", "grid-float", "n-float", "tol-string", "maxit-float"])
def test_config_file_values_have_their_field_types(command, key, value,
                                                   tmp_path, monkeypatch):
    # n = true ran as n = 1, a fractional grid wrote a CSV, and a float n,
    # a string tol or a float maxit failed with a TypeError, the last inside
    # GMRES after the preconditioner build; now each is refused before any
    # work, naming its key
    def build_mesh(*args):
        raise AssertionError(f"{command} started work on a bad config value")

    monkeypatch.setattr(cli, "build_mesh", build_mesh)
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({key: value}))
    with pytest.raises(ValueError, match=f"config key '{key}' must be"):
        main([command, "--config", str(cfg_path)])
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_compare_config_file_sets_grid(tmp_path, capsys):
    # compare samples the symbol on the file's grid, which no option sets
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": 4, "grid": [4, 4, 5, 4]}))
    assert main(["compare", "--config", str(cfg_path), "--output-dir",
                 str(tmp_path)]) == 0
    side = json.loads((tmp_path / "compare.csv.json").read_text())
    assert side["pool_size"] == 16 * 20 * 8
    assert '"grid": [4, 4, 5, 4]' in (tmp_path / "compare.csv").read_text()


def test_config_file_and_override(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": 3, "group": 1, "case": "a"}))
    assert main(["solve", "--config", str(cfg_path), "--case", "c",
                 "--output-dir", str(tmp_path)]) == 0
    row = json.loads(capsys.readouterr().out)
    assert row["case"] == "c" and row["n"] == 3
    # the printout carries the stop reason and the build diagnostics that
    # the CSV leaves out
    assert row["stop_reason"] in ("converged", "breakdown", "maxit")
    assert row["cycles"] >= 1
    assert set(row["phase_seconds"]) == {"velocity_core", "velocity_factor",
                                         "schur_panels", "inverse"}
    assert "velocity_path" not in row
    assert row["velocity_min_pivot"] > 0
    assert 0.0 <= row["schur_symmetry_defect"] <= 1e-10
    assert row["schur_workers"] == workers()
    assert row["apply_workers"] == 1  # npres = 25 < OVERLAP_PRESSURE


def _table_with(monkeypatch, count, path):
    """The table of two cases at n = 3 and 4 for G1 and G3(100) with
    `workers()` = count, and the threads its cells ran on."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)), raising=False)
    assert workers() == count
    threads, cell = [], run_solve_cell

    def spy(cfg):
        threads.append(threading.current_thread())
        return cell(cfg)

    monkeypatch.setattr(cli, "run_solve_cell", spy)
    run_group_table([ExperimentConfig(n=n, group=group, gamma=gamma, case=case)
                     for group, gamma in ((1, None), (3, 100.0))
                     for case in "ac" for n in (3, 4)], path)
    return path.read_text(), threads


def test_table_cells_follow_the_worker_rule(tmp_path, monkeypatch, fresh_pool):
    # one worker: every cell on the main thread; two: on the pool, with a
    # byte-identical CSV
    serial, threads = _table_with(monkeypatch, 1, tmp_path / "one.csv")
    assert threads and all(t is threading.main_thread() for t in threads)
    pooled, threads = _table_with(monkeypatch, 2, tmp_path / "two.csv")
    assert len(threads) == 8 and precond._pool()._max_workers == 2
    assert all(t.name.startswith("glt-stokes") for t in threads)
    assert pooled == serial


def test_symbol_json_schema():
    from glt_stokes.symbols import default_symbol_set
    data = default_symbol_set().div_y.to_json()
    assert set(data) == {"s1", "s2", "levels", "hermitian", "coeffs"}
    entry = data["coeffs"][0]
    assert {"k", "re", "im"} <= set(entry)
    assert len(entry["re"]) == 8 and len(entry["re"][0]) == 2
    assert all(v == 0.0 for row in entry["im"] for v in row)


def test_config_rejects_tau_below_three(tmp_path, capsys):
    # the tau core needs n >= 3: the velocity builder rejects a
    # preconditioned run below it, naming n; the config takes any n >= 1,
    # so a run that builds no preconditioner works at n = 2, and a table
    # takes its sizes from --sizes alone
    for n in (1, 2):
        ExperimentConfig(n=n).validate()
        with pytest.raises(ValueError, match=f"n = {n}"):
            run_solve_cell(ExperimentConfig(n=n))
    row = run_solve_cell(ExperimentConfig(n=2), preconditioned=False)
    assert row["strategy"] == "none" and row["dim"] == 63
    assert main(["table", "--groups", "1", "--cases", "a", "--sizes", "3",
                 "--output-dir", str(tmp_path), "--out", "results.csv"]) == 0
    rows = (tmp_path / "results.csv").read_text().splitlines()
    assert len(rows) == 5 and rows[-1].startswith("1,a,3,147,tau_block,")
    assert rows[-1].split(",")[7] == "True"
    with pytest.raises(SystemExit) as info:
        main(["table", "-n", "2", "--groups", "1", "--cases", "a",
              "--sizes", "3", "--output-dir", str(tmp_path)])
    assert info.value.code == 2


# the option strings of each subcommand, -h/--help aside: each takes only
# the options it reads
COMMAND_OPTIONS = {
    "mesh-info": {"-n", "--dump"},
    "assemble": {"--config", "-n", "--group", "--gamma", "--export"},
    "symbol": {"--name", "--x", "--y", "--theta1", "--theta2", "--group",
               "--gamma", "--dump"},
    "spectrum": {"--config", "-n", "--group", "--gamma", "--output-dir",
                 "--target", "--out"},
    "compare": {"--config", "-n", "--group", "--gamma", "--output-dir",
                "--target", "--out"},
    "precond-spectrum": {"--config", "-n", "--group", "--gamma",
                         "--output-dir", "--out"},
    "solve": {"--config", "-n", "--group", "--gamma", "--case", "--tol",
              "--restart", "--maxit", "--seed", "--output-dir",
              "--unpreconditioned", "--out"},
    "table": {"--config", "--tol", "--restart", "--maxit", "--seed",
              "--output-dir", "--groups", "--cases", "--sizes", "--gammas",
              "--out"},
    "example1": {"--mu0", "--mu1", "--w", "--delta", "--sizes", "--tol",
                 "--out"},
}


def test_each_command_takes_the_options_it_reads(capsys):
    # the option strings of each subcommand's help text
    for command, expected in COMMAND_OPTIONS.items():
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        words = capsys.readouterr().out.split()
        options = {w.rstrip(",") for w in words if w.startswith("-")}
        assert options - {"-h", "--help"} == expected, command


@pytest.mark.parametrize("argv", [
    ["spectrum", "-n", "4", "--tol", "-1"],
    ["assemble", "-n", "2", "--restart", "0", "--export", "p"],
    ["table", "--group", "3", "--groups", "1", "--cases", "a", "--sizes",
     "3"],
    # not read as an abbreviation of --cases
    ["table", "--case", "b", "--groups", "1", "--sizes", "3"],
])
def test_ignored_options_are_usage_errors(argv, capsys, tmp_path,
                                          monkeypatch):
    # each once passed through the config's validation and raised
    # ValueError for a setting the command never reads
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
