import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from glt_stokes.assembly import (ViscosityField, assemble_saddle,
                                 viscosity_for_group)
from glt_stokes.cli import rhs_for_case
from glt_stokes.mesh import build_mesh
from glt_stokes.precond import (SPDSolver, build_saddle_preconditioner,
                                usable_cpus)
from glt_stokes import solvers
from glt_stokes.solvers import gmres, minres


def test_gmres_identity_one_iteration():
    b = np.arange(1.0, 9.0)
    st = gmres(sp.eye(8), b)
    assert st.iterations == 1
    assert st.converged
    assert (st.stop_reason, st.cycles) == ("breakdown", 1)
    assert st.final_relative_residual < 1e-12


def test_gmres_determinism():
    rng = np.random.default_rng(0)
    A = sp.csr_matrix(rng.standard_normal((50, 50)) + 10 * np.eye(50))
    b = rng.standard_normal(50)
    s1 = gmres(A, b, restart=10, tol=1e-10)
    s2 = gmres(A, b, restart=10, tol=1e-10)
    assert s1.iterations == s2.iterations
    assert s1.residual_history == s2.residual_history


def test_gmres_residual_monotone_within_cycle():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((60, 60)) + 12 * np.eye(60)
    b = rng.standard_normal(60)
    restart = 10
    st = gmres(A, b, restart=restart, tol=1e-12, maxit=200)
    assert st.converged and st.cycles >= 3
    # each cycle records its start residual and one Givens estimate per
    # step; the history ends with the residual that stopped the iteration
    h = np.array(st.residual_history[:-1])
    assert len(h) == st.cycles + st.iterations
    for c in range(st.cycles):
        cycle = h[c * (restart + 1):(c + 1) * (restart + 1)]
        assert len(cycle) >= 2
        assert np.all(np.diff(cycle) <= 0)


def test_gmres_true_residual_reported():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((40, 40)) + 8 * np.eye(40)
    b = rng.standard_normal(40)
    st = gmres(A, b, tol=1e-9, maxit=400)
    x = st.solution
    rel = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
    assert st.final_relative_residual == pytest.approx(rel, rel=1e-10)
    assert st.converged and rel <= 10 * 1e-9
    assert st.stop_reason == "converged"
    assert st.cycles == -(-st.iterations // 20)


def test_gmres_nonconvergence_reported():
    rng = np.random.default_rng(12)
    A = rng.standard_normal((80, 80)) + 1.2 * np.eye(80)
    b = rng.standard_normal(80)
    st = gmres(A, b, restart=5, tol=1e-14, maxit=12)
    assert not st.converged
    assert st.iterations == 12
    assert (st.stop_reason, st.cycles) == ("maxit", 3)


@pytest.mark.parametrize("restart,maxit,tol", [(5, 12, 1e-14), (5, 400, 1e-9),
                                               (20, 400, 1e-9), (5, 0, 1e-9)])
def test_gmres_applies_once_per_step_and_cycle(restart, maxit, tol):
    # the residual at the zero start is b itself: one apply for b, one per
    # Arnoldi step and one per cycle end, and one matvec per step and per
    # cycle end; reusing b leaves it as it was, so a solve on copies of the
    # inputs gives the same history and solution
    rng = np.random.default_rng(12)
    A = rng.standard_normal((80, 80)) + 6 * np.eye(80)
    d = 1.0 / np.abs(np.diag(A))
    b = rng.standard_normal(80)
    b0 = b.copy()
    calls = {"matvec": 0, "apply": 0}

    def matvec(v):
        calls["matvec"] += 1
        return A @ v

    def apply(v):
        calls["apply"] += 1
        return d * v

    st = gmres(matvec, b, apply, restart=restart, tol=tol, maxit=maxit)
    assert calls == {"matvec": st.iterations + st.cycles,
                     "apply": st.iterations + st.cycles + 1}
    assert maxit == 0 or st.cycles >= 1
    assert np.array_equal(b, b0)
    ref = gmres(A.copy(), b0, sp.diags(d), restart=restart, tol=tol,
                maxit=maxit)
    assert ref.residual_history == st.residual_history
    assert np.array_equal(ref.solution, st.solution)


@pytest.mark.parametrize("restart,maxit", [(0, 10), (-1, 10), (20, -1)])
def test_gmres_rejects_bad_restart_and_maxit(restart, maxit):
    # a cycle of restart 0 takes no step, so the step count never reaches
    # maxit; the matvec gives up after 50 calls so that such a loop fails
    # instead of hanging
    calls = []

    def matvec(v):
        calls.append(1)
        if len(calls) > 50:
            raise RuntimeError("gmres did not return")
        return 2.0 * v

    with pytest.raises(ValueError, match="restart|maxit"):
        gmres(matvec, np.ones(10), restart=restart, maxit=maxit)
    assert not calls


@pytest.mark.parametrize("solve,settings,name", [
    (minres, {"tol": 0.0, "maxit": 7}, "tol"),
    (minres, {"tol": float("nan")}, "tol"),
    (minres, {"maxit": -3}, "maxit"),
    (gmres, {"tol": float("nan")}, "tol"),
])
def test_solvers_reject_settings_they_cannot_honour(solve, settings, name):
    # MINRES at tol = 0 once ran to maxit and returned converged=True with
    # stop reason "maxit", and took a negative maxit; a NaN tol, which no
    # residual meets, ran either solver to maxit.  Each is now refused
    # before the first matvec
    calls = []

    def matvec(v):
        calls.append(1)
        return 2.0 * v

    with pytest.raises(ValueError, match=name):
        solve(matvec, np.ones(5), **settings)
    assert not calls


def test_gmres_stops_on_preconditioned_residual():
    # G3(100), n = 8, case b: the preconditioned test is met while the true
    # residual is still about 5e-2; the solve stops there, with no short
    # restart cycles, and reports the true residual of the returned iterate
    mesh = build_mesh(8)
    mu = viscosity_for_group(3, 100.0)
    system = assemble_saddle(mesh, mu)
    prec = build_saddle_preconditioner(mesh, mu, system)
    b = rhs_for_case("b", mesh, system.dimension)
    ns = system.nullspace_vector()
    ns = ns / np.linalg.norm(ns)
    b = b - ns * (ns @ b)
    M = system.full_matrix()
    st = gmres(M, b, prec.apply, restart=20, tol=1e-5, maxit=1000)
    assert st.stop_reason == "converged" and st.converged
    assert st.cycles == -(-st.iterations // 20)
    r = b - M @ st.solution
    prec_rel = (np.linalg.norm(prec.apply(r))
                / np.linalg.norm(prec.apply(b)))
    assert prec_rel <= 1e-5
    assert st.preconditioned_residual == pytest.approx(prec_rel, rel=1e-6)
    true_rel = np.linalg.norm(r) / np.linalg.norm(b)
    assert st.final_relative_residual == pytest.approx(true_rel, rel=1e-10)
    assert 1e-2 < true_rel < 1e-1


_CELL_ITERATIONS = """
import numpy as np
from glt_stokes.assembly import assemble_saddle, viscosity_for_group
from glt_stokes.cli import rhs_for_case
from glt_stokes.mesh import build_mesh
from glt_stokes.precond import build_saddle_preconditioner
from glt_stokes.solvers import gmres
mesh = build_mesh(16)
mu = viscosity_for_group(2)
system = assemble_saddle(mesh, mu)
prec = build_saddle_preconditioner(mesh, mu, system)
ns = system.nullspace_vector()
ns = ns / np.linalg.norm(ns)
b = rhs_for_case("c", mesh, system.dimension, seed=42)
st = gmres(system.full_matrix(), b - ns * (ns @ b), prec.apply,
           restart=20, tol=1e-5, maxit=1000)
print(st.iterations, st.stop_reason)
"""


@pytest.mark.skipif(usable_cpus() < 2, reason="needs 2 usable CPUs")
def test_gmres_count_independent_of_blas_threads():
    # G2, n = 16, case c: the count must not move with the BLAS thread
    # variable, which the package overrides with one thread at import; the
    # variable is read at start-up, hence one interpreter per setting
    src = str(Path(__file__).resolve().parents[1] / "src")
    counts = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", _CELL_ITERATIONS],
                             env=env, capture_output=True, text=True,
                             timeout=600)
        assert run.returncode == 0, run.stderr
        counts.append(run.stdout.split())
    assert counts[0] == counts[1]
    assert counts[0][1] == "converged"


def test_minres_diag_preconditioner_one_iteration():
    d = np.arange(1.0, 11.0)
    st = minres(sp.diags(d), np.ones(10), P=lambda v: v / d)
    assert st.iterations == 1
    assert st.converged
    assert (st.stop_reason, st.cycles) == ("converged", 1)


def test_minres_rejects_nonsymmetric():
    A = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        minres(A, np.ones(2))


def test_minres_solves_singular_consistent_system():
    # saddle system with its constant-pressure kernel
    mesh = build_mesh(4)
    mu = viscosity_for_group(1)
    system = assemble_saddle(mesh, mu)
    M = system.full_matrix()
    P = sp.block_diag([system.stiffness, system.stiffness,
                       system.pressure_mass]).tocsc()
    psolve = SPDSolver(P)
    ns = system.nullspace_vector()
    b = np.ones(system.dimension)
    st = minres(M, b, psolve.solve, nullspace=ns, tol=1e-12, maxit=5000)
    assert st.converged
    assert st.final_relative_residual < 1e-9
    # solution orthogonal to the kernel
    assert abs(st.solution @ ns) / np.linalg.norm(st.solution) < 1e-10


def test_minres_converged_means_recomputed_residual_meets_tol():
    # strip viscosity at mu1 = 1e6: the recurrence estimate reaches 1e-12
    # (9.4e-13) while the recomputed P^{-1}-norm residual of the iterate is
    # 1.2e-12; the all-ones right-hand side meets the tolerance in both
    mesh = build_mesh(20)
    system = assemble_saddle(mesh, ViscosityField.example1(1.0, 1e6, 0.1, 0.0))
    M = system.full_matrix()
    A = system.stiffness
    psolve = SPDSolver(sp.block_diag([A, A, system.pressure_mass]).tocsc())
    ns = system.nullspace_vector()
    unit = ns / np.linalg.norm(ns)

    def pnorm(v):
        v = v - unit * (unit @ v)
        z = psolve.solve(v)
        return np.sqrt(v @ (z - unit * (unit @ z)))

    for b, converged in ((np.random.default_rng(2).uniform(0.0, 1.0, M.shape[0]),
                          False), (np.ones(M.shape[0]), True)):
        st = minres(M, b, psolve.solve, nullspace=ns, tol=1e-12, maxit=5000)
        assert st.residual_history[-1] <= 1e-12
        prec_rel = pnorm(b - M @ st.solution) / pnorm(b)
        assert st.preconditioned_residual == pytest.approx(prec_rel, rel=1e-6)
        assert st.converged is converged
        assert (prec_rel <= 1e-12) == converged
        assert st.stop_reason == ("converged" if converged else "stagnation")


def test_minres_stop_reason_maxit():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((30, 30))
    st = minres(A @ A.T + np.eye(30), rng.standard_normal(30), maxit=3)
    assert (st.iterations, st.converged, st.stop_reason) == (3, False, "maxit")


def test_minres_determinism():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((30, 30))
    A = sp.csr_matrix(A @ A.T + 30 * np.eye(30))
    b = rng.standard_normal(30)
    s1 = minres(A, b, tol=1e-10)
    s2 = minres(A, b, tol=1e-10)
    assert s1.iterations == s2.iterations


def test_preconditioned_saddle_solve_small():
    mesh = build_mesh(4)
    mu = viscosity_for_group(3, 10.0)
    system = assemble_saddle(mesh, mu)
    prec = build_saddle_preconditioner(mesh, mu, system)
    M = system.full_matrix()
    ns = system.nullspace_vector()
    ns = ns / np.linalg.norm(ns)
    b = np.ones(system.dimension)
    b -= ns * (ns @ b)
    st = gmres(M, b, prec.apply, restart=20, tol=1e-5, maxit=1000)
    assert st.converged
    assert st.preconditioned_residual <= 1e-5
    # solve verification: residual small relative to the preconditioner scale
    assert st.final_relative_residual < 1e-2


@pytest.mark.parametrize("solve", [gmres, minres])
def test_wall_time_from_monotonic_clock(monkeypatch, solve):
    # wall_time is the difference of two perf_counter readings; the
    # module's clock is replaced by one that has no other timer
    ticks = iter([10.0, 12.5])
    clock = types.SimpleNamespace(perf_counter=lambda: next(ticks))
    monkeypatch.setattr(solvers, "time", clock)
    st = solve(sp.diags(np.arange(1.0, 9.0)), np.ones(8))
    assert st.converged
    assert st.wall_time == 2.5
