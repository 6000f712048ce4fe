"""Each correctness check of the benchmark accepts a genuine n = 4 result
and rejects a corrupted one.

    python3 -m pytest bench/test_checks.py
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from glt_stokes import assembly, mesh as gmesh, precond, solvers, spectra  # noqa: E402
from glt_stokes.symbols import default_symbol_set  # noqa: E402

import checks  # noqa: E402

N = 4
G3 = assembly.viscosity_for_group(3, 100.0)


@pytest.fixture(scope="module")
def saddle():
    mesh = gmesh.build_mesh(N)
    system = assembly.assemble_saddle(mesh, G3)
    prec = precond.build_saddle_preconditioner(mesh, G3, system)
    return mesh, system, system.full_matrix(), prec


def test_dimensions(saddle):
    _, system, _, _ = saddle
    checks.check_dimensions(N, system.velocity_count, system.dimension)
    with pytest.raises(checks.CheckFailed):
        checks.check_dimensions(N, system.velocity_count + 1)
    with pytest.raises(checks.CheckFailed):
        checks.check_dimensions(N, system.velocity_count, system.dimension - 1)


def test_solve(saddle):
    _, system, M, prec = saddle
    b = np.random.default_rng(0).uniform(0.0, 1.0, system.dimension)
    ns = system.nullspace_vector() / np.sqrt(system.pressure_count)
    b -= ns * (ns @ b)
    stats = solvers.gmres(M, b, prec.apply, restart=20, tol=1e-5)

    def pnorm(v):
        return np.linalg.norm(prec.apply(v))
    checks.check_solve(M, b, stats, 1e-5, pnorm)
    corrupted = [
        dataclasses.replace(stats, solution=stats.solution * (1 + 1e-3)),
        dataclasses.replace(stats, converged=False),
        dataclasses.replace(stats, final_relative_residual=0.5 * stats.final_relative_residual),
    ]
    for bad in corrupted:
        with pytest.raises(checks.CheckFailed):
            checks.check_solve(M, b, bad, 1e-5, pnorm)
    # a solve stopped early has a preconditioned residual above tol
    early = solvers.gmres(M, b, prec.apply, restart=20, tol=1e-5, maxit=3)
    with pytest.raises(checks.CheckFailed):
        checks.check_solve(M, b, dataclasses.replace(early, converged=True), 1e-5, pnorm)


def test_eigenvalue_sandwich(saddle):
    mesh, system, _, _ = saddle
    eigs = np.linalg.eigvalsh(system.stiffness.toarray())
    one = assembly.assemble_stiffness(mesh, assembly.ViscosityField.constant())
    checks.check_eigenvalue_sandwich(eigs, one, G3.essinf, G3.esssup)
    for j, factor in ((-1, 2.0), (0, 0.5)):
        bad = eigs.copy()
        bad[j] *= factor * (G3.esssup if factor > 1 else 1.0 / G3.esssup)
        with pytest.raises(checks.CheckFailed):
            checks.check_eigenvalue_sandwich(bad, one, G3.essinf, G3.esssup)


def test_ks_non_increasing():
    G = default_symbol_set().stiffness
    pool = spectra.sample_symbol(G, G3)
    ks = [spectra.weyl_distance(np.linalg.eigvalsh(assembly.assemble_stiffness(
        gmesh.build_mesh(n), G3).toarray()), pool) for n in (N, 2 * N)]
    checks.check_ks_non_increasing(ks[0], ks[1], "A")
    with pytest.raises(checks.CheckFailed):
        checks.check_ks_non_increasing(ks[1], ks[0], "A")


def test_saddle_inertia(saddle):
    _, system, M, _ = saddle
    eigs = np.linalg.eigvalsh(M.toarray())
    nvel, npres = system.velocity_count, system.pressure_count
    checks.check_saddle_inertia(eigs, nvel, npres)
    flipped = eigs.copy()
    flipped[-1] = -flipped[-1]
    lifted = eigs.copy()
    lifted[np.argmin(np.abs(eigs))] = 1.0
    for bad in (flipped, lifted):
        with pytest.raises(checks.CheckFailed):
            checks.check_saddle_inertia(bad, nvel, npres)


def test_single_kernel(saddle):
    _, system, M, prec = saddle
    PM = np.column_stack([prec.apply(col) for col in M.toarray().T]).T
    sv = np.sort(np.linalg.svd(PM, compute_uv=False))
    checks.check_single_kernel(sv, system.dimension)
    extra_zero = sv.copy()
    extra_zero[1] = 0.0
    for bad in (extra_zero, sv[1:]):
        with pytest.raises(checks.CheckFailed):
            checks.check_single_kernel(bad, system.dimension)


def test_pencil_lambda_max():
    # w = 0.5 puts the strip interfaces on grid lines of the n = 4 mesh
    mu = assembly.ViscosityField.example1(1.0, 100.0, 0.5, 0.0)
    system = assembly.assemble_saddle(gmesh.build_mesh(N), mu)
    A = system.stiffness
    P = sp.bmat([[A, None, None], [None, A, None],
                 [None, None, system.pressure_mass]], format="csc")
    lam_max, _, _ = spectra.wathen_condition_number(system)
    checks.check_pencil_lambda_max(lam_max, system.full_matrix(), P)
    with pytest.raises(checks.CheckFailed):
        checks.check_pencil_lambda_max(lam_max * (1 + 1e-3), system.full_matrix(), P)


def test_strictly_increasing():
    checks.check_strictly_increasing([9.05, 58.6, 5.2e3, 5.2e5], "cond")
    with pytest.raises(checks.CheckFailed):
        checks.check_strictly_increasing([9.05, 58.6, 58.6, 5.2e5], "cond")
