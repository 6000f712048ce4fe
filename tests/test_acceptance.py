"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with `pytest -s` to see them inline).

Regression constants marked FROZEN were measured once with the independent
oracles in this repository and pinned; they are not tuning knobs.
"""

from fractions import Fraction

import numpy as np
import scipy.linalg as sla

from glt_stokes.assembly import (ViscosityField, assemble_divergence,
                                 assemble_saddle, assemble_stiffness,
                                 viscosity_for_group)
from glt_stokes.cli import PUBLISHED_ITERATIONS, rhs_for_case
from glt_stokes.mesh import (build_mesh, saddle_dimension,
                             velocity_extension_map)
from glt_stokes.precond import build_saddle_preconditioner
from glt_stokes.solvers import gmres, minres
from glt_stokes.spectra import (sample_symbol, singular_values,
                                symmetric_eigenvalues,
                                wathen_condition_number, weyl_distance)
from glt_stokes.symbols import default_symbol_set
from oracles import (block_toeplitz_defect, extend_to_block_toeplitz,
                     outlier_check, tau_approx, toeplitz_from_symbol)

ONE = ViscosityField.constant(1.0)
GROUP_INSTANCES = ((1, None), (2, None), (3, 1.0), (3, 10.0), (3, 100.0))

# FROZEN regression constants (first oracle measurements, see module doc)
FROZEN_KS_A_GROUP1_N16 = 0.030555
FROZEN_KS_BX_N16 = 0.075915
FROZEN_KS_BY_N16 = 0.075915
FROZEN_DEFECT = {4: 40, 8: 84}          # zero-filled extension, 11n - 4


def _report(criterion, ok: bool, detail: str):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# shared expensive objects

_EIG_CACHE = {}


def stiffness_eigs(group, gamma, n):
    key = (group, gamma, n)
    if key not in _EIG_CACHE:
        mu = ONE if group == 0 else viscosity_for_group(group, gamma)
        mesh = build_mesh(n)
        _EIG_CACHE[key] = symmetric_eigenvalues(assemble_stiffness(mesh, mu))
    return _EIG_CACHE[key]


_SOLVE_CACHE = {}


def solve_cell(group, gamma, case, n):
    """PGMRES iterations for one table cell, preconditioner reused per
    (group, gamma, n)."""
    pkey = (group, gamma, n)
    if pkey not in _SOLVE_CACHE:
        mu = viscosity_for_group(group, gamma)
        mesh = build_mesh(n)
        system = assemble_saddle(mesh, mu)
        prec = build_saddle_preconditioner(mesh, mu, system)
        ns = system.nullspace_vector()
        _SOLVE_CACHE[pkey] = (mesh, system, prec, ns / np.linalg.norm(ns))
    mesh, system, prec, nsu = _SOLVE_CACHE[pkey]
    b = rhs_for_case(case, mesh, system.dimension, seed=42)
    b = b - nsu * (nsu @ b)
    stats = gmres(system.full_matrix(), b, prec.apply, restart=20,
                  tol=1e-5, maxit=1000)
    return stats


# ---------------------------------------------------------------------------

def test_criterion_1_dimension_identity():
    ok = True
    details = []
    for n, dim in ((8, 1107), (16, 4515), (32, 18243)):
        closed = saddle_dimension(n)
        assembled = assemble_saddle(build_mesh(n), ONE).dimension
        details.append(f"n={n}: {assembled}")
        ok &= closed == dim == assembled
    _report(1, ok, "saddle dimensions " + ", ".join(details))


def test_criterion_2_stencil_identity():
    n = 8
    mesh = build_mesh(n)
    A = assemble_stiffness(mesh, ONE).tocsr()

    values = set(np.round(A.data, 12))
    expected = {round(float(Fraction(16, 3)), 12), 4.0,
                round(float(Fraction(-4, 3)), 12),
                round(float(Fraction(1, 3)), 12)}
    ok = values == expected

    G = default_symbol_set().stiffness
    T = toeplitz_from_symbol(G, (n, n))
    flat, mask = velocity_extension_map(n)
    diff = T[flat][:, flat] - A[mask][:, mask]
    max_diff = np.abs(diff.data).max() if diff.nnz else 0.0
    ok &= max_diff <= 1e-12

    defect = block_toeplitz_defect(extend_to_block_toeplitz(A, n), G, (n, n))
    ok &= defect <= 16 * n and defect == FROZEN_DEFECT[n]
    _report(2, ok, f"values {sorted(values)}, mapped-part max diff "
                   f"{max_diff:.1e}, defect rows {defect} <= {16 * n}")


def test_criterion_3_symbol_kernel():
    syms = default_symbol_set()
    total = np.full((8, 8), Fraction(0), dtype=object)
    for k in syms.stiffness.offsets():
        total = total + syms.stiffness.coefficient(k)
    kernel_exact = all(sum(row) == 0 for row in total)

    rng = np.random.default_rng(314159)
    th = rng.uniform(-np.pi, np.pi, size=(10000, 2))
    vals = syms.stiffness.eval_grid(th)
    herm = float(np.abs(vals - vals.conj().transpose(0, 2, 1)).max())
    wmin = float(np.linalg.eigvalsh(vals).min())
    ok = kernel_exact and herm <= 1e-12 and wmin >= -1e-12
    _report(3, ok, f"rational kernel exact: {kernel_exact}, hermitian defect "
                   f"{herm:.1e}, min eig over 1e4 samples {wmin:.2e}")


def test_criterion_4_weyl_eigenvalue_adherence():
    syms = default_symbol_set()
    ok = True
    details = []
    ceiling = 1.5 * FROZEN_KS_A_GROUP1_N16
    for group, gamma in GROUP_INSTANCES:
        mu = viscosity_for_group(group, gamma)
        pool = sample_symbol(syms.stiffness, mu)
        distances = [weyl_distance(stiffness_eigs(group, gamma, n), pool)
                     for n in (4, 8, 16)]
        mono = all(distances[i + 1] <= distances[i] + 1e-12 for i in range(2))
        ok &= mono
        if group == 1:
            ok &= distances[2] <= ceiling
        details.append(f"G{group}{'' if gamma is None else f'(g={gamma:g})'}:"
                       f" {'/'.join(f'{d:.4f}' for d in distances)}")
    _report(4, ok, f"KS over n=4/8/16 non-increasing, group-1 n=16 ceiling "
                   f"{ceiling:.4f}; " + "; ".join(details))


def test_criterion_5_weyl_singular_value_adherence():
    syms = default_symbol_set()
    ok = True
    details = []
    for name, symbol, pick, frozen in (
            ("Bx", syms.div_x, 0, FROZEN_KS_BX_N16),
            ("By", syms.div_y, 1, FROZEN_KS_BY_N16)):
        pool = sample_symbol(symbol, None, grid=(1, 1, 324, 324))
        distances = []
        for n in (4, 8, 16):
            B = assemble_divergence(build_mesh(n))[pick]
            distances.append(weyl_distance(singular_values(B), pool))
        mono = all(distances[i + 1] <= distances[i] + 1e-12 for i in range(2))
        ok &= mono and distances[2] <= 1.5 * frozen
        details.append(f"{name}: {'/'.join(f'{d:.4f}' for d in distances)}")
    _report(5, ok, "; ".join(details))


def test_criterion_6_outlier_bounds():
    ok = True
    details = []
    for n in (4, 8, 16):
        one = stiffness_eigs(0, None, n)  # unit viscosity
        for group, gamma in GROUP_INSTANCES:
            mu = viscosity_for_group(group, gamma)
            good = outlier_check(stiffness_eigs(group, gamma, n), one, mu)
            ok &= good
            if not good:
                details.append(f"violated at G{group}(g={gamma}) n={n}")
    _report(6, ok, "sorted-eigenvalue sandwich holds for all groups, "
                   "n in {4,8,16}" + ("; " + "; ".join(details) if details
                                      else ""))


def test_criterion_7_tau_analytics():
    ok = True
    worst = 0.0
    for N in (5, 50, 500):
        T = tau_approx([-1.0, 2.0, -1.0], N)
        w = np.sort(np.linalg.eigvalsh(T))
        analytic = np.sort(2 - 2 * np.cos(np.arange(1, N + 1) * np.pi / (N + 1)))
        err = float(np.abs(w - analytic).max())
        worst = max(worst, err)
        ok &= err <= 1e-12
    rng = np.random.default_rng(2718)
    exact = True
    for _ in range(100):
        b = int(rng.integers(1, 5))
        band = rng.uniform(-5, 5, size=2 * b + 1)
        N = int(rng.integers(2 * b + 1, 2 * b + 20))
        exact &= np.array_equal(tau_approx(band, N).T,
                                tau_approx(band[::-1], N))
    ok &= exact
    _report(7, ok, f"sine eigenvalues to {worst:.1e}; transpose "
                   f"compatibility exact on 100 random bands: {exact}")


def _singular_values_within(M, lo, hi):
    """(count, svd_used): the number of singular values of the square M in
    [lo, hi], read off the eigenvalues of the Gram matrix M^T M in
    [lo^2, hi^2].  Squaring errs by about eps * ||M||^2, so a matrix with
    a Gram eigenvalue within 1e-8 relative of lo^2 or hi^2 is counted by
    its SVD instead."""
    ends = np.array([lo * lo, hi * hi])
    gram = np.linalg.eigvalsh(M.T @ M)
    if np.any(np.abs(gram[:, None] - ends) <= 1e-8 * ends):
        sv = np.linalg.svd(M, compute_uv=False)
        return int(np.count_nonzero((sv >= lo) & (sv <= hi))), True
    return int(np.count_nonzero((gram >= ends[0]) & (gram <= ends[1]))), False


def test_singular_values_within_counts_as_svd():
    rng = np.random.default_rng(3)
    U, _ = np.linalg.qr(rng.standard_normal((40, 40)))
    V, _ = np.linalg.qr(rng.standard_normal((40, 40)))
    sv = np.geomspace(0.1, 10.0, 40)
    assert _singular_values_within(U * sv @ V.T, 0.5, 2.0) == (12, False)
    # a singular value just inside an end is counted by the SVD
    sv[0] = 0.5 * (1.0 + 1e-10)
    assert _singular_values_within(U * sv @ V.T, 0.5, 2.0) == (13, True)


def test_criterion_8_preconditioner_clustering():
    ok = True
    details = []
    for group, gamma in GROUP_INSTANCES:
        mu = viscosity_for_group(group, gamma)
        fractions, svd_sizes = [], []
        for n in (4, 8, 16):
            mesh = build_mesh(n)
            system = assemble_saddle(mesh, mu)
            prec = build_saddle_preconditioner(mesh, mu, system)
            PM = prec.apply(system.full_matrix().toarray())
            count, svd_used = _singular_values_within(PM, 0.5, 2.0)
            fractions.append(count / len(PM))
            if svd_used:
                svd_sizes.append(f"n={n}")
        baseline = fractions[0]
        mono = all(fractions[i + 1] >= fractions[i] - 1e-12 for i in range(2))
        ok &= mono and all(f >= baseline - 1e-12 for f in fractions)
        details.append(f"G{group}{'' if gamma is None else f'(g={gamma:g})'}:"
                       f" {'/'.join(f'{f:.4f}' for f in fractions)}"
                       + (f" (by SVD at {', '.join(svd_sizes)})"
                          if svd_sizes else ""))
    _report(8, ok, "fraction of singular values in [1/2,2] non-decreasing "
                   "over n=4/8/16; " + "; ".join(details))


def test_criterion_9_pgmres_case_a():
    ok = True
    rows = []
    for key, cases in PUBLISHED_ITERATIONS.items():
        group, gamma = key
        iters = {}
        for n in (8, 16, 32):
            stats = solve_cell(group, gamma, "a", n)
            p = cases["a"][n]
            lo, hi = int(np.ceil(p / 2)), 2 * p
            good = stats.converged and lo <= stats.iterations <= hi
            ok &= good
            iters[n] = stats.iterations
            rows.append(f"G{group}{'' if gamma is None else f'(g={gamma:g})'}"
                        f" n={n}: {stats.iterations} vs {p} "
                        f"{'ok' if good else 'OUT'}")
        growth = iters[32] / iters[8]
        ok &= growth <= 6.0
        rows.append(f"  growth(32/8) = {growth:.2f}")
    _report("9a", ok, "case-a cells within factor 2 and linear growth; "
            + "; ".join(rows))


def test_criterion_9_case_b_growth_trend():
    # the case-b right-hand side is underdetermined in the source tables;
    # acceptance uses growth-trend checks (at most linear in n), per the
    # solver module's resolution
    ok = True
    rows = []
    for key in PUBLISHED_ITERATIONS:
        group, gamma = key
        iters = {}
        for n in (8, 16, 32):
            stats = solve_cell(group, gamma, "b", n)
            ok &= stats.converged
            iters[n] = stats.iterations
        growth = iters[32] / iters[8]
        ok &= growth <= 6.0
        rows.append(f"G{group}{'' if gamma is None else f'(g={gamma:g})'}:"
                    f" {iters[8]}/{iters[16]}/{iters[32]}"
                    f" growth {growth:.2f}")
    _report("9b", ok, "case-b converged with at most linear growth; "
            + "; ".join(rows))


def test_criterion_9_pgmres_case_c():
    ok = True
    rows = []
    for key, cases in PUBLISHED_ITERATIONS.items():
        group, gamma = key
        for n in (8, 16, 32):
            stats = solve_cell(group, gamma, "c", n)
            p = cases["c"][n]
            lo, hi = int(np.ceil(p / 2)), 2 * p
            good = stats.converged and lo <= stats.iterations <= hi
            ok &= good
            rows.append(f"G{group}{'' if gamma is None else f'(g={gamma:g})'}"
                        f" n={n}: {stats.iterations} vs {p} "
                        f"{'ok' if good else 'OUT'}")
    _report("9c", ok, "case-c cells within factor 2 of the published "
                      "values; " + "; ".join(rows))


def test_criterion_9_unpreconditioned_stalls():
    mesh = build_mesh(16)
    system = assemble_saddle(mesh, ONE)
    b = np.ones(system.dimension)
    ns = system.nullspace_vector()
    ns = ns / np.linalg.norm(ns)
    b = b - ns * (ns @ b)
    stats = gmres(system.full_matrix(), b, None, restart=20, tol=1e-5,
                  maxit=1000)
    ok = (not stats.converged) and stats.iterations >= 1000 \
        and stats.stop_reason == "maxit"
    _report("9d", ok, f"unpreconditioned GMRES at n=16: {stats.iterations} "
                      f"iterations, converged={stats.converged}")


def test_criterion_10_example1_trends():
    import scipy.sparse as sp
    from glt_stokes.precond import SPDSolver

    mu1_list = (1.0, 1e2, 1e4, 1e6)
    conds = []
    iters = []
    mesh = build_mesh(20)
    for mu1 in mu1_list:
        mu = ViscosityField.example1(1.0, mu1, 0.1, 0.0)
        system = assemble_saddle(mesh, mu)
        conds.append(wathen_condition_number(system)[2])
        P = sp.block_diag([system.stiffness, system.stiffness,
                           system.pressure_mass]).tocsc()
        stats = minres(system.full_matrix(), np.ones(system.dimension),
                       SPDSolver(P).solve,
                       nullspace=system.nullspace_vector(), tol=1e-12,
                       maxit=60000)
        assert stats.converged
        iters.append(stats.iterations)
    increasing = all(conds[i + 1] > conds[i] for i in range(3))
    iter_growth = iters[-1] / iters[0]
    cond_growth = conds[-1] / conds[0]

    c20 = conds[0]
    system40 = assemble_saddle(build_mesh(40),
                               ViscosityField.example1(1.0, 1.0, 0.1, 0.0))
    c40 = wathen_condition_number(system40)[2]
    mesh_indep = abs(c40 / c20 - 1.0) <= 0.10

    ok = increasing and mesh_indep and iter_growth < cond_growth
    _report(10, ok, f"cond {['%.3g' % c for c in conds]} strictly increasing:"
                    f" {increasing}; minres iters {iters} growth "
                    f"{iter_growth:.2f} < cond growth {cond_growth:.3g}; "
                    f"cond(n=40)/cond(n=20) = {c40 / c20:.4f}")


def test_example1_minres_mesh_stability():
    # companion to criterion 10: the mass-preconditioned MINRES iteration
    # count is stable (within 20%) across a mesh refinement at mu1 = mu0
    import scipy.sparse as sp
    from glt_stokes.precond import SPDSolver

    iters = {}
    for n in (20, 40):
        system = assemble_saddle(build_mesh(n),
                                 ViscosityField.example1(1.0, 1.0, 0.1, 0.0))
        P = sp.block_diag([system.stiffness, system.stiffness,
                           system.pressure_mass]).tocsc()
        stats = minres(system.full_matrix(), np.ones(system.dimension),
                       SPDSolver(P).solve,
                       nullspace=system.nullspace_vector(), tol=1e-12,
                       maxit=60000)
        assert stats.converged
        iters[n] = stats.iterations
    ratio = iters[40] / iters[20]
    assert 0.8 <= ratio <= 1.2, f"iterations {iters} vary beyond 20%"


def test_criterion_11_exact_schur_clusters():
    mesh = build_mesh(4)
    system = assemble_saddle(mesh, ONE)
    A = system.stiffness.toarray()
    Ainv = np.linalg.inv(A)
    Bx = system.div_x.toarray()
    By = system.div_y.toarray()
    S = Bx @ Ainv @ Bx.T + By @ Ainv @ By.T
    npres = system.pressure_count
    ones = np.ones(npres)
    P = sla.block_diag(A, A, S + np.outer(ones, ones) / npres)
    L = np.linalg.cholesky(P)
    Md = system.full_matrix().toarray()
    C = np.linalg.solve(L, np.linalg.solve(L, Md.T).T)
    eigs = np.sort(np.linalg.eigvalsh(0.5 * (C + C.T)))
    # drop the single kernel eigenvalue, then count 1e-6-width clusters
    mags = np.abs(eigs)
    keep = eigs[mags > 1e-8 * mags.max()]
    clusters = 1 + int(np.sum(np.diff(keep) > 1e-6))
    ok = clusters <= 3
    _report(11, ok, f"preconditioned spectrum has {clusters} clusters "
                    f"(width 1e-6), extremes {keep[0]:.6f}..{keep[-1]:.6f}")
