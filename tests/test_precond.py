import dataclasses
import math
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from glt_stokes.assembly import (ViscosityField, assemble_divergence,
                                 assemble_saddle, assemble_stiffness,
                                 viscosity_for_group)
from glt_stokes.cli import rhs_for_case
from glt_stokes.mesh import build_mesh, velocity_extension_map
from glt_stokes import assembly, precond
from glt_stokes.precond import (PANEL, TILE, SPDSolver,
                                TauDSTSolver, build_saddle_preconditioner,
                                build_schur, build_velocity_preconditioner,
                                dst1_matrix, fan_out, schur_panels, symmetrize,
                                tau_block_core, viscosity_scaling, workers)
from glt_stokes.solvers import gmres
from glt_stokes.spectra import singular_values
from oracles import assembled_tau_core

ONE = ViscosityField.constant(1.0)
# the largest n whose tau solver takes the dense DST-I matrix, not the FFT
DENSE_DST_MAX_N = math.isqrt(precond._FFT_MIN_CELLS - 1)


@pytest.fixture(scope="module")
def setup8():
    mesh = build_mesh(8)
    mu = viscosity_for_group(2)
    system = assemble_saddle(mesh, mu)
    return mesh, mu, system


def _frozen(mesh, mu, stiffness=None):
    """`SPDSolver` on D^{1/2} A(1) D^{1/2}, the unit-viscosity stiffness
    under the tau core's nodal viscosity scaling D, exact for a constant
    field: an SPD velocity solve at every n, n = 1 and 2 included."""
    D = sp.diags(np.sqrt(viscosity_scaling(mesh, mu, stiffness)))
    P = (D @ assemble_stiffness(mesh, ONE) @ D).tocsc()
    return SPDSolver(0.5 * (P + P.T))


def test_constant_viscosity_scaling_invariance():
    # P(mu = c) = c * P(mu = 1), and so are the solves
    mesh = build_mesh(4)
    c = 3.7
    rhs = np.random.default_rng(1).standard_normal(mesh.velocity_count)
    p1 = build_velocity_preconditioner(mesh, ONE)
    pc = build_velocity_preconditioner(mesh, ViscosityField.constant(c))
    diff = _lu_reference(mesh, ViscosityField.constant(c)).matrix \
        - c * _lu_reference(mesh, ONE).matrix
    assert abs(diff).max() < 1e-12
    ref = p1.solve(rhs)
    assert np.abs(c * pc.solve(rhs) - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("group,gamma", [(1, None), (2, None), (3, 1.0),
                                         (3, 10.0), (3, 100.0)])
def test_velocity_preconditioner_spd(group, gamma):
    mesh = build_mesh(4)
    mu = viscosity_for_group(group, gamma)
    vel = build_velocity_preconditioner(mesh, mu)
    assert vel.min_pivot > 0
    w = np.linalg.eigvalsh(_lu_reference(mesh, mu).matrix.toarray())
    assert w[0] > 0


@pytest.mark.parametrize("size", [100, 2500])
def test_spd_solver_rejects_indefinite(size):
    # a negative pivot, and a zero diagonal that only a row interchange
    # can factor, are both caught at every size
    d = np.ones(size)
    d[:2] = (-5.0, 0.5)
    with pytest.raises(ValueError):
        SPDSolver(sp.diags(d))
    swap = sp.csr_matrix([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        SPDSolver(sp.block_diag([swap, sp.identity(size - 2)]))


@pytest.mark.parametrize("n", [4, 32])
def test_spd_solver_min_pivot(n):
    mesh = build_mesh(n)
    vel = _lu_reference(mesh, viscosity_for_group(1))
    assert vel.min_pivot > 0
    rhs = np.ones(vel.matrix.shape[0])
    assert np.abs(vel.matrix @ vel.solve(rhs) - rhs).max() < 1e-10
    # a block of many columns is solved as its columns are
    block = np.random.default_rng(n).standard_normal((len(rhs), 37))
    cols = np.column_stack([vel.solve(c) for c in block.T])
    assert np.abs(vel.solve(block) - cols).max() <= 1e-14 * np.abs(cols).max()


ALL_GROUPS = [(1, None), (2, None), (3, 1.0), (3, 10.0), (3, 100.0)]
TENTPOLE_GROUPS = [(1, None), (2, None), (3, 100.0)]


def _lu_reference(mesh, mu):
    """`SPDSolver` on D^{1/2} assembled_tau_core D^{1/2}: the tau core
    that `TauDSTSolver` inverts, factored by sparse LU."""
    D = sp.diags(np.sqrt(viscosity_scaling(mesh, mu)))
    P = (D @ assembled_tau_core(mesh.n, mesh.velocity_count) @ D).tocsc()
    return SPDSolver(0.5 * (P + P.T))


def _assert_same_solves(dst, lu, seed):
    rng = np.random.default_rng(seed)
    assert dst.size == lu.size
    for rhs in (rng.standard_normal(lu.size),
                rng.standard_normal((lu.size, 16))):
        ref = lu.solve(rhs)
        got = dst.solve(rhs)
        assert got.shape == rhs.shape
        assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()


@pytest.mark.parametrize("n", [3, 4, 7, 8, 16, DENSE_DST_MAX_N, 32])
@pytest.mark.parametrize("group,gamma", ALL_GROUPS)
def test_dst_solver_matches_lu(n, group, gamma):
    mesh = build_mesh(n)
    mu = viscosity_for_group(group, gamma)
    dst = TauDSTSolver(n, tau_block_core(n),
                       viscosity_scaling(mesh, mu))
    assert dst.min_pivot > 0
    _assert_same_solves(dst, _lu_reference(mesh, mu), n + group)


def test_velocity_path_follows_size():
    # tau_block is `TauDSTSolver` at every n >= 3, on the dense DST-I matrix
    # below _FFT_MIN_CELLS cells and on the FFT from it on, and matches the
    # LU reference; n <= 2 raises
    import scipy.fft

    mu = viscosity_for_group(3, 100.0)
    for n in (3, DENSE_DST_MAX_N, DENSE_DST_MAX_N + 1, 32, 64):
        mesh = build_mesh(n)
        vel = build_velocity_preconditioner(mesh, mu)
        assert isinstance(vel, TauDSTSolver)
        fft = getattr(vel._dst, "func", None) is scipy.fft.dst
        assert fft == (n * n >= precond._FFT_MIN_CELLS)
        assert vel.size == mesh.velocity_count
        _assert_same_solves(vel, _lu_reference(mesh, mu), n)
        assert set(vel.phase_seconds) == {"velocity_core", "velocity_factor"}
        assert min(vel.phase_seconds.values()) >= 0
    for n in (1, 2):
        with pytest.raises(ValueError, match=f"n = {n}"):
            build_velocity_preconditioner(build_mesh(n), mu)


def test_builds_reach_the_tau_core_by_its_module_name(setup8, monkeypatch):
    # the bench times the tau core by rebinding `precond.tau_block_core`,
    # so each builder must call it through that name, once, with n
    mesh, mu, system = setup8
    calls = []

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return tau_block_core(*args, **kwargs)

    monkeypatch.setattr(precond, "tau_block_core", spy)
    build_velocity_preconditioner(mesh, mu)
    assert calls == [((mesh.n,), {})]
    calls.clear()
    build_saddle_preconditioner(mesh, mu, system)
    assert calls == [((mesh.n,), {})]


def test_dense_dst_side_never_imports_scipy_fft():
    # scipy.fft adds about 5 MB to a process's peak memory: a G2 saddle
    # preconditioner at n = 16 (on the dense DST-I) must not import it, a
    # tau solver on the FFT side does
    code = (
        "import sys\n"
        "from glt_stokes.assembly import assemble_saddle, viscosity_for_group\n"
        "from glt_stokes.mesh import build_mesh\n"
        "from glt_stokes.precond import (build_saddle_preconditioner,\n"
        "                                build_velocity_preconditioner)\n"
        "mu = viscosity_for_group(2)\n"
        "mesh = build_mesh(16)\n"
        "build_saddle_preconditioner(mesh, mu, assemble_saddle(mesh, mu))\n"
        "print('scipy.fft' in sys.modules)\n"
        f"build_velocity_preconditioner(build_mesh({DENSE_DST_MAX_N + 1}), mu)\n"
        "print('scipy.fft' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(precond.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True"]


def test_saddle_preconditioner_on_dst_path_keeps_lu_count():
    # G2, n = 32, case a: the saddle preconditioner takes the DST path, and
    # GMRES takes the 88 iterations of the same preconditioner built on
    # SPDSolver over the scaled assembled_tau_core (the criterion 9a cell)
    n = 32
    mesh = build_mesh(n)
    mu = viscosity_for_group(2)
    system = assemble_saddle(mesh, mu)
    M = system.full_matrix()
    ns = system.nullspace_vector()
    ns /= np.linalg.norm(ns)
    b = rhs_for_case("a", mesh, system.dimension)
    b -= ns * (ns @ b)
    prec = build_saddle_preconditioner(mesh, mu, system)
    assert isinstance(prec.velocity_solver, TauDSTSolver)
    lu = _lu_reference(mesh, mu)
    inverse, _, _ = build_schur(system.div_x, system.div_y, lu.solve)
    ref = dataclasses.replace(prec, velocity_solver=lu, schur_inverse=inverse)
    counts = [gmres(M, b, p.apply, restart=20, tol=1e-5).iterations
              for p in (prec, ref)]
    assert counts == [88, 88]


@pytest.mark.parametrize("n", [3, 4, 8, 32, 64])
@pytest.mark.parametrize("group,gamma", ALL_GROUPS)
def test_dst_solver_sparse_rhs_matches_dense(n, group, gamma):
    # a panel of B_x^T columns takes the DST-I rows at its few cells, a
    # random block touching most cells takes them in row blocks of at most
    # 8k cells; a dense copy of either takes the FFT
    mesh = build_mesh(n)
    mu = viscosity_for_group(group, gamma)
    dst = TauDSTSolver(n, tau_block_core(n),
                       viscosity_scaling(mesh, mu))
    bx_t = assemble_divergence(mesh)[0].T.tocsc()
    random = sp.random(dst.size, 3, density=0.2, format="csc",
                       rng=np.random.default_rng(n + group))
    for panel in (bx_t[:, 5:5 + PANEL], random):
        got, want = dst.solve(panel), dst.solve(panel.toarray())
        assert isinstance(got, np.ndarray) and got.shape == panel.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_spd_solver_sparse_panel_bitwise(setup8):
    # a sparse block wider than PANEL is solved as its dense copy
    mesh, mu, system = setup8
    vel = _frozen(mesh, mu, system.stiffness)
    panel = system.div_y.T.tocsc()[:, 3:PANEL + 10]
    assert np.array_equal(vel.solve(panel), vel.solve(panel.toarray()))


@pytest.mark.parametrize("group,gamma", TENTPOLE_GROUPS)
def test_dst_schur_matches_lu_reference(group, gamma):
    n = 32
    mesh = build_mesh(n)
    mu = viscosity_for_group(group, gamma)
    system = assemble_saddle(mesh, mu)
    dst = build_velocity_preconditioner(mesh, mu, stiffness=system.stiffness)
    assert isinstance(dst, TauDSTSolver)
    lu = _lu_reference(mesh, mu)
    S = schur_panels(system.div_x, system.div_y, dst.solve, dst.solve)
    ref = schur_panels(system.div_x, system.div_y, lu.solve, lu.solve)
    assert np.abs(S - ref).max() <= 1e-12 * np.abs(ref).max()


def test_dst_solver_holds_no_n_squared_array(monkeypatch):
    # at n = 64 (N = 4096) an N x N array would take 134 MB; the widest the
    # solver holds is G, whose two row groups are views of one array of the
    # 2n - 1 distinct DST-I rows of the zero-filled cells, and its sparse
    # transform makes row blocks of at most 8k cells
    n = 64
    N = n * n
    mesh = build_mesh(n)
    dst = build_velocity_preconditioner(mesh, viscosity_for_group(2))
    held = [v for v in vars(dst).values() if isinstance(v, np.ndarray)]
    assert len(held) >= 6 and max(v.size for v in held) < N * N
    rows = dst._right.base
    assert rows is dst._top.base and rows.shape == (2 * n - 1, N)
    assert np.array_equal(rows, dst1_matrix(
        N, np.r_[n - 1:N:n, N - 2:N - n - 1:-1]))
    wide = [v for v in held if v.ndim == 2 and v.shape[1] == N]
    assert len(wide) == 2 and all(v.base is rows for v in wide)
    made, real = [], precond.dst1_matrix

    def spy(*args):
        made.append(real(*args))
        return made[-1]

    monkeypatch.setattr(precond, "dst1_matrix", spy)
    bx_t = assemble_divergence(mesh)[0].T.tocsc()
    for panel in (bx_t[:, :PANEL],
                  sp.random(dst.size, 2, density=0.5, format="csc",
                            rng=np.random.default_rng(0))):
        made.clear()
        dst.solve(panel)
        assert made and max(m.size for m in made) <= 8 * panel.shape[1] * N
    assert len(made) > 100 and 8 * PANEL * N < N * N


@pytest.mark.parametrize("n", [0, 1, 2])
def test_dst_solver_rejects_small_n(n):
    with pytest.raises(ValueError, match=f"n = {n}"):
        TauDSTSolver(n, np.tile(np.eye(8), (n * n, 1, 1)), np.ones(5))


def test_dst_solver_rejects_indefinite_block():
    n = 4
    mesh = build_mesh(n)
    blocks = tau_block_core(n)
    blocks[5] -= 10.0 * np.eye(8)
    with pytest.raises(ValueError, match="not positive definite"):
        TauDSTSolver(n, blocks, viscosity_scaling(mesh, ONE))


def test_dst_solver_rejects_bad_scaling():
    # a wrong length, or a zero, negative or non-finite entry, is named by
    # its first bad index instead of turning into nan or inf downstream
    n = 4
    mesh = build_mesh(n)
    blocks = tau_block_core(n)
    good = viscosity_scaling(mesh, viscosity_for_group(2))
    for length in (len(good) - 1, len(good) + 1):
        with pytest.raises(ValueError, match=f"expected {len(good)} scaling"):
            TauDSTSolver(n, blocks, np.ones(length))
    with pytest.raises(ValueError, match=f"expected {len(good)} scaling"):
        TauDSTSolver(n, blocks, good[:, None])
    for value in (0.0, -1.0, np.nan, np.inf, -np.inf):
        bad = good.copy()
        bad[[7, 30]] = value
        with pytest.raises(ValueError, match="scaling entry 7 is"):
            TauDSTSolver(n, blocks, bad)
    TauDSTSolver(n, blocks, good)


def test_zero_filled_slots_lie_on_right_column_and_top_row():
    # the structure `TauDSTSolver` builds its row groups on: slots 3, 5 and
    # 7 at the cells (p+1)n - 1, slots 6 and 7 at the cells N - n .. N - 1,
    # and no other slot zero-filled
    for n in range(3, 70):
        N = n * n
        flat, _ = velocity_extension_map(n)
        zero = np.ones(8 * N, dtype=bool)
        zero[flat] = False
        cells, slots = np.divmod(np.flatnonzero(zero), 8)
        right = set(range(n - 1, N, n))
        top = set(range(N - n, N))
        expected = ({(c, s) for c in right for s in (3, 5, 7)}
                    | {(c, s) for c in top for s in (6, 7)})
        assert set(zip(cells.tolist(), slots.tolist())) == expected
        assert len(cells) == 5 * n - 1 and right & top == {N - 1}


@pytest.mark.parametrize("n", [3, 4, 8, DENSE_DST_MAX_N, DENSE_DST_MAX_N + 1,
                               64])
def test_cosine_gram_matches_explicit_x_zz(n):
    # X_ZZ by DCT-I against G Lambda^{-1} G^T formed from the DST-I rows of
    # the zero-filled slots, one GEMM per slot pair, on both DST sides
    N = n * n
    mesh = build_mesh(n)
    dst = TauDSTSolver(n, tau_block_core(n),
                       viscosity_scaling(mesh, viscosity_for_group(3, 100.0)))
    flat, _ = velocity_extension_map(n)
    zero = np.ones(8 * N, dtype=bool)
    zero[flat] = False
    cells, slots = np.divmod(np.flatnonzero(zero), 8)
    lam_inv = dst._lam_inv
    got = precond._cosine_gram(lam_inv, cells, slots)
    G = dst1_matrix(N, cells)
    ref = np.empty_like(got)
    for s in np.unique(slots):
        for t in np.unique(slots):
            rows, cols = np.ix_(slots == s, slots == t)
            ref[rows, cols] = (G[slots == s] * lam_inv[:, s, t]) @ G[slots == t].T
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def test_tau_core_difference_structure():
    # for unit viscosity the tau core keeps the diagonal and the symmetric
    # same-cell couplings of the stiffness exactly; the difference is the
    # band symmetrization (values 1/6, 2/3 on paired one-sided couplings)
    # plus the Hankel corner stripes (4/3), and stays symmetric
    n = 8
    mesh = build_mesh(n)
    A = assemble_stiffness(mesh, ONE)
    core = assembled_tau_core(n, mesh.velocity_count)
    D = (core - A).tocsr()
    D.data[np.abs(D.data) < 1e-14] = 0.0
    D.eliminate_zeros()
    assert abs(D - D.T).max() < 1e-14
    assert np.abs(D.diagonal()).max() < 1e-14
    assert np.abs(D.data).max() <= 4.0 / 3.0 + 1e-12
    allowed = {round(v, 10) for v in (1 / 6, 1 / 3, 2 / 3, 4 / 3)}
    assert set(np.round(np.abs(D.data), 10)) <= allowed


def test_tau_and_frozen_agree_where_bands_are_symmetric():
    # for unit viscosity the tau core deviates from the stiffness only on
    # one-sided couplings and corner stripes, never on the diagonal
    n = 8
    mesh = build_mesh(n)
    frozen = _frozen(mesh, ONE)
    D = (_lu_reference(mesh, ONE).matrix - frozen.matrix).tocsr()
    assert np.abs(D.diagonal()).max() < 1e-13
    assert np.abs(D.data).max() <= 4.0 / 3.0 + 1e-12


def test_viscosity_scaling_is_local_average(setup8):
    mesh, mu, system = setup8
    d = viscosity_scaling(mesh, mu, system.stiffness)
    assert np.all(d >= mu.essinf - 1e-12)
    assert np.all(d <= mu.esssup + 1e-12)


@pytest.mark.parametrize("n", [3, 8, 32])
def test_viscosity_scaling_without_a_second_assembly(monkeypatch, n):
    # given A(mu), the scaling is bitwise the ratio of the assembled
    # diagonals, with no stiffness assembled; without it, A(mu)'s diagonal
    # comes from `stiffness_diagonal`, equal to the assembled one to rounding.
    # The unit field takes the same formula and gets exactly one everywhere
    mesh = build_mesh(n)
    for mu in (ONE, viscosity_for_group(2), viscosity_for_group(3, 100.0),
               ViscosityField.example1(1, 1e6, 0.1, 0)):
        A = assemble_stiffness(mesh, mu)
        ref = A.diagonal() / assemble_stiffness(mesh, ONE).diagonal()
        with monkeypatch.context() as patch:
            patch.setattr(assembly, "assemble_stiffness", None)
            assert np.array_equal(viscosity_scaling(mesh, mu, A), ref)
            d = viscosity_scaling(mesh, mu)
        assert np.abs(d - ref).max() <= 1e-15 * ref.max()
        if mu is ONE:
            ones = np.ones(mesh.velocity_count)
            assert np.array_equal(ref, ones) and np.array_equal(d, ones)


def test_zero_distribution_of_residual_decreases():
    # GLT-0 requirement: fraction of large singular values of A - P_A decays
    mu = viscosity_for_group(2)
    fractions = []
    for n in (4, 8):
        mesh = build_mesh(n)
        A = assemble_stiffness(mesh, mu)
        R = (A - _lu_reference(mesh, mu).matrix).toarray()
        nrm = np.linalg.norm(A.toarray(), 2)
        sv = singular_values(R)
        fractions.append(np.count_nonzero(sv > 0.1 * nrm) / len(sv))
    assert fractions[1] <= fractions[0]


def test_schur_properties():
    mesh = build_mesh(4)
    mu = ONE
    system = assemble_saddle(mesh, mu)
    vel = build_velocity_preconditioner(mesh, mu, stiffness=system.stiffness)
    inverse, sym_defect, seconds = build_schur(
        system.div_x, system.div_y, vel.solve)
    assert sym_defect <= 1e-10
    assert set(seconds) == {"schur_panels", "inverse"}
    assert min(seconds.values()) >= 0
    # B P^-1 B^T
    S = schur_panels(system.div_x, system.div_y, vel.solve, vel.solve)
    w = np.linalg.eigvalsh(S)
    assert w[0] > -1e-12          # positive semidefinite
    assert np.sum(np.abs(w) < 1e-10) == 1   # exactly one kernel direction
    npres = S.shape[0]
    ones = np.ones(npres)
    assert np.abs(S @ ones).max() < 1e-12
    # the stored inverse is the full symmetric inverse of the deflated S
    assert np.array_equal(inverse, inverse.T)
    assert np.abs(inverse @ (S + 1.0 / npres) - np.eye(npres)).max() < 1e-12


def test_spd_inverse_reads_the_upper_triangle_and_names_the_matrix():
    # two tile rows, so an off-diagonal tile is mirrored too
    rng = np.random.default_rng(5)
    size = TILE + 44
    X = rng.standard_normal((size, size))
    S = X @ X.T + size * np.eye(size)
    inverse = precond._spd_inverse(np.triu(S), "the test matrix")
    assert inverse.flags.c_contiguous
    assert np.array_equal(inverse, inverse.T)
    assert np.abs(inverse @ S - np.eye(size)).max() < 1e-12
    with pytest.raises(ValueError, match="the test matrix is not positive"):
        precond._spd_inverse(-np.eye(3), "the test matrix")


def test_schur_smallest_system():
    mesh = build_mesh(1)
    system = assemble_saddle(mesh, ONE)
    vel = _frozen(mesh, ONE)
    schur = schur_panels(system.div_x, system.div_y, vel.solve, vel.solve)
    assert schur.shape == (5, 5)
    assert np.linalg.matrix_rank(schur, tol=1e-10) == 4
    kernel = np.linalg.svd(schur)[2][-1]
    assert np.abs(np.abs(kernel) - 1 / np.sqrt(5)).max() < 1e-10


def test_exact_schur_infsup_interval():
    # with P_A = A the Schur complement eigenvalues relative to the pressure
    # mass lie in a mesh-independent interval (inf-sup stability)
    import scipy.linalg as sla
    intervals = {}
    for n in (4, 8):
        mesh = build_mesh(n)
        system = assemble_saddle(mesh, ONE)
        A = system.stiffness.toarray()
        Ainv = np.linalg.inv(A)
        S = system.div_x.toarray() @ Ainv @ system.div_x.toarray().T \
            + system.div_y.toarray() @ Ainv @ system.div_y.toarray().T
        Mp = system.pressure_mass.toarray()
        w = np.sort(sla.eigh(S, Mp, eigvals_only=True))
        nonzero = w[np.abs(w) > 1e-10 * np.abs(w).max()]
        intervals[n] = (nonzero.min(), nonzero.max())
    lo4, hi4 = intervals[4]
    lo8, hi8 = intervals[8]
    assert lo8 >= lo4 * 0.8 and hi8 <= hi4 * 1.2


def test_apply_shape_check_and_linearity(setup8):
    mesh, mu, system = setup8
    prec = build_saddle_preconditioner(mesh, mu, system)
    with pytest.raises(ValueError):
        prec.apply(np.ones(10))
    rng = np.random.default_rng(2)
    r1 = rng.standard_normal(system.dimension)
    r2 = rng.standard_normal(system.dimension)
    lhs = prec.apply(1.5 * r1 - 2.0 * r2)
    rhs = 1.5 * prec.apply(r1) - 2.0 * prec.apply(r2)
    assert np.abs(lhs - rhs).max() < 1e-12 * max(1.0, np.abs(rhs).max())
    assert np.all(prec.apply(np.zeros(system.dimension)) == 0.0)
    # a (dim, k) block is applied column by column
    block = np.column_stack([r1, r2])
    out = prec.apply(block)
    assert out.shape == block.shape
    cols = np.column_stack([prec.apply(r1), prec.apply(r2)])
    assert np.abs(out - cols).max() < 1e-12 * max(1.0, np.abs(cols).max())
    with pytest.raises(ValueError):
        prec.apply(np.ones((10, 2)))


def test_apply_annihilates_constant_pressure(setup8):
    mesh, mu, system = setup8
    prec = build_saddle_preconditioner(mesh, mu, system)
    out = prec.apply(system.nullspace_vector())
    assert np.abs(out).max() < 1e-12


def test_one_column_apply_matches_block_column(setup8):
    # a one-column pressure half reads the upper triangle of the Schur
    # inverse (dsymv), a block the whole array (matmul): the same to rounding
    prec = build_saddle_preconditioner(*setup8)
    nvel = prec.velocity_count
    R = np.random.default_rng(5).standard_normal((setup8[2].dimension, 3))
    block = prec.apply(R)
    scale = np.abs(block).max()
    for j in range(3):
        column = prec.apply(R[:, j])
        assert np.abs(column - block[:, j]).max() <= 1e-14 * scale
        rp = R[2 * nvel:, j] - R[2 * nvel:, j].sum() / len(prec.schur_inverse)
        assert np.array_equal(column[2 * nvel:],
                              precond._symmetric_product(prec.schur_inverse, rp))


def test_symmetric_product_reads_the_upper_triangle(setup8):
    inverse = build_saddle_preconditioner(*setup8).schur_inverse
    x = np.random.default_rng(6).standard_normal(len(inverse))
    ref = inverse @ x
    got = precond._symmetric_product(inverse, x)
    assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)
    upper = inverse.copy()
    upper[np.tril_indices(len(upper), -1)] = np.nan
    kept = upper.copy(), x.copy()
    assert np.array_equal(precond._symmetric_product(upper, x), got)
    assert np.array_equal(upper, kept[0], equal_nan=True)
    assert np.array_equal(x, kept[1])
    # what it would have to copy is rejected instead
    wide = np.zeros((len(x), 2 * len(x)))
    for a, v in [(inverse[:, :-1], x), (inverse[:-1], x),
                 (inverse.astype(np.float32), x), (inverse.tolist(), x),
                 (np.asfortranarray(inverse), x), (wide[:, ::2], x),
                 (inverse, x[:-1]), (inverse, x.astype(np.float32)),
                 (inverse, x.reshape(-1, 1)), (inverse, np.repeat(x, 2)[::2]),
                 (inverse, list(x))]:
        with pytest.raises(ValueError):
            precond._symmetric_product(a, v)


def test_cython_routines_resolve():
    # the routines the package calls, with the argument counts it passes:
    # a SciPy whose tables differ fails here rather than in a run
    for name, nargs in [("dsyevd", 11), ("dsygvd", 14), ("dsymv", 10)]:
        assert callable(precond.cython_routine(name, nargs))
    with pytest.raises(RuntimeError, match="dsymv takes 10 arguments"):
        precond.cython_routine("dsymv", 9)
    with pytest.raises(KeyError):
        precond.cython_routine("no_such_routine", 1)


def test_unknown_strategy_rejected(setup8):
    # the builders take no strategy: a name passed positionally fails at
    # the call instead of reaching the viscosity scaling as `stiffness`
    mesh, mu, system = setup8
    for strategy in ("circulant", "frozen_sparse", "tau_block"):
        with pytest.raises(TypeError):
            build_velocity_preconditioner(mesh, mu, strategy)
        with pytest.raises(TypeError):
            build_saddle_preconditioner(mesh, mu, system, strategy)


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("group,gamma", TENTPOLE_GROUPS)
def test_schur_panels_and_inverse_apply_match_dense_reference(group, gamma, n):
    # npres = 41 and 145: several panels, the last one partial
    mesh = build_mesh(n)
    mu = viscosity_for_group(group, gamma)
    system = assemble_saddle(mesh, mu)
    prec = build_saddle_preconditioner(mesh, mu, system)
    nvel, npres = prec.velocity_count, system.pressure_count
    assert npres > PANEL and npres % PANEL != 0

    P = _lu_reference(mesh, mu).matrix.toarray()
    Bx, By = system.div_x.toarray(), system.div_y.toarray()
    S = Bx @ np.linalg.solve(P, Bx.T) + By @ np.linalg.solve(P, By.T)
    solve = prec.velocity_solver.solve
    panels = schur_panels(system.div_x, system.div_y, solve, solve)
    assert np.abs(panels - S).max() <= 1e-13 * np.abs(S).max()

    # the former apply: one velocity solve per component, cho_solve on the
    # deflated Schur complement
    cho = sla.cho_factor(panels + 1.0 / npres, lower=True)

    def reference(R):
        out = np.empty_like(R)
        out[:nvel] = np.linalg.solve(P, R[:nvel])
        out[nvel:2 * nvel] = np.linalg.solve(P, R[nvel:2 * nvel])
        rp = R[2 * nvel:]
        out[2 * nvel:] = sla.cho_solve(cho, rp - rp.sum(axis=0) / npres)
        return out

    rng = np.random.default_rng(group + n)
    for R in (rng.standard_normal(system.dimension),
              rng.standard_normal((system.dimension, 3))):
        ref = reference(R)
        got = prec.apply(R)
        assert got.shape == R.shape
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


# ---------------------------------------------------------------------------
# the one worker rule, the shared pool and the threaded Schur panels

def _fixed_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)), raising=False)


def _workers(monkeypatch, count):
    """`count` usable CPUs: `workers()` reads `count` on the main thread
    and 1 off it."""
    _fixed_cpus(monkeypatch, count)
    assert workers() == count


@pytest.mark.parametrize("openblas,omp,count", [
    (None, None, 1),
    ("1", None, 4),
    ("2", None, 2),
    ("3", None, 1),
    ("8", None, 1),
    (None, "2", 2),
    ("1", "4", 4),
    ("2.5", "1", 4),
    ("abc", None, 1),
    ("0", "2", 2),
    (None, "4,2", 1),
])
def test_panel_workers_rule(monkeypatch, openblas, omp, count):
    # `count` usable CPUs give `count` workers, whatever the thread
    # variables hold: BLAS is pinned to one thread at import
    _fixed_cpus(monkeypatch, count)
    for name, value in (("OPENBLAS_NUM_THREADS", openblas),
                        ("OMP_NUM_THREADS", omp)):
        if value is None:
            monkeypatch.delenv(name, raising=False)
        else:
            monkeypatch.setenv(name, value)
    assert workers() == count


@pytest.mark.parametrize("unpinned", [(0,), (1,), (0, 1)])
def test_panel_workers_one_beside_an_unpinned_blas(monkeypatch, unpinned):
    # a BLAS copy without a thread setter keeps its own threads, so the
    # package runs one worker
    _fixed_cpus(monkeypatch, 4)
    getters = list(precond._BLAS_GETTERS)
    assert None not in getters  # both copies of this build are pinned
    assert workers() == 4
    for copy in unpinned:
        getters[copy] = None
    monkeypatch.setattr(precond, "_BLAS_GETTERS", tuple(getters))
    assert workers() == 1


def test_panel_workers_one_off_main_thread(monkeypatch):
    _workers(monkeypatch, 4)
    seen = []
    worker = threading.Thread(target=lambda: seen.append(workers()))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert workers() == 4 and seen == [1]


def _panels_with(monkeypatch, count, system, solve):
    """The Schur panels with `workers()` = count."""
    _workers(monkeypatch, count)
    return schur_panels(system.div_x, system.div_y, solve, solve)


def test_schur_panels_same_bits_on_1_2_and_8_workers(monkeypatch, setup8,
                                                     fresh_pool):
    # npres = 145: nine PANEL-wide tasks and one of a column, on any worker
    # count; at n = 8 a width that followed the worker count changed bits
    _, _, system = setup8
    vel = build_velocity_preconditioner(*setup8[:2], stiffness=system.stiffness)
    widths, lock = [], threading.Lock()

    def solve(rhs):
        with lock:
            widths.append(rhs.shape[1])
        return vel.solve(rhs)

    serial = _panels_with(monkeypatch, 1, system, solve)
    for count in (2, 8):
        assert np.array_equal(_panels_with(monkeypatch, count, system, solve),
                              serial)
    assert PANEL == 16
    assert sorted(widths) == sorted(3 * 2 * ([PANEL] * 9 + [1]))


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("group,gamma", TENTPOLE_GROUPS)
def test_schur_panels_two_workers_bitwise(monkeypatch, fresh_pool, group,
                                          gamma, n):
    # npres = 41 and 145 are not multiples of the task width
    mesh = build_mesh(n)
    mu = viscosity_for_group(group, gamma)
    system = assemble_saddle(mesh, mu)
    assert system.pressure_count % (PANEL // 2) != 0
    vel = build_velocity_preconditioner(mesh, mu, stiffness=system.stiffness)
    serial = _panels_with(monkeypatch, 1, system, vel.solve)
    threaded = _panels_with(monkeypatch, 2, system, vel.solve)
    assert np.array_equal(serial, threaded)


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("group,gamma", TENTPOLE_GROUPS)
def test_schur_panels_lu_bitwise_across_widths(monkeypatch, fresh_pool, group,
                                               gamma, n):
    # with `SPDSolver` too, 2 and 8 workers give the serial loop bit for bit
    mesh = build_mesh(n)
    mu = viscosity_for_group(group, gamma)
    system = assemble_saddle(mesh, mu)
    vel = _frozen(mesh, mu, system.stiffness)
    serial = _panels_with(monkeypatch, 1, system, vel.solve)
    for count in (2, 8):
        assert np.array_equal(
            _panels_with(monkeypatch, count, system, vel.solve), serial)


def test_schur_panels_many_workers_under_fast_switching(monkeypatch, setup8,
                                                        fresh_pool):
    # more workers than cores, a thread switch every microsecond: a lost or
    # misplaced column write would show
    _, _, system = setup8
    vel = build_velocity_preconditioner(*setup8[:2], stiffness=system.stiffness)
    serial = _panels_with(monkeypatch, 1, system, vel.solve)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = _panels_with(monkeypatch, 8, system, vel.solve)
    finally:
        sys.setswitchinterval(interval)
    assert precond._pool()._max_workers == 8
    assert np.array_equal(serial, threaded)


def test_schur_panels_repeatable_on_shared_solver(monkeypatch, fresh_pool):
    mesh = build_mesh(16)
    mu = viscosity_for_group(2)
    system = assemble_saddle(mesh, mu)
    vel = build_velocity_preconditioner(mesh, mu, stiffness=system.stiffness)
    first = _panels_with(monkeypatch, 2, system, vel.solve)
    for _ in range(2):
        assert np.array_equal(_panels_with(monkeypatch, 2, system, vel.solve),
                              first)


class PanelFailure(RuntimeError):
    pass


def test_schur_panels_worker_exception_propagates(monkeypatch, setup8,
                                                  fresh_pool):
    # ten 16-column panels, two solves each; the third solve fails
    _, _, system = setup8
    vel = build_velocity_preconditioner(*setup8[:2], stiffness=system.stiffness)
    calls, lock = [], threading.Lock()

    def flaky(rhs):
        with lock:
            calls.append(1)
            fail = len(calls) == 3
        if fail:
            raise PanelFailure("third panel")
        time.sleep(0.01)
        return vel.solve(rhs)

    with pytest.raises(PanelFailure, match="third panel"):
        _panels_with(monkeypatch, 2, system, flaky)
    # the queued panels were cancelled, and none starts later
    seen = len(calls)
    assert seen < 2 * 10 - 1
    assert fan_out(lambda _: time.sleep(0.01), range(4)) == [None] * 4
    assert len(calls) == seen


def test_fan_out_exception_contract(monkeypatch, fresh_pool):
    # the first failure in item order is raised once the running tasks are
    # done; the queued ones are cancelled
    _workers(monkeypatch, 2)
    started, finished = [], []

    def task(i):
        started.append(i)
        if i in (1, 3):
            raise PanelFailure(f"task {i}")
        time.sleep(0.2 if i == 0 else 0.05)
        finished.append(i)
        return i

    assert fan_out(lambda i: i * i, range(5)) == [0, 1, 4, 9, 16]
    with pytest.raises(PanelFailure, match="task 1"):
        fan_out(task, range(20))
    ran = len(started)
    assert set(finished) == set(started) - {1, 3} and 0 in finished
    assert ran < 20
    time.sleep(0.1)
    assert len(started) == ran


def test_symmetrize_matches_dense_formula():
    # three tiles, the last one partial
    A = np.random.default_rng(5).standard_normal((2 * TILE + 37,) * 2)
    expected = 0.5 * (A + A.T)
    defect = np.abs(A - A.T).max() / np.abs(A).max()
    assert symmetrize(A) == defect
    assert np.array_equal(A, expected)


@pytest.mark.parametrize("n", [8, 16])
def test_in_place_inverse(n):
    # npres = 545 at n = 16 spans three tiles
    mesh = build_mesh(n)
    mu = viscosity_for_group(3, 100.0)
    system = assemble_saddle(mesh, mu)
    vel = build_velocity_preconditioner(mesh, mu, stiffness=system.stiffness)
    S = schur_panels(system.div_x, system.div_y, vel.solve, vel.solve)
    inverse, defect, _ = build_schur(system.div_x, system.div_y, vel.solve)
    assert inverse.flags.c_contiguous
    assert np.array_equal(inverse, inverse.T)
    assert defect == np.abs(S - S.T).max() / max(np.abs(S).max(), 1e-300)
    deflated = 0.5 * (S + S.T) + 1.0 / len(S)
    assert np.abs(inverse @ deflated - np.eye(len(S))).max() < 1e-10


# ---------------------------------------------------------------------------
# the overlapped apply: pressure half on the pool

class PressureFailure(RuntimeError):
    pass


def _overlapped(monkeypatch, n, group=2, gamma=None):
    """A preconditioner built with the overlap forced on, and the list of
    pools its applies submitted to."""
    _workers(monkeypatch, 2)
    monkeypatch.setattr(precond, "OVERLAP_PRESSURE", 0)
    mesh = build_mesh(n)
    mu = viscosity_for_group(group, gamma)
    system = assemble_saddle(mesh, mu)
    prec = build_saddle_preconditioner(mesh, mu, system)
    assert prec.apply_workers == 2
    submits = []
    pool = precond._pool

    def spy():
        submits.append(pool())
        return submits[-1]

    monkeypatch.setattr(precond, "_pool", spy)
    return prec, system, submits


def _serial_apply(monkeypatch, prec, R):
    """prec.apply(R) with the overlap off: OVERLAP_PRESSURE above npres."""
    with monkeypatch.context() as m:
        m.setattr(precond, "OVERLAP_PRESSURE", math.inf)
        assert prec.apply_workers == 1
        return prec.apply(R)


def test_apply_workers_follow_the_rule(monkeypatch, setup8):
    # npres = 145 at n = 8
    _workers(monkeypatch, 2)
    assert build_saddle_preconditioner(*setup8).apply_workers == 1
    monkeypatch.setattr(precond, "OVERLAP_PRESSURE", 145)
    assert build_saddle_preconditioner(*setup8).apply_workers == 2
    _workers(monkeypatch, 1)
    assert build_saddle_preconditioner(*setup8).apply_workers == 1


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("group,gamma", TENTPOLE_GROUPS)
def test_overlapped_apply_bitwise(monkeypatch, fresh_pool, group, gamma, n):
    prec, system, submits = _overlapped(monkeypatch, n, group, gamma)
    rng = np.random.default_rng(n + group)
    for R in (rng.standard_normal(system.dimension),
              rng.standard_normal((system.dimension, 3))):
        got = prec.apply(R)
        assert got.shape == R.shape
        assert np.array_equal(got, _serial_apply(monkeypatch, prec, R))
    assert len(submits) == 2


def test_overlapped_apply_under_fast_switching(monkeypatch, fresh_pool):
    prec, system, submits = _overlapped(monkeypatch, 8)
    rng = np.random.default_rng(11)
    inputs = [rng.standard_normal(system.dimension),
              rng.standard_normal((system.dimension, 3))]
    expected = [_serial_apply(monkeypatch, prec, R) for R in inputs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = [prec.apply(inputs[i % 2]) for i in range(200)]
    finally:
        sys.setswitchinterval(interval)
    assert len(submits) == 200
    assert all(np.array_equal(got, expected[i % 2])
               for i, got in enumerate(results))


def failing_product(a, x):
    """Stands in for the one-column Schur product; it raises."""
    raise PressureFailure("pressure half")


def test_overlapped_apply_pressure_exception_reaches_caller(monkeypatch,
                                                           fresh_pool):
    prec, system, submits = _overlapped(monkeypatch, 4)
    r = np.random.default_rng(3).standard_normal(system.dimension)
    expected = _serial_apply(monkeypatch, prec, r)
    product = precond._symmetric_product
    monkeypatch.setattr(precond, "_symmetric_product", failing_product)
    with pytest.raises(PressureFailure, match="pressure half"):
        prec.apply(r)
    monkeypatch.setattr(precond, "_symmetric_product", product)
    assert np.array_equal(prec.apply(r), expected)
    assert len(submits) == 2


def test_apply_off_main_thread_stays_serial(monkeypatch, fresh_pool):
    prec, system, submits = _overlapped(monkeypatch, 4)
    r = np.random.default_rng(4).standard_normal(system.dimension)
    expected = _serial_apply(monkeypatch, prec, r)
    got = []
    worker = threading.Thread(target=lambda: got.append(prec.apply(r)))
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive()
    assert submits == [] and np.array_equal(got[0], expected)


def test_one_pool_serves_every_fan_out(monkeypatch, tmp_path, fresh_pool):
    # a Schur build, a four-class strip pencil, 100 overlapped applies and
    # a small table: one pool, submitted to from the main thread only, and
    # at most workers() more live threads
    from glt_stokes.cli import ExperimentConfig, run_group_table
    from glt_stokes.spectra import saddle_pencil_eigenvalues

    _workers(monkeypatch, 2)
    monkeypatch.setattr(precond, "OVERLAP_PRESSURE", 0)
    made, submits = [], []
    init, submit = ThreadPoolExecutor.__init__, ThreadPoolExecutor.submit

    def spy_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    def spy_submit(self, fn, *args, **kwargs):
        future = submit(self, fn, *args, **kwargs)
        submits.append((self, threading.current_thread(),
                        threading.active_count(), fn.__qualname__))
        return future

    monkeypatch.setattr(ThreadPoolExecutor, "__init__", spy_init)
    monkeypatch.setattr(ThreadPoolExecutor, "submit", spy_submit)
    before = threading.active_count()
    mesh = build_mesh(8)
    mu = viscosity_for_group(2)
    system = assemble_saddle(mesh, mu)
    prec = build_saddle_preconditioner(mesh, mu, system)
    strip = assemble_saddle(build_mesh(4),
                            ViscosityField.example1(1.0, 100.0, 0.5, 0.0))
    saddle_pencil_eigenvalues(strip)
    r = np.ones(system.dimension)
    for _ in range(100):
        prec.apply(r)
    run_group_table([ExperimentConfig(n=3, group=1, case=c) for c in "abc"],
                    tmp_path / "t.csv")
    peak = max(threading.active_count(), *(s[2] for s in submits))
    assert len(made) == 1
    assert {id(s[0]) for s in submits} == {id(made[0])}
    assert all(s[1] is threading.main_thread() for s in submits)
    assert peak - before <= workers()
    tasks = [s[3].split(".<locals>")[0] for s in submits]
    assert tasks.count("SaddlePreconditioner.apply") == 100
    assert tasks.count("saddle_pencil_eigenvalues") == 4
    assert tasks.count("run_group_table") == 3
    assert tasks.count("schur_panels") == -(-145 // PANEL)
