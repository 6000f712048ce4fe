import itertools
import os
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from glt_stokes.assembly import (ViscosityField, assemble_divergence,
                                 assemble_saddle, assemble_stiffness,
                                 viscosity_for_group)
from glt_stokes.mesh import build_mesh, reflection_permutations
from glt_stokes import precond, spectra
from glt_stokes.precond import SPDSolver, schur_panels, symmetrize, workers
from glt_stokes.spectra import (pencil_class_sizes, pool_quantiles,
                                sample_saddle_symbol, sample_symbol,
                                saddle_pencil_eigenvalues, singular_values,
                                solved_frequency_count,
                                symmetric_eigenvalues, weyl_distance)
from glt_stokes.symbols import (BlockSymbol, default_symbol_set,
                                saddle_symbol)
from oracles import outlier_check

ONE = ViscosityField.constant(1.0)


def test_eigs_diagonal():
    assert np.allclose(symmetric_eigenvalues(np.diag([3.0, 1.0, 2.0])),
                       [1.0, 2.0, 3.0])


def test_eigs_tridiagonal_analytic():
    N = 5
    T = np.diag(np.full(N, 2.0)) + np.diag(np.full(N - 1, -1.0), 1) \
        + np.diag(np.full(N - 1, -1.0), -1)
    w = symmetric_eigenvalues(T)
    analytic = np.sort(2 - 2 * np.cos(np.arange(1, N + 1) * np.pi / (N + 1)))
    assert np.abs(w - analytic).max() < 1e-12


def test_eigs_reject_nonsymmetric():
    with pytest.raises(ValueError):
        symmetric_eigenvalues(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_eigs_residual_contract():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((40, 40))
    A = 0.5 * (A + A.T)
    w = symmetric_eigenvalues(A)
    wv, V = np.linalg.eigh(A)
    nrm = np.linalg.norm(A, 2)
    for lam, v in zip(wv, V.T):
        assert np.linalg.norm(A @ v - lam * v) <= 1e-8 * nrm
    assert np.allclose(w, wv)


def test_eigs_within_symbol_range():
    mesh = build_mesh(4)
    A = assemble_stiffness(mesh, ONE)
    w = symmetric_eigenvalues(A)
    pool = sample_symbol(default_symbol_set().stiffness, ONE, (1, 1, 60, 60))
    assert w[0] > 0
    assert w[-1] <= pool[-1] + 1e-8


def test_singular_values_trivial():
    assert np.all(singular_values(np.zeros((3, 2))) == 0)
    sv = singular_values(np.array([[3.0, 0.0], [0.0, 4.0], [0.0, 0.0]]))
    assert np.allclose(sv, [3.0, 4.0])


def test_singular_values_refuses_before_densifying(monkeypatch):
    # the shape is checked first, so a refused sparse matrix is never
    # densified
    R = sp.random(4, 5, density=0.5, format="csr",
                  rng=np.random.default_rng(0))
    dense, densified = R.toarray(), []

    def toarray(*args, **kwargs):
        densified.append(1)
        return dense

    monkeypatch.setattr(R, "toarray", toarray, raising=False)
    monkeypatch.setattr(spectra, "DENSE_LIMIT", 3)
    with pytest.raises(ValueError, match="beyond 3"):
        singular_values(R)
    assert densified == []
    monkeypatch.setattr(spectra, "DENSE_LIMIT", 4)
    assert np.array_equal(singular_values(R), singular_values(dense))
    assert densified == [1]


def test_singular_values_count_for_divergence():
    mesh = build_mesh(4)
    Bx, _ = assemble_divergence(mesh)
    sv = singular_values(Bx)
    assert len(sv) == 2 * 16 + 2 * 4 + 1 == 41


def test_hermitian_eigs_vs_singular_values():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((30, 30))
    A = 0.5 * (A + A.T)
    w = symmetric_eigenvalues(A)
    sv = singular_values(A)
    assert np.abs(np.sort(np.abs(w)) - sv).max() < 1e-8


def test_sample_symbol_constant():
    c = BlockSymbol(1, 1, 2, {(0, 0): [[3]]}, hermitian=True)
    pool = sample_symbol(c, None, (1, 1, 5, 2))
    assert np.all(pool == 3.0)


def test_sample_symbol_center_point():
    # 1x1x1x1 grid centers at theta = 0: eigenvalues of the kernel point
    pool = sample_symbol(default_symbol_set().stiffness, ONE, (1, 1, 1, 1))
    assert len(pool) == 8
    assert abs(pool[0]) < 1e-12


def test_sample_symbol_viscosity_scaling():
    G = default_symbol_set().stiffness
    base = sample_symbol(G, ONE, (2, 2, 6, 6))
    scaled = sample_symbol(G, ViscosityField.constant(2.5), (2, 2, 6, 6))
    assert np.allclose(scaled, 2.5 * base, atol=1e-12)


def test_sample_symbol_viscosity_independent_rectangular():
    G = default_symbol_set().div_x
    a = sample_symbol(G, None, (1, 1, 12, 12))
    b = sample_symbol(G, None, (7, 3, 12, 12))
    assert np.array_equal(a, b)


def _full_grid_pool(symbol, mu, grid):
    """The pool of `sample_symbol` with the symbol solved at every
    frequency point, one LAPACK call per point."""
    thetas, points = spectra._midpoint_grid(grid)
    vals = symbol.eval_grid(thetas)
    if symbol.hermitian:
        freq = np.linalg.eigvalsh(vals)
    else:
        freq = np.linalg.svd(vals, compute_uv=False)
    if mu is None:
        return np.sort(freq.ravel())
    return np.sort((mu(points)[:, None, None] * freq[None]).ravel())


def _full_grid_saddle_pool(mu, grid):
    """The pool of `sample_saddle_symbol` solved at every frequency point
    of every physical point."""
    thetas, points = spectra._midpoint_grid(grid)
    vel, div = saddle_symbol(thetas)
    return np.sort(np.concatenate(
        [np.linalg.eigvalsh(div + w * vel).ravel() for w in mu(points)]))


@pytest.mark.parametrize("grid", [(3, 2, 6, 4), (2, 3, 5, 3), (2, 2, 1, 1)],
                         ids=["even", "odd", "one-point"])
@pytest.mark.parametrize("target", ["stiffness", "stiffness-mu", "div_x",
                                    "div_y", "saddle"])
def test_paired_pools_match_full_grid(grid, target, monkeypatch):
    # each sampler solves the first ceil(nt/2) frequency points only, and
    # its pool has the full-grid length and values
    mu = viscosity_for_group(3, 100.0)
    solved = []
    if target == "saddle":
        def spy(thetas):
            solved.append(len(thetas))
            return saddle_symbol(thetas)
        monkeypatch.setattr(spectra, "saddle_symbol", spy)
        got, want = sample_saddle_symbol(mu, grid), \
            _full_grid_saddle_pool(mu, grid)
    else:
        symbol = default_symbol_set().by_name(target.split("-")[0])
        weight = mu if target == "stiffness-mu" else None
        want = _full_grid_pool(symbol, weight, grid)
        eval_grid = BlockSymbol.eval_grid

        def spy(self, thetas):
            solved.append(len(thetas))
            return eval_grid(self, thetas)
        monkeypatch.setattr(BlockSymbol, "eval_grid", spy)
        got = sample_symbol(symbol, weight, grid)
    nt = grid[2] * grid[3]
    assert solved == [solved_frequency_count(grid)] == [(nt + 1) // 2]
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_two_column_singular_values_match_svd():
    syms = default_symbol_set()
    thetas, _ = spectra._midpoint_grid((1, 1, 324, 324))
    nearest = thetas[np.argsort(np.abs(thetas).sum(axis=1))[:8]]
    rng = np.random.default_rng(7)
    stacks = [syms.div_x.eval_grid(nearest), syms.div_y.eval_grid(nearest),
              syms.div_x.eval_grid(rng.uniform(-np.pi, np.pi, (200, 2))),
              rng.standard_normal((50, 8, 2))
              + 1j * rng.standard_normal((50, 8, 2)),
              np.outer(rng.standard_normal(8), [1.0, -3.0])[None] + 0j]
    for F in stacks:
        want = np.linalg.svd(F, compute_uv=False)
        got = spectra._two_column_singular_values(F)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    # rank one (parallel columns, or one zero column) and all zero: the
    # smaller singular value is an exact zero
    F = np.zeros((4, 8, 2), dtype=complex)
    F[0, 2] = [3.0, -1.5]
    F[1, :, 1] = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    F[2, :, 0] = rng.standard_normal(8)
    got = spectra._two_column_singular_values(F)
    assert np.array_equal(got[:, 1], np.zeros(4))
    assert np.abs(got[:, 0] - np.linalg.norm(F, axis=(1, 2))).max() <= 1e-15
    assert got[3, 0] == 0.0


@pytest.mark.parametrize("size", [1, 2, 1_889_568])
def test_pool_quantiles_bitwise_numpy(size):
    # the M pool at the default grid holds 1,889,568 values; numpy's
    # interpolation changes form at t = 0.5, and both forms occur here
    rng = np.random.default_rng(size)
    pool = np.sort(rng.standard_normal(size)
                   * 10.0 ** rng.integers(-3, 4, size))
    count = 4515
    ranks = np.concatenate([(np.arange(count) + 0.5) / count,
                            [0.0, 0.5, 1.0], rng.uniform(size=1000)])
    got = pool_quantiles(pool, ranks)
    assert got.view(np.uint64).tolist() == \
        np.quantile(pool, ranks).view(np.uint64).tolist()
    if size > 1:
        t = (size - 1) * ranks % 1.0
        assert np.any(t >= 0.5) and np.any((t > 0) & (t < 0.5))


def test_weyl_distance_trivial_cases():
    assert weyl_distance([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert weyl_distance([0.0, 0.0, 1.0, 1.0], [0.0, 1.0]) == 0.0
    assert weyl_distance([0.0], [1.0]) == 1.0


def test_weyl_distance_symmetric_and_duplication_invariant():
    rng = np.random.default_rng(1)
    a = rng.standard_normal(40)
    b = rng.standard_normal(25)
    d1 = weyl_distance(a, b)
    assert d1 == pytest.approx(weyl_distance(b, a))
    assert d1 == pytest.approx(weyl_distance(np.repeat(a, 3), np.repeat(b, 2)))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=30),
       st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=30))
def test_weyl_distance_bounds(a, b):
    d = weyl_distance(a, b)
    assert 0.0 <= d <= 1.0
    assert weyl_distance(a, a) == 0.0


def _union_weyl_distance(a, b):
    """The KS distance evaluated over the concatenated union of points."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    pts = np.concatenate([a, b])
    return float(np.abs(np.searchsorted(a, pts, side="right") / len(a)
                        - np.searchsorted(b, pts, side="right") / len(b)).max())


# a few distinct values, so both samples are full of ties
_tied = st.lists(st.sampled_from([-1.5, -0.0, 0.0, 0.25, 1.0, 3.0]),
                 min_size=1, max_size=40)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_tied, st.lists(st.floats(-5, 5), min_size=1, max_size=40)),
       _tied, st.booleans())
def test_weyl_distance_equals_union_formula(a, b, presort):
    if presort:
        b = sorted(b)
    assert weyl_distance(a, b) == _union_weyl_distance(a, b)
    assert weyl_distance(b, a) == _union_weyl_distance(b, a)


def test_weyl_distance_rejects_empty():
    with pytest.raises(ValueError):
        weyl_distance([], [1.0])
    with pytest.raises(ValueError):
        weyl_distance([1.0], [])


def test_outlier_check_trivial_and_violation():
    mesh = build_mesh(4)
    w1 = symmetric_eigenvalues(assemble_stiffness(mesh, ONE))
    assert outlier_check(w1, w1, ONE)
    mu = viscosity_for_group(3, 100.0)
    wmu = symmetric_eigenvalues(assemble_stiffness(mesh, mu))
    assert outlier_check(wmu, w1, mu)
    bad = wmu.copy()
    bad[-1] = 2.0 * mu.esssup * w1[-1]
    assert not outlier_check(bad, w1, mu)


def test_outlier_check_length_mismatch():
    with pytest.raises(ValueError):
        outlier_check([1.0, 2.0], [1.0], ONE)


@pytest.mark.parametrize("group,gamma", [(2, None), (3, 100.0)])
def test_sample_saddle_symbol_matches_per_point_pools(group, gamma):
    # one eigensolve per distinct weight gives the same pooled array as one
    # per physical grid point; a constant field on a 1x1 physical grid
    # yields the pool of a single point
    nx, ny, nt1, nt2 = grid = (5, 5, 4, 3)
    mu = viscosity_for_group(group, gamma)
    xx, yy = np.meshgrid((np.arange(nx) + 0.5) / nx, (np.arange(ny) + 0.5) / ny,
                         indexing="ij")
    weights = mu(np.column_stack([xx.ravel(), yy.ravel()]))
    assert len(np.unique(weights)) < len(weights)
    pools = [sample_saddle_symbol(ViscosityField.constant(w), (1, 1, nt1, nt2))
             for w in weights]
    assert np.array_equal(sample_saddle_symbol(mu, grid),
                          np.sort(np.concatenate(pools)))


def _targets(n, mu):
    """(name, matrix, mirror) for the stiffness and the saddle matrix."""
    mesh = build_mesh(n)
    rv, rp = reflection_permutations(n, "swap")
    nvel = mesh.velocity_count
    return (("A", assemble_stiffness(mesh, mu), rv),
            ("M", assemble_saddle(mesh, mu).full_matrix(),
             np.concatenate([rv + nvel, rv, rp + 2 * nvel])))


def _block_sizes(monkeypatch):
    """Record the size of every dense block `symmetric_eigenvalues`
    solves."""
    sizes = []
    eigensolve = spectra._eigensolve

    def spy(a, b=None):
        sizes.append(len(a))
        return eigensolve(a, b)
    monkeypatch.setattr(spectra, "_eigensolve", spy)
    return sizes


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("group,gamma", [(1, None), (2, None), (3, 100.0)])
def test_mirror_split_matches_dense(group, gamma, n, monkeypatch):
    for name, S, mirror in _targets(n, viscosity_for_group(group, gamma)):
        ref = np.linalg.eigvalsh(S.toarray())
        sizes = _block_sizes(monkeypatch)
        got = symmetric_eigenvalues(S, mirror)
        monkeypatch.undo()
        pairs = int(np.sum(mirror > np.arange(len(mirror))))
        assert sizes == [len(mirror) - pairs, pairs], name
        assert spectra.mirror_class_sizes(S, mirror) == sizes, name
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max(), name


def test_mirror_falls_back_to_one_block(monkeypatch):
    # the strip field depends on x alone, so neither matrix commutes with
    # the swap; a wrong involution (one transposition) does not commute
    # either; each is solved as one full-size block
    strip = ViscosityField.example1(1.0, 100.0, 0.5, 0.0)
    cases = [(S, mirror) for _, S, mirror in _targets(4, strip)]
    S = assemble_stiffness(build_mesh(4), viscosity_for_group(2))
    swap01 = np.arange(S.shape[0])
    swap01[[0, 1]] = [1, 0]
    cases.append((S, swap01))
    for S, mirror in cases:
        ref = np.linalg.eigvalsh(S.toarray())
        sizes = _block_sizes(monkeypatch)
        got = symmetric_eigenvalues(S, mirror)
        monkeypatch.undo()
        assert sizes == spectra.mirror_class_sizes(S, mirror) == [S.shape[0]]
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("group,gamma", [(1, None), (2, None), (3, 100.0)])
def test_in_place_eigensolve_equals_eigvalsh(group, gamma, n):
    # the class blocks of A and M, solved in place by LAPACK dsyevd, give
    # numpy's eigvalsh bit for bit
    for name, S, mirror in _targets(n, viscosity_for_group(group, gamma)):
        for V in spectra._class_bases([mirror], len(mirror)).values():
            block = V.T @ S @ V
            ref = np.linalg.eigvalsh(block.toarray())
            got = spectra._eigensolve(block.toarray(order="F"))()
            assert np.array_equal(got, ref), name


def test_pencil_solves_equal_scipy_eigh(monkeypatch):
    # each strip-field class pencil, solved in place by dsygvd, gives
    # scipy's generalized eigh bit for bit
    system = assemble_saddle(build_mesh(8), FIELDS["strip"][0])
    eigensolve = spectra._eigensolve
    calls = []

    def spy(a, b=None):
        inputs = (a.copy(order="F"), b.copy(order="F"))
        solve = eigensolve(a, b)

        def recorded():
            values = solve()
            calls.append(inputs + (values,))
            return values
        return recorded
    monkeypatch.setattr(spectra, "_eigensolve", spy)
    saddle_pencil_eigenvalues(system)
    assert sorted(len(c[2]) for c in calls) == \
        sorted(pencil_class_sizes(system)["pressure"])
    for a, b, got in calls:
        assert np.array_equal(got, sla.eigh(a, b, eigvals_only=True))


def _one_then_two_cpus(monkeypatch):
    """Pretend to run on 1 CPU, then on 2; yields the `workers()` count,
    1 and then 2."""
    for count in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid, count=count: set(range(count)),
                            raising=False)
        yield count


def test_mirror_halves_threads_bitwise(monkeypatch, fresh_pool):
    # the two halves of A and M run on the pool with 2 workers and give
    # the eigenvalues of the inline solves
    targets = _targets(8, viscosity_for_group(3, 100.0))
    eigensolve = spectra._eigensolve
    threads = []

    def spy(a, b=None):
        solve = eigensolve(a, b)

        def on_thread():
            threads.append(threading.current_thread().name)
            return solve()
        return on_thread
    monkeypatch.setattr(spectra, "_eigensolve", spy)
    runs = []
    for count in _one_then_two_cpus(monkeypatch):
        assert workers() == count
        threads.clear()
        runs.append([symmetric_eigenvalues(S, mirror)
                     for _, S, mirror in targets])
        pool = [name.startswith("glt-stokes") for name in threads]
        assert pool == [count == 2] * 4
    for one, two in zip(*runs):
        assert np.array_equal(one, two)


def test_eigensolve_rejects_what_it_would_copy():
    square = np.asfortranarray(np.eye(4))
    for bad in (np.asfortranarray(np.ones((3, 4))), np.eye(4),
                np.asfortranarray(np.eye(4, dtype=np.float32)),
                np.asfortranarray(np.eye(8))[::2, ::2], np.eye(4).tolist()):
        with pytest.raises(ValueError, match="Fortran"):
            spectra._eigensolve(bad)
        with pytest.raises(ValueError, match="Fortran"):
            spectra._eigensolve(square, bad)
    with pytest.raises(ValueError, match="Fortran"):
        spectra._eigensolve(square, np.asfortranarray(np.eye(3)))


def test_eigensolve_failure_names_the_routine():
    a = np.asfortranarray(np.diag([1.0, 2.0, 3.0]))
    b = np.asfortranarray(np.diag([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError, match="dsygvd failed: info 5"):
        spectra._eigensolve(a, b)()
    # an indefinite pressure mass reaches dsygvd through the pencil
    system = assemble_saddle(build_mesh(4), ONE)
    with pytest.raises(ValueError, match="dsygvd"):
        saddle_pencil_eigenvalues(
            replace(system, pressure_mass=-system.pressure_mass))


def test_eigensolve_releases_the_gil(fresh_pool):
    # while a pool thread is inside a 1500^2 solve, the main thread's loop
    # keeps advancing: no pause comes near the length of the solve, as
    # one would if the call held the GIL
    rng = np.random.default_rng(0)
    a = rng.standard_normal((1500, 1500))
    solve = spectra._eigensolve(np.asfortranarray(a + a.T))
    start = last = time.perf_counter()
    longest = 0.0
    future = precond._pool().submit(solve)
    while not future.done():
        now = time.perf_counter()
        longest, last = max(longest, now - last), now
    assert len(future.result()) == 1500
    assert longest < 0.5 * (last - start)


def test_mirror_must_be_an_involution():
    S = assemble_stiffness(build_mesh(2), ONE)
    dim = S.shape[0]
    rv, _ = reflection_permutations(2, "swap")
    for bad in (np.roll(np.arange(dim), 1), rv[:-1], rv + 0.0,
                np.where(rv == 0, dim, rv), np.zeros(dim, dtype=int)):
        with pytest.raises(ValueError):
            symmetric_eigenvalues(S, bad)


def _resident_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


@pytest.mark.skipif(spectra._malloc_trim() is None or
                    not os.path.exists("/proc/self/statm"),
                    reason="needs glibc malloc_trim and /proc")
def test_release_free_heap_returns_pages():
    # 24 MB of 4 kB blocks on the C heap; the last one stays alive on top,
    # so freeing the rest cannot shrink the heap by itself
    blocks = [np.ones(500) for _ in range(6000)]
    keep = blocks[-1]
    del blocks
    before = _resident_mb()
    spectra._release_free_heap()
    assert before - _resident_mb() > 10
    assert keep.sum() == 500


def test_saddle_pencil_matches_dense_generalized_spectrum():
    system = assemble_saddle(build_mesh(4),
                             ViscosityField.example1(1.0, 100.0, 0.5, 0.0))
    A, W = system.stiffness, system.pressure_mass
    P = sp.block_diag([A, A, W]).toarray()
    ref = sla.eigh(system.full_matrix().toarray(), P, eigvals_only=True)
    got = saddle_pencil_eigenvalues(system)
    assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()


def test_saddle_pencil_rejects_indefinite_stiffness():
    system = assemble_saddle(build_mesh(4), ONE)
    with pytest.raises(ValueError):
        saddle_pencil_eigenvalues(replace(system, stiffness=-system.stiffness))


def _reflections(n):
    """The velocity and the pressure permutations of x -> 1 - x and
    y -> 1 - y."""
    (vx, px), (vy, py) = (reflection_permutations(n, a) for a in "xy")
    return (vx, vy), (px, py)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("count", [0, 1, 2])
def test_class_bases_orthonormal_and_complete(n, count):
    for perms in _reflections(n):
        dim = len(perms[0])
        perms = perms[:count]
        bases = spectra._class_bases(perms, dim)
        assert list(bases) == list(itertools.product((1, -1), repeat=count))
        assert sum(V.shape[1] for V in bases.values()) == dim
        V = sp.hstack(list(bases.values())).toarray()
        assert np.abs(V.T @ V - np.eye(dim)).max() < 1e-15
        for parities, B in bases.items():
            B = B.toarray()
            for g, p in zip(perms, parities):
                assert np.array_equal(B[g], p * B)


FIELDS = {
    # depends on |2x - 1| only: both reflections, four classes
    "strip": (ViscosityField.example1(1.0, 100.0, 0.5, 0.0), 4),
    # symmetric under x -> 1 - x only
    "x-mirror": (ViscosityField(
        lambda p: 1.0 + np.abs(2.0 * p[:, 0] - 1.0) + p[:, 1], 1.0, 3.0), 2),
    # symmetric under y -> 1 - y only
    "1+x": (ViscosityField(lambda p: 1.0 + p[:, 0], 1.0, 2.0), 2),
    # no reflection
    "1+x+y": (ViscosityField(lambda p: 1.0 + p[:, 0] + p[:, 1], 1.0, 3.0), 1),
}


def _full_size_pencil(system):
    """The pencil eigenvalues solved as one full-size block."""
    solve = SPDSolver(system.stiffness).solve
    S = schur_panels(system.div_x, system.div_y, solve, solve)
    symmetrize(S)
    s = np.maximum(sla.eigh(S, system.pressure_mass.toarray(),
                            eigvals_only=True), 0.0)
    root = np.sqrt(1.0 + 4.0 * s)
    ones = np.ones(2 * system.velocity_count - system.pressure_count)
    return np.sort(np.concatenate([0.5 * (1.0 - root), 0.5 * (1.0 + root),
                                   ones]))


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("field", list(FIELDS))
def test_saddle_pencil_classes_match_dense_oracle(n, field):
    mu, classes = FIELDS[field]
    system = assemble_saddle(build_mesh(n), mu)
    A, W = system.stiffness, system.pressure_mass
    ref = sla.eigh(system.full_matrix().toarray(),
                   sp.block_diag([A, A, W]).toarray(), eigvals_only=True)
    got = saddle_pencil_eigenvalues(system)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    sizes = pencil_class_sizes(system)
    assert len(sizes["pressure"]) == len(sizes["velocity"]) == classes
    assert sum(sizes["pressure"]) == system.pressure_count
    assert sum(sizes["velocity"]) == system.velocity_count
    if classes == 1:
        assert np.array_equal(got, _full_size_pencil(system))


def test_saddle_pencil_class_threads_bitwise(monkeypatch, fresh_pool):
    # the four strip classes on two threads give the serial eigenvalues
    system = assemble_saddle(build_mesh(6), FIELDS["strip"][0])
    runs = []
    for count in _one_then_two_cpus(monkeypatch):
        assert workers() == count
        runs.append(saddle_pencil_eigenvalues(system))
    assert precond._pool()._max_workers == 2
    assert np.array_equal(runs[0], runs[1])
