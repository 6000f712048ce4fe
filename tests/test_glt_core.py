from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from glt_stokes.assembly import ViscosityField, assemble_stiffness
from glt_stokes.glt_core import (BlockSymbol, dst1_matrix,
                                 velocity_extension_map,
                                 velocity_slot_assignment)
from glt_stokes.mesh import build_mesh
from glt_stokes.precond import tau_block_core
from glt_stokes.symbols import StokesSymbolSet, default_symbol_set
from oracles import (block_toeplitz_defect, extend_to_block_toeplitz,
                     tau_approx, tau_eigenvalues, tau_from_symbol,
                     toeplitz_from_symbol)


# ---------------------------------------------------------------------------
# block symbols / toeplitz generation

def test_scalar_laplacian_toeplitz():
    sym = BlockSymbol(1, 1, 1, {(0,): [[2]], (1,): [[-1]], (-1,): [[-1]]},
                      hermitian=True)
    T = toeplitz_from_symbol(sym, 4).toarray()
    expect = np.array([[2, -1, 0, 0], [-1, 2, -1, 0],
                       [0, -1, 2, -1], [0, 0, -1, 2]], dtype=float)
    assert np.array_equal(T, expect)


def test_two_level_block_layout():
    # d=2, n=(2,3): outer 2x2 of inner 3x3 blocks, entry f_{r-c}
    sym = BlockSymbol(1, 1, 2, {
        (0, 0): [[0]], (0, 1): [[1]], (0, -1): [[-1]],
        (1, 0): [[10]], (-1, 0): [[-10]], (1, 1): [[11]]})
    T = toeplitz_from_symbol(sym, (2, 3)).toarray()
    F0 = np.array([[0, -1, 0], [1, 0, -1], [0, 1, 0]], dtype=float)
    F1 = np.array([[10, 0, 0], [11, 10, 0], [0, 11, 10]], dtype=float)
    Fm1 = np.array([[-10, 0, 0], [0, -10, 0], [0, 0, -10]], dtype=float)
    expect = np.block([[F0, Fm1], [F1, F0]])
    assert np.array_equal(T, expect)


def _block_definition(sym, dims):
    """Dense block multilevel Toeplitz matrix, one block at a time: block
    (r, c) of the cell grid holds C_{r - c}, and zero where the symbol has
    no such offset."""
    cells = list(np.ndindex(*dims))
    coeffs = sym.float_coefficients()
    T = np.zeros((len(cells) * sym.s1, len(cells) * sym.s2))
    for a, r in enumerate(cells):
        for b, c in enumerate(cells):
            k = tuple(int(x) for x in np.subtract(r, c))
            if k in coeffs:
                T[a * sym.s1:(a + 1) * sym.s1,
                  b * sym.s2:(b + 1) * sym.s2] = coeffs[k]
    return T


@pytest.mark.parametrize("name", [f.name for f in fields(StokesSymbolSet)])
def test_every_symbol_matches_block_definition(name):
    # grids smaller than an offset, where the generator must skip terms
    sym = default_symbol_set().by_name(name)
    grids = ([(1, 1), (1, 3), (2, 3), (3, 3)] if sym.levels == 2
             else [(1,), (2,), (5,)])
    for dims in grids:
        T = toeplitz_from_symbol(sym, dims if sym.levels == 2 else dims[0])
        assert np.array_equal(T.toarray(), _block_definition(sym, dims)), dims


def test_hermitian_symbol_gives_hermitian_matrix():
    G = default_symbol_set().stiffness
    T = toeplitz_from_symbol(G, (3, 3)).toarray()
    assert np.abs(T - T.T).max() == 0.0


def test_hermitian_flag_checked():
    with pytest.raises(ValueError):
        BlockSymbol(1, 1, 1, {(1,): [[1]]}, hermitian=True)


def test_symbol_json_roundtrip():
    # the num/den tables carry every rational, so the dump loses nothing
    G = default_symbol_set().div_x
    data = G.to_json()
    assert [tuple(e["k"]) for e in data["coeffs"]] == list(G.coeffs)
    for entry in data["coeffs"]:
        C = G.coefficient(entry["k"])
        assert [[Fraction(p, q) for p, q in zip(*rows)]
                for rows in zip(entry["num"], entry["den"])] == C.tolist()
        assert entry["re"] == [[float(v) for v in row] for row in C]


def test_symbol_eval_matches_fourier_sum():
    sym = BlockSymbol(1, 1, 1, {(0,): [[Fraction(1, 2)]], (2,): [[1]]})
    th = 0.7
    assert sym.eval(th)[0, 0] == pytest.approx(0.5 + np.exp(2j * th), abs=1e-15)


# ---------------------------------------------------------------------------
# index maps

def test_semi_orthogonality():
    # the slot indices are distinct and inside the 8n^2 extended space, so
    # the 0/1 embedding they define is semi-orthogonal
    for n in range(1, 7):
        flat, mask = velocity_extension_map(n)
        assert len(flat) == mask.sum()
        assert len(np.unique(flat)) == len(flat)
        assert flat.min() >= 0 and flat.max() < 8 * n * n


# ---------------------------------------------------------------------------
# tau approximation

def test_tau_tridiagonal_unchanged():
    for N in (5, 50):
        T = tau_approx([-1, 2, -1], N)
        expect = np.diag(np.full(N, 2.0)) + np.diag(np.full(N - 1, -1.0), 1) \
            + np.diag(np.full(N - 1, -1.0), -1)
        assert np.array_equal(T, expect)
        w = np.sort(np.linalg.eigvalsh(T))
        analytic = np.sort(2 - 2 * np.cos(np.arange(1, N + 1) * np.pi / (N + 1)))
        assert np.abs(w - analytic).max() < 1e-12


def test_tau_pentadiagonal_corners_and_eigs():
    band = [1, -4, 6, -4, 1]
    N = 6
    T = tau_approx(band, N)
    assert T[0, 0] == pytest.approx(5.0)
    assert T[N - 1, N - 1] == pytest.approx(5.0)
    theta = np.arange(1, N + 1) * np.pi / (N + 1)
    analytic = np.sort(6 - 8 * np.cos(theta) + 2 * np.cos(2 * theta))
    w = np.sort(np.linalg.eigvalsh(T))
    assert np.abs(w - analytic).max() < 1e-12
    assert np.abs(w - np.sort(tau_eigenvalues(band, N))).max() < 1e-12


def test_tau_nonsymmetric_transpose_compat():
    band = [0.0, 2.0, -1.0]  # t_{-1}=0, t_0=2, t_1=-1
    T = tau_approx(band, 4)
    Tt = tau_approx(band[::-1], 4)
    assert np.array_equal(T.T, Tt)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=3, max_size=9)
       .filter(lambda b: len(b) % 2 == 1))
def test_tau_transpose_compat_random_bands(band):
    b = len(band) // 2
    N = 2 * b + 1
    T = tau_approx(band, N)
    Tt = tau_approx(band[::-1], N)
    assert np.array_equal(T.T, Tt)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.data())
def test_tau_dst_diagonalization_symmetric(b, data):
    half = data.draw(st.lists(st.floats(-3, 3, allow_nan=False),
                              min_size=b + 1, max_size=b + 1))
    band = half[:0:-1] + half  # symmetric t_{-b..b}
    N = 2 * b + 3
    T = tau_approx(band, N)
    S = dst1_matrix(N)
    lam = tau_eigenvalues(band, N)
    assert np.abs(T - S @ np.diag(lam) @ S).max() < 1e-10


@pytest.mark.parametrize("N", range(1, 13))
def test_scipy_dst1_is_dst1_matrix(N):
    # the orthonormal DST-I convention the tau DST path relies on
    got = scipy.fft.dst(np.eye(N), type=1, norm="ortho", axis=0)
    assert np.abs(got - dst1_matrix(N)).max() <= 1e-14


def test_dst1_matrix_orthogonal_at_large_n():
    # the phase is reduced modulo 2(N+1) before the sine; unreduced, the
    # defect is 4.0e-14 at N = 1024
    S = dst1_matrix(1024)
    assert np.abs(S @ S - np.eye(1024)).max() <= 1e-14


@pytest.mark.parametrize("N", [5, 1024])
def test_dst1_rows_are_rows_of_the_matrix(N):
    rows = np.array([N - 1, 0, 3, 3, 2])
    assert np.array_equal(dst1_matrix(N, rows), dst1_matrix(N)[rows])


def test_tau_rejects_small_n():
    with pytest.raises(ValueError):
        tau_approx([1, -4, 6, -4, 1], 4)


def _flat_coefficients(n):
    """Stiffness coefficients summed over the flat cell offset
    m = k1*n + k2, as {m: 8x8 matrix}."""
    flat = {}
    for k, C in default_symbol_set().stiffness.float_coefficients().items():
        m = k[0] * n + k[1]
        flat[m] = flat.get(m, 0.0) + C
    return flat


@pytest.mark.parametrize("n", [3, 4, 6])
def test_tau_core_block_diagonal_under_dst(n):
    # kron(DST-I, I_8) turns the extended tau core into N Hermitian 8x8
    # blocks S_0 + sum_m 2cos(m theta_j) S_m, all positive definite
    N = n * n
    flat = _flat_coefficients(n)
    S = {m: 0.5 * (flat.get(m, 0.0) + flat.get(-m, 0.0))
         for m in range(1, n + 2)}
    Q = np.kron(dst1_matrix(N), np.eye(8))
    B = Q @ tau_from_symbol(default_symbol_set().stiffness, n).toarray() @ Q
    scale = np.abs(B).max()
    theta = np.arange(1, N + 1) * np.pi / (N + 1)
    blocks = tau_block_core(n)
    assert blocks.shape == (N, 8, 8)
    off = B.copy()
    for j in range(N):
        blk = slice(8 * j, 8 * j + 8)
        expect = flat[0] + sum(2 * np.cos(m * theta[j]) * S[m] for m in S)
        assert np.abs(B[blk, blk] - expect).max() <= 1e-13
        assert np.abs(blocks[j] - expect).max() <= 1e-13
        assert np.linalg.eigvalsh(0.5 * (B[blk, blk] + B[blk, blk].T))[0] > 0
        off[blk, blk] = 0.0
    assert np.abs(off).max() <= 1e-13 * scale


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_tau_core_classes_are_tau_of_flat_bands(n):
    # every 8x8 entry class of the extended core, read over the flat cell
    # index, is the tau matrix of that class's symmetrized flat band
    N, b = n * n, n + 1
    flat = _flat_coefficients(n)
    core = tau_from_symbol(default_symbol_set().stiffness, n).toarray()
    for r in range(8):
        for c in range(8):
            band = np.array([flat[m][r, c] if m in flat else 0.0
                             for m in range(-b, b + 1)])
            expect = tau_approx(0.5 * (band + band[::-1]), N)
            assert np.abs(core[r::8, c::8] - expect).max() <= 1e-14


@pytest.mark.parametrize("name", ["stiffness", "stiffness_pre"])
@pytest.mark.parametrize("n", [1, 2])
def test_tau_core_is_its_defining_sum_where_stripes_overlap(name, n):
    # N = n^2 <= 2b: band and corner stripes of the same or of different
    # offsets m land on one entry, whose coefficients the core sums
    sym = default_symbol_set().by_name(name)
    N = n * n
    flat = {}
    for k, C in sym.float_coefficients().items():
        flat[k[0] * n + k[1]] = flat.get(k[0] * n + k[1], 0.0) + C
    S = {m: flat[0] if m == 0 else 0.5 * (flat.get(m, 0.0) + flat.get(-m, 0.0))
         for m in {abs(m) for m in flat}}
    core = tau_from_symbol(sym, n).toarray()
    for i in range(N):
        for j in range(N):
            expect = S[0] * (i == j) + sum(
                S[m] * ((i - j == m) + (j - i == m) - (i + j == m - 2)
                        - (i + j == 2 * N - m)) for m in S if m > 0)
            assert np.array_equal(core[8 * i:8 * i + 8, 8 * j:8 * j + 8],
                                  expect)


# ---------------------------------------------------------------------------
# structural verification of the stiffness Toeplitz form

def test_defect_zero_for_generated_matrix():
    G = default_symbol_set().stiffness
    T = toeplitz_from_symbol(G, (3, 3))
    assert block_toeplitz_defect(T, G, (3, 3)) == 0


def test_defect_counts_corrupted_row():
    G = default_symbol_set().stiffness
    T = toeplitz_from_symbol(G, (3, 3)).tolil()
    T[5, 3] += 1.0
    assert block_toeplitz_defect(T.tocsr(), G, (3, 3)) == 1


def test_defect_size_mismatch_reported():
    G = default_symbol_set().stiffness
    T = toeplitz_from_symbol(G, (3, 3))
    with pytest.raises(ValueError, match="72.*128|128.*72"):
        block_toeplitz_defect(T, G, (4, 4))


@pytest.mark.parametrize("n", [4, 8])
def test_stiffness_extension_defect_bound(n):
    # frozen measurement: zero-filled extension differs on 11n-4 rows
    mesh = build_mesh(n)
    A = assemble_stiffness(mesh, ViscosityField.constant())
    ext = extend_to_block_toeplitz(A, n)
    G = default_symbol_set().stiffness
    defect = block_toeplitz_defect(ext, G, (n, n))
    assert defect == 11 * n - 4
    assert defect <= 16 * n


@pytest.mark.parametrize("n", [4, 8])
def test_stiffness_equals_compressed_toeplitz_exactly(n):
    # on grid-mappable DOFs the assembled stiffness IS the compressed core
    mesh = build_mesh(n)
    A = assemble_stiffness(mesh, ViscosityField.constant()).tocsr()
    flat, mask = velocity_extension_map(n)
    G = default_symbol_set().stiffness
    T = toeplitz_from_symbol(G, (n, n))
    diff = T[flat][:, flat] - A[mask][:, mask]
    assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0


def test_slot_assignment_covers_all_nodes():
    n = 5
    mesh = build_mesh(n)
    jj, ii, ss = velocity_slot_assignment(n)
    assert len(jj) == mesh.velocity_count
    _, mask = velocity_extension_map(n)
    # exactly n off-grid nodes, all in the leftmost odd-level column
    assert int((~mask).sum()) == n
    off = mesh.velocity_nodes[~mask]
    assert np.all(off[:, 0] == 1) and np.all(off[:, 1] % 4 == 3)


@pytest.mark.parametrize("n", range(1, 7))
def test_slot_offsets_within_cell(n):
    # slot s of cell (j, i) sits at lattice point (4i, 4j) + offset[s]
    offset = np.array([(1, 1), (3, 1), (2, 2), (4, 2),
                       (3, 3), (5, 3), (2, 4), (4, 4)])
    jj, ii, ss = velocity_slot_assignment(n)
    nodes = np.column_stack([4 * ii, 4 * jj]) + offset[ss]
    assert np.array_equal(nodes, build_mesh(n).velocity_nodes)


