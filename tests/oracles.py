"""Reference constructions and paper-claim checkers that only tests run.

The program builds the tau core one way, as the DST-I blocks of
`precond.tau_block_core`.  The constructions here are the references those
blocks and `TauDSTSolver` are checked against: the banded Toeplitz matrix
of a symbol, the scalar tau (Hankel corner) approximation and its
eigenvalues, the assembled Kronecker-sum tau core of a two-level symbol
and its compression onto the velocity DOFs.  The checkers of acceptance
criteria 2, 6 and 7 (the block-Toeplitz defect of the extended stiffness,
the eigenvalue sandwich and the tau analytics) live here too: a checker of
a paper claim that no command runs belongs with the tests, not in the
package.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.sparse as sp

from glt_stokes.assembly import ViscosityField
from glt_stokes.mesh import velocity_extension_map
from glt_stokes.precond import OFF_GRID_DIAGONAL, _tau_classes
from glt_stokes.symbols import BlockSymbol, default_symbol_set

_DEFECT_TOL = 1e-12  # the entry tolerance of `block_toeplitz_defect`
_OUTLIER_SLACK = 1e-10  # the relative slack of `outlier_check`


# ---------------------------------------------------------------------------
# Toeplitz generation

def _shift(d: int, k: int) -> sp.dia_matrix:
    """The d x d shift with ones at (i, i + k); zero for |k| >= d."""
    return sp.eye(d, k=max(-d, min(k, d)))


def toeplitz_from_symbol(sym: BlockSymbol, n) -> sp.csr_matrix:
    """Block d-level Toeplitz matrix sum_k (J_k1 (x) ... (x) J_kd) (x) C_k
    generated by the symbol, J_k the shift with ones at (i, i - k).

    Block (r, c) at multilevel offset k = r - c holds the coefficient C_k;
    offsets beyond the grid contribute nothing.
    """
    dims = (int(n),) if np.isscalar(n) else tuple(int(x) for x in n)
    if len(dims) != sym.levels:
        raise ValueError(f"size tuple {dims} does not match {sym.levels} levels")
    if any(d < 1 for d in dims):
        raise ValueError("grid dimensions must be positive")
    N = int(np.prod(dims))
    T = sp.csr_matrix((sym.s1 * N, sym.s2 * N))
    for k, C in sym.float_coefficients().items():
        shift = functools.reduce(sp.kron, [_shift(d, -kk)
                                           for kk, d in zip(k, dims)])
        T = T + sp.kron(shift, C)
    return T


# ---------------------------------------------------------------------------
# tau approximation

def _band_array(band):
    t = np.asarray(band, dtype=float)
    if t.ndim != 1 or len(t) % 2 != 1:
        raise ValueError("band must be an odd-length list t_{-b..b}")
    return t


def corner_stripes(s: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions (rows, cols) of the Hankel corner stripes of offset s on an
    N x N matrix: the northwest anti-diagonal i + j = s - 2 and its
    southeast mirror i + j = 2N - s (0-based).  The tau approximation
    subtracts the symmetrized coefficient of offset s at these positions;
    for N <= 2s the two stripes meet and a position may be listed twice.
    """
    i = np.arange(max(0, s - 1 - N), min(s - 1, N))
    j = s - 2 - i
    return np.concatenate([i, N - 1 - i]), np.concatenate([j, N - 1 - j])


def tau_approx(band, N: int) -> np.ndarray:
    """Hankel corner-corrected Toeplitz matrix of a scalar band.

    The band lists t_{-b..b}; the northwest corner subtracts the Hankel of
    the symmetrized coefficients (t_k + t_{-k})/2 at offsets i+j (1-based),
    the southeast corner mirrors it, so tau(T^T) = tau(T)^T holds exactly
    and symmetric bands give the classical sine-transform algebra member.
    """
    t = _band_array(band)
    b = len(t) // 2
    if N <= 2 * b:
        raise ValueError(f"need N > 2b, got N={N}, b={b}")

    T = sum(t[k + b] * np.eye(N, k=-k) for k in range(-b, b + 1))
    for s in range(2, b + 1):
        rows, cols = corner_stripes(s, N)
        T[rows, cols] -= 0.5 * (t[b + s] + t[b - s])
    return T


def tau_eigenvalues(band, N: int) -> np.ndarray:
    """Eigenvalues g(j pi/(N+1)) of the tau matrix of a symmetric band."""
    t = _band_array(band)
    b = len(t) // 2
    if not np.allclose(t, t[::-1]):
        raise ValueError("analytic tau eigenvalues need a symmetric band")
    theta = np.arange(1, N + 1) * np.pi / (N + 1)
    vals = np.full(N, t[b])
    for k in range(1, b + 1):
        vals += 2.0 * t[b + k] * np.cos(k * theta)
    return vals


def tau_from_symbol(sym: BlockSymbol, n: int) -> sp.csr_matrix:
    """Tau-algebra core sum_m tau_N(m) (x) S_m of a Hermitian two-level
    symbol over the flattened index of the n x n cell grid (N = n^2), with
    S_m the symmetrized flat coefficients of `precond._tau_classes`.

    tau_N(0) = I, and for m > 0 tau_N(m) is J^m + J^-m minus the
    `corner_stripes` of m, so every entry class (r, c) is `tau_approx` of
    its symmetrized flat band.  For N > 2b (b the largest |m|) each
    tau_N(m) is the sine-algebra member with eigenvalues 2cos(m theta_j),
    theta_j = j pi/(N+1), and the DST-I in the cell index block-diagonalizes
    the core into the blocks of `precond.tau_block_core`.  For smaller N the
    stripes overlap and the same sum is returned without that structure.
    """
    N = n * n
    core = sp.csr_matrix((sym.s1 * N, sym.s2 * N))
    for m, S in _tau_classes(sym, n).items():
        tau_m = sp.eye(N)
        if m > 0:
            rows, cols = corner_stripes(m, N)
            tau_m = _shift(N, m) + _shift(N, -m) - sp.coo_matrix(
                (np.ones(len(rows)), (rows, cols)), shape=(N, N))
        core = core + sp.kron(tau_m, S)
    return core


# ---------------------------------------------------------------------------
# the extended stiffness and the assembled tau core

def _extension_matrix(n: int) -> sp.csr_matrix:
    """The 0/1 matrix E of shape 8n^2 x nvel with E[flat, dof] = 1 for each
    mappable DOF of `velocity_extension_map`: E A E^T extends a velocity
    matrix A, E^T T E compresses an extended matrix T."""
    flat, mask = velocity_extension_map(n)
    return sp.csr_matrix((np.ones(len(flat)), (flat, np.flatnonzero(mask))),
                         shape=(8 * n * n, len(mask)))


def extend_to_block_toeplitz(A, n: int) -> sp.csr_matrix:
    """Embed the stiffness block into the extended 8n^2 index space as
    E A E^T, zero-filling inserted rows/columns and dropping off-grid DOFs."""
    E = _extension_matrix(n)
    return E @ sp.csr_matrix(A) @ E.T


def assembled_tau_core(n: int, nvel: int) -> sp.csr_matrix:
    """Compressed tau-block core E^T T E + 16/3 (I - E^T E): T the
    Kronecker sum sum_m tau_N(m) (x) S_m of the stiffness symbol
    (`tau_from_symbol`), E the 0/1 extension matrix of the true DOF set,
    and the stencil diagonal 16/3 on the off-grid DOFs (outside the rigid
    cell grid), the zero columns of E.

    `TauDSTSolver` applies the inverse of the same core from the DST-I
    blocks of `precond.tau_block_core`; this assembled core, scaled and
    factored by `SPDSolver`, is the reference its tests compare against.
    For n >= 3 (N = n^2 > 2b, b = n + 1 the flat bandwidth) each tau_N(m)
    is a sine-algebra member, the sum is block-diagonalized by the DST-I
    into positive definite 8x8 blocks, and the core is a direct sum of a
    compression of it and a positive diagonal.
    """
    E = _extension_matrix(n)
    core = E.T @ tau_from_symbol(default_symbol_set().stiffness, n) @ E
    return (core + OFF_GRID_DIAGONAL * (sp.eye(nvel) - E.T @ E)).tocsr()


# ---------------------------------------------------------------------------
# the checkers of acceptance criteria 2 and 6

def block_toeplitz_defect(A, sym: BlockSymbol, n) -> int:
    """Number of rows of A differing anywhere from the generated Toeplitz."""
    T = toeplitz_from_symbol(sym, n)
    A = sp.csr_matrix(A)
    if A.shape != T.shape:
        raise ValueError(f"size mismatch: matrix {A.shape} vs Toeplitz {T.shape}")
    return int(np.count_nonzero(abs(A - T).max(axis=1).toarray() > _DEFECT_TOL))


def outlier_check(eigs_mu, eigs_one, mu: ViscosityField) -> bool:
    """Sorted-eigenvalue sandwich essinf(mu) l_j(A(1)) <= l_j(A(mu)) <=
    esssup(mu) l_j(A(1)) with relative slack."""
    lam = np.asarray(eigs_mu, dtype=float)
    one = np.asarray(eigs_one, dtype=float)
    if lam.shape != one.shape:
        raise ValueError(f"length mismatch: {lam.shape} vs {one.shape}")
    lo = mu.essinf * one
    hi = mu.esssup * one
    tol = _OUTLIER_SLACK * np.maximum(np.abs(hi), np.abs(lo))
    return bool(np.all(lam >= lo - tol) and np.all(lam <= hi + tol))
