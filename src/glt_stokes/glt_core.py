"""Block multilevel Toeplitz machinery.

Matrix-valued trigonometric polynomials (block symbols) with exact rational
coefficients, Toeplitz generation, the tau (Hankel corner correction)
approximation of banded Toeplitz matrices and the tau-algebra core of a
two-level block symbol (one corner stripe rule serves both) with its
DST-I blocks, and the
slot-index array and structural helpers that embed the crisscross
stiffness block into its extended block-Toeplitz form.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from .mesh import velocity_lattice

__all__ = [
    "BlockSymbol",
    "toeplitz_from_symbol",
    "tau_approx",
    "tau_from_symbol",
    "tau_blocks",
    "tau_eigenvalues",
    "dst1_matrix",
    "block_toeplitz_defect",
    "velocity_slot_assignment",
    "velocity_extension_map",
    "extend_to_block_toeplitz",
]

_DEFECT_TOL = 1e-12  # the entry tolerance of `block_toeplitz_defect`


# ---------------------------------------------------------------------------
# block symbols

def _to_fraction_matrix(mat, s1, s2):
    out = np.empty((s1, s2), dtype=object)
    for r in range(s1):
        for c in range(s2):
            v = mat[r][c]
            out[r, c] = v if isinstance(v, Fraction) else Fraction(v)
    return out


class BlockSymbol:
    """Matrix-valued trigonometric polynomial sum_k C_k e^{i k.theta}.

    Coefficients are s1 x s2 matrices of exact rationals indexed by integer
    frequency offsets k (d-tuples, d = number of levels).  Evaluation
    converts to complex floats; all structural identities are checked on
    the rationals.
    """

    def __init__(self, s1: int, s2: int, levels: int, coeffs: dict,
                 hermitian: bool = False):
        self.s1 = int(s1)
        self.s2 = int(s2)
        self.levels = int(levels)
        self.coeffs = {}
        for k, mat in coeffs.items():
            key = (k,) if np.isscalar(k) else tuple(int(x) for x in k)
            if len(key) != self.levels:
                raise ValueError(f"offset {key} does not match {levels} levels")
            m = _to_fraction_matrix(mat, s1, s2)
            if any(v != 0 for v in m.ravel()):
                self.coeffs[key] = m
        self.hermitian = bool(hermitian)
        self._float_cache = {k: np.array([[float(v) for v in row] for row in m],
                                         dtype=float)
                             for k, m in self.coeffs.items()}
        if hermitian:
            self._check_hermitian()

    def _check_hermitian(self):
        if self.s1 != self.s2:
            raise ValueError("hermitian symbol must be square")
        for k, m in self.coeffs.items():
            mk = self.coeffs.get(tuple(-x for x in k))
            if mk is None or not np.array_equal(m.T, mk):
                raise ValueError(f"coefficient at {k} breaks Hermitian symmetry")

    def offsets(self):
        return sorted(self.coeffs.keys())

    def float_coefficients(self) -> dict:
        """Offsets to float coefficient matrices (read-only view)."""
        return self._float_cache

    def coefficient(self, k) -> np.ndarray:
        key = (k,) if np.isscalar(k) else tuple(int(x) for x in k)
        m = self.coeffs.get(key)
        if m is None:
            return np.full((self.s1, self.s2), Fraction(0), dtype=object)
        return m.copy()

    def eval(self, *theta) -> np.ndarray:
        """Evaluate at one frequency point; returns complex (s1, s2)."""
        if len(theta) != self.levels:
            raise ValueError(f"expected {self.levels} angles, got {len(theta)}")
        return self.eval_grid(np.asarray(theta, dtype=float)[None, :])[0]

    def eval_grid(self, thetas: np.ndarray) -> np.ndarray:
        """Evaluate at (N, levels) points; returns complex (N, s1, s2).
        Only nonzero coefficient entries are multiplied and added: a zero
        one would add a signed zero to a sum that starts at +0."""
        th = np.atleast_2d(np.asarray(thetas, dtype=float))
        out = np.zeros((len(th), self.s1, self.s2), dtype=complex)
        for k, m in self._float_cache.items():
            phase = np.exp(1j * (th @ np.asarray(k, dtype=float)))
            for r, c in zip(*np.nonzero(m)):
                out[:, r, c] += phase * m[r, c]
        return out

    def map_entries(self, fn) -> "BlockSymbol":
        """New symbol with fn applied to every rational coefficient; it
        keeps the `hermitian` flag, whose check it reruns."""
        coeffs = {}
        for k, m in self.coeffs.items():
            out = np.empty_like(m)
            for idx, v in np.ndenumerate(m):
                out[idx] = fn(v)
            coeffs[k] = out
        return BlockSymbol(self.s1, self.s2, self.levels, coeffs,
                           hermitian=self.hermitian)

    def __eq__(self, other):
        if not isinstance(other, BlockSymbol):
            return NotImplemented
        if (self.s1, self.s2, self.levels) != (other.s1, other.s2, other.levels):
            return False
        keys = set(self.coeffs) | set(other.coeffs)
        return all(np.array_equal(self.coefficient(k), other.coefficient(k))
                   for k in keys)

    def to_json(self) -> dict:
        """Schema {s1, s2, levels, coeffs: [{k, re, im}]}; exact
        numerator/denominator tables ride along, so no rational is lost."""
        entries = []
        for k, m in self.coeffs.items():
            entries.append({
                "k": list(k),
                "re": [[float(v) for v in row] for row in m],
                "im": [[0.0] * self.s2 for _ in range(self.s1)],
                "num": [[v.numerator for v in row] for row in m],
                "den": [[v.denominator for v in row] for row in m],
            })
        return {"s1": self.s1, "s2": self.s2, "levels": self.levels,
                "hermitian": self.hermitian, "coeffs": entries}


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


def _tau_classes(sym: BlockSymbol, n: int) -> dict:
    """The symmetrized flat coefficients {m: S_m, m >= 0} of a Hermitian
    two-level symbol over the flattened n x n cell grid.

    m = k1*n + k2 is the flat offset of the symbol offset k; F_m sums the
    coefficients whose offsets land on m (they collide only for small n),
    S_0 = F_0 and S_m = (F_m + F_-m)/2.
    """
    flat: dict = {}
    for k, C in sym.float_coefficients().items():
        m = k[0] * n + k[1]
        flat[m] = flat.get(m, 0.0) + C
    zero = np.zeros((sym.s1, sym.s2))
    return {m: flat[0] if m == 0
            else 0.5 * (flat.get(m, zero) + flat.get(-m, zero))
            for m in sorted({abs(m) for m in flat})}


def tau_from_symbol(sym: BlockSymbol, n: int) -> sp.csr_matrix:
    """Tau-algebra core sum_m tau_N(m) (x) S_m of a Hermitian two-level
    symbol over the flattened index of the n x n cell grid (N = n^2), with
    S_m the symmetrized flat coefficients of `_tau_classes`.

    tau_N(0) = I, and for m > 0 tau_N(m) is J^m + J^-m minus the
    `corner_stripes` of m, so every entry class (r, c) is `tau_approx` of
    its symmetrized flat band.  For N > 2b (b the largest |m|) each
    tau_N(m) is the sine-algebra member with eigenvalues 2cos(m theta_j),
    theta_j = j pi/(N+1), and the DST-I in the cell index block-diagonalizes
    the core into the `tau_blocks`.  For smaller N the stripes overlap and
    the same sum is returned without that structure.
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


def tau_blocks(sym: BlockSymbol, n: int) -> np.ndarray:
    """The N = n^2 diagonal blocks S_0 + sum_m 2cos(m theta_j) S_m,
    theta_j = j pi/(N+1), j = 1..N, of the `tau_from_symbol` core under the
    orthonormal DST-I in the cell index, as an (N, s1, s2) array.

    They are the blocks only for N > 2b; the core is never built.  The
    integer m*j is reduced modulo 2(N+1) before the cosine, so no angle
    grows with N.
    """
    N = n * n
    j = np.arange(1, N + 1)
    blocks = np.zeros((N, sym.s1, sym.s2))
    for m, S in _tau_classes(sym, n).items():
        weight = (np.ones(N) if m == 0
                  else 2.0 * np.cos((m * j % (2 * N + 2)) * np.pi / (N + 1)))
        blocks += weight[:, None, None] * S
    return blocks


def dst1_matrix(N: int, rows=None) -> np.ndarray:
    """Orthonormal DST-I matrix, S[j,k] ~ sin((j+1)(k+1) pi / (N+1)), or
    its rows `rows` (0-based).  (j+1)(k+1) is reduced modulo 2(N+1) and
    read off one period of sines, so no angle grows with N: the
    orthogonality defect at N = 1024 is 1.8e-15, 4.0e-14 unreduced."""
    j = np.arange(1, N + 1)
    i = j if rows is None else np.asarray(rows) + 1
    period = np.arange(2 * N + 2)
    sines = np.sqrt(2.0 / (N + 1)) * np.sin(period * (np.pi / (N + 1)))
    return sines[np.outer(i, j) % len(period)]


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


# ---------------------------------------------------------------------------
# structural verification helpers

def block_toeplitz_defect(A, sym: BlockSymbol, n) -> int:
    """Number of rows of A differing anywhere from the generated Toeplitz."""
    T = toeplitz_from_symbol(sym, n)
    A = sp.csr_matrix(A)
    if A.shape != T.shape:
        raise ValueError(f"size mismatch: matrix {A.shape} vs Toeplitz {T.shape}")
    return int(np.count_nonzero(abs(A - T).max(axis=1).toarray() > _DEFECT_TOL))


# ---------------------------------------------------------------------------
# crisscross stiffness structure maps
#
# Interior velocity nodes carry integer coordinates (ix, iy) over 4n.  Each
# node belongs to a cell (j, i) and one of eight local slots; the slot grid
# makes the interior stiffness stencil exactly Toeplitz.  The first
# odd-level node column (ix = 1 at levels iy = 3 mod 4) belongs to cell
# i = -1 and falls outside the rigid grid; it is reported unmapped.

# the x residue mod 4 of slot 2t at level t = (iy - 1) mod 4; the other
# node of that level is slot 2t + 1, two lattice steps to the right
_FIRST_SLOT_RESIDUE = np.array([1, 2, 3, 2], dtype=np.int64)


def velocity_slot_assignment(n: int):
    """Cell/slot coordinates for every interior velocity node in lex order.

    Returns (cells_j, cells_i, slots): integer arrays where slots run 0..7
    and cells may be -1 for off-grid nodes at the left edge.
    """
    ix, iy = velocity_lattice(n)
    cells_j, level = np.divmod(iy - 1, 4)
    r0 = _FIRST_SLOT_RESIDUE[level]
    second = (ix % 4 != r0).astype(np.int64)
    cells_i = (ix - r0 - 2 * second) // 4
    return cells_j, cells_i, 2 * level + second


def velocity_extension_map(n: int):
    """Embedding of the grid-mappable interior velocity DOFs into the
    extended 8n^2 block-Toeplitz index space.

    Returns (flat, mappable_mask): the mask flags DOFs with in-range cells
    (the unmapped DOFs are exactly the n leftmost off-grid nodes), and
    flat[i] is the distinct slot index (cell * 8 + slot) of the i-th
    mappable DOF, so T[flat][:, flat] compresses an extended matrix T onto
    them.
    """
    jj, ii, ss = velocity_slot_assignment(n)
    mask = (ii >= 0) & (ii < n) & (jj >= 0) & (jj < n)
    return (jj[mask] * n + ii[mask]) * 8 + ss[mask], mask


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
