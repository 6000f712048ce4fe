"""Block symbols, the DST-I and the crisscross slot maps.

Matrix-valued trigonometric polynomials (block symbols) with exact rational
coefficients, the orthonormal DST-I that diagonalizes the tau algebra, and
the slot-index array that embeds the crisscross stiffness block into its
extended block-Toeplitz form.  The program reads the tau core only as its
DST-I blocks (`precond.tau_block_core`); the Toeplitz matrices, the scalar
tau approximation, the assembled tau core and the structural checkers that
tests compare against are in `tests/oracles.py`.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .mesh import velocity_lattice

__all__ = [
    "BlockSymbol",
    "dst1_matrix",
    "velocity_slot_assignment",
    "velocity_extension_map",
]


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
# the orthonormal DST-I

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
