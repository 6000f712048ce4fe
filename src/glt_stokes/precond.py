"""Saddle-point preconditioner: tau-block velocity approximation plus the
explicit Schur complement.

The velocity block approximation is the tau core of the stiffness symbol,
read over the flattened cell index (N = n^2 cells): the Kronecker sum
sum_m tau_N(m) (x) S_m, where m = k1*n + k2 is the flat offset of the
symbol offset k, S_0 = C_0, S_m = (C_k + C_k^T)/2, and tau_N(m) is the
sine-algebra member with eigenvalues 2cos(m theta_j) (J^m + J^-m minus
its Hankel corner stripes).  That is, every scalar 8x8 entry class is
replaced by the tau approximation of its symmetrized flat band.  For
n >= 3 (N > 2b, b = n + 1 the flat bandwidth) the DST-I in the cell index
block-diagonalizes the sum into N positive definite 8x8 blocks, which
`tau_block_core` computes from the symmetrized coefficients without the
sum; below that the corner stripes overlap, and the builders reject
n <= 2.
The core is compressed to the true DOF set and scaled symmetrically by
the nodal viscosity sampling D^{1/2} (.) D^{1/2}, where the sampling is
the assembled-to-unit diagonal ratio (the per-node average of the
adjacent element viscosities), so positive definiteness follows by
congruence.

The tau core does not commute with the x <-> y mirror, while the
scaled unit-viscosity stiffness does: the 8-DOF cell tiling the symbol is
read over is not mirror-symmetric.  At n = 8, with Pi the mirror of the
saddle DOFs (which commutes with K in all five viscosity groups), the
largest entry of Pi P^{-1} K Pi - P^{-1} K is 0.095-0.23 of the largest of
P^{-1} K for this core, about 1e-1 to 2e-1 for the two-level core
tau_n (x) tau_n (x) M_8, and 2e-16 to 2e-15 with the scaled stiffness as
P_A (both probes, not in the package).  So the singular values of
P^{-1} K (acceptance criterion 8) cannot be split into mirror halves as
the spectra of A and M are.

`TauDSTSolver` applies the inverse of that core without assembling it:
it factors the N DST-I blocks, removes the 5n - 1 zero-filled slots of the
compression by the capacitance identity, whose 5n - 1 square matrix X_ZZ
it forms by cosine transforms of the inverse blocks (the tau algebra is
Toeplitz-plus-Hankel in them), and applies the inverse with two
DST-Is of length n^2 per call, a product with the dense DST-I matrix below
_FFT_MIN_CELLS cells and an FFT from it on.  Its work arrays are laid out
(cell, slot, column), so the DOFs go in and out by row copies and each
block product is one batched matrix product.  A sparse right-hand side,
such as a panel of B^T columns, is transformed forward by the DST-I rows
at the few cells it touches.  `tests/oracles.py` assembles the same core
as a sparse matrix; `SPDSolver` on it is the reference the tests compare
the DST solves against (the largest entry of the difference is 1.3e-14
to 3.3e-14 of the largest of the LU solve at n = 32 and 2.5e-14 to
1.0e-13 at n = 64, in the five viscosity groups).

The pressure block is the explicit Schur complement of the preconditioner,
built in panels of pressure columns and deflated on the constant-pressure
kernel; its Cholesky factor is turned into the dense inverse once, so an
apply is a matrix product rather than two triangular solves.  The same
in-place inverse (`_spd_inverse`) serves the X_ZZ block of `TauDSTSolver`.
The product with one residual is BLAS dsymv on the upper triangle of the
inverse (`_symmetric_product`), half the bytes of a full product; a block
of residuals keeps the full matrix product.  dsymv is called through
ctypes on scipy's Cython BLAS table, which releases the GIL
(`scipy.linalg.blas.dsymv` holds it); `cython_routine` loads it, and the
LAPACK eigensolvers of `spectra`, from the same tables.

Every thread decision of the package follows one rule, `workers()`.
Importing the package sets numpy's and scipy's bundled OpenBLAS copies to
one thread each (`_pin_blas`), so a process computes under the same BLAS
setting whatever its environment holds, and `workers()` is the CPUs in the
process's affinity mask, and 1 off the main thread.  A BLAS copy that
exports no thread setter is left as it is, and `workers()` then reads 1.
Work that fans out (the Schur panels, the mirror halves and the
strip-pencil classes of `spectra`, the cells of the `table` command) goes
through `fan_out`, which runs inline when `workers()` is 1 or it has fewer
than two tasks, and otherwise on the process's one thread pool, made on
first use with `workers()` threads.  Only the main thread ever submits to
that pool, and code on a pool thread sees one worker and runs its own
fan-outs inline, so fan-outs never nest on the shared pool and cannot
deadlock waiting for one another.

The panels are independent, and their solves and products release the GIL
(`TauDSTSolver`'s array products, `SPDSolver`'s SuperLU solves and scipy's
sparse products: the README times them on two threads).  Every task takes
PANEL columns (the last one the rest), whatever `workers()` reads: the GEMMs
of `TauDSTSolver` round with the block width, and at a fixed width each
panel goes through the same operations on any thread, so the Schur
complement comes out bitwise the same on any worker count.  It is then
symmetrized, deflated, factored and inverted in its one npres^2 array.
On 2 CPUs the G2 n = 32 `build_saddle_preconditioner` takes 1.01-1.37 s
(medians of 3 builds in 6 processes with no BLAS variable), against
1.66-2.24 s under two OpenBLAS threads and one worker, as such a process
ran before the pin.

An apply has two independent halves: the two-column velocity solve and
the product of the projected pressure residual with the Schur inverse.
Both release the GIL, so on more than one CPU the pressure half runs on
the pool while the calling thread does the velocity solve.  Each half
does the same operations on the same arrays as in the serial order, so
the result is bitwise the same.  The overlap needs `workers()` > 1 (so
never on one CPU and never off the main thread) and at least
OVERLAP_PRESSURE pressure unknowns, below which a round trip to the pool
costs more than it saves.  A sweep of G2 and G3(100) applies at
n = 16 to 32 with single-threaded BLAS on 2 CPUs places that threshold:
overlapping lost at n <= 16, lost more often than it won at n = 20, went
either way at n = 22 and 24 (npres 1013 and 1201) and won from n = 26
(npres 1405) on, reaching 1.8-2.6 -> 1.1-1.8 ms per apply at n = 32
(apply_workers 1 against 2).  The one-column product alone takes
0.85-0.99 ms at n = 32 against 1.57-1.76 ms for the full `matmul`.  The
apply submits to the pool directly: through `fan_out` it was 0.13-0.46 ms
(6-25 %) slower, bitwise equal (G2, n = 32, OPENBLAS_NUM_THREADS=1, full
product, medians of 300 applies in 3 alternating process pairs: 2.30-2.51
against 1.84-2.38 ms).

Every assembled sparse SPD block is factored one way, by `SPDSolver`:
sparse LU under the symmetric minimum-degree ordering of A + A^T with
diagonal pivots only.  Without row interchanges that LU is an LDL^T
factorization, so by Sylvester's law of inertia the matrix is positive
definite exactly when every pivot is positive; the pivots are checked
instead of a separate eigenvalue estimate.  `TauDSTSolver` certifies its
core the same way through the Cholesky factors of its blocks.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import cython_blas, cython_lapack

from .assembly import SaddleSystem, ViscosityField, stiffness_diagonal
from .glt_core import BlockSymbol, dst1_matrix, velocity_extension_map
from .mesh import StructuredMesh
from .symbols import default_symbol_set

__all__ = [
    "SaddlePreconditioner",
    "SPDSolver",
    "TauDSTSolver",
    "build_velocity_preconditioner",
    "build_schur",
    "schur_panels",
    "workers",
    "fan_out",
    "blas_threads",
    "usable_cpus",
    "symmetrize",
    "build_saddle_preconditioner",
    "tau_block_core",
    "viscosity_scaling",
    "cython_routine",
]

# Columns per task: `schur_panels` hands this many sparse columns of B_x^T
# and of B_y^T at a time to the velocity solves, on any worker count.  Both
# solvers slow down per column as the block widens.  The panel phase of G2 at
# n = 32, widths 8, 16 and 32, medians of 3 builds in each of 3 processes on
# 2 CPUs: 1.29-1.34, 1.21-1.28 and 2.07-2.22 s under two OpenBLAS threads and
# one worker; 0.75-0.99, 0.69-0.81 and 0.87-1.10 s with single-threaded BLAS
# and 2 workers.
PANEL = 16

# Square tiles of the in-place passes over a dense npres x npres array.
TILE = 256

# Smallest pressure count at which an apply overlaps its two halves (see
# `SaddlePreconditioner.apply`).  Serial against overlapped one-column
# applies (apply_workers 1 and 2 on one built preconditioner, the pressure
# half by `_symmetric_product`), G2 and G3(100), single-threaded BLAS on 2
# CPUs, medians of 400 applies per process: npres 545 (n = 16) 0.33-0.57
# against 0.40-0.63 ms, serial in every reading; 841 (n = 20) 0.73-1.12
# against 0.78-1.31 ms, overlapped in 3 of 10 readings; 1013 and 1201
# (n = 22, 24) 0.99-1.84 against 1.07-1.99 ms, overlapped in 4 of 6 and 5
# of 10; 1405, 1625 and 2113 (n = 26, 28, 32) 1.78-2.73 against 1.11-2.33
# ms, overlapped in every reading (6, 6 and 8).  Below npres 1000 the
# serial order wins on average, above it the overlap; one round trip to
# the pool costs about 0.05 ms, so small systems stay serial.
OVERLAP_PRESSURE = 1000

# Smallest cell count N = n^2 at which `TauDSTSolver` runs its DST-Is as
# FFTs (scipy.fft, imported then) instead of as products with the dense
# DST-I matrix, which holds N^2 doubles (4.2 MB at N = 676).  The FFT's cost
# follows the factors of N + 1.  Whole solves of k = 1, 2 and 16 dense
# columns, dense against FFT, G2, single-threaded BLAS, medians of 3 x 30:
# n = 16 (N + 1 = 257, prime) 0.21/0.44/1.36 against 0.69/1.26/5.70 ms;
# n = 26 (677, prime) 1.39/2.00/7.29 against 1.25/2.44/14.8 ms; n = 27
# (2 * 5 * 73) 1.55/2.17/8.23 against 0.72/1.50/4.56 ms; n = 32 (5^2 * 41)
# 2.86/4.00/14.2 against 0.96/1.25/7.50 ms.
_FFT_MIN_CELLS = 729

# Stencil diagonal of the off-grid velocity DOFs in the tau core.
OFF_GRID_DIAGONAL = 16.0 / 3.0

# The slots of `TauDSTSolver`'s zero-filled slots Z at the top row of cells
# and at their right column; slots 0, 1, 2 and 4 are filled at every cell.
_TOP_SLOTS, _RIGHT_SLOTS = slice(6, 8), slice(3, 8, 2)


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


def tau_block_core(n: int) -> np.ndarray:
    """The tau core of the stiffness symbol as its N = n^2 diagonal 8x8
    blocks S_0 + sum_m 2cos(m theta_j) S_m, theta_j = j pi/(N+1),
    j = 1..N, under the orthonormal DST-I in the cell index, as an
    (N, 8, 8) array; S_m are the symmetrized flat coefficients of
    `_tau_classes`.

    They are the blocks only for N > 2b (b = n + 1 the flat bandwidth, so
    n >= 3); the core sum_m tau_N(m) (x) S_m is never built.  The integer
    m*j is reduced modulo 2(N+1) before the cosine, so no angle grows
    with N.
    """
    N = n * n
    sym = default_symbol_set().stiffness
    j = np.arange(1, N + 1)
    blocks = np.zeros((N, sym.s1, sym.s2))
    for m, S in _tau_classes(sym, n).items():
        weight = (np.ones(N) if m == 0
                  else 2.0 * np.cos((m * j % (2 * N + 2)) * np.pi / (N + 1)))
        blocks += weight[:, None, None] * S
    return blocks


class SPDSolver:
    """SPD sparse matrix with a factorized apply-inverse.

    The factorization is LDL^T in the form of a symmetric-mode sparse LU;
    the matrix is rejected unless the LU needed no row interchange and
    every pivot is positive.  `min_pivot` is the smallest pivot, `size` the
    order of the matrix.
    """

    def __init__(self, matrix: sp.spmatrix):
        self.matrix = matrix.tocsc()
        self.size = self.matrix.shape[0]
        try:
            self._lu = spla.splu(self.matrix, permc_spec="MMD_AT_PLUS_A",
                                 diag_pivot_thresh=0.0,
                                 options={"SymmetricMode": True})
        except RuntimeError as exc:
            raise ValueError(f"not positive definite: {exc}") from exc
        if not np.array_equal(self._lu.perm_r, self._lu.perm_c):
            raise ValueError("not positive definite: a zero diagonal pivot "
                             "forced a row interchange")
        self.min_pivot = float(self._lu.U.diagonal().min())
        if self.min_pivot <= 0:
            raise ValueError(
                f"not positive definite: pivot {self.min_pivot:.3e}")

    def solve(self, rhs) -> np.ndarray:
        """P^{-1} rhs for a vector or a column block; a sparse block is
        densified first."""
        rhs = rhs.toarray() if sp.issparse(rhs) else np.asarray(rhs, dtype=float)
        return self._lu.solve(rhs)


class TauDSTSolver:
    """Inverse of the scaled tau core D^{1/2} (T_SS (+) (16/3) I_off) D^{1/2}
    (assembled only as the tests' reference, in `tests/oracles.py`),
    applied through the DST-I blocks of T without assembling it.

    T = Q Lambda Q is the extended tau core on the 8N slots (N = n^2 cells),
    Q = DST-I (x) I_8 and Lambda = diag(B_j) its `tau_block_core`; S the DOF
    slots and Z the 5n - 1 zero-filled ones: slots 3, 5 and 7 at the right
    column of cells {(p+1)n - 1}, slots 6 and 7 at the top row
    {N - n, ..., N - 1}, the two sets sharing cell N - 1 (checked at every
    build).  With X = T^{-1} the capacitance identity (Buzbee, Dorr, George
    & Golub 1971) gives T_SS^{-1} = X_SS - X_SZ X_ZZ^{-1} X_ZS.  G, the rows
    of Q at the Z slots, reads X_ZS r = G Lambda^{-1} Q r and
    X_SZ c = (Q Lambda^{-1} G^T c)_S.  Its 2n - 1 distinct DST-I rows are
    held once, and G w and G^T c are one product per row group: the right
    column on slots 3, 5 and 7, the top row on slots 6 and 7.  X_ZZ needs no
    G: every tau-algebra matrix is Toeplitz-plus-Hankel in the cosine
    coefficients of its eigenvalues (Bini & Capovani 1983), so X_ZZ is read
    off one DCT-I per pair of live slots (`_cosine_gram`), then
    Cholesky-factored and inverted.  An apply is then two DSTs and two
    batched 8x8 block products:

        w = Lambda^{-1} Q r,  c = X_ZZ^{-1} G w,
        x_S = (Q (w - Lambda^{-1} G^T c))_S.

    The off-grid DOFs and the scaling D are diagonal.  Work arrays are laid
    out (cell, slot, column): the flat slot index cell*8 + slot is the row
    of their (8N, k) view, so DOFs move by row copies, the DSTs run over
    the first axis and a block product is one (N, 8, 8) @ (N, 8, k) matmul.
    A DST of dense columns is one product with the dense DST-I matrix below
    _FFT_MIN_CELLS cells, an FFT from it on.  A sparse k-column right-hand
    side (a B^T panel of `schur_panels`) is transformed forward by the DST-I
    rows at the cells it touches, at most 8k cells at a time so no row block
    outgrows the work array, instead of by a DST over mostly zero slots.

    Needs n >= 3: below it N <= 2b (b = n + 1 the flat bandwidth), the corner
    stripes overlap and T is not a sine-algebra member.  Every block must be
    positive definite; `min_pivot` is the smallest squared diagonal entry of
    the block Cholesky factors, `size` the DOF count; `phase_seconds` is
    filled by `build_velocity_preconditioner`.
    """

    def __init__(self, n: int, blocks: np.ndarray, scaling: np.ndarray):
        if n < 3:
            raise ValueError(f"the DST-I tau solver needs n >= 3, got n = {n}")
        N = n * n
        if blocks.shape != (N, 8, 8):
            raise ValueError(f"expected {N} blocks of 8x8 at n = {n}, "
                             f"got shape {blocks.shape}")
        # the orthonormal DST-I along the cell axis
        if N < _FFT_MIN_CELLS:
            Q = dst1_matrix(N)
            self._dst = lambda X: (Q @ X.reshape(N, -1)).reshape(X.shape)
        else:
            # imported here, not with the module: it adds about 5 MB to the
            # peak memory of a process
            import scipy.fft

            self._dst = functools.partial(scipy.fft.dst, type=1, norm="ortho",
                                          axis=0, overwrite_x=True)
        flat, mask = velocity_extension_map(n)
        self.size = len(mask)
        self.phase_seconds: dict = {}
        self._off = np.flatnonzero(~mask)
        # the DOF row of each slot, or `size`: a zero row appended to the
        # right-hand side; and the slot row of each DOF, 0 for the off-grid
        # ones, whose rows are overwritten
        self._slot_rows = np.full(8 * N, self.size)
        self._slot_rows[flat] = np.flatnonzero(mask)
        self._dof_rows = np.zeros(self.size, dtype=np.int64)
        self._dof_rows[mask] = flat
        scaling = np.asarray(scaling, dtype=float)
        if scaling.shape != (self.size,):
            raise ValueError(f"expected {self.size} scaling entries at n = {n}, "
                             f"got shape {scaling.shape}")
        bad = np.flatnonzero(~(np.isfinite(scaling) & (scaling > 0)))
        if len(bad):
            raise ValueError(f"scaling entry {bad[0]} is {scaling[bad[0]]}: "
                             "every entry must be positive and finite")
        self._inv_sqrt_d = 1.0 / np.sqrt(scaling)
        try:
            L = np.linalg.cholesky(blocks)
        except np.linalg.LinAlgError as exc:
            raise ValueError(
                f"not positive definite: a DST-I block ({exc})") from exc
        self.min_pivot = float((np.diagonal(L, axis1=1, axis2=2) ** 2).min())
        L_inv = np.linalg.inv(L)
        # Lambda^{-1} as an (N, 8, 8) array: cell, slot, slot
        self._lam_inv = lam_inv = np.swapaxes(L_inv, 1, 2) @ L_inv

        # Z: slots 3, 5 and 7 at the right column of cells, 6 and 7 at the
        # top row; the two share cell N - 1
        right, top = np.arange(n - 1, N, n), np.arange(N - n, N)
        zero = np.ones((N, 8), dtype=bool)
        zero.reshape(-1)[flat] = False
        expected = np.zeros((N, 8), dtype=bool)
        expected[right, _RIGHT_SLOTS] = expected[top, _TOP_SLOTS] = True
        if not np.array_equal(zero, expected):
            raise RuntimeError(f"zero-filled slots off the right column and "
                               f"top row at n = {n}")
        # their 2n - 1 DST-I rows, held once: the right column up to N - 1,
        # then the top row down from it; each group is a view
        rows = dst1_matrix(N, np.concatenate([right, top[-2::-1]]))
        self._right, self._top = rows[:n], rows[n - 1:]
        # per group: its rows, its slots, its entries of c in Z order and
        # the slots of the work array that take its G^T c
        self._groups = ((self._top, _TOP_SLOTS, slice(0, 2 * n), slice(0, 2)),
                        (self._right, _RIGHT_SLOTS, slice(2 * n, 5 * n),
                         slice(2, 5)))
        # Z in the order the groups read it: (cell, slot) pairs of the top
        # row, then of the right column without its (N - 1, 7), the top's
        z_cells = np.concatenate([np.repeat(top[::-1], 2),
                                  np.repeat(right, 3)])[:-1]
        group_slots = np.r_[_TOP_SLOTS, _RIGHT_SLOTS]
        z_slots = np.concatenate([np.tile(group_slots[:2], n),
                                  np.tile(group_slots[2:], n)])[:-1]
        # Lambda^{-1} G^T c reads only Z's slot columns of Lambda^{-1}
        self._lam_inv_z = np.ascontiguousarray(lam_inv[:, :, group_slots])
        # kept inverted: one product per apply in place of two triangular
        # solves, which took 2-7 ms against 0.3 ms of a 16-column apply at
        # n = 32 under two OpenBLAS threads
        self._X_ZZ_inv = _spd_inverse(_cosine_gram(lam_inv, z_cells, z_slots),
                                      "X_ZZ")

    def solve(self, rhs) -> np.ndarray:
        """P^{-1} rhs for a vector or a column block, dense or sparse; the
        result is dense."""
        sparse = sp.issparse(rhs)
        R = rhs.toarray() if sparse else np.asarray(rhs, dtype=float)
        R = R.reshape(len(R), -1)
        N, k = len(self._lam_inv), R.shape[1]
        padded = np.zeros((len(R) + 1, k))
        R = np.multiply(R, self._inv_sqrt_d[:, None], out=padded[:-1])
        X = padded.take(self._slot_rows, axis=0).reshape(N, 8, k)
        if sparse:
            cells = np.flatnonzero(X.any(axis=(1, 2)))
            W = np.zeros((N, 8 * k))
            for start in range(0, len(cells), 8 * k):
                part = cells[start:start + 8 * k]
                W += dst1_matrix(N, part).T @ X[part].reshape(len(part), -1)
            W = W.reshape(N, 8, k)
        else:
            W = self._dst(X)
        W = self._lam_inv @ W
        # G w and G^T c, one product per row group (see `_groups`); the
        # right column's last entry repeats the top's (N - 1, 7) and is left
        # out of c.  X is free after the forward DST: its first five slots
        # take G^T c
        n = len(self._top)
        Gw = np.empty((5 * n, k))
        for rows, slots, z, x in self._groups:
            np.matmul(rows, W[:, slots].reshape(N, -1), out=Gw[z].reshape(n, -1))
        c = np.zeros((5 * n, k))
        np.matmul(self._X_ZZ_inv, Gw[:-1], out=c[:-1])
        for rows, slots, z, x in self._groups:
            np.matmul(rows.T, c[z].reshape(n, -1), out=X[:, x].reshape(N, -1))
        W -= self._lam_inv_z @ X[:, :5]
        W = self._dst(W)
        out = W.reshape(8 * N, k).take(self._dof_rows, axis=0)
        out[self._off] = R[self._off] / OFF_GRID_DIAGONAL
        out *= self._inv_sqrt_d[:, None]
        return out.reshape(np.shape(rhs))


def _cosine_gram(lam_inv: np.ndarray, cells: np.ndarray,
                 slots: np.ndarray) -> np.ndarray:
    """The entries of X = Q Lambda^{-1} Q (Q the orthonormal DST-I in the
    cell index, `lam_inv` the (N, 8, 8) blocks of Lambda^{-1}) at the slots
    (cells[i], slots[i]), by cosine transforms instead of DST-I rows.

    sin(a t) sin(b t) = (cos((a - b) t) - cos((a + b) t)) / 2 makes X
    Toeplitz-plus-Hankel in the cell index:
    X[(c, s), (c', t)] = a_st(|c - c'|) - a_st(c + c' + 2), with
    a_st(m) = sum_j (Lambda^{-1})_j[s, t] cos(pi m j / (N + 1)) / (N + 1),
    j = 1..N.  a_st is a DCT-I, computed for the distinct slots at once by
    `numpy.fft.hfft` of length 2(N + 1), which also reflects m > N + 1.
    """
    N = len(lam_inv)
    live, pos = np.unique(slots, return_inverse=True)
    x = np.zeros((N + 2, len(live), len(live)))
    x[1:-1] = lam_inv[:, live[:, None], live]
    a = np.fft.hfft(x, 2 * N + 2, axis=0) / (2 * N + 2)
    s, t = pos[:, None], pos[None, :]
    c, d = cells[:, None], cells[None, :]
    return a[np.abs(c - d), s, t] - a[c + d + 2, s, t]


def viscosity_scaling(mesh: StructuredMesh, mu: ViscosityField,
                      stiffness: sp.spmatrix | None = None) -> np.ndarray:
    """Nodal viscosity samples d with d_i = (A(mu))_ii / (A(1))_ii, the
    average of the viscosity over the elements meeting node i, for every
    field; at unit viscosity the two diagonals are the same numbers and d
    is exactly one.

    Both diagonals come from `stiffness_diagonal`, without assembling a
    matrix, except that (A(mu))_ii is read off `stiffness` when it is given.
    """
    a_mu = (stiffness.diagonal() if stiffness is not None
            else stiffness_diagonal(mesh, mu))
    return a_mu / stiffness_diagonal(mesh, ViscosityField.constant())


def build_velocity_preconditioner(mesh: StructuredMesh, mu: ViscosityField,
                                  *, stiffness: sp.spmatrix | None = None,
                                  ) -> TauDSTSolver:
    """SPD approximation of the viscosity-weighted stiffness block, built
    and factored: the compressed tau-block core under the symmetric nodal
    viscosity scaling D^{1/2} core D^{1/2}, applied by `TauDSTSolver` from
    its DST-I blocks (n >= 3).  `stiffness`, the assembled A(mu) when the
    caller has it, supplies the scaling's diagonal.

    The solver's `phase_seconds` times the two phases of the build:
    "velocity_core" (the scaling, from the stiffness diagonals, and the DST
    blocks of `tau_block_core`) and "velocity_factor" (the block factors,
    the 2n - 1 DST-I rows of G and X_ZZ^{-1} by cosine transforms).
    """
    t0 = time.perf_counter()
    d = viscosity_scaling(mesh, mu, stiffness)
    blocks = tau_block_core(mesh.n)
    t1 = time.perf_counter()
    solver = TauDSTSolver(mesh.n, blocks, d)
    solver.phase_seconds = {"velocity_core": t1 - t0,
                            "velocity_factor": time.perf_counter() - t1}
    return solver


def _pin_blas() -> tuple:
    """Set numpy's and scipy's bundled OpenBLAS copies to one thread each,
    through the setter that each exports, looked up by name in an extension
    module that links it: numpy's ILP64 copy (names ending in 64_) in
    `numpy.linalg._umath_linalg`, scipy's in its Cython BLAS table.  Returns
    each copy's thread-count getter, None for a copy that exports no setter
    and is left as it is."""
    getters = []
    for module, suffix in ((np.linalg._umath_linalg, "64_"), (cython_blas, "")):
        lib = ctypes.CDLL(module.__file__)
        setter = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
        if setter is None:
            getters.append(None)
        else:
            setter(1)
            getters.append(getattr(lib, f"scipy_openblas_get_num_threads{suffix}"))
    return tuple(getters)


_BLAS_GETTERS = _pin_blas()  # once, when the package is imported


def blas_threads() -> int | None:
    """The thread count of scipy's OpenBLAS copy (1, as pinned at import),
    or None where that copy exports no setter and is left unpinned."""
    getter = _BLAS_GETTERS[1]
    return None if getter is None else getter()


def usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def workers() -> int:
    """Threads for every fan-out: the CPUs this process may use, since BLAS
    runs one thread; 1 off the main thread, and 1 where a BLAS copy exports
    no setter and keeps its own threads."""
    if (threading.current_thread() is not threading.main_thread()
            or None in _BLAS_GETTERS):
        return 1
    return usable_cpus()


@functools.cache
def _pool() -> ThreadPoolExecutor:
    """The process's one thread pool, made on first use with `workers()`
    threads as read then; a later change of the CPU affinity changes
    `workers()` but not the pool.  Only the main thread submits to it, so
    the first use needs no lock."""
    return ThreadPoolExecutor(max_workers=workers(),
                              thread_name_prefix="glt-stokes")


def fan_out(fn: Callable, items) -> list:
    """[fn(item) for item in items], on the pool when `workers()` > 1 and
    there are at least two items, else inline on the calling thread.

    On the pool, the first exception in item order is raised here once
    the running calls are done, and the queued calls are cancelled.
    `items` is iterated on the calling thread: inline, each item is drawn
    just before its call, so a generator of large items need not hold
    them all at once; for the pool, all are drawn before the first call.
    """
    if workers() == 1 or len(items := list(items)) < 2:
        return [fn(item) for item in items]
    futures = [_pool().submit(fn, item) for item in items]
    try:
        return [future.result() for future in futures]
    finally:
        for future in futures:
            future.cancel()
        wait(futures)


def schur_panels(div_x: sp.spmatrix, div_y: sp.spmatrix,
                 pa_solve_x: Callable, pa_solve_y: Callable) -> np.ndarray:
    """Dense B_x P_x^{-1} B_x^T + B_y P_y^{-1} B_y^T, one panel of pressure
    columns at a time: S[:, panel] = B_x P_x^{-1} (B_x^T panel)
    + B_y P_y^{-1} (B_y^T panel).

    The two solves may be one (P_x = P_y = P_A) or act on different
    velocity spaces; each takes its panel of B^T columns sparse, and
    `SPDSolver` densifies it while `TauDSTSolver` transforms it by the
    DST-I rows at its cells.  B^T is never densified whole.  The panels,
    PANEL columns each, go through `fan_out`; each writes its own columns
    of S, which are bitwise the same on any worker count.
    """
    npres = div_x.shape[0]
    bx_t, by_t = div_x.T.tocsc(), div_y.T.tocsc()
    S = np.empty((npres, npres))

    def fill(start: int):
        panel = slice(start, start + PANEL)
        S[:, panel] = (div_x @ pa_solve_x(bx_t[:, panel])
                       + div_y @ pa_solve_y(by_t[:, panel]))

    fan_out(fill, range(0, npres, PANEL))
    return S


def _tile_pairs(size: int):
    """(rows, cols) slices of the tiles on and above the diagonal."""
    for i in range(0, size, TILE):
        for j in range(i, size, TILE):
            yield slice(i, i + TILE), slice(j, j + TILE)


def symmetrize(S: np.ndarray) -> float:
    """Replace the square S by (S + S^T)/2 in place, tile by tile; return
    the relative symmetry defect max|S - S^T| / max|S| of the input."""
    scale = max(S.max(), -S.min(), 1e-300)
    defect = 0.0
    for rows, cols in _tile_pairs(len(S)):
        upper, lower_t = S[rows, cols], S[cols, rows].T
        defect = max(defect, np.abs(upper - lower_t).max())
        sym = 0.5 * (upper + lower_t)
        S[rows, cols] = sym
        S[cols, rows] = sym.T
    return float(defect / scale)


def _spd_inverse(S: np.ndarray, label: str) -> np.ndarray:
    """Inverse, C-contiguous and in S's memory, of the symmetric positive
    definite matrix held in the upper triangle of the C-contiguous S.

    LAPACK factors and inverts S's transpose, its Fortran view, and leaves
    the inverse in the same triangle, which is mirrored tile by tile.  A
    failed factorization or inversion raises ValueError naming `label`.
    """
    try:
        cho, lower = sla.cho_factor(S.T, lower=True, overwrite_a=True)
    except sla.LinAlgError as exc:
        raise ValueError(f"{label} is not positive definite ({exc})") from exc
    inv, info = sla.lapack.dpotri(cho, lower=lower, overwrite_c=True)
    if info != 0:
        raise ValueError(f"{label} could not be inverted: info {info}")
    inv = inv.T
    for rows, cols in _tile_pairs(len(inv)):
        if rows == cols:
            tile = inv[rows, cols]
            low = np.tril_indices(len(tile), -1)
            tile[low] = tile.T[low]
        else:
            inv[cols, rows] = inv[rows, cols].T
    return inv


@functools.cache
def cython_routine(name: str, nargs: int):
    """BLAS or LAPACK routine `name` from scipy's Cython tables
    (`scipy.linalg.cython_blas`, else `scipy.linalg.cython_lapack`), as a
    ctypes function taking its `nargs` arguments as pointers.

    A ctypes CFUNCTYPE call releases the GIL while the routine runs.  The
    routine's signature must take `nargs` arguments, else RuntimeError is
    raised here, when it is loaded, rather than a call passing the wrong
    count.
    """
    table = cython_blas if name in cython_blas.__pyx_capi__ else cython_lapack
    capsule = table.__pyx_capi__[name]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(
        ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    signature = get_name(capsule)           # "void (char *, int *, ...)"
    count = signature.count(b",") + 1
    if count != nargs:
        raise RuntimeError(f"scipy's {name} takes {count} arguments, not "
                           f"{nargs}: {signature.decode()}")
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * nargs)(
        get_pointer(capsule, signature))


# the scalar arguments of `_symmetric_product`'s dsymv call
_ONE, _ZERO, _UNIT = ctypes.c_double(1.0), ctypes.c_double(0.0), ctypes.c_int(1)


def _symmetric_product(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x for the symmetric matrix held in the upper triangle of a, read
    from that triangle only, by BLAS dsymv: half the bytes of a full
    product.

    a must be a square C-contiguous float64 array and x a contiguous float64
    vector of its length; anything else raises ValueError and is never
    copied.  a's memory read in Fortran order is a^T, whose lower triangle
    is a's upper one.  The call releases the GIL.
    """
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64
            and a.ndim == 2 and a.shape[0] == a.shape[1]
            and a.flags.c_contiguous):
        raise ValueError("the symmetric product needs a square C-contiguous "
                         f"float64 matrix, got "
                         f"{getattr(a, 'shape', type(a).__name__)}")
    if not (isinstance(x, np.ndarray) and x.dtype == np.float64
            and x.shape == (len(a),) and x.flags.c_contiguous):
        raise ValueError(f"the symmetric product needs a contiguous float64 "
                         f"vector of length {len(a)}, got "
                         f"{getattr(x, 'shape', type(x).__name__)}")
    # zeroed, so that a BLAS that scales y by beta = 0 instead of
    # overwriting it cannot carry a NaN of fresh memory into the result
    y = np.zeros(len(a))
    n, lead = ctypes.c_int(len(a)), ctypes.c_int(max(1, len(a)))
    # bare addresses, half the call overhead of passing `.ctypes` itself;
    # the arrays outlive the call
    cython_routine("dsymv", 10)(
        b"L", ctypes.byref(n), ctypes.byref(_ONE), a.ctypes.data,
        ctypes.byref(lead), x.ctypes.data, ctypes.byref(_UNIT),
        ctypes.byref(_ZERO), y.ctypes.data, ctypes.byref(_UNIT))
    return y


def build_schur(div_x: sp.spmatrix, div_y: sp.spmatrix, pa_solve: Callable):
    """Inverse of the deflated explicit Schur complement
    B P_A^{-1} B^T + 1/npres, built from `schur_panels` in its one
    npres x npres array.

    Returns (inverse, relative_symmetry_defect, seconds); the deflation is
    the rank-one shift by the normalized constant-pressure projector, so
    the inverse acts as the pseudo-inverse of B P_A^{-1} B^T on the
    complement of the kernel.  After `symmetrize` and the shift, the array
    is inverted in place by `_spd_inverse` and returned C-contiguous.
    `seconds` splits the build into its "schur_panels" and "inverse"
    phases.
    """
    t0 = time.perf_counter()
    S = schur_panels(div_x, div_y, pa_solve, pa_solve)
    t1 = time.perf_counter()
    sym_defect = symmetrize(S)
    S += 1.0 / len(S)
    inv = _spd_inverse(S, "the deflated Schur complement")
    return inv, sym_defect, {"schur_panels": t1 - t0,
                             "inverse": time.perf_counter() - t1}


@dataclass
class SaddlePreconditioner:
    """Block-diagonal preconditioner diag(P_A, P_A, -Schur) with apply.

    Only the inverse of the deflated Schur complement is kept.
    `schur_workers` is the thread count its panels were built with, and
    `phase_seconds` times the build: "velocity_core" and "velocity_factor"
    (see `build_velocity_preconditioner`), "schur_panels" and "inverse".
    """

    velocity_solver: TauDSTSolver
    schur_inverse: np.ndarray = field(repr=False)
    schur_symmetry_defect: float = 0.0
    schur_workers: int = 1
    phase_seconds: dict = field(default_factory=dict)

    @property
    def velocity_count(self) -> int:
        return self.velocity_solver.size

    @property
    def apply_workers(self) -> int:
        """2 when an apply from this thread overlaps its two halves
        (`workers()` > 1, so on the main thread, and npres at least
        OVERLAP_PRESSURE), else 1."""
        return 2 if (workers() > 1 and len(self.schur_inverse)
                     >= OVERLAP_PRESSURE) else 1

    def apply(self, r: np.ndarray) -> np.ndarray:
        """Blockwise inverse of a (dim,) residual or a (dim, k) block of
        them; both velocity components go through one solve, and the
        pressure part is projected off the constant direction and
        multiplied by the deflated inverse, so it annihilates that
        direction.  One residual (k = 1) is multiplied by
        `_symmetric_product`, which reads the upper triangle only; a block
        by the full matrix product, so a column of a block apply equals the
        apply of that column to rounding.

        With `apply_workers` == 2, the pressure half runs on the module's
        pool while this thread does the velocity solve; each half writes
        its own rows of the result, which is bitwise that of the serial
        order.  An exception in either half reaches the caller once both
        are done.  Below OVERLAP_PRESSURE (set from the sweep in the module
        docstring), with one worker and off the main thread the halves run
        in turn.
        """
        nvel = self.velocity_count
        npres = len(self.schur_inverse)
        if len(r) != 2 * nvel + npres:
            raise ValueError(
                f"residual length {len(r)} != saddle dimension {2 * nvel + npres}")
        R = np.asarray(r, dtype=float).reshape(len(r), -1)
        k = R.shape[1]
        out = np.empty_like(R)

        def velocity_half():
            X = self.velocity_solver.solve(
                np.hstack([R[:nvel], R[nvel:2 * nvel]]))
            out[:nvel], out[nvel:2 * nvel] = X[:, :k], X[:, k:]

        def pressure_half():
            rp = R[2 * nvel:]
            rp = rp - rp.sum(axis=0) / npres
            if k == 1:
                out[2 * nvel:, 0] = _symmetric_product(self.schur_inverse,
                                                       rp[:, 0])
            else:
                out[2 * nvel:] = self.schur_inverse @ rp

        if self.apply_workers > 1:
            pressure = _pool().submit(pressure_half)
            try:
                velocity_half()
            finally:
                pressure.result()
        else:
            velocity_half()
            pressure_half()
        return out.reshape(np.shape(r))


def build_saddle_preconditioner(mesh: StructuredMesh, mu: ViscosityField,
                                system: SaddleSystem) -> SaddlePreconditioner:
    """Assemble, factor and wire up the full saddle preconditioner."""
    vel = build_velocity_preconditioner(mesh, mu, stiffness=system.stiffness)
    inverse, sym_defect, seconds = build_schur(
        system.div_x, system.div_y, vel.solve)
    return SaddlePreconditioner(
        velocity_solver=vel, schur_inverse=inverse,
        schur_symmetry_defect=sym_defect, schur_workers=workers(),
        phase_seconds={**vel.phase_seconds, **seconds})
