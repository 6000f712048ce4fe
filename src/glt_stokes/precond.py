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
block-diagonalizes the sum into N positive definite 8x8 blocks.  For
n <= 2 the corner stripes overlap and that statement does not apply; the
same sum is used there and is still positive definite (smallest
eigenvalue 1.56 at n = 1, 0.87 at n = 2).  The core is
compressed to the true DOF set and scaled symmetrically by the nodal
viscosity sampling D^{1/2} (.) D^{1/2}, where the sampling is the
assembled-to-unit diagonal ratio (the per-node average of the adjacent
element viscosities), so positive definiteness follows by congruence.  The
pressure block is the explicit Schur complement of the preconditioner,
built in panels of pressure columns and deflated on the constant-pressure
kernel; its Cholesky factor is turned into the dense inverse once, so an
apply is a matrix product rather than two triangular solves.

The panels are independent, and the sparse solves and products they make
release the GIL, so on the main thread they run on a pool of
`panel_workers()` threads: the CPUs this process may use divided by the
BLAS threads the environment asks for (OPENBLAS_NUM_THREADS, else
OMP_NUM_THREADS, else all CPUs, OpenBLAS's own default).  With the default
threaded BLAS that is one worker and the loop runs inline; off the main
thread (the `table` command's cell pool) it is always one, so pools never
nest.  A task takes PANEL // workers columns, so as many columns are in
flight as in the serial loop; with OpenBLAS the result is bitwise that of
the serial loop (checked at n = 4 to 32).  The Schur complement is then
symmetrized, deflated, factored and inverted in its one npres^2 array.

An apply has two independent halves: the two-column velocity solve and
the product of the projected pressure residual with the Schur inverse.
Both release the GIL, so when BLAS leaves a CPU idle the pressure half
runs on one helper thread, made once per process on first use, while the
calling thread does the velocity solve.  Each half does the same
operations on the same arrays as in the serial order, so the result is
bitwise the same.  The overlap needs `panel_workers()` > 1 (so never with
the default threaded BLAS, and never off the main thread) and at least
OVERLAP_PRESSURE pressure unknowns, below which a round trip to the
helper costs more than it saves.  A sweep of G2 applies at n = 16 to 32
with single-threaded BLAS on 2 CPUs set that threshold: overlapping lost
up to n = 18 (npres 685), was mixed at n = 20 and won from n = 22 (npres
1013) on, reaching 4.2 -> 2.4 ms per apply at n = 32.

Every sparse SPD block is factored one way, by `SPDSolver`: sparse LU
under the symmetric minimum-degree ordering of A + A^T with diagonal
pivots only.  Without row interchanges that LU is an LDL^T factorization,
so by Sylvester's law of inertia the matrix is positive definite exactly
when every pivot is positive; the pivots are checked instead of a
separate eigenvalue estimate.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import SaddleSystem, ViscosityField, assemble_stiffness
from .glt_core import tau_from_symbol, velocity_extension_map
from .mesh import StructuredMesh
from .symbols import default_symbol_set

__all__ = [
    "SaddlePreconditioner",
    "SPDSolver",
    "build_velocity_preconditioner",
    "build_schur",
    "schur_panels",
    "panel_workers",
    "env_blas_threads",
    "usable_cpus",
    "symmetrize",
    "build_saddle_preconditioner",
    "tau_block_core",
    "viscosity_scaling",
    "STRATEGIES",
]

STRATEGIES = ("tau_block", "frozen_sparse")

# Columns per dense block: `SPDSolver.solve` takes a wider right-hand side
# this many columns at a time, and `build_schur` densifies this many columns
# of B_x^T and of B_y^T at a time.  Sparse triangular solves slow down per
# column as the block widens: at n = 32 the Schur build took the same time
# with panels of 8 to 64 pressure columns, longer with 128, and about twice
# as long with all 2113 in one solve.
PANEL = 32

# Square tiles of the in-place passes over a dense npres x npres array.
TILE = 256

# Smallest pressure count at which an apply overlaps its two halves (see
# `SaddlePreconditioner.apply`).  Serial against overlapped apply time, G2,
# single-threaded BLAS on 2 CPUs, medians of 10 alternated trials: npres
# 545 (n = 16) 0.52-0.72 ms against 0.61-0.79 ms, 685 (n = 18) 0.90 against
# 0.99 ms, 841 (n = 20) 0.94-1.22 against 0.80-1.12 ms (won 3, 10 and 7 of
# 10 trials in three sweeps), 1013 (n = 22) 1.34 against 1.00 ms, 1201
# (n = 24) 1.60-1.87 against 1.27-1.36 ms, 1625 (n = 28) 2.85 against 1.99
# ms, 2113 (n = 32) 4.22 against 2.43 ms.  One round trip to the helper
# costs about 0.05 ms, so small systems stay serial.
OVERLAP_PRESSURE = 1000


def tau_block_core(n: int, nvel: int) -> sp.csr_matrix:
    """Compressed tau-block core: the Kronecker sum
    sum_m tau_N(m) (x) S_m of the stiffness symbol (`tau_from_symbol`)
    restricted to the true DOF set, plus the stencil diagonal 16/3 on the
    off-grid DOFs (outside the rigid cell grid).

    For n >= 3 (N = n^2 > 2b, b = n + 1 the flat bandwidth) each tau_N(m)
    is a sine-algebra member, the sum is block-diagonalized by the DST-I
    into positive definite 8x8 blocks, and the core is a direct sum of a
    compression of it and a positive diagonal.  For n <= 2 the corner
    stripes overlap and the sum is not a sine-algebra member, but it is
    still positive definite, and so is the core.
    """
    ext = tau_from_symbol(default_symbol_set().stiffness, n).tocoo()
    imap, mask = velocity_extension_map(n)
    dof = np.full(imap.target_size, -1, dtype=np.int64)
    dof[imap.targets] = np.flatnonzero(mask)
    rows, cols = dof[ext.row], dof[ext.col]
    keep = (rows >= 0) & (cols >= 0)
    off_grid = np.flatnonzero(~mask)
    return sp.coo_matrix(
        (np.concatenate([ext.data[keep], np.full(len(off_grid), 16.0 / 3.0)]),
         (np.concatenate([rows[keep], off_grid]),
          np.concatenate([cols[keep], off_grid]))),
        shape=(nvel, nvel)).tocsr()


class SPDSolver:
    """SPD sparse matrix with a factorized apply-inverse.

    The factorization is LDL^T in the form of a symmetric-mode sparse LU;
    the matrix is rejected unless the LU needed no row interchange and
    every pivot is positive.  `min_pivot` is the smallest pivot.
    """

    def __init__(self, matrix: sp.spmatrix):
        self.matrix = matrix.tocsc()
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

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """P^{-1} rhs for a vector, or for a block PANEL columns at a time."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.ndim == 1:
            return self._lu.solve(rhs)
        out = np.empty_like(rhs)
        for start in range(0, rhs.shape[1], PANEL):
            panel = slice(start, start + PANEL)
            out[:, panel] = self._lu.solve(rhs[:, panel])
        return out


def viscosity_scaling(mesh: StructuredMesh, mu: ViscosityField,
                      stiffness: sp.spmatrix | None = None) -> np.ndarray:
    """Nodal viscosity samples d with d_i = (A(mu))_ii / (A(1))_ii, the
    average of the viscosity over the elements meeting node i."""
    if mu.kind == "constant":
        return np.full(mesh.velocity_count, mu.essinf)
    A_mu = stiffness if stiffness is not None else assemble_stiffness(mesh, mu)
    A1 = assemble_stiffness(mesh, ViscosityField.constant())
    return A_mu.diagonal() / A1.diagonal()


def build_velocity_preconditioner(mesh: StructuredMesh, mu: ViscosityField,
                                  strategy: str = "tau_block",
                                  stiffness: sp.spmatrix | None = None) -> SPDSolver:
    """SPD approximation of the viscosity-weighted stiffness block.

    tau_block: the compressed tau-block core under the symmetric nodal
    viscosity scaling D^{1/2} core D^{1/2}.  frozen_sparse: unit-viscosity
    stiffness under the same scaling (which is exact for constant fields).
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; pick from {STRATEGIES}")
    n = mesh.n
    D = sp.diags(np.sqrt(viscosity_scaling(mesh, mu, stiffness)))

    if strategy == "frozen_sparse":
        core = assemble_stiffness(mesh, ViscosityField.constant())
    else:
        core = tau_block_core(n, mesh.velocity_count)
    P = (D @ core @ D).tocsc()
    return SPDSolver(0.5 * (P + P.T))


def _env_threads(name: str) -> int | None:
    """A positive integer thread count from the environment, or None when
    the variable is unset or holds anything else ("0", "2.5", "4,2")."""
    try:
        value = int(os.environ.get(name, ""))
    except ValueError:
        return None
    return value if value > 0 else None


def env_blas_threads() -> int | None:
    """The BLAS thread count the environment asks for: OPENBLAS_NUM_THREADS,
    else OMP_NUM_THREADS, each skipped when unset or not a positive
    integer; None when neither gives one."""
    return (_env_threads("OPENBLAS_NUM_THREADS")
            or _env_threads("OMP_NUM_THREADS"))


def usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def panel_workers() -> int:
    """Threads for the Schur panels: the CPUs this process may use divided
    by the BLAS thread count, at least 1; always 1 off the main thread.

    The BLAS thread count is `env_blas_threads()`, and with neither
    variable set it is all CPUs, as OpenBLAS assumes.
    """
    if threading.current_thread() is not threading.main_thread():
        return 1
    cpus = usable_cpus()
    return max(1, cpus // (env_blas_threads() or cpus))


@functools.cache
def _helper() -> ThreadPoolExecutor:
    """The process's one apply helper thread, made on first use; only
    applies on the main thread call this, so the first use needs no lock."""
    return ThreadPoolExecutor(max_workers=1,
                              thread_name_prefix="glt-stokes-apply")


def schur_panels(div_x: sp.spmatrix, div_y: sp.spmatrix,
                 pa_solve: Callable, pa_solve_y: Callable | None = None
                 ) -> np.ndarray:
    """Dense B_x P_x^{-1} B_x^T + B_y P_y^{-1} B_y^T, one panel of pressure
    columns at a time.

    With `pa_solve_y` None both halves share `pa_solve` (P_x = P_y = P_A),
    and each panel's B_x^T and B_y^T columns go through it as one dense
    block; otherwise the B_x^T columns go through `pa_solve` and the B_y^T
    columns through `pa_solve_y` (for halves on different velocity
    spaces).  B^T is never densified whole.  With `panel_workers()` > 1 the
    panels, PANEL // workers columns each, run on that many threads; each
    writes its own columns of S, and the first exception a panel raises is
    raised here once the running panels are done and the rest cancelled.
    """
    npres = div_x.shape[0]
    bx_t, by_t = div_x.T.tocsc(), div_y.T.tocsc()
    S = np.empty((npres, npres))
    workers = panel_workers()
    width = max(1, PANEL // workers)

    def fill(start: int):
        panel = slice(start, min(start + width, npres))
        if pa_solve_y is not None:
            S[:, panel] = (div_x @ pa_solve(bx_t[:, panel].toarray())
                           + div_y @ pa_solve_y(by_t[:, panel].toarray()))
            return
        cols = panel.stop - start
        X = pa_solve(np.hstack([bx_t[:, panel].toarray(),
                                by_t[:, panel].toarray()]))
        S[:, panel] = div_x @ X[:, :cols] + div_y @ X[:, cols:]

    starts = range(0, npres, width)
    if workers == 1:
        for start in starts:
            fill(start)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, starts))
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


def build_schur(div_x: sp.spmatrix, div_y: sp.spmatrix, pa_solve: Callable):
    """Inverse of the deflated explicit Schur complement
    B P_A^{-1} B^T + 1/npres, built from `schur_panels` in its one
    npres x npres array.

    Returns (inverse, relative_symmetry_defect, seconds); the deflation is
    the rank-one shift by the normalized constant-pressure projector, so
    the inverse acts as the pseudo-inverse of B P_A^{-1} B^T on the
    complement of the kernel.  After `symmetrize` and the shift, the array
    is factored and inverted in place through its transpose, the Fortran
    view of the same symmetric matrix; the lower triangle that LAPACK
    leaves is mirrored tile by tile, and the inverse is returned
    C-contiguous.  `seconds` splits the build into its "schur_panels" and
    "inverse" phases.
    """
    t0 = time.perf_counter()
    S = schur_panels(div_x, div_y, pa_solve)
    t1 = time.perf_counter()
    sym_defect = symmetrize(S)
    S += 1.0 / len(S)
    try:
        cho, lower = sla.cho_factor(S.T, lower=True, overwrite_a=True)
    except sla.LinAlgError as exc:
        raise ValueError(f"Schur factorization failed after deflation: {exc}")
    inv, info = sla.lapack.dpotri(cho, lower=lower, overwrite_c=True)
    if info != 0:
        raise ValueError(f"Schur inversion failed after deflation: info {info}")
    # the C view holds the inverse in its upper triangle
    inv = inv.T
    for rows, cols in _tile_pairs(len(inv)):
        if rows == cols:
            tile = inv[rows, cols]
            low = np.tril_indices(len(tile), -1)
            tile[low] = tile.T[low]
        else:
            inv[cols, rows] = inv[rows, cols].T
    return inv, sym_defect, {"schur_panels": t1 - t0,
                             "inverse": time.perf_counter() - t1}


@dataclass
class SaddlePreconditioner:
    """Block-diagonal preconditioner diag(P_A, P_A, -Schur) with apply.

    Only the inverse of the deflated Schur complement is kept.
    `schur_workers` is the thread count its panels were built with, and
    `phase_seconds` times the build: "velocity" (the velocity
    preconditioner and its factorization), "schur_panels" and "inverse".
    `apply_workers` is 2 when an apply on the main thread overlaps its two
    halves (`panel_workers()` > 1 at build time and npres at least
    OVERLAP_PRESSURE), else 1.
    """

    n: int
    strategy: str
    velocity_solver: SPDSolver
    schur_inverse: np.ndarray = field(repr=False)
    schur_symmetry_defect: float = 0.0
    schur_workers: int = 1
    apply_workers: int = 1
    phase_seconds: dict = field(default_factory=dict)

    @property
    def velocity_count(self) -> int:
        return self.velocity_solver.matrix.shape[0]

    @property
    def dimension(self) -> int:
        return 2 * self.velocity_count + len(self.schur_inverse)

    def apply(self, r: np.ndarray) -> np.ndarray:
        """Blockwise inverse of a (dim,) residual or a (dim, k) block of
        them; both velocity components go through one solve, and the
        pressure part is projected off the constant direction and
        multiplied by the deflated inverse, so it annihilates that
        direction.

        With `apply_workers` == 2 and a call on the main thread, the
        pressure half runs on the module's helper thread while this thread
        does the velocity solve; each half writes its own rows of the
        result, which is bitwise that of the serial order.  An exception
        in either half reaches the caller once both are done.  Below
        OVERLAP_PRESSURE (set from the sweep in the module docstring) and
        with the default threaded BLAS the halves run in turn.
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
            out[2 * nvel:] = self.schur_inverse @ (rp - rp.sum(axis=0) / npres)

        if (self.apply_workers > 1
                and threading.current_thread() is threading.main_thread()):
            pressure = _helper().submit(pressure_half)
            try:
                velocity_half()
            finally:
                pressure.result()
        else:
            velocity_half()
            pressure_half()
        return out.reshape(np.shape(r))

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return self.apply(r)


def build_saddle_preconditioner(mesh: StructuredMesh, mu: ViscosityField,
                                system: SaddleSystem,
                                strategy: str = "tau_block") -> SaddlePreconditioner:
    """Assemble, factor and wire up the full saddle preconditioner."""
    t0 = time.perf_counter()
    vel = build_velocity_preconditioner(mesh, mu, strategy,
                                        stiffness=system.stiffness)
    t1 = time.perf_counter()
    inverse, sym_defect, seconds = build_schur(
        system.div_x, system.div_y, vel.solve)
    workers = panel_workers()
    overlap = workers > 1 and len(inverse) >= OVERLAP_PRESSURE
    return SaddlePreconditioner(
        n=mesh.n, strategy=strategy, velocity_solver=vel,
        schur_inverse=inverse, schur_symmetry_defect=sym_defect,
        schur_workers=workers, apply_workers=2 if overlap else 1,
        phase_seconds={"velocity": t1 - t0, **seconds})
