"""Saddle-point preconditioner: tau-block velocity approximation plus the
explicit Schur complement.

The velocity block approximation starts from the block Toeplitz core
generated by the stiffness symbol.  Each scalar 8x8 entry class, read as
one banded Toeplitz matrix over the flattened cell index, is replaced by
its tau approximation: the band is symmetrized and the Hankel corner
stripes are subtracted, making every class a sine-transform algebra
member.  The core is compressed to the true DOF set and scaled
symmetrically by the nodal viscosity sampling D^{1/2} (.) D^{1/2}, where
the sampling is the assembled-to-unit diagonal ratio (the per-node average
of the adjacent element viscosities), so positive definiteness follows by
congruence from the positive semidefinite algebra member.  The pressure
block is the explicit Schur complement of the preconditioner, built in
panels of pressure columns and deflated on the constant-pressure kernel;
its Cholesky factor is turned into the dense inverse once, so an apply is
a matrix product rather than two triangular solves.

Every sparse SPD block is factored one way, by `SPDSolver`: sparse LU
under the symmetric minimum-degree ordering of A + A^T with diagonal
pivots only.  Without row interchanges that LU is an LDL^T factorization,
so by Sylvester's law of inertia the matrix is positive definite exactly
when every pivot is positive; the pivots are checked instead of a
separate eigenvalue estimate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import SaddleSystem, ViscosityField, assemble_stiffness
from .glt_core import toeplitz_from_symbol, velocity_extension_map
from .mesh import StructuredMesh
from .symbols import default_symbol_set

__all__ = [
    "SaddlePreconditioner",
    "SPDSolver",
    "build_velocity_preconditioner",
    "build_schur",
    "schur_panels",
    "build_saddle_preconditioner",
    "flat_tau_correction",
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


def _flat_bands(n: int) -> dict:
    """Scalar bands over the flattened cell index m = k1*n + k2, one per
    nonzero 8x8 entry class of the stiffness symbol."""
    G = default_symbol_set().stiffness
    bands: dict = {}
    for k, C in G.float_coefficients().items():
        m = k[0] * n + k[1]
        rr, cc = np.nonzero(C)
        for r, c in zip(rr, cc):
            key = (int(r), int(c))
            bands.setdefault(key, {})
            bands[key][m] = bands[key].get(m, 0.0) + C[r, c]
    return bands


def flat_tau_correction(n: int) -> sp.csr_matrix:
    """tau(T_flat) - T on the extended 8n^2 grid.

    T is the two-level block Toeplitz core; tau(T_flat) symmetrizes each
    scalar band over the flattened cell index (which re-introduces the
    row-boundary wrap entries of the unilevel reading) and subtracts the
    Hankel corner stripes.  Adding the result to the exact two-level core
    yields the tau-block operator of every entry class.
    """
    N = n * n
    rows, cols, vals = [], [], []

    def push(i, j, v, r, c):
        rows.append(i * 8 + r)
        cols.append(j * 8 + c)
        vals.append(v)

    for (r, c), band in _flat_bands(n).items():
        b = max(abs(m) for m in band)
        for am in sorted({abs(m) for m in band} - {0}):
            sv = 0.5 * (band.get(am, 0.0) + band.get(-am, 0.0))
            lo, up = band.get(am, 0.0), band.get(-am, 0.0)
            k2 = am % n
            if k2 > n // 2:
                k2 -= n
            cells = np.arange(am, N)
            wrapped = (cells % n) - ((cells - am) % n) != k2
            for i, j, w in zip(cells, cells - am, wrapped):
                # unwrapped flat positions carry the two-level value; the
                # wrapped ones are new entries of the flattened reading
                d_lo = sv - (0.0 if w else lo)
                d_up = sv - (0.0 if w else up)
                if d_lo != 0.0:
                    push(i, j, d_lo, r, c)
                if d_up != 0.0:
                    push(j, i, d_up, r, c)
        # Hankel corner stripes of the symmetrized band
        for s in range(2, b + 1):
            sv = 0.5 * (band.get(s, 0.0) + band.get(-s, 0.0))
            if sv == 0.0:
                continue
            i = np.arange(0, min(s - 1, N))
            j = (s - 2) - i
            keep = (j >= 0) & (j < N)
            for ii, jj in zip(i[keep], j[keep]):
                push(ii, jj, -sv, r, c)
            i2 = np.arange(max(0, N - s), N)
            j2 = (2 * N - s) - i2
            keep = (j2 >= 0) & (j2 < N)
            for ii, jj in zip(i2[keep], j2[keep]):
                push(ii, jj, -sv, r, c)

    E = sp.coo_matrix((vals, (rows, cols)), shape=(8 * N, 8 * N)).tocsr()
    E.sum_duplicates()
    E.eliminate_zeros()
    return E


def _compress_to_dofs(E: sp.spmatrix, n: int, nvel: int) -> sp.csr_matrix:
    imap, mask = velocity_extension_map(n)
    idx = np.where(mask)[0]
    sub = imap.compress(E).tocoo()
    return sp.coo_matrix((sub.data, (idx[sub.row], idx[sub.col])),
                         shape=(nvel, nvel)).tocsr()


def tau_block_core(n: int, nvel: int) -> sp.csr_matrix:
    """Compressed tau-block core: tau(T) restricted to the true DOF set.

    Off-grid DOFs (outside the rigid cell grid) keep only the stencil
    diagonal, so the core stays a direct sum of a compression of the
    positive semidefinite algebra member and a positive diagonal.
    """
    G = default_symbol_set().stiffness
    full = toeplitz_from_symbol(G, (n, n)) + flat_tau_correction(n)
    core = _compress_to_dofs(full, n, nvel).tolil()
    _, mask = velocity_extension_map(n)
    for u in np.where(~mask)[0]:
        core[u, u] = 16.0 / 3.0
    return core.tocsr()


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


def schur_panels(div_x: sp.spmatrix, div_y: sp.spmatrix,
                 pa_solve: Callable) -> np.ndarray:
    """Dense B P_A^{-1} B^T = B_x P_A^{-1} B_x^T + B_y P_A^{-1} B_y^T,
    PANEL pressure columns at a time.

    Each panel's B_x^T and B_y^T columns go through `pa_solve` as one dense
    block, so B^T is never densified whole.
    """
    npres = div_x.shape[0]
    bx_t, by_t = div_x.T.tocsc(), div_y.T.tocsc()
    S = np.empty((npres, npres))
    for start in range(0, npres, PANEL):
        panel = slice(start, min(start + PANEL, npres))
        width = panel.stop - start
        X = pa_solve(np.hstack([bx_t[:, panel].toarray(),
                                by_t[:, panel].toarray()]))
        S[:, panel] = div_x @ X[:, :width] + div_y @ X[:, width:]
    return S


def build_schur(div_x: sp.spmatrix, div_y: sp.spmatrix, pa_solve: Callable):
    """Explicit dense Schur complement -B P_A^{-1} B^T from `schur_panels`,
    and the inverse of its deflation.

    Returns (schur, inverse_of_deflated_negative, relative_symmetry_defect,
    seconds); the deflation is the rank-one shift by the normalized
    constant-pressure projector, so the inverse acts as the pseudo-inverse
    on the complement of the kernel.  `seconds` splits the build into its
    "schur_panels" and "inverse" phases.
    """
    t0 = time.perf_counter()
    S = schur_panels(div_x, div_y, pa_solve)
    t1 = time.perf_counter()
    npres = S.shape[0]
    sym_defect = float(np.abs(S - S.T).max() / max(np.abs(S).max(), 1e-300))
    S = 0.5 * (S + S.T)
    deflated = S + 1.0 / npres
    try:
        cho, lower = sla.cho_factor(deflated, lower=True)
    except sla.LinAlgError as exc:
        raise ValueError(f"Schur factorization failed after deflation: {exc}")
    inv, info = sla.lapack.dpotri(cho, lower=lower, overwrite_c=True)
    if info != 0:
        raise ValueError(f"Schur inversion failed after deflation: info {info}")
    inv = np.tril(inv)
    inv += np.tril(inv, -1).T
    return -S, inv, sym_defect, {"schur_panels": t1 - t0,
                                 "inverse": time.perf_counter() - t1}


@dataclass
class SaddlePreconditioner:
    """Block-diagonal preconditioner diag(P_A, P_A, -Schur) with apply.

    `phase_seconds` times the build: "velocity" (the velocity
    preconditioner and its factorization), "schur_panels" and "inverse".
    """

    n: int
    strategy: str
    velocity_solver: SPDSolver
    schur: np.ndarray
    schur_inverse: np.ndarray = field(repr=False, default=None)
    schur_symmetry_defect: float = 0.0
    phase_seconds: dict = field(default_factory=dict)

    @property
    def velocity_count(self) -> int:
        return self.velocity_solver.matrix.shape[0]

    @property
    def dimension(self) -> int:
        return 2 * self.velocity_count + self.schur.shape[0]

    def apply(self, r: np.ndarray) -> np.ndarray:
        """Blockwise inverse of a (dim,) residual or a (dim, k) block of
        them; both velocity components go through one solve, and the
        pressure part is projected off the constant direction and
        multiplied by the deflated inverse, so it annihilates that
        direction."""
        nvel = self.velocity_count
        npres = self.schur.shape[0]
        if len(r) != 2 * nvel + npres:
            raise ValueError(
                f"residual length {len(r)} != saddle dimension {2 * nvel + npres}")
        R = np.asarray(r, dtype=float).reshape(len(r), -1)
        k = R.shape[1]
        X = self.velocity_solver.solve(np.hstack([R[:nvel], R[nvel:2 * nvel]]))
        out = np.empty_like(R)
        out[:nvel], out[nvel:2 * nvel] = X[:, :k], X[:, k:]
        rp = R[2 * nvel:]
        out[2 * nvel:] = self.schur_inverse @ (rp - rp.sum(axis=0) / npres)
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
    schur, inverse, sym_defect, seconds = build_schur(
        system.div_x, system.div_y, vel.solve)
    return SaddlePreconditioner(
        n=mesh.n, strategy=strategy, velocity_solver=vel,
        schur=schur, schur_inverse=inverse, schur_symmetry_defect=sym_defect,
        phase_seconds={"velocity": t1 - t0, **seconds})
