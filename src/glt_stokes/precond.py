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
block is the explicit Schur complement of the preconditioner, deflated on
the constant-pressure kernel before factorization.

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
    "build_saddle_preconditioner",
    "flat_tau_correction",
    "tau_block_core",
    "viscosity_scaling",
    "STRATEGIES",
]

STRATEGIES = ("tau_block", "frozen_sparse")


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
        return self._lu.solve(np.asarray(rhs))


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


def build_schur(div_x: sp.spmatrix, div_y: sp.spmatrix, pa_solve: Callable):
    """Explicit dense Schur complement -B P_A^{-1} B^T, column by column.

    Returns (schur, cholesky_of_deflated_negative, relative_symmetry_defect);
    the deflation is the rank-one shift by the normalized constant-pressure
    projector, so factorization solves act as the pseudo-inverse on the
    complement of the kernel.
    """
    npres = div_x.shape[0]
    S = div_x @ pa_solve(div_x.T.toarray())
    S += div_y @ pa_solve(div_y.T.toarray())
    sym_defect = float(np.abs(S - S.T).max() / max(np.abs(S).max(), 1e-300))
    S = 0.5 * (S + S.T)
    ones = np.ones(npres)
    deflated = S + np.outer(ones, ones) / npres
    try:
        cho = sla.cho_factor(deflated, lower=True)
    except sla.LinAlgError as exc:
        raise ValueError(f"Schur factorization failed after deflation: {exc}")
    return -S, cho, sym_defect


@dataclass
class SaddlePreconditioner:
    """Block-diagonal preconditioner diag(P_A, P_A, -Schur) with apply."""

    n: int
    strategy: str
    velocity_solver: SPDSolver
    schur: np.ndarray
    schur_cho: tuple = field(repr=False, default=None)
    schur_symmetry_defect: float = 0.0
    build_seconds: float = 0.0

    @property
    def velocity_count(self) -> int:
        return self.velocity_solver.matrix.shape[0]

    @property
    def dimension(self) -> int:
        return 2 * self.velocity_count + self.schur.shape[0]

    def apply(self, r: np.ndarray) -> np.ndarray:
        """Blockwise inverse of a (dim,) residual or a (dim, k) block of
        them; the pressure solve is the deflated pseudo-inverse and
        annihilates the constant direction."""
        nvel = self.velocity_count
        npres = self.schur.shape[0]
        if len(r) != 2 * nvel + npres:
            raise ValueError(
                f"residual length {len(r)} != saddle dimension {2 * nvel + npres}")
        out = np.empty(np.shape(r), dtype=float)
        out[:nvel] = self.velocity_solver.solve(r[:nvel])
        out[nvel:2 * nvel] = self.velocity_solver.solve(r[nvel:2 * nvel])
        rp = r[2 * nvel:]
        out[2 * nvel:] = sla.cho_solve(self.schur_cho,
                                       rp - rp.sum(axis=0) / npres)
        return out

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return self.apply(r)


def build_saddle_preconditioner(mesh: StructuredMesh, mu: ViscosityField,
                                system: SaddleSystem,
                                strategy: str = "tau_block") -> SaddlePreconditioner:
    """Assemble, factor and wire up the full saddle preconditioner."""
    t0 = time.time()
    vel = build_velocity_preconditioner(mesh, mu, strategy,
                                        stiffness=system.stiffness)
    schur, cho, sym_defect = build_schur(system.div_x, system.div_y, vel.solve)
    return SaddlePreconditioner(
        n=mesh.n, strategy=strategy, velocity_solver=vel,
        schur=schur, schur_cho=cho, schur_symmetry_defect=sym_defect,
        build_seconds=time.time() - t0)
