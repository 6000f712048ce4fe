"""Dense spectra, symbol sampling, and Weyl distribution comparison.

The distribution tests compare sorted eigenvalues (or singular values) of
an assembled block against a pooled sampling of the matching symbol over a
uniform midpoint grid of the physical-by-frequency domain, scalarized as
the Kolmogorov-Smirnov distance between the two empirical distributions.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import ViscosityField
from .glt_core import BlockSymbol

__all__ = [
    "symmetric_eigenvalues",
    "singular_values",
    "sample_symbol",
    "sample_saddle_symbol",
    "weyl_distance",
    "outlier_check",
    "preconditioned_spectrum",
    "saddle_pencil_eigenvalues",
    "wathen_condition_number",
    "DEFAULT_GRID",
    "DENSE_LIMIT",
]

# 18^4 ~ 1.05e5 symbol evaluation points
DEFAULT_GRID = (18, 18, 18, 18)
DENSE_LIMIT = 20000


def _dense(M) -> np.ndarray:
    return M.toarray() if sp.issparse(M) else np.asarray(M, dtype=float)


def symmetric_eigenvalues(S) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, sorted ascending."""
    A = _dense(S)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix is not square: {A.shape}")
    scale = max(np.abs(A).max(), 1e-300)
    if np.abs(A - A.T).max() > 1e-12 * scale:
        raise ValueError("matrix is not symmetric to 1e-12")
    if A.shape[0] > DENSE_LIMIT:
        raise ValueError(f"dense eigensolve refused beyond {DENSE_LIMIT}")
    return np.linalg.eigvalsh(A)


def singular_values(R) -> np.ndarray:
    """Singular values of a rectangular matrix, sorted ascending."""
    A = _dense(R)
    if min(A.shape) > DENSE_LIMIT:
        raise ValueError(f"dense SVD refused beyond {DENSE_LIMIT}")
    return np.sort(np.linalg.svd(A, compute_uv=False))


def _midpoints(count: int, lo: float, hi: float) -> np.ndarray:
    return lo + (np.arange(count) + 0.5) * (hi - lo) / count


def sample_symbol(symbol: BlockSymbol, mu: ViscosityField | None = None,
                  grid=DEFAULT_GRID) -> np.ndarray:
    """Pooled sorted eigenvalues (Hermitian) or singular values
    (rectangular) of the symbol over the uniform midpoint grid.

    The grid is (n_x, n_y, n_t1, n_t2) over [0,1]^2 x [-pi,pi]^2; when mu
    is None the symbol is viscosity independent and only the frequency
    grid is sampled (constant physical factors duplicate every value and
    leave the empirical distribution unchanged).
    """
    nx, ny, nt1, nt2 = grid
    if min(grid) < 1:
        raise ValueError("grid dimensions must be >= 1")
    t1 = _midpoints(nt1, -np.pi, np.pi)
    t2 = _midpoints(nt2, -np.pi, np.pi)
    tt1, tt2 = np.meshgrid(t1, t2, indexing="ij")
    thetas = np.column_stack([tt1.ravel(), tt2.ravel()])
    vals = symbol.eval_grid(thetas)

    square = symbol.s1 == symbol.s2
    if square and symbol.hermitian:
        freq_values = np.linalg.eigvalsh(vals)          # (nt, s)
    else:
        freq_values = np.linalg.svd(vals, compute_uv=False)

    if mu is None:
        return np.sort(freq_values.ravel())

    x = _midpoints(nx, 0.0, 1.0)
    y = _midpoints(ny, 0.0, 1.0)
    xx, yy = np.meshgrid(x, y, indexing="ij")
    weights = mu(np.column_stack([xx.ravel(), yy.ravel()]))
    pooled = (weights[:, None, None] * freq_values[None, :, :]).ravel()
    return np.sort(pooled)


def sample_saddle_symbol(mu: ViscosityField, grid=DEFAULT_GRID) -> np.ndarray:
    """Pooled sorted eigenvalues of the 18x18 saddle symbol
    [[mu G, 0, Gx], [0, mu G, Gy], [Gx*, Gy*, 0]] over the midpoint grid."""
    from .symbols import default_symbol_set

    nx, ny, nt1, nt2 = grid
    t1 = _midpoints(nt1, -np.pi, np.pi)
    t2 = _midpoints(nt2, -np.pi, np.pi)
    tt1, tt2 = np.meshgrid(t1, t2, indexing="ij")
    thetas = np.column_stack([tt1.ravel(), tt2.ravel()])
    syms = default_symbol_set()
    G = syms.stiffness.eval_grid(thetas)
    Gx = syms.div_x.eval_grid(thetas)
    Gy = syms.div_y.eval_grid(thetas)
    nt = len(thetas)

    base_div = np.zeros((nt, 18, 18), dtype=complex)
    base_div[:, 0:8, 16:18] = Gx
    base_div[:, 8:16, 16:18] = Gy
    base_div[:, 16:18, 0:8] = Gx.conj().transpose(0, 2, 1)
    base_div[:, 16:18, 8:16] = Gy.conj().transpose(0, 2, 1)
    base_vel = np.zeros((nt, 18, 18), dtype=complex)
    base_vel[:, 0:8, 0:8] = G
    base_vel[:, 8:16, 8:16] = G

    x = _midpoints(nx, 0.0, 1.0)
    y = _midpoints(ny, 0.0, 1.0)
    xx, yy = np.meshgrid(x, y, indexing="ij")
    weights = mu(np.column_stack([xx.ravel(), yy.ravel()]))
    pools = [np.linalg.eigvalsh(base_div + w * base_vel).ravel()
             for w in weights]
    return np.sort(np.concatenate(pools))


def weyl_distance(matrix_values, symbol_samples) -> float:
    """Kolmogorov-Smirnov distance between two empirical distributions,
    evaluated over the union of sample points."""
    a = np.sort(np.asarray(matrix_values, dtype=float))
    b = np.sort(np.asarray(symbol_samples, dtype=float))
    if len(a) == 0 or len(b) == 0:
        raise ValueError("both sample lists must be non-empty")
    pts = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pts, side="right") / len(a)
    cdf_b = np.searchsorted(b, pts, side="right") / len(b)
    return float(np.abs(cdf_a - cdf_b).max())


def outlier_check(eigs_mu, eigs_one, mu: ViscosityField,
                  slack: float = 1e-10) -> bool:
    """Sorted-eigenvalue sandwich essinf(mu) l_j(A(1)) <= l_j(A(mu)) <=
    esssup(mu) l_j(A(1)) with relative slack."""
    lam = np.asarray(eigs_mu, dtype=float)
    one = np.asarray(eigs_one, dtype=float)
    if lam.shape != one.shape:
        raise ValueError(f"length mismatch: {lam.shape} vs {one.shape}")
    lo = mu.essinf * one
    hi = mu.esssup * one
    tol = slack * np.maximum(np.abs(hi), np.abs(lo))
    return bool(np.all(lam >= lo - tol) and np.all(lam <= hi + tol))


def preconditioned_spectrum(M, P, nullspace: np.ndarray,
                            zero_tol: float = 1e-8):
    """Eigenvalues of the generalized problem M u = lambda P u for SPD P,
    via the congruence L^{-1} M L^{-T}.

    Returns (sorted eigenvalues, condition number); the kernel eigenvalue
    (smallest magnitude below zero_tol * max|lambda|) is excluded from the
    condition-number ratio.
    """
    Md = _dense(M)
    Pd = _dense(P)
    if Md.shape[0] > DENSE_LIMIT:
        raise ValueError(f"dense eigensolve refused beyond {DENSE_LIMIT}")
    try:
        L = sla.cholesky(Pd, lower=True)
    except sla.LinAlgError as exc:
        raise ValueError(f"preconditioner is not SPD: {exc}") from exc
    C = sla.solve_triangular(L, Md, lower=True)
    C = sla.solve_triangular(L, C.T, lower=True).T
    eigs = np.linalg.eigvalsh(0.5 * (C + C.T))
    mags = np.abs(eigs)
    cutoff = zero_tol * mags.max()
    nonzero = mags[mags > cutoff]
    cond = float(nonzero.max() / nonzero.min()) if len(nonzero) else np.inf
    return eigs, cond


def saddle_pencil_eigenvalues(system, pa_solve=None) -> np.ndarray:
    """All eigenvalues of the saddle matrix preconditioned by
    diag(A, A, W) with the exact stiffness block.

    With the exact A-block, every eigenvalue is either 1 or a root of
    lambda(lambda-1) = s with s a generalized eigenvalue of the Schur
    pencil (B A^{-1} B^T, W), so the full spectrum reduces to a dense
    pressure-size problem.  W is the weighted pressure mass of the system.
    """
    A = sp.csc_matrix(system.stiffness)
    lu = spla.splu(A)
    Bx = system.div_x.toarray()
    By = system.div_y.toarray()
    S = Bx @ lu.solve(Bx.T) + By @ lu.solve(By.T)
    S = 0.5 * (S + S.T)
    W = system.pressure_mass.toarray()
    s_vals = sla.eigh(S, W, eigvals_only=True)
    s_vals = np.maximum(s_vals, 0.0)
    lam_plus = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * s_vals))
    lam_minus = 0.5 * (1.0 - np.sqrt(1.0 + 4.0 * s_vals))
    nu = system.velocity_count
    np_ = system.pressure_count
    ones = np.ones(2 * nu - np_)
    return np.sort(np.concatenate([lam_minus, lam_plus, ones]))


def wathen_condition_number(system) -> tuple:
    """Spectral condition number of the mass-preconditioned saddle system:
    ratio of the largest to the smallest nonzero eigenvalue magnitudes."""
    eigs = saddle_pencil_eigenvalues(system)
    mags = np.abs(eigs)
    nonzero = mags[mags > 1e-8 * mags.max()]
    return float(mags.max()), float(nonzero.min()), \
        float(mags.max() / nonzero.min())
