"""Correctness checks on the benchmark's outputs.

Each check recomputes what it needs with numpy/scipy, or tests a property
the method must have; none compares against stored output of the program.
A failed check raises `CheckFailed`.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla


class CheckFailed(Exception):
    pass


def require(condition, message: str):
    if not condition:
        raise CheckFailed(message)


def check_dimensions(n: int, velocity_count: int, dimension: int | None = None):
    """Closed-form counts: 8n^2-4n+1 per velocity component, 18n^2-6n+3
    for the saddle system."""
    require(velocity_count == 8 * n * n - 4 * n + 1,
            f"n={n}: {velocity_count} velocity dofs, expected {8 * n * n - 4 * n + 1}")
    if dimension is not None:
        require(dimension == 18 * n * n - 6 * n + 3,
                f"n={n}: saddle dimension {dimension}, expected {18 * n * n - 6 * n + 3}")


def check_solve(M, b, stats, tol: float, precond_norm, nullspace=None) -> float:
    """A Krylov solve that reports convergence: recompute b - Mx, compare it
    with the reported true residual, and require the preconditioned
    relative residual, measured by `precond_norm`, to be at most tol.
    Residuals are taken orthogonal to `nullspace` when one is given.
    Returns the recomputed true relative residual."""
    require(stats.converged, "solver reports no convergence")
    if nullspace is not None:
        ns = nullspace / np.linalg.norm(nullspace)

        def project(v):
            return v - ns * (ns @ v)
    else:
        def project(v):
            return v
    b = project(np.asarray(b, dtype=float))
    r = project(b - M @ stats.solution)
    true_rel = float(np.linalg.norm(r) / np.linalg.norm(b))
    require(np.isclose(true_rel, stats.final_relative_residual,
                       rtol=1e-6, atol=1e-15),
            f"reported true residual {stats.final_relative_residual:.6e} "
            f"!= recomputed {true_rel:.6e}")
    prec_rel = precond_norm(r) / precond_norm(b)
    require(prec_rel <= tol * (1.0 + 1e-6),
            f"preconditioned residual {prec_rel:.3e} > tol {tol:.1e}")
    return true_rel


def check_eigenvalue_sandwich(eigs_mu, stiffness_one, essinf: float,
                              esssup: float, slack: float = 1e-9):
    """Localization: essinf(mu) l_j(A(1)) <= l_j(A(mu)) <= esssup(mu) l_j(A(1))
    for every j, with l_j(A(1)) computed here by numpy."""
    one = np.linalg.eigvalsh(stiffness_one.toarray())
    lam = np.sort(np.asarray(eigs_mu, dtype=float))
    require(lam.shape == one.shape,
            f"{len(lam)} eigenvalues for a matrix of order {len(one)}")
    pad = slack * esssup * np.abs(one).max()
    low = np.flatnonzero(lam < essinf * one - pad)
    high = np.flatnonzero(lam > esssup * one + pad)
    require(len(low) == 0 and len(high) == 0,
            f"sandwich violated at {len(low)} lower and {len(high)} upper indices")


def check_ks_non_increasing(ks_coarse: float, ks_fine: float, label: str):
    """Weyl adherence improves (or holds) under refinement."""
    require(ks_fine <= ks_coarse,
            f"{label}: KS distance rose from {ks_coarse:.6f} to {ks_fine:.6f}")


def check_saddle_inertia(eigs, velocity_count: int, pressure_count: int,
                         zero_tol: float = 1e-8):
    """[[A,0,Bx^T],[0,A,By^T],[Bx,By,0]] with A SPD and B of corank one:
    2*nvel positive, npres-1 negative and one kernel eigenvalue."""
    eigs = np.asarray(eigs, dtype=float)
    cut = zero_tol * np.abs(eigs).max()
    pos = int(np.sum(eigs > cut))
    neg = int(np.sum(eigs < -cut))
    zero = len(eigs) - pos - neg
    require((pos, neg, zero) == (2 * velocity_count, pressure_count - 1, 1),
            f"inertia (+{pos}, -{neg}, 0:{zero}), expected "
            f"(+{2 * velocity_count}, -{pressure_count - 1}, 0:1)")


def check_single_kernel(singular_values, dimension: int, zero_tol: float = 1e-8):
    """The preconditioned saddle matrix keeps exactly the constant-pressure
    kernel: `dimension` singular values, one of them zero."""
    sv = np.asarray(singular_values, dtype=float)
    require(len(sv) == dimension, f"{len(sv)} singular values, expected {dimension}")
    zero = int(np.sum(sv <= zero_tol * sv.max()))
    require(zero == 1, f"{zero} zero singular values, expected 1")


def check_pencil_lambda_max(lambda_max: float, M, P, rtol: float = 1e-5,
                            shift: float = 2.5):
    """lambda_max of M u = lambda P u, estimated independently by
    shift-invert Lanczos on the full pencil from a shift above the spectrum.

    For constant viscosity the top of the spectrum is a near-continuum and
    Lanczos does not converge to a tight residual there; with residual
    tolerance 1e-4 the estimate is good to about 3e-6 (and to 1e-13 once
    the viscosity jumps), hence rtol."""
    v0 = np.random.default_rng(0).standard_normal(M.shape[0])
    est = float(spla.eigsh(M.tocsc(), k=1, M=P.tocsc(), sigma=shift, which="LM",
                           v0=v0, tol=1e-4, return_eigenvectors=False)[0])
    require(abs(est - lambda_max) <= rtol * abs(est),
            f"lambda_max {lambda_max:.12e} != Lanczos estimate {est:.12e}")


def check_strictly_increasing(values, label: str):
    v = np.asarray(values, dtype=float)
    require(np.all(np.diff(v) > 0), f"{label} not strictly increasing: {list(v)}")
