"""Restarted GMRES and MINRES with preconditioning and nullspace handling.

Both solvers start from a zero initial guess and count every inner
Arnoldi/Lanczos step.  GMRES is left-preconditioned and stops on one test:
the preconditioned relative residual ||P^{-1}(b - Mx)|| / ||P^{-1}b|| of
the current iterate is at most tol.  The true relative residual
||b - Mx|| / ||b|| of the returned iterate is reported beside it and plays
no part in stopping.  MINRES takes an SPD preconditioner and keeps the
iteration orthogonal to a supplied nullspace vector.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

__all__ = ["SolveStats", "check_solver_settings", "gmres", "minres"]


@dataclass
class SolveStats:
    """Outcome of one solve.

    `stop_reason` names the test that ended the iteration: "converged"
    (the stopping test held), "breakdown" (GMRES: an exact Arnoldi
    breakdown), "maxit", or "stagnation", which only MINRES emits: its
    recurrence estimate reached tol but the recomputed residual of the
    iterate did not.  `converged` is whether the preconditioned relative
    residual of the returned iterate, `preconditioned_residual`, is at most
    tol.  `cycles` counts the restart cycles run (MINRES runs one).
    """

    iterations: int
    final_relative_residual: float
    converged: bool
    residual_history: list = field(repr=False, default_factory=list)
    wall_time: float = 0.0
    solution: np.ndarray = field(repr=False, default=None)
    preconditioned_residual: float = 0.0
    stop_reason: str = "converged"
    cycles: int = 0


def as_operator(M) -> Callable[[np.ndarray], np.ndarray]:
    """Wrap a sparse/dense matrix or callable as a matvec."""
    if callable(M) and not sp.issparse(M) and not isinstance(M, np.ndarray):
        return M
    return lambda v: M @ v


def check_solver_settings(tol: float, maxit: int, restart: int = 1) -> None:
    """Raise ValueError naming the first setting a solve cannot honour."""
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if restart < 1:  # a cycle that takes no step would never end the solve
        raise ValueError(f"restart must be at least 1, got {restart}")
    if maxit < 0:
        raise ValueError(f"maxit must be non-negative, got {maxit}")


def gmres(M, b: np.ndarray, P=None, restart: int = 20, tol: float = 1e-5,
          maxit: int = 1000) -> SolveStats:
    """Left-preconditioned restarted GMRES with zero initial guess.

    One stopping rule: the iteration stops once the preconditioned relative
    residual ||P^{-1}(b - Mx)|| / ||P^{-1}b|| of the current iterate is at
    most tol.  Inside a cycle the Givens estimate of that residual ends the
    cycle; the residual recomputed from the iterate at the start of the next
    cycle decides whether to stop, and it is the one returned, so
    `converged` means the test held on the returned iterate.  The true
    relative residual ||b - Mx|| / ||b|| is reported beside it and never
    used to stop.  An Arnoldi breakdown or maxit steps end the iteration too.
    """
    check_solver_settings(tol, maxit, restart)
    t0 = time.perf_counter()
    matvec = as_operator(M)
    pinv = as_operator(P) if P is not None else (lambda v: v)
    b = np.asarray(b, dtype=float)
    ndim = len(b)
    x = np.zeros(ndim)

    z0 = pinv(b)
    bnorm = np.linalg.norm(z0)
    bnorm_true = np.linalg.norm(b)
    history = []
    if bnorm == 0.0 or bnorm_true == 0.0:
        return SolveStats(0, 0.0, True, [0.0], time.perf_counter() - t0, x,
                          0.0)

    total = 0
    cycles = 0
    breakdown = False
    # at the zero start the residual is b and its preconditioned form z0:
    # the first pass reuses both instead of a matvec and an apply
    r, z = b, z0
    while True:
        beta = np.linalg.norm(z)
        rel = beta / bnorm
        history.append(rel)
        if rel <= tol or breakdown or total >= maxit:
            break

        cycles += 1
        m = min(restart, maxit - total)
        V = np.zeros((m + 1, ndim))
        H = np.zeros((m + 1, m))
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        g[0] = beta
        V[0] = z / beta
        k_used = 0
        for k in range(m):
            w = pinv(matvec(V[k]))
            for i in range(k + 1):
                H[i, k] = V[i] @ w
                w -= H[i, k] * V[i]
            H[k + 1, k] = np.linalg.norm(w)
            if H[k + 1, k] > 1e-14 * max(1.0, abs(H[k, k])):
                V[k + 1] = w / H[k + 1, k]
            else:
                breakdown = True
            for i in range(k):
                t = cs[i] * H[i, k] + sn[i] * H[i + 1, k]
                H[i + 1, k] = -sn[i] * H[i, k] + cs[i] * H[i + 1, k]
                H[i, k] = t
            d = np.hypot(H[k, k], H[k + 1, k])
            cs[k], sn[k] = H[k, k] / d, H[k + 1, k] / d
            H[k, k] = d
            H[k + 1, k] = 0.0
            g[k + 1] = -sn[k] * g[k]
            g[k] = cs[k] * g[k]
            total += 1
            k_used = k + 1
            history.append(abs(g[k + 1]) / bnorm)
            if abs(g[k + 1]) / bnorm <= tol or breakdown:
                break
        y = sla.solve_triangular(H[:k_used, :k_used], g[:k_used])
        x = x + V[:k_used].T @ y
        r = b - matvec(x)
        z = pinv(r)

    converged = rel <= tol
    stop_reason = ("breakdown" if breakdown else
                   "converged" if converged else "maxit")
    true_rel = np.linalg.norm(r) / bnorm_true
    return SolveStats(total, float(true_rel), bool(converged), history,
                      time.perf_counter() - t0, x, float(rel), stop_reason,
                      cycles)


def minres(M, b: np.ndarray, P=None, nullspace: np.ndarray | None = None,
           tol: float = 1e-12, maxit: int = 20000) -> SolveStats:
    """Preconditioned MINRES (Paige-Saunders) with zero initial guess.

    M must be symmetric (spot-checked), P symmetric positive definite.
    When a nullspace vector is given, the right-hand side and every Lanczos
    vector are projected onto its orthogonal complement.  The iteration
    stops when the recurrence estimate of the preconditioned relative
    residual reaches tol, or at maxit; `converged` and
    `preconditioned_residual` come from the P^{-1}-norm residual of the
    returned iterate, recomputed with the kernel projected out.
    """
    check_solver_settings(tol, maxit)
    t0 = time.perf_counter()
    matvec = as_operator(M)
    pinv = as_operator(P) if P is not None else (lambda v: v)
    b = np.asarray(b, dtype=float)
    ndim = len(b)

    rng = np.random.default_rng(1234)
    u, v = rng.standard_normal(ndim), rng.standard_normal(ndim)
    asym = abs(u @ matvec(v) - v @ matvec(u))
    scale = max(np.linalg.norm(matvec(v)) * np.linalg.norm(u), 1e-300)
    if asym > 1e-8 * scale:
        raise ValueError(f"matrix is not symmetric: <Mu,v> mismatch {asym:.3e}")

    if nullspace is not None:
        ns = nullspace / np.linalg.norm(nullspace)

        def project(w):
            return w - ns * (ns @ w)
    else:
        def project(w):
            return w

    b = project(b)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return SolveStats(0, 0.0, True, [0.0], time.perf_counter() - t0,
                          np.zeros(ndim), 0.0)

    x = np.zeros(ndim)
    r1 = b.copy()
    y = project(pinv(r1))
    beta1 = np.sqrt(r1 @ y)
    if not np.isfinite(beta1) or beta1 < 0:
        raise ValueError("preconditioner is not positive definite")

    history = []
    oldb = 0.0
    beta = beta1
    dbar = 0.0
    epsln = 0.0
    phibar = beta1
    cs = -1.0
    sn = 0.0
    w = np.zeros(ndim)
    w2 = np.zeros(ndim)
    r2 = r1.copy()
    iters = 0
    stop_reason = "maxit"
    for it in range(1, maxit + 1):
        s = 1.0 / beta
        v = s * y
        y = project(matvec(v))
        if it >= 2:
            y -= (beta / oldb) * r1
        alfa = v @ y
        y -= (alfa / beta) * r2
        r1, r2 = r2, y
        y = project(pinv(r2))
        oldb = beta
        betasq = r2 @ y
        if betasq < 0:
            raise ValueError("preconditioner lost positive definiteness")
        beta = np.sqrt(betasq)

        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = np.hypot(gbar, beta)
        gamma = max(gamma, 1e-300)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar

        w1 = w2
        w2 = w
        w = (v - oldeps * w1 - delta * w2) / gamma
        x += phi * w

        iters = it
        rel = phibar / beta1
        history.append(rel)
        if rel <= tol:
            stop_reason = "converged"
            break

    # the recurrence estimate drifts from the residual of the iterate, so
    # convergence is judged on the recomputed preconditioned residual
    r = project(b - matvec(x))
    true_rel = np.linalg.norm(r) / bnorm
    prec_rel = np.sqrt(max(r @ project(pinv(r)), 0.0)) / beta1
    if stop_reason == "converged" and prec_rel > tol:
        stop_reason = "stagnation"
    return SolveStats(iters, float(true_rel), bool(prec_rel <= tol), history,
                      time.perf_counter() - t0, x, float(prec_rel),
                      stop_reason, 1)
