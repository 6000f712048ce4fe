"""Dense spectra, symbol sampling, and Weyl distribution comparison.

The distribution tests compare sorted eigenvalues (or singular values) of
an assembled block against a pooled sampling of the matching symbol over a
uniform midpoint grid of the physical-by-frequency domain, scalarized as
the Kolmogorov-Smirnov distance between the two empirical distributions.

Dense symmetric eigensolves use a symmetry of the problem when the caller
names one: the crisscross mesh and the viscosity groups are invariant under
the reflection (x, y) -> (y, x), so the stiffness commutes with the swap
permutation of the velocity nodes, and the saddle matrix with the swap that
also exchanges the u_x and u_y blocks.  A symmetric matrix that commutes
with an involution is block diagonal in the involution's even and odd
bases (Bossavit 1986, Comput. Methods Appl. Mech. Engrg. 56:167), so its
spectrum is the union of two half-size dense spectra: about a quarter of
the work of one full-size solve, and the largest dense array is a quarter
of the full-size one.

The strip-viscosity condition numbers reduce the mass-preconditioned
saddle spectrum to a pressure-size Schur pencil (B A^{-1} B^T, W), and the
same argument splits it further.  The mesh is also invariant under the
reflections x -> 1 - x and y -> 1 - y, and the strip field depends on
|2x - 1| only, so A and W commute with both (velocity and pressure DOF
permutations of `mesh.reflection_permutations`), while each reflection
maps B_x and B_y to +-B_x and +-B_y.  Each reflection the matrices pass
(checked to 1e-12) halves the pencil: on the joint even/odd classes of
the two, S and W are block diagonal, and each class block is built from
the class stiffness V^T A V, factored by the pivot-checked `SPDSolver`,
through the panel loop `schur_panels`, then symmetrized and solved
densely.  For the strip field that is four quarter-size pencils, about a
sixteenth of the dense eigensolve and a quarter of the solves; a field
that neither reflection keeps is solved as one full-size pencil.  On the
main thread, when BLAS leaves CPUs idle (`panel_workers()` > 1), the
classes run on that many threads.

The Weyl distance is a maximum over sample points of the difference of two
empirical distribution functions; it searches the large symbol pool only
for the matrix values, and reads the pool's own distribution function off
its run ends.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .assembly import ViscosityField
from .glt_core import BlockSymbol
from .mesh import reflection_permutations
from .precond import SPDSolver, panel_workers, schur_panels, symmetrize

__all__ = [
    "symmetric_eigenvalues",
    "singular_values",
    "sample_symbol",
    "sample_saddle_symbol",
    "weyl_distance",
    "outlier_check",
    "saddle_pencil_eigenvalues",
    "pencil_class_sizes",
    "wathen_condition_number",
    "DEFAULT_GRID",
    "DENSE_LIMIT",
]

# 18^4 ~ 1.05e5 symbol evaluation points
DEFAULT_GRID = (18, 18, 18, 18)
DENSE_LIMIT = 20000


def _dense(M) -> np.ndarray:
    return M.toarray() if sp.issparse(M) else np.asarray(M, dtype=float)


def _max_abs(M: sp.spmatrix) -> float:
    return float(np.abs(M.data).max()) if M.nnz else 0.0


def _parity(M: sp.spmatrix, rows: np.ndarray, cols: np.ndarray) -> int:
    """+1 if M[rows][:, cols] equals M, -1 if it equals -M, each to 1e-12
    relative to the largest entry of M; 0 otherwise."""
    P = M[rows][:, cols]
    tol = 1e-12 * max(_max_abs(M), 1e-300)
    for sign in (1, -1):
        if _max_abs(P - sign * M) <= tol:
            return sign
    return 0


def _class_bases(involutions, dim: int) -> dict:
    """Orthonormal sparse bases (dim x k) of the joint even/odd classes of
    0, 1 or 2 commuting involutions of range(dim), keyed by the parity
    tuple (+1 even, -1 odd, one entry per involution) in the order
    (+, +), (+, -), (-, +), (-, -); empty classes are left out.

    The involutions generate a group that splits range(dim) into orbits.
    An orbit of m indices gives each class whose parities are all +1 on
    its stabilizer one basis vector, with entries +-1/sqrt(m) on the orbit
    (the sign is the class character of the group element reaching that
    index).  Within a class, larger orbits come first, then smaller first
    indices: for one involution the even basis is the pairs
    (e_i + e_j)/sqrt(2), i < j, then the fixed points e_i, and the odd
    basis the pairs (e_i - e_j)/sqrt(2).
    """
    idx = np.arange(dim)
    elements = [(idx, ())]                  # (index map, generator word)
    for k, g in enumerate(involutions):
        elements += [(g[e], word + (k,)) for e, word in elements]
    images = np.stack([e for e, _ in elements])
    first = np.ones(images.shape, dtype=bool)   # first element to reach it
    for a in range(1, len(images)):
        first[a] = np.all(images[a] != images[:a], axis=0)
    size = first.sum(axis=0)
    leader = images.min(axis=0) == idx
    bases = {}
    for parities in itertools.product((1, -1), repeat=len(involutions)):
        chi = np.array([np.prod([parities[k] for k in word])
                        for _, word in elements])
        killed = np.any((images == idx) & (chi[:, None] < 0), axis=0)
        heads = idx[leader & ~killed]
        if not len(heads):
            continue
        heads = heads[np.lexsort((heads, -size[heads]))]
        col = np.arange(len(heads))
        keep = first[:, heads]
        bases[parities] = sp.csc_matrix(
            ((chi[:, None] * np.sqrt(1.0 / size[heads]))[keep],
             (images[:, heads][keep], np.broadcast_to(col, keep.shape)[keep])),
            shape=(dim, len(heads)))
    return bases


@functools.cache
def _malloc_trim():
    """The C library's `malloc_trim` (glibc), or None where it has none."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


def _release_free_heap() -> None:
    """Hand the free pages of the C heap back to the OS.

    A dense block of a large eigensolve (41 MB for a half of the saddle
    matrix at n = 16) exceeds the largest request glibc serves from its
    heap (32 MB), so it is mapped afresh and cannot reuse heap memory
    that earlier, smaller temporaries (symbol pools, sparse products)
    left free; unless that memory is returned first, it stays resident
    beneath the block.  In the `spectra-n16` benchmark this decided
    whether a second round peaked at about 160 or 220 MB.
    """
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


def symmetric_eigenvalues(S, mirror=None) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, sorted ascending.

    `mirror` is an optional involution of the row indices (an integer
    array with mirror[mirror] = arange(dim)).  If S commutes with it, to
    1e-12 relative to the largest entry, the halves V^T S V on its even
    and odd bases V are solved densely, one after the other; otherwise,
    and when `mirror` is None, S is solved as one full-size block.  With a mirror the result is the spectrum of the
    mirror-averaged matrix (S + P S P^T)/2, P the permutation matrix; by
    Weyl's inequality it differs from the spectrum of S by at most
    ||S - P S P^T||_2 / 2.  `DENSE_LIMIT` bounds the largest block formed.
    Before the blocks are formed, the C heap's free pages are handed back
    to the OS (`_release_free_heap`).
    """
    S = sp.csr_matrix(S, dtype=float)
    dim = S.shape[0]
    if S.shape[1] != dim:
        raise ValueError(f"matrix is not square: {S.shape}")
    if mirror is not None:
        mirror = np.asarray(mirror)
        if mirror.shape != (dim,) or \
                not np.issubdtype(mirror.dtype, np.integer) or \
                np.any((mirror < 0) | (mirror >= dim)) or \
                not np.array_equal(mirror[mirror], np.arange(dim)):
            raise ValueError(f"mirror is not an involution of {dim} indices")
    scale = max(_max_abs(S), 1e-300)
    if _max_abs(S - S.T) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric to 1e-12")
    if mirror is not None and _parity(S, mirror, mirror) != 1:
        mirror = None
    bases = _class_bases([] if mirror is None else [mirror], dim).values()
    if max(V.shape[1] for V in bases) > DENSE_LIMIT:
        raise ValueError(f"dense eigensolve refused beyond {DENSE_LIMIT}")
    _release_free_heap()
    return np.sort(np.concatenate(
        [np.linalg.eigvalsh((V.T @ S @ V).toarray()) for V in bases]))


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
    # the symbol depends on the physical point only through its weight, so
    # each distinct weight is solved once and its pool repeated
    distinct, counts = np.unique(weights, return_counts=True)
    pools = [np.tile(np.linalg.eigvalsh(base_div + w * base_vel).ravel(), c)
             for w, c in zip(distinct, counts)]
    return np.sort(np.concatenate(pools))


def _ascending(values) -> np.ndarray:
    """The values as a float array sorted ascending; an input that is
    already sorted, as the symbol pools are, is returned without a sort."""
    x = np.asarray(values, dtype=float).ravel()
    return x if np.all(x[1:] >= x[:-1]) else np.sort(x)


def weyl_distance(matrix_values, symbol_samples) -> float:
    """Kolmogorov-Smirnov distance sup_t |F_a(t) - F_b(t)| between the
    empirical distributions of the two samples a and b.

    Both distribution functions are right-continuous steps that jump only
    at sample points, so the sup is attained at a point of a or of b.  It
    is evaluated at every point of a, and at the last index j of each run
    of equal values of b, where F_b = (j + 1)/len(b) needs no search; so b
    (the large symbol pool) is never searched for its own points.  The
    result is that of evaluating both functions over the union of points.
    """
    a = _ascending(matrix_values)
    b = _ascending(symbol_samples)
    if len(a) == 0 or len(b) == 0:
        raise ValueError("both sample lists must be non-empty")
    at_a = np.abs(np.searchsorted(a, a, side="right") / len(a)
                  - np.searchsorted(b, a, side="right") / len(b)).max()
    ends = np.flatnonzero(np.append(b[1:] != b[:-1], True))
    at_b = np.abs(np.searchsorted(a, b[ends], side="right") / len(a)
                  - (ends + 1) / len(b)).max()
    return float(max(at_a, at_b))


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


def _pencil_classes(system):
    """The reflections of the mesh the Schur pencil is block diagonal
    under, and its class bases.

    Returns (signs, velocity bases, pressure bases): `signs` holds one
    pair (s_x, s_y) per reflection kept, the parities of B_x and B_y
    under it, and the bases are `_class_bases` of the velocity and the
    pressure permutations of the kept reflections.  A reflection g of
    `mesh.reflection_permutations(system.n, axis)`, axis x then y, is kept
    when, to 1e-12 relative, A[Rv][:, Rv] = A, W[Rp][:, Rp] = W and each
    B_d[Rp][:, Rv] = +-B_d.
    """
    A, W = system.stiffness, system.pressure_mass
    signs, vel, pres = [], [], []
    for axis in ("x", "y"):
        rv, rp = reflection_permutations(system.n, axis)
        if _parity(A, rv, rv) != 1 or _parity(W, rp, rp) != 1:
            continue
        s_d = tuple(_parity(B, rp, rv) for B in (system.div_x, system.div_y))
        if 0 not in s_d:
            signs.append(s_d)
            vel.append(rv)
            pres.append(rp)
    return (signs, _class_bases(vel, system.velocity_count),
            _class_bases(pres, system.pressure_count))


def pencil_class_sizes(system) -> dict:
    """Sizes of the classes `saddle_pencil_eigenvalues` splits the pencil
    into: {"pressure": [...], "velocity": [...]}, one entry per nonempty
    class in the order of `_class_bases` (one class each when no
    reflection is kept)."""
    _, vel, pres = _pencil_classes(system)
    return {"pressure": [Q.shape[1] for Q in pres.values()],
            "velocity": [V.shape[1] for V in vel.values()]}


def saddle_pencil_eigenvalues(system) -> np.ndarray:
    """All eigenvalues of the saddle matrix preconditioned by
    diag(A, A, W) with the exact stiffness block.

    With the exact A-block, every eigenvalue is either 1 or a root of
    lambda(lambda-1) = s with s a generalized eigenvalue of the Schur
    pencil (B A^{-1} B^T, W), so the full spectrum reduces to a dense
    pressure-size problem.  W is the weighted pressure mass of the system.

    The pencil is solved class by class (`_pencil_classes`): a reflection
    g that A and W commute with and that maps each B_d to +-B_d maps the
    pressure class c into the velocity class c s_d under B_d^T, and A^{-1}
    keeps velocity classes, so S = B A^{-1} B^T and W are block diagonal
    on the pressure classes.  Each class stiffness V^T A V is factored
    once by `SPDSolver`; the class block
    S_c = sum_d (Q^T B_d V) (V^T A V)^{-1} (Q^T B_d V)^T, V the basis of
    the velocity class c s_d, is built by `schur_panels`, symmetrized, and
    solved densely with W_c = Q^T W Q.  For the strip field, which both
    reflections of the unit square keep, that is four quarter-size
    pencils; with no reflection kept, one full-size pencil built as
    schur_panels(B_x, B_y, SPDSolver(A).solve).  On the main thread with
    `panel_workers()` > 1 the classes run on that many threads (and the
    panels of each class inline); the eigenvalues are those of the serial
    order.  A stiffness that is not positive definite raises `ValueError`.
    """
    A, W = system.stiffness, system.pressure_mass
    signs, vel, pres = _pencil_classes(system)
    solves = {e: SPDSolver(V.T @ A @ V).solve
              for e, V in vel.items()} if signs else {}

    def class_values(c) -> np.ndarray:
        if signs:
            Q = pres[c]
            e_x, e_y = (tuple(p * s[d] for p, s in zip(c, signs))
                        for d in (0, 1))
            S = schur_panels(Q.T @ system.div_x @ vel[e_x],
                             Q.T @ system.div_y @ vel[e_y],
                             solves[e_x], solves[e_y])
            W_c = Q.T @ W @ Q
        else:
            S = schur_panels(system.div_x, system.div_y, SPDSolver(A).solve)
            W_c = W
        symmetrize(S)
        return sla.eigh(S, W_c.toarray(), eigvals_only=True)

    workers = min(panel_workers(), len(pres))
    if workers == 1:
        s_vals = [class_values(c) for c in pres]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            s_vals = list(pool.map(class_values, pres))
    s_vals = np.maximum(np.concatenate(s_vals), 0.0)
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
