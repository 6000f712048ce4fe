"""Dense spectra, symbol sampling, and Weyl distribution comparison.

The distribution tests compare sorted eigenvalues (or singular values) of
an assembled block against a pooled sampling of the matching symbol over a
uniform midpoint grid of the physical-by-frequency domain, scalarized as
the Kolmogorov-Smirnov distance between the two empirical distributions.

Each symbol is solved once per +-theta pair.  Every `BlockSymbol` has real
coefficients, so f(-theta) = conj f(theta) has the eigenvalues and
singular values of f(theta), and the midpoint frequency grid is its own
negation in reversed order; the samplers solve its first ceil(nt/2)
points and count each twice, the centre theta = 0 of a grid with nt odd
once.  The singular values of a two-column symbol (the 8x2 divergence
symbols) come from a vectorized QR and the closed-form singular values of
its 2x2 triangle, not from one LAPACK SVD per point.  With one BLAS thread
on a 2-core machine, G3(gamma=100) at the default grid, the median call
takes 16 ms for the stiffness pool, 65 ms for the divergence pool of
324^2 frequencies (410 ms with one SVD at every point) and 310 ms for the
saddle pool of 45 distinct weights (560 ms at every point).  The pools
keep their full length, so their distributions are those of the full
grid.

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

Every dense symmetric eigensolve (a mirror half, a pencil class) calls
LAPACK dsyevd or dsygvd itself, through ctypes on scipy's Cython LAPACK
table (`precond.cython_routine`, the loader the Schur product shares), in
place on a Fortran-ordered block (`_eigensolve`): no copy of the block is
made, and the call releases the GIL.  The two mirror halves go
through `precond.fan_out`.  On more than one CPU (`workers()` > 1)
the calling thread forms both blocks and their work arrays, and the two
solves run at once on the pool.  The pool threads only run LAPACK:
forming the blocks there left their temporaries resident in glibc's
per-thread heaps, 10-14 MB more peak memory in the `spectra-n16`
benchmark.  The peak then holds two blocks, as much as one block and the
copy that `np.linalg.eigvalsh` makes of it.  With one worker each block
is formed just before its solve and freed after it, so the peak holds
one.  The eigenvalues are bit for bit those of `scipy.linalg.eigh`, which
calls the same routines, and, on the mirror halves of A and M at n = 4 to
16, those of `np.linalg.eigvalsh`, which calls numpy's own OpenBLAS build.

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
that neither reflection keeps is solved as one full-size pencil.  The
classes go through `precond.fan_out`, so on more than one CPU they
overlap on the package's pool: their solves and products release the GIL.

The Weyl distance is a maximum over sample points of the difference of two
empirical distribution functions; it searches the large symbol pool only
for the matrix values, and reads the pool's own distribution function off
its run ends.
"""

from __future__ import annotations

import ctypes
import functools
import itertools

import numpy as np
import scipy.sparse as sp

from .assembly import ViscosityField
from .mesh import reflection_permutations
from .precond import (SPDSolver, cython_routine, fan_out, schur_panels,
                      symmetrize)
from .symbols import BlockSymbol, saddle_symbol

__all__ = [
    "symmetric_eigenvalues",
    "singular_values",
    "sample_symbol",
    "sample_saddle_symbol",
    "solved_frequency_count",
    "pool_quantiles",
    "weyl_distance",
    "saddle_pencil_eigenvalues",
    "pencil_class_sizes",
    "mirror_class_sizes",
    "wathen_condition_number",
    "DEFAULT_GRID",
]

# 18^4 ~ 1.05e5 symbol evaluation points
DEFAULT_GRID = (18, 18, 18, 18)
DENSE_LIMIT = 20000


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


def _eigensolve(a: np.ndarray, b: np.ndarray | None = None):
    """A call that returns the eigenvalues, ascending, of the symmetric a,
    or of the pencil (a, b) with b symmetric positive definite.

    The call runs LAPACK dsyevd, or dsygvd with itype 1, on the lower
    triangles in place, so a and b are overwritten.  Each must be a square
    float64 Fortran-contiguous array of one size; anything else raises
    ValueError here and is never copied.  Every array the routine needs
    (the eigenvalues, and the work arrays that its workspace query sizes)
    is allocated here, on the calling thread, so the call only runs
    LAPACK, without the GIL.  The call runs once: it then drops its
    arguments, a, b and the work arrays with them.  A nonzero LAPACK info
    raises ValueError naming the routine.
    """
    for m in (a,) if b is None else (a, b):
        if not (isinstance(m, np.ndarray) and m.dtype == np.float64
                and m.ndim == 2 and m.shape == (len(a), len(a))
                and m.flags.f_contiguous):
            raise ValueError("eigensolve needs square float64 Fortran-ordered "
                             f"arrays of one size, got {getattr(m, 'shape', m)}")
    name, nargs = ("dsyevd", 11) if b is None else ("dsygvd", 14)
    routine = cython_routine(name, nargs)
    n, lead, info = (ctypes.c_int(len(a)), ctypes.c_int(max(1, len(a))),
                     ctypes.c_int())
    w = np.empty(len(a))
    # an array's .ctypes passes its address and holds the array
    head = [b"N", b"L", ctypes.byref(n), a.ctypes, ctypes.byref(lead)]
    if b is not None:
        head = ([ctypes.byref(ctypes.c_int(1))] + head
                + [b.ctypes, ctypes.byref(lead)])

    def arguments(work, iwork, lwork: int, liwork: int) -> list:
        return head + [w.ctypes, work.ctypes, ctypes.byref(ctypes.c_int(lwork)),
                       iwork.ctypes, ctypes.byref(ctypes.c_int(liwork)),
                       ctypes.byref(info)]

    def check() -> None:
        if info.value:
            raise ValueError(f"LAPACK {name} failed: info {info.value}")

    work, iwork = np.empty(1), np.empty(1, dtype=np.intc)
    routine(*arguments(work, iwork, -1, -1))        # workspace query
    check()
    work = np.empty(max(1, int(work[0])))
    iwork = np.empty(max(1, int(iwork[0])), dtype=np.intc)
    args = arguments(work, iwork, len(work), len(iwork))

    def solve() -> np.ndarray:
        routine(*args)
        args.clear()
        check()
        return w
    return solve


def _mirror_classes(S, mirror) -> tuple:
    """S as a float CSR matrix, checked square and symmetric, and the
    bases of the classes `symmetric_eigenvalues` solves it on: the even
    and odd bases of `mirror` when S commutes with it, else the one
    identity class."""
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
    return S, list(_class_bases([] if mirror is None else [mirror],
                                dim).values())


def symmetric_eigenvalues(S, mirror=None) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, sorted ascending.

    `mirror` is an optional involution of the row indices (an integer
    array with mirror[mirror] = arange(dim)).  If S commutes with it, to
    1e-12 relative to the largest entry, the halves V^T S V on its even
    and odd bases V are solved densely; otherwise, and when `mirror` is
    None, S is solved as one full-size block (`mirror_class_sizes`).

    With a mirror the result is the spectrum of the mirror-averaged
    matrix (S + P S P^T)/2, P the permutation matrix.  By Weyl's
    inequality it differs from the spectrum of S by at most
    ||S - P S P^T||_2 / 2.  `DENSE_LIMIT` bounds the largest block formed.
    Before the blocks are formed, the C heap's free pages are handed back
    to the OS (`_release_free_heap`).  Each block is formed in Fortran
    order on the calling thread and solved in place (`_eigensolve`),
    through `fan_out`: with `workers()` > 1 both halves are formed first
    and solved at once on the pool, otherwise each is formed just before
    its solve and freed after it.
    """
    S, bases = _mirror_classes(S, mirror)
    if max(V.shape[1] for V in bases) > DENSE_LIMIT:
        raise ValueError(f"dense eigensolve refused beyond {DENSE_LIMIT}")
    _release_free_heap()
    solves = (_eigensolve((V.T @ S @ V).toarray(order="F")) for V in bases)
    return np.sort(np.concatenate(fan_out(lambda solve: solve(), solves)))


def mirror_class_sizes(S, mirror=None) -> list:
    """Sizes of the dense blocks `symmetric_eigenvalues(S, mirror)` solves:
    the even and the odd half when S commutes with `mirror`, else the one
    full-size block."""
    return [V.shape[1] for V in _mirror_classes(S, mirror)[1]]


def singular_values(R) -> np.ndarray:
    """Singular values of a rectangular matrix, sorted ascending."""
    if min(np.shape(R)) > DENSE_LIMIT:
        raise ValueError(f"dense SVD refused beyond {DENSE_LIMIT}")
    A = R.toarray() if sp.issparse(R) else np.asarray(R, dtype=float)
    return np.sort(np.linalg.svd(A, compute_uv=False))


def _two_column_singular_values(F: np.ndarray) -> np.ndarray:
    """Singular values, descending, of a stack (N, m, 2) of complex
    matrices with m >= 2, as (N, 2).

    The QR factorization of each matrix (Gram-Schmidt on its two columns,
    a zero first column taken as orthogonal to the second) leaves the
    2x2 triangle [[f, g], [0, h]], whose singular values are those of
    its moduli: the larger is (sqrt((f + h)^2 + g^2) + sqrt((f - h)^2 +
    g^2)) / 2 and the smaller f h over the larger, both without
    cancellation.  A zero column gives an exact zero, never a NaN.
    """
    a, b = F[..., 0], F[..., 1]
    f = np.linalg.norm(a, axis=-1)
    q = np.divide(a, f[:, None], out=np.zeros_like(a), where=f[:, None] > 0)
    g = np.einsum("ij,ij->i", q.conj(), b)
    h = np.linalg.norm(b - q * g[:, None], axis=-1)
    g = np.abs(g)
    big = 0.5 * (np.hypot(f + h, g) + np.hypot(f - h, g))
    small = np.divide(f * h, big, out=np.zeros_like(big), where=big > 0)
    return np.column_stack([big, small])


def _midpoints(count: int, lo: float, hi: float) -> np.ndarray:
    return lo + (np.arange(count) + 0.5) * (hi - lo) / count


def _midpoint_grid(grid) -> tuple[np.ndarray, np.ndarray]:
    """The (n_t1 n_t2, 2) frequency and (n_x n_y, 2) physical midpoints of
    the grid (n_x, n_y, n_t1, n_t2) over [0,1]^2 x [-pi,pi]^2."""
    if min(grid) < 1:
        raise ValueError("grid dimensions must be >= 1")
    nx, ny, nt1, nt2 = grid
    t1, t2 = np.meshgrid(_midpoints(nt1, -np.pi, np.pi),
                         _midpoints(nt2, -np.pi, np.pi), indexing="ij")
    x, y = np.meshgrid(_midpoints(nx, 0.0, 1.0), _midpoints(ny, 0.0, 1.0),
                       indexing="ij")
    return (np.column_stack([t1.ravel(), t2.ravel()]),
            np.column_stack([x.ravel(), y.ravel()]))


def solved_frequency_count(grid) -> int:
    """How many points of the frequency grid the samplers solve the symbol
    at: the first ceil(n_t1 n_t2 / 2) of the grid (n_x, n_y, n_t1, n_t2)
    (`_paired`)."""
    return (grid[2] * grid[3] + 1) // 2


def _paired(half: np.ndarray, nt: int) -> np.ndarray:
    """Values at all nt midpoint frequencies from those at the first
    ceil(nt/2), in grid order.

    Point nt - 1 - i of the midpoint grid is minus point i, to rounding
    (8.9e-16 at 324 points per axis), where a symbol with real
    coefficients takes the conjugate value, with the same eigenvalues and
    singular values; so each solved point stands for its mirror too.
    With nt odd the middle point is theta = 0 and counts once.
    """
    return np.concatenate([half, half[:nt // 2]])


def sample_symbol(symbol: BlockSymbol, mu: ViscosityField | None = None,
                  grid=DEFAULT_GRID) -> np.ndarray:
    """Pooled sorted eigenvalues (Hermitian) or singular values
    (rectangular) of the symbol over the uniform midpoint grid.

    The grid is (n_x, n_y, n_t1, n_t2) over [0,1]^2 x [-pi,pi]^2; when mu
    is None the symbol is viscosity independent and only the frequency
    grid is sampled (constant physical factors duplicate every value and
    leave the empirical distribution unchanged).  The symbol is solved at
    half the frequency points and each counts for its mirror (`_paired`);
    a two-column symbol's singular values come in closed form
    (`_two_column_singular_values`).
    """
    thetas, points = _midpoint_grid(grid)
    vals = symbol.eval_grid(thetas[:solved_frequency_count(grid)])

    if symbol.s1 == symbol.s2 and symbol.hermitian:
        half = np.linalg.eigvalsh(vals)         # (ceil(nt/2), s)
    elif symbol.s2 == 2 <= symbol.s1:
        half = _two_column_singular_values(vals)
    else:
        half = np.linalg.svd(vals, compute_uv=False)
    freq_values = _paired(half, len(thetas))

    if mu is None:
        return np.sort(freq_values.ravel())

    weights = mu(points)
    pooled = (weights[:, None, None] * freq_values[None, :, :]).ravel()
    return np.sort(pooled)


def sample_saddle_symbol(mu: ViscosityField, grid=DEFAULT_GRID) -> np.ndarray:
    """Pooled sorted eigenvalues of the 18x18 saddle symbol
    [[mu G, 0, Gx], [0, mu G, Gy], [Gx*, Gy*, 0]] (`symbols.saddle_symbol`)
    over the midpoint grid, solved at half the frequency points
    (`_paired`)."""
    thetas, points = _midpoint_grid(grid)
    vel, div = saddle_symbol(thetas[:solved_frequency_count(grid)])
    weights = mu(points)
    # the symbol depends on the physical point only through its weight, so
    # each distinct weight is solved once and its pool repeated
    distinct, counts = np.unique(weights, return_counts=True)
    pools = [np.tile(_paired(np.linalg.eigvalsh(div + w * vel),
                             len(thetas)).ravel(), c)
             for w, c in zip(distinct, counts)]
    return np.sort(np.concatenate(pools))


def pool_quantiles(pool: np.ndarray, ranks) -> np.ndarray:
    """np.quantile(pool, ranks) (its default "linear" rule) of an
    ascending pool, bit for bit, read off the pool without the copy and
    partition np.quantile makes; ranks lie in [0, 1].

    Rank r sits at position (len - 1) r between pool[lo] and pool[lo + 1],
    lo its floor and t its fraction; like numpy's interpolation, the value
    is a + (b - a) t below t = 0.5 and b - (b - a)(1 - t) from there on.
    """
    last = len(pool) - 1
    pos = last * np.asarray(ranks, dtype=float)
    lo = np.floor(pos).astype(np.intp)
    t = pos - lo
    a, b = pool[lo], pool[np.minimum(lo + 1, last)]
    diff = b - a
    return np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)


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
    pencils; with no reflection kept, the one class has the identity
    bases and the block is the full-size pencil.  The classes go through
    `fan_out` (on the pool, the panels of each class run inline); the
    eigenvalues are those of the serial order.  A stiffness that is not
    positive definite raises `ValueError`.
    """
    A, W = system.stiffness, system.pressure_mass
    signs, vel, pres = _pencil_classes(system)
    solves = {e: SPDSolver(V.T @ A @ V).solve for e, V in vel.items()}

    def class_values(c) -> np.ndarray:
        Q = pres[c]
        e_x, e_y = (tuple(p * s[d] for p, s in zip(c, signs)) for d in (0, 1))
        S = schur_panels(Q.T @ system.div_x @ vel[e_x],
                         Q.T @ system.div_y @ vel[e_y],
                         solves[e_x], solves[e_y])
        symmetrize(S)
        return _eigensolve(S.T, (Q.T @ W @ Q).toarray(order="F"))()

    s_vals = np.maximum(np.concatenate(fan_out(class_values, pres)), 0.0)
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
