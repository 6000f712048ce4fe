"""Sparse FEM blocks for the variable-viscosity Stokes saddle system.

Assembles the viscosity-weighted vector-Laplacian stiffness block, the two
divergence blocks, and the 1/viscosity-weighted pressure mass matrix on the
crisscross mesh.  The element tables are exact rationals: each integrand is
a product of two polynomials of degree one, which the edge-midpoint rule
(weights |T|/3, exact for degree two) integrates exactly.  The viscosity
enters by a one-point centroid rule per triangle.

Normalization: divergence blocks are scaled by n so their entries are the
mesh-size-free rationals (+-1/6, +-1/12); the saddle system pairs them with
the pressure mass scaled by n^2, which is a symmetric rescaling of the raw
Galerkin system and leaves every preconditioned spectrum unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .mesh import _TRIANGLE_OFFSETS, StructuredMesh, saddle_dimension

__all__ = [
    "ViscosityField",
    "SaddleSystem",
    "assemble_stiffness",
    "stiffness_diagonal",
    "assemble_divergence",
    "assemble_pressure_mass",
    "assemble_saddle",
]


# ---------------------------------------------------------------------------
# viscosity fields

def _check_parameter(name: str, value: float, zero_ok: bool = False) -> float:
    """`value` as a float; ValueError naming `name` unless it is finite and
    positive (or zero, when `zero_ok`)."""
    value = float(value)
    if not math.isfinite(value) or value < 0 or (value == 0 and not zero_ok):
        kind = "non-negative" if zero_ok else "positive"
        raise ValueError(f"{name} must be finite and {kind}, got {value}")
    return value


@dataclass(frozen=True)
class ViscosityField:
    """Positive viscosity with computable essential bounds.

    `evaluator` maps an (N, 2) array of points in the unit square to an
    (N,) array of positive values.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    essinf: float
    esssup: float

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self.evaluator(pts)

    @staticmethod
    def constant(value: float = 1.0) -> "ViscosityField":
        value = _check_parameter("viscosity", value)
        return ViscosityField(lambda p: np.full(len(p), value), value, value)

    @staticmethod
    def group2() -> "ViscosityField":
        # xy + e^(x+y), increasing in both variables on the unit square
        def ev(p):
            return p[:, 0] * p[:, 1] + np.exp(p[:, 0] + p[:, 1])
        return ViscosityField(ev, 1.0, 1.0 + math.e ** 2)

    @staticmethod
    def group3(gamma: float) -> "ViscosityField":
        """Piecewise field: gamma on the closed square [0,1/2]^2, else 1+x+y."""
        gamma = _check_parameter("gamma", gamma)

        def ev(p):
            inside = (p[:, 0] <= 0.5) & (p[:, 1] <= 0.5)
            return np.where(inside, gamma, 1.0 + p[:, 0] + p[:, 1])
        return ViscosityField(ev, min(gamma, 1.5), max(gamma, 3.0))

    @staticmethod
    def example1(mu0: float, mu1: float, w: float, delta: float) -> "ViscosityField":
        """Strip viscosity of the benchmark problem on (-1,1)^2, pulled back
        to the unit square by x -> 2x-1.

        mu1 inside |x| < w, mu0 outside |x| > w+delta, linear in between.
        """
        mu0, mu1, w = (_check_parameter(name, value) for name, value in
                       (("mu0", mu0), ("mu1", mu1), ("w", w)))
        delta = _check_parameter("delta", delta, zero_ok=True)

        def ev(p):
            t = np.abs(2.0 * p[:, 0] - 1.0)
            vals = np.where(t < w, mu1, mu0)
            if delta > 0:
                ramp = (t >= w) & (t <= w + delta)
                vals = np.where(ramp, mu0 + (mu1 - mu0) * (w + delta - t) / delta,
                                vals)
            return vals
        return ViscosityField(ev, min(mu0, mu1), max(mu0, mu1))


def viscosity_for_group(group: int, gamma: float | None = None) -> ViscosityField:
    """Viscosity field of benchmark group 1, 2, or 3 (3 needs gamma)."""
    if group == 1:
        return ViscosityField.constant(1.0)
    if group == 2:
        return ViscosityField.group2()
    if group == 3:
        if gamma is None:
            raise ValueError("group 3 requires gamma")
        return ViscosityField.group3(gamma)
    raise ValueError(f"unknown group {group}")


# ---------------------------------------------------------------------------
# exact element tables
#
# All four triangles of a square are congruent right isosceles triangles
# (right angle at the center vertex, listed last), so one exact stiffness
# table serves every orientation; the divergence tables depend on the
# orientation.  Tables are computed once with Fraction arithmetic on the
# size-1 model triangles, a square's south, west, east and north triangles
# (`mesh._TRIANGLE_OFFSETS` / 4); stiffness is scale-free, divergence
# values are the n-scaled ones, mass values the n^2-scaled ones.


def _barycentric_gradients(verts):
    """Exact gradients of the three barycentric coordinates, one row each
    of an object array of Fractions, and the area."""
    (x0, y0), (x1, y1), (x2, y2) = [tuple(map(Fraction, v)) for v in verts]
    det = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    area = det / 2
    grads = np.array([
        ((y1 - y2) / det, (x2 - x1) / det),
        ((y2 - y0) / det, (x0 - x2) / det),
        ((y0 - y1) / det, (x1 - x0) / det),
    ], dtype=object)
    return grads, area


def _element_tables(verts):
    """Exact (stiffness 6x6, div_x 3x6, div_y 3x6, mass 3x3) on one triangle,
    as object arrays of Fractions.

    Local P2 order: vertices 0, 1, 2, then midpoints of edges (0,1), (1,2),
    (2,0).  Every integrand is a product of two polynomials of degree one
    (P2 gradients, P1 values), so the edge-midpoint rule, weights |T|/3 at
    the three edge midpoints and exact for degree two, gives each entry
    exactly.
    """
    grads, area = _barycentric_gradients(verts)
    edges = ((0, 1), (1, 2), (2, 0))
    K = D = M = 0
    for i, j in edges:
        # barycentric coordinates of the midpoint of edge (i, j)
        lam = np.array([Fraction(0)] * 3, dtype=object)
        lam[[i, j]] = Fraction(1, 2)
        # gradients of the six P2 basis functions there, one row each
        g = np.array([(4 * lam[v] - 1) * grads[v] for v in range(3)]
                     + [4 * (lam[a] * grads[b] + lam[b] * grads[a])
                        for a, b in edges])
        K = K + area / 3 * (g @ g.T)
        D = D + area / 3 * lam[:, None, None] * g[None]
        M = M + area / 3 * np.outer(lam, lam)
    return K, D[..., 0], D[..., 1], M


_K, _DX, _DY, _M = zip(*map(_element_tables, _TRIANGLE_OFFSETS / 4))
_STIFFNESS_TABLE, _MASS_TABLE = _K[0].astype(float), _M[0].astype(float)
_DIVX_TABLES = [t.astype(float) for t in _DX]
_DIVY_TABLES = [t.astype(float) for t in _DY]


# ---------------------------------------------------------------------------
# assembly

def _centroid_viscosity(mesh: StructuredMesh, mu: ViscosityField) -> np.ndarray:
    vals = mu(mesh.centroids())
    if np.any(vals <= 0) or not np.all(np.isfinite(vals)):
        bad = int(np.argmin(vals))
        raise ValueError(f"non-positive viscosity sample at triangle {bad}")
    return vals


def _element_triplets(row_dofs: np.ndarray, col_dofs: np.ndarray,
                      table: np.ndarray, weight: np.ndarray):
    """COO triplets (rows, cols, vals) of the element matrices
    weight[e] * table at rows row_dofs[e] and columns col_dofs[e], element
    by element, each row-major; entries at an eliminated DOF (-1) or at a
    zero of the table are dropped."""
    rows = np.repeat(row_dofs, col_dofs.shape[1], axis=1).ravel()
    cols = np.tile(col_dofs, (1, row_dofs.shape[1])).ravel()
    flat = table.ravel()
    vals = (weight[:, None] * flat[None, :]).ravel()
    keep = (rows >= 0) & (cols >= 0) & np.tile(flat != 0.0, len(weight))
    return rows[keep], cols[keep], vals[keep]


def assemble_stiffness(mesh: StructuredMesh, mu: ViscosityField) -> sp.csr_matrix:
    """Viscosity-weighted P2 stiffness block (one velocity component).

    Symmetric positive definite of size 8n^2-4n+1; entry (i,j) sums
    mu(centroid_T) times the exact gradient integral over each triangle.
    """
    nvel = mesh.velocity_count
    rows, cols, vals = _element_triplets(
        mesh.tri_velocity, mesh.tri_velocity, _STIFFNESS_TABLE,
        _centroid_viscosity(mesh, mu))
    return sp.coo_matrix((vals, (rows, cols)), shape=(nvel, nvel)).tocsr()


def stiffness_diagonal(mesh: StructuredMesh, mu: ViscosityField) -> np.ndarray:
    """Diagonal of `assemble_stiffness(mesh, mu)` without assembling it: the
    stiffness table's diagonal, weighted by the centroid viscosity, summed
    over `mesh.tri_velocity` by one `np.bincount`.

    The sums run in element order, while the assembled matrix adds its
    duplicates in the order its index sort leaves them, so the two agree
    bitwise for constant fields and to rounding (a few ulps) otherwise.
    """
    dofs = mesh.tri_velocity
    vals = _centroid_viscosity(mesh, mu)[:, None] * np.diag(_STIFFNESS_TABLE)
    keep = dofs >= 0
    return np.bincount(dofs[keep], weights=vals[keep],
                       minlength=mesh.velocity_count)


def assemble_divergence(mesh: StructuredMesh) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Divergence blocks (B_x, B_y), pressure rows by velocity columns.

    Discretizes -div with the mesh-size-free normalization (raw Galerkin
    blocks times n), so the nonzero values are drawn from {+-1/6, +-1/12}.
    Independent of the viscosity.
    """
    npres = mesh.pressure_count
    nvel = mesh.velocity_count
    # the weight -1 turns the element tables of div into those of -div
    minus = np.full(len(mesh.triangles) // 4, -1.0)
    blocks = []
    for tables in (_DIVX_TABLES, _DIVY_TABLES):
        rows, cols, vals = zip(*(
            _element_triplets(mesh.triangles[k::4], mesh.tri_velocity[k::4],
                              tables[k], minus)
            for k in range(4)))
        B = sp.coo_matrix(
            (np.concatenate(vals),
             (np.concatenate(rows), np.concatenate(cols))),
            shape=(npres, nvel)).tocsr()
        # exact-rational sums can cancel to rounding dust; drop it
        B.data[np.abs(B.data) < 1e-15] = 0.0
        B.eliminate_zeros()
        blocks.append(B)
    return blocks[0], blocks[1]


def assemble_pressure_mass(mesh: StructuredMesh, mu: ViscosityField) -> sp.csr_matrix:
    """P1 mass matrix weighted by 1/viscosity (raw Galerkin scaling)."""
    mu_t = _centroid_viscosity(mesh, mu)
    npres = mesh.pressure_count
    rows, cols, vals = _element_triplets(
        mesh.triangles, mesh.triangles, _MASS_TABLE,
        1.0 / (mu_t * mesh.n ** 2))
    return sp.coo_matrix((vals, (rows, cols)), shape=(npres, npres)).tocsr()


@dataclass(frozen=True)
class SaddleSystem:
    """Assembled Stokes blocks.

    The two velocity components share one stiffness block.  `pressure_mass`
    is the raw mass scaled by n^2 to stay consistent with the n-scaled
    divergence blocks (a symmetric rescaling of the Galerkin system).
    """

    n: int
    stiffness: sp.csr_matrix
    div_x: sp.csr_matrix
    div_y: sp.csr_matrix
    pressure_mass: sp.csr_matrix

    @property
    def velocity_count(self) -> int:
        return self.stiffness.shape[0]

    @property
    def pressure_count(self) -> int:
        return self.div_x.shape[0]

    @property
    def dimension(self) -> int:
        return 2 * self.velocity_count + self.pressure_count

    def full_matrix(self) -> sp.csr_matrix:
        """The symmetric saddle matrix [[A,0,Bx^T],[0,A,By^T],[Bx,By,0]]."""
        A = self.stiffness
        return sp.bmat([
            [A, None, self.div_x.T],
            [None, A, self.div_y.T],
            [self.div_x, self.div_y, None],
        ], format="csr")

    def nullspace_vector(self) -> np.ndarray:
        """Constant-pressure kernel direction (0,...,0,1,...,1)."""
        v = np.zeros(self.dimension)
        v[2 * self.velocity_count:] = 1.0
        return v


def assemble_saddle(mesh: StructuredMesh, mu: ViscosityField) -> SaddleSystem:
    """Assemble all blocks; fails loudly if the dimension drifts from the
    closed form 18n^2 - 6n + 3."""
    A = assemble_stiffness(mesh, mu)
    bx, by = assemble_divergence(mesh)
    mp_raw = assemble_pressure_mass(mesh, mu)
    system = SaddleSystem(n=mesh.n, stiffness=A, div_x=bx, div_y=by,
                          pressure_mass=(mesh.n ** 2) * mp_raw)
    expected = saddle_dimension(mesh.n)
    if system.dimension != expected:
        raise RuntimeError(
            f"assembled dimension {system.dimension} != {expected} at n={mesh.n}")
    return system
