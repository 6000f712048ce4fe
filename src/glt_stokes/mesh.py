"""Structured crisscross triangulation of the unit square.

Each of the n*n squares is split by both diagonals into four isosceles
right triangles meeting at the square's center.  Velocity unknowns are the
interior P2 nodes (vertices plus edge midpoints), pressure unknowns are all
P1 vertices (square corners plus centers).  To keep orderings exact, every
node is stored with integer coordinates over the common denominator 4n:
corners sit at multiples of 4, centers at (4a+2, 4b+2), edge midpoints at
the remaining even or odd lattice points.  The P2 nodes are exactly the
lattice points with ix + iy even, so every enumeration is read off a
(4n+1)^2 lattice index array.  The reflections of the square that keep
the mesh, (x, y) -> (y, x), x -> 1 - x and y -> 1 - y, are DOF
permutations matched on the same integer lattice keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class StructuredMesh:
    """Crisscross mesh with lexicographic (y-major) DOF enumerations.

    Coordinates are integer pairs (ix, iy) over the denominator 4n, so
    comparisons and orderings never suffer floating-point ties.
    """

    n: int
    vertices: np.ndarray          # (nv, 2) int, P1 vertex lattice coords
    triangles: np.ndarray         # (4n^2, 3) int, vertex indices, ccw
    velocity_nodes: np.ndarray    # (nvel, 2) int, interior P2 node coords
    tri_velocity: np.ndarray = field(repr=False, default=None)  # (4n^2, 6) velocity dof or -1

    @property
    def pressure_nodes(self) -> np.ndarray:
        """(npres, 2) int coordinates of the pressure DOFs: the P1 vertices."""
        return self.vertices

    @property
    def denominator(self) -> int:
        return 4 * self.n

    @property
    def velocity_count(self) -> int:
        return len(self.velocity_nodes)

    @property
    def pressure_count(self) -> int:
        return len(self.pressure_nodes)

    def velocity_coords(self) -> np.ndarray:
        """Interior P2 node coordinates as floats in (0,1)^2."""
        return self.velocity_nodes / float(self.denominator)

    def pressure_coords(self) -> np.ndarray:
        """P1 vertex coordinates as floats in [0,1]^2."""
        return self.pressure_nodes / float(self.denominator)

    def centroids(self) -> np.ndarray:
        """Float centroid coordinates of all triangles, in cell order."""
        pts = self.vertices[self.triangles] / float(self.denominator)
        return pts.mean(axis=1)

    def dump(self) -> str:
        """Plain-text dump: one `v ix iy denom` line per vertex, one
        `t v1 v2 v3` line per triangle."""
        lines = []
        denom = self.denominator
        for ix, iy in self.vertices:
            lines.append(f"v {ix} {iy} {denom}")
        for tri in self.triangles:
            lines.append(f"t {tri[0]} {tri[1]} {tri[2]}")
        return "\n".join(lines) + "\n"


def _check_grid(n) -> None:
    """Raise ValueError unless the grid parameter n is an integer >= 1; a
    bool is not taken for one."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"grid parameter must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"grid parameter must be >= 1, got {n}")


def velocity_interior_count(n: int) -> int:
    """Interior P2 nodes per velocity component on the crisscross mesh."""
    return 8 * n * n - 4 * n + 1


def pressure_count(n: int) -> int:
    """P1 vertices (square corners plus centers)."""
    return 2 * n * n + 2 * n + 1


def saddle_dimension(n: int) -> int:
    """Total dimension of the assembled saddle-point system.

    Two velocity components plus pressure: 18n^2 - 6n + 3.
    """
    _check_grid(n)
    return 2 * velocity_interior_count(n) + pressure_count(n)


# local lattice offsets from a square's south-west corner (4a, 4b) of the
# three vertices of its south, west, east and north triangles, ccw, centre last
_TRIANGLE_OFFSETS = np.array([
    [(0, 0), (4, 0), (2, 2)],     # south: sw, se, c
    [(0, 4), (0, 0), (2, 2)],     # west:  nw, sw, c
    [(4, 0), (4, 4), (2, 2)],     # east:  se, ne, c
    [(4, 4), (0, 4), (2, 2)],     # north: ne, nw, c
], dtype=np.int64)


def _lattice(n: int) -> np.ndarray:
    """Stacked row and column coordinates (iy, ix) of the (4n+1)^2 lattice."""
    return np.indices((4 * n + 1, 4 * n + 1), dtype=np.int64)


def velocity_lattice(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates (ix, iy) of the interior P2 nodes in y-major order.

    They are exactly the lattice points 0 < ix, iy < 4n with ix + iy even:
    the vertices (both coordinates = 0 or both = 2 mod 4) and the edge
    midpoints, which average two of them.
    """
    iy, ix = _lattice(n)
    lim = 4 * n
    iy, ix = np.nonzero((ix > 0) & (ix < lim) & (iy > 0) & (iy < lim)
                        & ((ix + iy) % 2 == 0))
    return ix, iy


def _numbering(iy: np.ndarray, ix: np.ndarray, size: int) -> np.ndarray:
    """(size, size) lattice index array: the running number of each listed
    point (iy, ix), -1 elsewhere."""
    index = np.full((size, size), -1, dtype=np.int64)
    index[iy, ix] = np.arange(len(ix))
    return index


def pressure_lattice(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates (ix, iy) of the P1 vertices in y-major order: the square
    corners (both coordinates = 0 mod 4) and centres (both = 2 mod 4)."""
    iy, ix = _lattice(n)
    iy, ix = np.nonzero((ix % 2 == 0) & (ix % 4 == iy % 4))
    return ix, iy


# the mesh's reflections as maps of lattice coordinates over 0..lim:
# (x, y) -> (y, x), x -> 1 - x and y -> 1 - y
_MIRRORS = {
    "swap": lambda ix, iy, lim: (iy, ix),
    "x": lambda ix, iy, lim: (lim - ix, iy),
    "y": lambda ix, iy, lim: (ix, lim - iy),
}


def _mirror_permutation(nodes: np.ndarray, mirror, lim: int) -> np.ndarray:
    """The permutation perm with nodes[perm[i]] the image of nodes[i] under
    the lattice map `mirror(ix, iy, lim) -> (ix', iy')`, for integer
    lattice nodes (k, 2) in y-major order over coordinates 0..lim.

    Nodes are matched on their flat keys iy*(lim+1) + ix; the node set must
    be closed under the map and the permutation must be an involution.
    """
    width = lim + 1
    flat = nodes[:, 1] * width + nodes[:, 0]        # y-major: ascending
    mx, my = mirror(nodes[:, 0], nodes[:, 1], lim)
    image = my * width + mx
    perm = np.minimum(np.searchsorted(flat, image), len(flat) - 1)
    if not np.array_equal(flat[perm], image):
        raise RuntimeError("node set is not closed under the reflection")
    if not np.array_equal(perm[perm], np.arange(len(perm))):
        raise RuntimeError("the reflection is not an involution")
    return perm


def reflection_permutations(n: int, axis: str) -> tuple[np.ndarray, np.ndarray]:
    """The reflection (x, y) -> (y, x) (axis "swap"), x -> 1 - x (axis "x")
    or y -> 1 - y (axis "y") of the mesh with n squares per side, as DOF
    permutations (Rv, Rp): velocity node i sits at the mirror image of node
    Rv[i], pressure node k at that of node Rp[k].

    Both node sets are read off the lattice rule for n, so no mesh is
    built; nodes are matched on their integer lattice coordinates, and each
    permutation is checked to be an involution.
    """
    if axis not in _MIRRORS:
        raise ValueError(f"unknown reflection axis {axis!r}; "
                         f"pick one of {tuple(_MIRRORS)}")
    _check_grid(n)
    return tuple(_mirror_permutation(np.column_stack(lattice(n)),
                                     _MIRRORS[axis], 4 * n)
                 for lattice in (velocity_lattice, pressure_lattice))


def build_mesh(n: int) -> StructuredMesh:
    """Build the crisscross triangulation of (0,1)^2 with n squares per side.

    Triangles are ordered south, west, east, north within each square;
    squares run lexicographically with y as the slow index.  All DOF
    enumerations are y-major lexicographic, so a node's number is read off
    a lattice index array.
    """
    _check_grid(n)
    size = 4 * n + 1

    ix, iy = pressure_lattice(n)
    vertices = np.column_stack([ix, iy])
    vertex_index = _numbering(iy, ix, size)

    vx, vy = velocity_lattice(n)
    velocity_index = _numbering(vy, vx, size)

    # lattice coordinates (4n^2, 3) of every triangle's vertices
    b, a = np.divmod(np.arange(n * n, dtype=np.int64), n)
    tx = (4 * a[:, None, None] + _TRIANGLE_OFFSETS[None, :, :, 0]).reshape(-1, 3)
    ty = (4 * b[:, None, None] + _TRIANGLE_OFFSETS[None, :, :, 1]).reshape(-1, 3)
    triangles = vertex_index[ty, tx]

    # Local P2 node order per triangle: 3 vertices then midpoints of edges
    # (0,1), (1,2), (2,0).  Boundary nodes map to -1 (eliminated).
    nxt = [1, 2, 0]
    px = np.hstack([tx, (tx + tx[:, nxt]) // 2])
    py = np.hstack([ty, (ty + ty[:, nxt]) // 2])

    return StructuredMesh(
        n=n,
        vertices=vertices,
        triangles=triangles,
        velocity_nodes=np.column_stack([vx, vy]),
        tri_velocity=velocity_index[py, px],
    )
