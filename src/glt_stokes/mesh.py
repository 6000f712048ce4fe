"""Structured crisscross triangulation of the unit square.

Each of the n*n squares is split by both diagonals into four isosceles
right triangles meeting at the square's center.  Velocity unknowns are the
interior P2 nodes (vertices plus edge midpoints), pressure unknowns are all
P1 vertices (square corners plus centers).  To keep orderings exact, every
node is stored with integer coordinates over the common denominator 4n:
corners sit at multiples of 4, centers at (4a+2, 4b+2), edge midpoints at
the remaining even or odd lattice points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# intra-square triangle order: south, west, east, north
_TRIANGLE_ORDER = ("south", "west", "east", "north")


@dataclass(frozen=True)
class StructuredMesh:
    """Crisscross mesh with lexicographic (y-major) DOF enumerations.

    Coordinates are integer pairs (ix, iy) over the denominator 4n, so
    comparisons and orderings never suffer floating-point ties.
    """

    n: int
    vertices: np.ndarray          # (nv, 2) int, P1 vertex lattice coords
    triangles: np.ndarray         # (4n^2, 3) int, vertex indices, ccw
    cell_order: np.ndarray        # (4n^2,) int, lexicographic cell index
    velocity_nodes: np.ndarray    # (nvel, 2) int, interior P2 node coords
    pressure_nodes: np.ndarray    # (npres, 2) int, all P1 vertex coords
    tri_velocity: np.ndarray = field(repr=False, default=None)  # (4n^2, 6) velocity dof or -1
    tri_pressure: np.ndarray = field(repr=False, default=None)  # (4n^2, 3) pressure dof

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

    def triangle_vertices(self, t: int) -> np.ndarray:
        """Float coordinates (3, 2) of triangle t's vertices."""
        return self.vertices[self.triangles[t]] / float(self.denominator)

    def centroids(self) -> np.ndarray:
        """Float centroid coordinates of all triangles, in cell order."""
        pts = self.vertices[self.triangles] / float(self.denominator)
        return pts.mean(axis=1)

    def swap_permutations(self) -> tuple[np.ndarray, np.ndarray]:
        """The reflection (x, y) -> (y, x) as DOF permutations (Rv, Rp):
        velocity node i sits at the mirror image of node Rv[i], pressure
        node k at that of node Rp[k].

        Nodes are matched on the exact integer lattice keys rint(4n*coords),
        and each permutation is checked to be an involution.
        """
        width = self.denominator + 1
        out = []
        for coords in (self.velocity_coords(), self.pressure_coords()):
            keys = np.rint(coords * self.denominator).astype(np.int64)
            flat = keys[:, 1] * width + keys[:, 0]     # y-major: ascending
            swapped = keys[:, 0] * width + keys[:, 1]
            perm = np.minimum(np.searchsorted(flat, swapped), len(flat) - 1)
            if not np.array_equal(flat[perm], swapped):
                raise RuntimeError("node set is not symmetric under x <-> y")
            if not np.array_equal(perm[perm], np.arange(len(perm))):
                raise RuntimeError("x <-> y swap is not an involution")
            out.append(perm)
        return out[0], out[1]

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
    if n < 1:
        raise ValueError(f"grid parameter must be >= 1, got {n}")
    return 2 * velocity_interior_count(n) + pressure_count(n)


def _lex_order(coords: np.ndarray) -> np.ndarray:
    """Sort key indices: primary y ascending, secondary x ascending."""
    return np.lexsort((coords[:, 0], coords[:, 1]))


def build_mesh(n: int) -> StructuredMesh:
    """Build the crisscross triangulation of (0,1)^2 with n squares per side.

    Triangles are ordered south, west, east, north within each square;
    squares run lexicographically with y as the slow index.  All DOF
    enumerations are y-major lexicographic.
    """
    if n < 1:
        raise ValueError(f"grid parameter must be >= 1, got {n}")

    # P1 vertices: corners (4a, 4b) then centers (4a+2, 4b+2), re-sorted lex.
    corners = np.array([(4 * a, 4 * b) for b in range(n + 1) for a in range(n + 1)],
                       dtype=np.int64)
    centers = np.array([(4 * a + 2, 4 * b + 2) for b in range(n) for a in range(n)],
                       dtype=np.int64)
    vertices = np.vstack([corners, centers])
    order = _lex_order(vertices)
    vertices = vertices[order]

    vindex = {(int(x), int(y)): i for i, (x, y) in enumerate(vertices)}

    def vid(ix, iy):
        return vindex[(ix, iy)]

    triangles = []
    cell_order = []
    for b in range(n):
        for a in range(n):
            sw = vid(4 * a, 4 * b)
            se = vid(4 * a + 4, 4 * b)
            nw = vid(4 * a, 4 * b + 4)
            ne = vid(4 * a + 4, 4 * b + 4)
            c = vid(4 * a + 2, 4 * b + 2)
            square = {
                "south": (sw, se, c),
                "west": (nw, sw, c),
                "east": (se, ne, c),
                "north": (ne, nw, c),
            }
            base = 4 * (b * n + a)
            for k, name in enumerate(_TRIANGLE_ORDER):
                triangles.append(square[name])
                cell_order.append(base + k)
    triangles = np.asarray(triangles, dtype=np.int64)
    cell_order = np.asarray(cell_order, dtype=np.int64)

    # P2 nodes: vertices plus edge midpoints; a node is interior iff it does
    # not lie on the boundary of the square.
    p2_nodes = set(map(tuple, vertices.tolist()))
    for tri in triangles:
        for i in range(3):
            p = vertices[tri[i]]
            q = vertices[tri[(i + 1) % 3]]
            m = ((p[0] + q[0]) // 2, (p[1] + q[1]) // 2)
            p2_nodes.add((int(m[0]), int(m[1])))
    lim = 4 * n
    interior = np.array(sorted((p for p in p2_nodes
                                if 0 < p[0] < lim and 0 < p[1] < lim),
                               key=lambda p: (p[1], p[0])), dtype=np.int64)

    nvel = velocity_interior_count(n)
    if len(interior) != nvel:
        raise RuntimeError(
            f"interior velocity DOF count {len(interior)} != closed form {nvel}")

    velocity_index = {(int(x), int(y)): i for i, (x, y) in enumerate(interior)}

    # Local P2 node order per triangle: 3 vertices then midpoints of edges
    # (0,1), (1,2), (2,0).  Boundary nodes map to -1 (eliminated).
    tri_velocity = np.full((len(triangles), 6), -1, dtype=np.int64)
    tri_pressure = np.zeros((len(triangles), 3), dtype=np.int64)
    for t, tri in enumerate(triangles):
        for i in range(3):
            p = tuple(vertices[tri[i]])
            tri_velocity[t, i] = velocity_index.get((int(p[0]), int(p[1])), -1)
            tri_pressure[t, i] = tri[i]
        for i in range(3):
            p = vertices[tri[i]]
            q = vertices[tri[(i + 1) % 3]]
            m = (int((p[0] + q[0]) // 2), int((p[1] + q[1]) // 2))
            tri_velocity[t, 3 + i] = velocity_index.get(m, -1)

    return StructuredMesh(
        n=n,
        vertices=vertices,
        triangles=triangles,
        cell_order=cell_order,
        velocity_nodes=interior,
        pressure_nodes=vertices.copy(),
        tri_velocity=tri_velocity,
        tri_pressure=tri_pressure,
    )
