import numpy as np
import pytest

from glt_stokes.mesh import (build_mesh, pressure_count,
                             reflection_permutations, saddle_dimension,
                             velocity_interior_count)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_counts_match_closed_forms(n):
    mesh = build_mesh(n)
    assert len(mesh.triangles) == 4 * n * n
    assert mesh.velocity_count == 8 * n * n - 4 * n + 1
    assert mesh.pressure_count == 2 * n * n + 2 * n + 1


def test_smallest_mesh():
    mesh = build_mesh(1)
    assert len(mesh.triangles) == 4
    assert mesh.pressure_count == 5  # 4 corners + 1 center
    # interior velocity nodes: center vertex + 4 diagonal-edge midpoints
    assert mesh.velocity_count == 5
    coords = set(map(tuple, mesh.velocity_nodes.tolist()))
    assert (2, 2) in coords
    assert coords == {(2, 2), (1, 1), (3, 1), (1, 3), (3, 3)}


@pytest.mark.parametrize("n,dim", [(8, 1107), (16, 4515), (32, 18243)])
def test_published_saddle_dimensions(n, dim):
    assert saddle_dimension(n) == dim


def test_saddle_dimension_closed_form():
    for n in range(1, 33):
        assert saddle_dimension(n) == 18 * n * n - 6 * n + 3
        assert saddle_dimension(n) == (2 * velocity_interior_count(n)
                                       + pressure_count(n))


def test_invalid_n_rejected():
    # a bool or a non-integer n is refused like n < 1, not read as 1 or 2
    for n, message in ((0, ">= 1, got 0"), (True, "an integer, got True"),
                       (2.5, "an integer, got 2.5")):
        for fn in (build_mesh, saddle_dimension):
            with pytest.raises(ValueError,
                               match=f"grid parameter must be {message}"):
                fn(n)


@pytest.mark.parametrize("n", [1, 3, 4])
def test_positive_areas_and_total(n):
    mesh = build_mesh(n)
    p = mesh.vertices[mesh.triangles] / float(mesh.denominator)
    area = 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                  - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))
    assert np.all(area > 0)
    assert abs(area.sum() - 1.0) < 1e-14


@pytest.mark.parametrize("n", [2, 4, 5])
def test_vertex_set_symmetric_under_swap(n):
    mesh = build_mesh(n)
    pts = set(map(tuple, mesh.vertices.tolist()))
    assert pts == {(y, x) for (x, y) in pts}


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("axis", ["swap", "x", "y"])
def test_reflection_permutations_mirror_every_dof(n, axis):
    # (x, y) -> (y, x), x -> 1 - x and y -> 1 - y, read off the lattice rule
    # without a mesh, send each velocity and pressure node of build_mesh(n)
    # to its image
    mesh = build_mesh(n)
    for perm, nodes in zip(reflection_permutations(n, axis),
                           (mesh.velocity_nodes, mesh.pressure_nodes)):
        assert np.array_equal(perm[perm], np.arange(len(nodes)))
        if axis == "swap":
            image = nodes[:, ::-1]
        else:
            col = "xy".index(axis)
            image = nodes.copy()
            image[:, col] = 4 * n - nodes[:, col]
        assert np.array_equal(nodes[perm], image)


def test_reflection_permutations_reject_bad_input():
    with pytest.raises(ValueError):
        reflection_permutations(4, "z")
    for n in (0, True, 2.5):
        with pytest.raises(ValueError, match="grid parameter must be"):
            reflection_permutations(n, "x")


def test_lexicographic_dof_order():
    mesh = build_mesh(3)
    for nodes in (mesh.velocity_nodes, mesh.pressure_nodes):
        keys = [(int(y), int(x)) for x, y in nodes]
        assert keys == sorted(keys)


def test_cell_order_south_west_east_north():
    mesh = build_mesh(2)
    # first square's four triangles share the center (2,2)
    center = [tuple(v) for v in mesh.vertices[mesh.triangles[0]]]
    assert (2, 2) in center


@pytest.mark.parametrize("n", range(1, 7))
def test_velocity_dofs_follow_lattice_rule(n):
    # interior P2 nodes are the lattice points 0 < ix, iy < 4n with ix + iy
    # even, numbered y-major; a triangle's row lists its 3 vertices, then
    # the midpoints of edges (0,1), (1,2), (2,0), with -1 on the boundary
    mesh = build_mesh(n)
    lim = 4 * n
    lattice = [(ix, iy) for iy in range(1, lim) for ix in range(1, lim)
               if (ix + iy) % 2 == 0]
    assert [tuple(p) for p in mesh.velocity_nodes.tolist()] == lattice
    number = {p: i for i, p in enumerate(lattice)}
    for tri, dofs in zip(mesh.triangles, mesh.tri_velocity):
        p = [tuple(v) for v in mesh.vertices[tri].tolist()]
        nodes = p + [((p[a][0] + p[b][0]) // 2, (p[a][1] + p[b][1]) // 2)
                     for a, b in ((0, 1), (1, 2), (2, 0))]
        for (ix, iy), dof in zip(nodes, dofs):
            on_boundary = ix in (0, lim) or iy in (0, lim)
            assert dof == (-1 if on_boundary else number[(ix, iy)])


def test_dump_format():
    mesh = build_mesh(1)
    text = mesh.dump()
    lines = text.strip().split("\n")
    vlines = [l for l in lines if l.startswith("v ")]
    tlines = [l for l in lines if l.startswith("t ")]
    assert len(vlines) == mesh.pressure_count
    assert len(tlines) == 4
    assert all(len(l.split()) == 4 for l in vlines + tlines)
