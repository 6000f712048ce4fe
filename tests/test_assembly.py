from fractions import Fraction

import numpy as np
import pytest

from glt_stokes import assembly
from glt_stokes.assembly import (ViscosityField, assemble_divergence,
                                 assemble_pressure_mass, assemble_saddle,
                                 assemble_stiffness, stiffness_diagonal,
                                 viscosity_for_group)
from glt_stokes.mesh import _TRIANGLE_OFFSETS, build_mesh, saddle_dimension

ONE = ViscosityField.constant(1.0)


@pytest.fixture(scope="module")
def mesh4():
    return build_mesh(4)


def _tables_by_interior_rule(verts):
    """(stiffness, div_x, div_y, mass) of one triangle, entry by entry, by
    the interior three-point rule: barycentric points (2/3, 1/6, 1/6) and
    their permutations, weights |T|/3, exact for degree two."""
    (x0, y0), (x1, y1), (x2, y2) = [[Fraction(c) for c in v] for v in verts]
    # the gradients of lam_1, lam_2 are the rows of the inverse Jacobian
    # of (lam_1, lam_2) -> x0 + lam_1 (x1 - x0) + lam_2 (x2 - x0)
    a, b, c, d = x1 - x0, x2 - x0, y1 - y0, y2 - y0
    det = a * d - b * c
    g1, g2 = (d / det, -b / det), (-c / det, a / det)
    grad = [(-g1[0] - g2[0], -g1[1] - g2[1]), g1, g2]
    weight = abs(det) / 6
    edges = ((0, 1), (1, 2), (2, 0))
    K = [[Fraction(0)] * 6 for _ in range(6)]
    D = [[[Fraction(0)] * 6 for _ in range(3)] for _ in range(2)]
    M = [[Fraction(0)] * 3 for _ in range(3)]
    for k in range(3):
        lam = [Fraction(1, 6)] * 3
        lam[k] = Fraction(2, 3)
        phi = [[(4 * lam[v] - 1) * grad[v][x] for x in range(2)]
               for v in range(3)]
        phi += [[4 * (lam[i] * grad[j][x] + lam[j] * grad[i][x])
                 for x in range(2)] for i, j in edges]
        for r in range(6):
            for s in range(6):
                K[r][s] += weight * (phi[r][0] * phi[s][0]
                                     + phi[r][1] * phi[s][1])
        for p in range(3):
            for s in range(6):
                for x in range(2):
                    D[x][p][s] += weight * lam[p] * phi[s][x]
            for q in range(3):
                M[p][q] += weight * lam[p] * lam[q]
    return K, D[0], D[1], M


@pytest.mark.parametrize("orientation", range(4))
def test_element_tables_exact(orientation):
    # the four model triangles' tables equal, as exact rationals, those of
    # a second rule exact for the degree-two integrands
    expected = _tables_by_interior_rule(_TRIANGLE_OFFSETS[orientation] / 4)
    for got, ref in zip((assembly._K, assembly._DX, assembly._DY,
                         assembly._M), expected):
        got = got[orientation].tolist()
        assert all(isinstance(v, Fraction) for row in got for v in row)
        assert got == ref


def test_stiffness_symmetry_and_spd(mesh4):
    A = assemble_stiffness(mesh4, ONE)
    assert abs(A - A.T).max() == 0.0
    w = np.linalg.eigvalsh(A.toarray())
    assert w[0] > 0


def test_stiffness_stencil_values(mesh4):
    A = assemble_stiffness(mesh4, ONE)
    got = set(np.round(A.data, 12))
    expected = {round(float(Fraction(16, 3)), 12), 4.0,
                round(float(Fraction(-4, 3)), 12),
                round(float(Fraction(1, 3)), 12)}
    assert got == expected


def test_stiffness_diagonal_classes(mesh4):
    A = assemble_stiffness(mesh4, ONE)
    diag = A.diagonal()
    for i, (ix, iy) in enumerate(mesh4.velocity_nodes):
        vertex = (ix % 2 == 0) and (iy % 2 == 0) and \
                 ((ix % 4) == (iy % 4))
        if (ix % 4 == 0) and (iy % 4 == 0):
            assert diag[i] == pytest.approx(4.0, abs=1e-14)      # corner
        elif (ix % 4 == 2) and (iy % 4 == 2):
            assert diag[i] == pytest.approx(4.0, abs=1e-14)      # center
        else:
            assert diag[i] == pytest.approx(16.0 / 3.0, abs=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 32])
def test_stiffness_diagonal_matches_assembly(n):
    # the assembled diagonal adds each node's (at most 8) element terms in
    # the order its index sort leaves them, `stiffness_diagonal` in element
    # order: bitwise where the terms are equal or exact (constant, example1),
    # else within the 7 eps two orders of 8 positive terms may differ by
    mesh = build_mesh(n)
    for mu, bitwise in ((ONE, True), (viscosity_for_group(2), False),
                        (viscosity_for_group(3, 100.0), False),
                        (ViscosityField.example1(1, 1e6, 0.1, 0), True)):
        ref = assemble_stiffness(mesh, mu).diagonal()
        got = stiffness_diagonal(mesh, mu)
        assert got.shape == ref.shape
        if bitwise:
            assert np.array_equal(got, ref)
        assert np.all(np.abs(got - ref) <= 7 * np.finfo(float).eps * ref)


def test_stiffness_linear_in_viscosity(mesh4):
    A1 = assemble_stiffness(mesh4, ONE)
    A3 = assemble_stiffness(mesh4, ViscosityField.constant(3.0))
    assert abs(A3 - 3.0 * A1).max() < 1e-14


def test_stiffness_rejects_nonpositive_viscosity(mesh4):
    bad = ViscosityField(lambda p: p[:, 0] - 10.0, -10.0, -9.0)
    with pytest.raises(ValueError):
        assemble_stiffness(mesh4, bad)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
def test_viscosity_constructors_reject_bad_parameters(bad):
    # each once ran quietly: a NaN or infinite field, a NaN table from
    # `symbol --gamma nan`, or example1 with w = nan giving mu = mu0
    # everywhere while claiming the bounds [mu0, mu1]
    for name, make in (
            ("viscosity", lambda: ViscosityField.constant(bad)),
            ("gamma", lambda: ViscosityField.group3(bad)),
            ("gamma", lambda: viscosity_for_group(3, bad)),
            ("mu0", lambda: ViscosityField.example1(bad, 10.0, 0.1, 0.0)),
            ("mu1", lambda: ViscosityField.example1(1.0, bad, 0.1, 0.0)),
            ("w", lambda: ViscosityField.example1(1.0, 10.0, bad, 0.0))):
        with pytest.raises(ValueError, match=name):
            make()
    if bad != 0.0:
        with pytest.raises(ValueError, match="delta"):
            ViscosityField.example1(1.0, 10.0, 0.1, bad)


def test_divergence_value_multiset(mesh4):
    Bx, By = assemble_divergence(mesh4)
    for B in (Bx, By):
        assert B.shape == (mesh4.pressure_count, mesh4.velocity_count)
        mags = set(np.round(np.abs(B.data), 12))
        assert mags == {round(1 / 6, 12), round(1 / 12, 12)}


def test_divergence_constant_pressure_kernel(mesh4):
    Bx, By = assemble_divergence(mesh4)
    ones = np.ones(mesh4.pressure_count)
    assert np.abs(Bx.T @ ones).max() < 1e-14
    assert np.abs(By.T @ ones).max() < 1e-14


def test_divergence_of_constant_field(mesh4):
    # interior interpolant of (1,0): rows vanish unless the pressure node's
    # support touches the boundary
    Bx, _ = assemble_divergence(mesh4)
    r = Bx @ np.ones(mesh4.velocity_count)
    n = mesh4.n
    for i, (ix, iy) in enumerate(mesh4.pressure_nodes):
        if ix % 4 == 2:
            squares = [((ix - 2) // 4, (iy - 2) // 4)]
        else:
            squares = [(ix // 4 + dx, iy // 4 + dy)
                       for dx in (-1, 0) for dy in (-1, 0)]
            squares = [(a, b) for a, b in squares
                       if 0 <= a < n and 0 <= b < n]
        interior_patch = all(1 <= a <= n - 2 and 1 <= b <= n - 2
                             for a, b in squares)
        if interior_patch:
            assert abs(r[i]) < 1e-14


def test_divergence_zero_vector(mesh4):
    Bx, By = assemble_divergence(mesh4)
    z = np.zeros(mesh4.velocity_count)
    assert np.all(Bx @ z == 0) and np.all(By @ z == 0)


def test_pressure_mass_partition_of_unity():
    for n in (1, 3):
        mesh = build_mesh(n)
        Mp = assemble_pressure_mass(mesh, ONE)
        assert Mp.sum() == pytest.approx(1.0, abs=1e-14)


def test_pressure_mass_inverse_viscosity_scaling(mesh4):
    M1 = assemble_pressure_mass(mesh4, ONE)
    M2 = assemble_pressure_mass(mesh4, ViscosityField.constant(2.0))
    assert abs(M2 - 0.5 * M1).max() < 1e-15


@pytest.mark.parametrize("gamma", [1.0, 10.0, 100.0])
def test_pressure_mass_spd_group3(mesh4, gamma):
    Mp = assemble_pressure_mass(mesh4, ViscosityField.group3(gamma))
    w = np.linalg.eigvalsh(Mp.toarray())
    assert w[0] > 0


def test_pressure_mass_row_sums_are_lumped_areas(mesh4):
    Mp = assemble_pressure_mass(mesh4, ONE)
    rows = np.asarray(Mp.sum(axis=1)).ravel()
    # lumped area of a vertex: one third of its patch area
    area_tri = 1.0 / (4 * mesh4.n ** 2)
    for i, (ix, iy) in enumerate(mesh4.pressure_nodes):
        if ix % 4 == 2:
            patch = 4
        else:
            inx = 0 < ix < 4 * mesh4.n
            iny = 0 < iy < 4 * mesh4.n
            patch = 8 if (inx and iny) else (4 if (inx or iny) else 2)
        assert rows[i] == pytest.approx(patch * area_tri / 3.0, rel=1e-12)


@pytest.mark.parametrize("n,dim", [(2, 63), (8, 1107)])
def test_saddle_dimensions(n, dim):
    mesh = build_mesh(n)
    system = assemble_saddle(mesh, ONE)
    assert system.dimension == dim == saddle_dimension(n)


def test_saddle_matrix_symmetric(mesh4):
    system = assemble_saddle(mesh4, viscosity_for_group(2))
    M = system.full_matrix()
    assert abs(M - M.T).max() == 0.0


def test_saddle_nullspace(mesh4):
    system = assemble_saddle(mesh4, viscosity_for_group(3, 10.0))
    M = system.full_matrix()
    v = system.nullspace_vector()
    assert np.abs(M @ v).max() < 1e-14


def test_outlier_monotonicity_lpo(mesh4):
    # essinf(mu) l_j(A(1)) <= l_j(A(mu)) <= esssup(mu) l_j(A(1))
    A1 = assemble_stiffness(mesh4, ONE).toarray()
    w1 = np.linalg.eigvalsh(A1)
    for mu in (viscosity_for_group(2), viscosity_for_group(3, 100.0)):
        w = np.linalg.eigvalsh(assemble_stiffness(mesh4, mu).toarray())
        assert np.all(w >= mu.essinf * w1 - 1e-10)
        assert np.all(w <= mu.esssup * w1 + 1e-10)


def test_hadamard_structure(mesh4):
    # sparsity independent of mu; entrywise quotient within [essinf, esssup]
    A1 = assemble_stiffness(mesh4, ONE).tocsr()
    mu = viscosity_for_group(3, 10.0)
    Am = assemble_stiffness(mesh4, mu).tocsr()
    assert np.array_equal(A1.indices, Am.indices)
    assert np.array_equal(A1.indptr, Am.indptr)
    q = Am.data / A1.data
    assert q.min() >= mu.essinf - 1e-12
    assert q.max() <= mu.esssup + 1e-12


def test_example1_viscosity_field():
    mu = ViscosityField.example1(1.0, 100.0, 0.1, 0.0)
    # x in (-1,1) maps to (x+1)/2 on the unit square
    pts = np.array([[0.5, 0.3],    # x=0 -> inside strip
                    [0.95, 0.5],   # x=0.9 -> outside
                    [0.05, 0.5]])  # x=-0.9 -> outside
    vals = mu(pts)
    assert vals[0] == 100.0 and vals[1] == 1.0 and vals[2] == 1.0
    ramp = ViscosityField.example1(1.0, 11.0, 0.1, 0.2)
    mid = ramp(np.array([[(1.0 + 0.2) / 2.0, 0.5]]))[0]  # |x| = 0.2, halfway
    assert mid == pytest.approx(6.0)
