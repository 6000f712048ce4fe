import numpy as np
import pytest
import scipy.sparse as sp

from glt_stokes.assembly import (ViscosityField, assemble_saddle,
                                 assemble_stiffness, viscosity_for_group)
from glt_stokes.glt_core import zero_distribution_fraction
from glt_stokes.mesh import build_mesh
from glt_stokes.precond import (STRATEGIES, SPDSolver,
                                build_saddle_preconditioner, build_schur,
                                build_velocity_preconditioner, tau_block_core,
                                viscosity_scaling)

ONE = ViscosityField.constant(1.0)


@pytest.fixture(scope="module")
def setup8():
    mesh = build_mesh(8)
    mu = viscosity_for_group(2)
    system = assemble_saddle(mesh, mu)
    return mesh, mu, system


def test_frozen_equals_stiffness_for_unit_viscosity():
    mesh = build_mesh(4)
    vel = build_velocity_preconditioner(mesh, ONE, "frozen_sparse")
    A = assemble_stiffness(mesh, ONE)
    assert abs(vel.matrix - A.tocsc()).max() < 1e-14


def test_constant_viscosity_scaling_invariance():
    # P(mu = c) = c * P(mu = 1) for both strategies
    mesh = build_mesh(4)
    c = 3.7
    for strategy in STRATEGIES:
        p1 = build_velocity_preconditioner(mesh, ONE, strategy)
        pc = build_velocity_preconditioner(mesh, ViscosityField.constant(c),
                                           strategy)
        assert abs(pc.matrix - c * p1.matrix).max() < 1e-12


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("group,gamma", [(1, None), (2, None), (3, 1.0),
                                         (3, 10.0), (3, 100.0)])
def test_velocity_preconditioner_spd(strategy, group, gamma):
    mesh = build_mesh(4)
    mu = viscosity_for_group(group, gamma)
    vel = build_velocity_preconditioner(mesh, mu, strategy)
    w = np.linalg.eigvalsh(vel.matrix.toarray())
    assert w[0] > 0


@pytest.mark.parametrize("size", [100, 2500])
def test_spd_solver_rejects_indefinite(size):
    # a negative pivot, and a zero diagonal that only a row interchange
    # can factor, are both caught at every size
    d = np.ones(size)
    d[:2] = (-5.0, 0.5)
    with pytest.raises(ValueError):
        SPDSolver(sp.diags(d))
    swap = sp.csr_matrix([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        SPDSolver(sp.block_diag([swap, sp.identity(size - 2)]))


@pytest.mark.parametrize("n", [4, 32])
def test_spd_solver_min_pivot(n):
    vel = build_velocity_preconditioner(build_mesh(n), viscosity_for_group(1))
    assert vel.min_pivot > 0
    rhs = np.ones(vel.matrix.shape[0])
    assert np.abs(vel.matrix @ vel.solve(rhs) - rhs).max() < 1e-10


def test_tau_core_difference_structure():
    # for unit viscosity the tau core keeps the diagonal and the symmetric
    # same-cell couplings of the stiffness exactly; the difference is the
    # band symmetrization (values 1/6, 2/3 on paired one-sided couplings)
    # plus the Hankel corner stripes (4/3), and stays symmetric
    n = 8
    mesh = build_mesh(n)
    A = assemble_stiffness(mesh, ONE)
    core = tau_block_core(n, mesh.velocity_count)
    D = (core - A).tocsr()
    D.data[np.abs(D.data) < 1e-14] = 0.0
    D.eliminate_zeros()
    assert abs(D - D.T).max() < 1e-14
    assert np.abs(D.diagonal()).max() < 1e-14
    assert np.abs(D.data).max() <= 4.0 / 3.0 + 1e-12
    allowed = {round(v, 10) for v in (1 / 6, 1 / 3, 2 / 3, 4 / 3)}
    assert set(np.round(np.abs(D.data), 10)) <= allowed


def test_tau_and_frozen_agree_where_bands_are_symmetric():
    # frozen_sparse reproduces the stiffness exactly for unit viscosity;
    # the tau strategy deviates only on one-sided couplings and corner
    # stripes, never on the diagonal
    n = 8
    mesh = build_mesh(n)
    tau = build_velocity_preconditioner(mesh, ONE, "tau_block")
    frozen = build_velocity_preconditioner(mesh, ONE, "frozen_sparse")
    D = (tau.matrix - frozen.matrix).tocsr()
    assert np.abs(D.diagonal()).max() < 1e-13
    assert np.abs(D.data).max() <= 4.0 / 3.0 + 1e-12


def test_viscosity_scaling_is_local_average(setup8):
    mesh, mu, system = setup8
    d = viscosity_scaling(mesh, mu, system.stiffness)
    assert np.all(d >= mu.essinf - 1e-12)
    assert np.all(d <= mu.esssup + 1e-12)


def test_zero_distribution_of_residual_decreases():
    # GLT-0 requirement: fraction of large singular values of A - P_A decays
    mu = viscosity_for_group(2)
    fractions = []
    for n in (4, 8):
        mesh = build_mesh(n)
        A = assemble_stiffness(mesh, mu)
        vel = build_velocity_preconditioner(mesh, mu, "tau_block")
        R = (A - vel.matrix).toarray()
        nrm = np.linalg.norm(A.toarray(), 2)
        fractions.append(zero_distribution_fraction(R, 0.1 * nrm))
    assert fractions[1] <= fractions[0]


def test_schur_properties():
    mesh = build_mesh(4)
    mu = ONE
    system = assemble_saddle(mesh, mu)
    vel = build_velocity_preconditioner(mesh, mu, "tau_block",
                                        stiffness=system.stiffness)
    schur, cho, sym_defect = build_schur(system.div_x, system.div_y,
                                         vel.solve)
    assert sym_defect <= 1e-10
    w = np.linalg.eigvalsh(schur)
    assert w[-1] < 1e-12          # negative semidefinite
    assert np.sum(np.abs(w) < 1e-10) == 1   # exactly one kernel direction
    ones = np.ones(schur.shape[0])
    assert np.abs(schur @ ones).max() < 1e-12


def test_schur_smallest_system():
    mesh = build_mesh(1)
    system = assemble_saddle(mesh, ONE)
    vel = build_velocity_preconditioner(mesh, ONE, "frozen_sparse")
    schur, _, _ = build_schur(system.div_x, system.div_y, vel.solve)
    assert schur.shape == (5, 5)
    assert np.linalg.matrix_rank(schur, tol=1e-10) == 4
    kernel = np.linalg.svd(schur)[2][-1]
    assert np.abs(np.abs(kernel) - 1 / np.sqrt(5)).max() < 1e-10


def test_exact_schur_infsup_interval():
    # with P_A = A the Schur complement eigenvalues relative to the pressure
    # mass lie in a mesh-independent interval (inf-sup stability)
    import scipy.linalg as sla
    intervals = {}
    for n in (4, 8):
        mesh = build_mesh(n)
        system = assemble_saddle(mesh, ONE)
        A = system.stiffness.toarray()
        Ainv = np.linalg.inv(A)
        S = system.div_x.toarray() @ Ainv @ system.div_x.toarray().T \
            + system.div_y.toarray() @ Ainv @ system.div_y.toarray().T
        Mp = system.pressure_mass.toarray()
        w = np.sort(sla.eigh(S, Mp, eigvals_only=True))
        nonzero = w[np.abs(w) > 1e-10 * np.abs(w).max()]
        intervals[n] = (nonzero.min(), nonzero.max())
    lo4, hi4 = intervals[4]
    lo8, hi8 = intervals[8]
    assert lo8 >= lo4 * 0.8 and hi8 <= hi4 * 1.2


def test_apply_shape_check_and_linearity(setup8):
    mesh, mu, system = setup8
    prec = build_saddle_preconditioner(mesh, mu, system, "tau_block")
    with pytest.raises(ValueError):
        prec.apply(np.ones(10))
    rng = np.random.default_rng(2)
    r1 = rng.standard_normal(system.dimension)
    r2 = rng.standard_normal(system.dimension)
    lhs = prec.apply(1.5 * r1 - 2.0 * r2)
    rhs = 1.5 * prec.apply(r1) - 2.0 * prec.apply(r2)
    assert np.abs(lhs - rhs).max() < 1e-12 * max(1.0, np.abs(rhs).max())
    assert np.all(prec.apply(np.zeros(system.dimension)) == 0.0)
    # a (dim, k) block is applied column by column
    block = np.column_stack([r1, r2])
    out = prec.apply(block)
    assert out.shape == block.shape
    cols = np.column_stack([prec.apply(r1), prec.apply(r2)])
    assert np.abs(out - cols).max() < 1e-12 * max(1.0, np.abs(cols).max())
    with pytest.raises(ValueError):
        prec.apply(np.ones((10, 2)))


def test_apply_annihilates_constant_pressure(setup8):
    mesh, mu, system = setup8
    prec = build_saddle_preconditioner(mesh, mu, system, "tau_block")
    out = prec.apply(system.nullspace_vector())
    assert np.abs(out).max() < 1e-12


def test_unknown_strategy_rejected(setup8):
    mesh, mu, system = setup8
    with pytest.raises(ValueError):
        build_velocity_preconditioner(mesh, mu, "circulant")
