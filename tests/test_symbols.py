from fractions import Fraction

import numpy as np
import pytest

from glt_stokes import spectra, symbols
from glt_stokes.assembly import viscosity_for_group
from glt_stokes.glt_core import BlockSymbol
from glt_stokes.symbols import (StokesSymbolSet, build_symbol_set,
                                default_symbol_set, saddle_symbol)

F = Fraction


@pytest.fixture(scope="module")
def syms():
    return build_symbol_set()


def test_construction_self_checks_pass(syms):
    # build_symbol_set runs the Hermitian and zero-row-sum checks
    assert syms.stiffness.hermitian and syms.stiffness_pre.hermitian


def test_hermitian_flags(syms):
    # the flag picks eigenvalues or singular values in spectra.sample_symbol
    flags = {name: syms.by_name(name).hermitian
             for name in StokesSymbolSet.__dataclass_fields__}
    assert flags == {"stiffness_pre": True, "stiffness": True, "g0": True,
                     "g1": False, "div_x": False, "div_x0": False,
                     "div_x1": False, "div_y": False, "div_y0": False,
                     "div_y1": False}


def test_slice_angles(syms):
    # g0, g1 are functions of theta2, the divergence slices of theta1
    assert [StokesSymbolSet.slice_angle(name) for name in
            ("g0", "G1", "div_x0", "div-x1", "div_y0", "div_y1")] == \
        [1, 1, 0, 0, 0, 0]
    for name in ("stiffness", "A", "bx", "div_y"):
        with pytest.raises(KeyError):
            StokesSymbolSet.slice_angle(name)


def test_stiffness_diagonal_entries(syms):
    C0 = syms.stiffness.coefficient((0, 0))
    assert C0[0, 0] == F(16, 3)
    assert C0[2, 2] == F(4)
    assert C0[7, 7] == F(4)
    P0 = syms.stiffness_pre.coefficient((0, 0))
    assert P0[0, 0] == F(8, 3)
    assert P0[2, 2] == F(1)
    assert P0[7, 7] == F(1, 2)


def test_multiplicity_relation_entrywise(syms):
    mult = {F(8, 3): 2, F(-2, 3): 2, F(1, 6): 2, F(1): 4, F(1, 2): 8,
            F(-4, 3): 1}
    for k in syms.stiffness_pre.offsets():
        pre = syms.stiffness_pre.coefficient(k)
        full = syms.stiffness.coefficient(k)
        for idx, v in np.ndenumerate(pre):
            if v != 0:
                assert full[idx] == v * mult[v]


def test_multiplicity_rejects_an_unknown_value():
    # a raw stencil value without a sampling multiplicity fails the build
    raw = BlockSymbol(1, 1, 2, {(0, 0): [[F(5, 7)]]})
    with pytest.raises(KeyError):
        raw.map_entries(symbols._apply_multiplicity)


def test_unilevel_split_exact(syms):
    # stiffness_pre(t1, t2) = g0(t2) + g1(t2) e^{i t1} + g1(t2)* e^{-i t1}
    for k2 in (-1, 0, 1):
        for k1, part in ((0, syms.g0.coefficient((k2,))),
                         (1, syms.g1.coefficient((k2,))),
                         (-1, syms.g1.coefficient((-k2,)).T)):
            assert np.array_equal(part,
                                  syms.stiffness_pre.coefficient((k1, k2)))


def test_kernel_at_zero_exact_rationals(syms):
    total = np.full((8, 8), F(0), dtype=object)
    for k in syms.stiffness.offsets():
        total = total + syms.stiffness.coefficient(k)
    assert all(sum(row) == 0 for row in total)
    # and numerically
    assert np.abs(syms.stiffness.eval(0, 0) @ np.ones(8)).max() < 1e-14


def test_stiffness_symbol_psd_on_random_sample(syms):
    rng = np.random.default_rng(7)
    th = rng.uniform(-np.pi, np.pi, size=(10000, 2))
    vals = syms.stiffness.eval_grid(th)
    assert np.abs(vals - vals.conj().transpose(0, 2, 1)).max() < 1e-12
    w = np.linalg.eigvalsh(vals)
    assert w.min() >= -1e-12


def _weight(mu, x, y):
    return float(mu(np.array([[x, y]]))[0])


def test_eval_stiffness_with_viscosity(syms):
    th = (0.4, -0.9)
    V, D = saddle_symbol(np.array([th]))
    base = syms.stiffness.eval(*th)
    mu = viscosity_for_group(2)
    S = D[0] + _weight(mu, 0.3, 0.8) * V[0]
    w = 0.3 * 0.8 + np.exp(1.1)
    for block in (S[0:8, 0:8], S[8:16, 8:16]):
        assert np.allclose(block, w * base, atol=1e-13)
    # group 2 viscosity is 1 at the origin
    at0 = D[0] + _weight(mu, 0.0, 0.0) * V[0]
    assert np.allclose(at0[0:8, 0:8], base, atol=1e-14)


def test_divergence_symbol_corner_values(syms):
    Gx0, Gy0 = syms.div_x.eval(0.0, 0.0), syms.div_y.eval(0.0, 0.0)
    assert Gx0[0, 0] == pytest.approx(-1 / 6, abs=1e-15)
    Gxp = syms.div_x.eval(np.pi, np.pi)
    assert Gxp[0, 0].real == pytest.approx(-1 / 6, abs=1e-12)
    assert abs(Gxp[0, 0].imag) < 1e-12


def test_divergence_vertex_rows_vanish(syms):
    # center (row 3) and corner (row 8) velocities do not couple pressure
    for sym in (syms.div_x, syms.div_y):
        for k in sym.offsets():
            C = sym.coefficient(k)
            assert all(v == 0 for v in C[2, :])
            assert all(v == 0 for v in C[7, :])


def test_divergence_singular_value_bound(syms):
    rng = np.random.default_rng(11)
    th = rng.uniform(-np.pi, np.pi, size=(10000, 2))
    for sym in (syms.div_x, syms.div_y):
        sv = np.linalg.svd(sym.eval_grid(th), compute_uv=False)
        assert sv.max() <= 2.0


def test_divergence_unilevel_slices(syms):
    # Gx(t1, t2) = gx0(t1) + gx1(t1) e^{-i t2}, exactly
    for full, u0, u1 in ((syms.div_x, syms.div_x0, syms.div_x1),
                         (syms.div_y, syms.div_y0, syms.div_y1)):
        for k2, part in ((0, u0), (-1, u1)):
            for k1 in (0, -1):
                assert np.array_equal(part.coefficient((k1,)),
                                      full.coefficient((k1, k2)))


def test_saddle_symbol_blocks(syms):
    th = np.array([[0.5, 1.1]])
    V, D = saddle_symbol(th)
    S = D[0] + V[0]
    assert np.array_equal(S[0:8, 16:18], syms.div_x.eval_grid(th)[0])
    assert np.array_equal(S[8:16, 16:18], syms.div_y.eval_grid(th)[0])
    assert np.abs(S - S.conj().T).max() < 1e-14


def test_saddle_symbol_singular_velocity_block_at_zero():
    V, D = saddle_symbol(np.zeros((1, 2)))
    w = np.linalg.eigvalsh((D[0] + V[0])[0:16, 0:16])
    assert abs(w[0]) < 1e-13  # the constants direction


def test_saddle_spectrum_symmetric_under_conjugation():
    th = np.array([0.8, -0.3])
    V, D = saddle_symbol(np.array([th, -th]))
    w = _weight(viscosity_for_group(2), 0.2, 0.9)
    w1, w2 = np.linalg.eigvalsh(D + w * V)
    assert np.allclose(w1, w2, atol=1e-12)


def test_symbol_derivative_consistency(syms):
    # finite difference in theta matches the analytic derivative to O(h^2)
    sym = syms.stiffness
    th = np.array([0.7, -0.4])
    analytic = np.zeros((8, 8), dtype=complex)
    for k, C in sym.coeffs.items():
        Cf = np.array([[float(v) for v in row] for row in C])
        analytic += 1j * k[0] * Cf * np.exp(1j * np.dot(k, th))
    errs = []
    for h in (1e-3, 5e-4):
        fd = (sym.eval(th[0] + h, th[1]) - sym.eval(th[0] - h, th[1])) / (2 * h)
        errs.append(np.abs(fd - analytic).max())
    assert errs[0] < 1e-5
    assert errs[1] < errs[0] / 3.0  # roughly O(h^2)


def test_by_name_lookup(syms):
    assert syms.by_name("stiffness") is syms.stiffness
    assert syms.by_name("Bx") is syms.div_x
    with pytest.raises(KeyError):
        syms.by_name("nope")


def test_default_set_cached():
    assert default_symbol_set() is default_symbol_set()


def _full_entry_eval_grid(self, thetas):
    """`BlockSymbol.eval_grid` multiplying and adding every entry of every
    coefficient, zeros included."""
    th = np.atleast_2d(np.asarray(thetas, dtype=float))
    out = np.zeros((len(th), self.s1, self.s2), dtype=complex)
    term = np.empty_like(out)
    for k, m in self.float_coefficients().items():
        phase = np.exp(1j * (th @ np.asarray(k, dtype=float)))
        out += np.multiply(phase[:, None, None], m[None, :, :], out=term)
    return out


def _eval_points():
    """The solved half of a paired midpoint grid, and random points."""
    grid = (1, 1, 36, 35)
    thetas, _ = spectra._midpoint_grid(grid)
    rng = np.random.default_rng(19)
    return [thetas[:spectra.solved_frequency_count(grid)],
            rng.uniform(-np.pi, np.pi, (500, 2))]


@pytest.mark.parametrize("name", list(StokesSymbolSet.__dataclass_fields__))
def test_eval_grid_skips_structural_zeros_bitwise(name):
    symbol = getattr(default_symbol_set(), name)
    for thetas in _eval_points():
        th = thetas[:, :symbol.levels]
        assert np.array_equal(symbol.eval_grid(th),
                              _full_entry_eval_grid(symbol, th))


def test_saddle_symbol_parts_unchanged_by_sparse_eval(monkeypatch):
    for thetas in _eval_points():
        got = saddle_symbol(thetas)
        with monkeypatch.context() as m:
            m.setattr(BlockSymbol, "eval_grid", _full_entry_eval_grid)
            want = saddle_symbol(thetas)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
